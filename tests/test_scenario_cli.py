import json
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from masounder.cfrfile import write_cfr
from masounder.channel import gen_ma_cfr
from masounder.cli import main
from masounder.geometry import Direction, FrequencyGrid, ScanGrid, uv_map
from masounder.scenario import (_SCHEMA, Scenario, ScenarioError, parse_scenario,
                                scenario_from_dict)

from conftest import scenario_path

BUNDLED = ("fig2", "fig4", "fig5", "table1", "table1_small", "table2_mimic")

TINY = {
    "frequency": {"start_hz": 26e9, "stop_hz": 30e9, "points": 24},
    "ura": {"m": 3, "n": 3, "dx_wl": 0.5, "dy_wl": 0.5},
    "ma": {"x": 5, "y": 5, "d_wl": 0.5},
    "paths": [
        {"power_db": 0, "elevation_deg": 60, "azimuth_deg": 120, "delay_ns": 1.0},
        {"power_db": -8, "elevation_deg": 30, "azimuth_deg": 200, "delay_ns": 2.0},
    ],
    "scan": {"theta": [0, 90, 10], "phi": [90, 270, 4]},
    "estimator": {"epsilon_db": 25, "max_iterations": 10, "pad_factor": 2},
    "pattern_lattice": 32,
}


def _write_tiny(tmp_path, overrides=None, **top):
    data = {**json.loads(json.dumps(TINY)), **top}
    if overrides:
        for key, value in overrides.items():
            data[key] = value
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(data))
    return p


def test_bundled_scenarios_parse():
    for name in BUNDLED:
        scenario = parse_scenario(scenario_path(name))
        assert isinstance(scenario, Scenario)


def test_defaults_are_materialized(tmp_path):
    p = tmp_path / "minimal.json"
    p.write_text(json.dumps({
        "frequency": {"start_hz": 26e9, "stop_hz": 30e9, "points": 16},
        "ura": {"m": 3, "n": 3},
    }))
    s = parse_scenario(p)
    assert len(s.paths) == 0
    assert s.scan_theta == (0.0, 90.0, 1.0)
    assert s.scan_phi == (90.0, 270.0, 1.0)
    assert (s.epsilon_db, s.max_iterations, s.pad_factor) == (30.0, 20, 4)
    assert s.gate_db is None and s.taper_sidelobe_db is None
    assert s.snr_db is None and s.steer_uv is None
    assert s.compare_window == "hann"
    assert s.ura.dx_wl == 0.5
    assert s.pattern_lattice == 512


def _assert_round_trip(s):
    """The dump re-parses to s, and the re-parsed scenario dumps the same text."""
    again = scenario_from_dict(s.to_dict())
    assert again == s
    assert json.dumps(again.to_dict()) == json.dumps(s.to_dict())


def test_to_dict_round_trip(tmp_path):
    _assert_round_trip(parse_scenario(_write_tiny(tmp_path, taper={"sidelobe_db": 30},
                                                  steer={"u0": 0.2, "v0": -0.1},
                                                  noise={"snr_db": 25})))


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_to_dict_round_trip(name):
    _assert_round_trip(parse_scenario(scenario_path(name)))


def test_to_dict_is_the_input_with_defaults(tmp_path):
    p = tmp_path / "minimal.json"
    p.write_text(json.dumps({
        "frequency": {"start_hz": 26e9, "stop_hz": 30e9, "points": 401},
        "ma": {"x": 5, "y": 5},
        "paths": [{"power_db": -7.8, "elevation_deg": 60, "azimuth_deg": 120,
                   "delay_ns": 12}],
    }))
    s = parse_scenario(p)
    d = s.to_dict()
    assert d["paths"] == [{"power_db": -7.8, "phase_deg": 0.0, "elevation_deg": 60,
                           "azimuth_deg": 120, "delay_ns": 12}]
    assert d["ura"] is None and d["ma"] == {"x": 5, "y": 5, "d_wl": 0.5}
    assert d["scan"] == {"theta": [0.0, 90.0, 1.0], "phi": [90.0, 270.0, 1.0]}
    schema = repr(_SCHEMA)
    d["scan"]["theta"][0] = 45.0
    d["paths"][0]["delay_ns"] = 3
    d["noise"]["snr_db"] = 10
    assert s.to_dict() == scenario_from_dict(s.to_dict()).to_dict() != d
    assert s.scan_theta == (0.0, 90.0, 1.0) and s.snr_db is None
    assert repr(_SCHEMA) == schema


@pytest.mark.parametrize("breakage,match", [
    ({"frequency": {"start_hz": 26e9}}, "stop_hz"),
    ({"scan": {"theta": [90, 0, 1]}}, "scan.theta"),
    ({"scan": {"phi": [90, 270]}}, "scan.phi"),
    ({"estimator": {"epsilon_db": -3}}, "epsilon_db"),
    ({"estimator": {"max_iterations": 0}}, "max_iterations"),
    ({"taper": {"kind": "taylor", "sidelobe_db": 30}}, "taper kind"),
    ({"pattern_lattice": 1}, "pattern_lattice"),
    ({"paths": [{"power_db": 0, "elevation_deg": 60, "azimuth_deg": 120,
                 "delay_ns": 4.0}]}, "alias"),
    ({"estimator": {"gate_db": -3}}, "estimator.gate_db"),
    ({"estimator": {"epsilon_db": float("nan")}}, "estimator.epsilon_db"),
    ({"estimator": {"pad_factor": 0}}, "estimator.pad_factor"),
    ({"scan": {"theta": [0, float("nan"), 1]}}, "scan.theta"),
    # misspelt keys used to be ignored in favour of the defaults
    ({"noise": {"snr": 10}}, "unknown key noise.snr"),
    ({"estimator": {"epsilon": 20}}, "unknown key estimator.epsilon"),
    ({"paths": [{"power_db": 0, "elevation_deg": 60, "azimuth_deg": 120,
                 "delay_ns": 1.0, "delay": 2.0}]}, r"unknown key paths\[0\]\.delay"),
    ({"patern_lattice": 64}, "unknown key scenario.patern_lattice"),
    # sections that are not objects used to raise AttributeError
    ({"noise": 5}, "noise must be an object"),
    ({"paths": [3]}, r"paths\[0\] must be an object"),
    ({"paths": {"delay_ns": 1.0}}, "paths must be a list"),
    ({"frequency": [26e9, 30e9, 24]}, "frequency must be an object"),
    ({"ura": [3, 3]}, "ura must be an object"),
    # elevations outside [0, 90] scanned mirrored directions or the wrong cut
    ({"scan": {"theta": [0, 120, 10]}}, r"scan\.theta runs from 0 to 120"),
    ({"scan": {"theta": [0, 90, 7]}}, r"scan\.theta runs from 0 to 91"),
    ({"compare": {"theta_deg": 150}}, r"compare\.theta_deg must lie in \[0, 90\]"),
    ({"compare": {"theta_deg": float("nan")}}, r"compare\.theta_deg"),
    ({"paths": [{"elevation_deg": 60, "azimuth_deg": 120}]},
     r"missing field 'delay_ns' in paths\[0\]"),
    # integer fields used to truncate a fraction with int()
    ({"frequency": {"start_hz": 26e9, "stop_hz": 30e9, "points": 24.7}},
     r"frequency\.points must be an integer, not 24\.7"),
    ({"frequency": {"start_hz": 26e9, "stop_hz": 30e9, "points": float("inf")}},
     r"frequency\.points must be an integer, not inf"),
    ({"ura": {"m": True, "n": 3}}, r"ura\.m must be an integer, not True"),
    ({"ura": {"m": 3, "n": 3.5}}, r"ura\.n must be an integer, not 3\.5"),
    ({"ma": {"x": 5.9, "y": 5}}, r"ma\.x must be an integer, not 5\.9"),
    ({"ma": {"x": 5, "y": "5"}}, r"ma\.y must be an integer, not '5'"),
    ({"estimator": {"max_iterations": 2.9}},
     r"estimator\.max_iterations must be an integer, not 2\.9"),
    ({"estimator": {"pad_factor": False}},
     r"estimator\.pad_factor must be an integer, not False"),
    ({"compare": {"min_separation": 6.5}},
     r"compare\.min_separation must be an integer, not 6\.5"),
    ({"pattern_lattice": 32.5}, r"pattern_lattice must be an integer, not 32\.5"),
    ({"estimator": {"max_iterations": float("nan")}},
     r"estimator\.max_iterations must be an integer, not nan"),
    # other number fields used to go through float(), which took booleans,
    # numeric strings and non-finite values
    ({"estimator": {"epsilon_db": True}},
     r"estimator\.epsilon_db must be a finite number, not True"),
    ({"paths": [{"power_db": float("nan"), "elevation_deg": 60, "azimuth_deg": 120,
                 "delay_ns": 1.0}]},
     r"paths\[0\]\.power_db must be a finite number, not nan"),
    ({"paths": [{"elevation_deg": 60, "azimuth_deg": 120, "delay_ns": "12"}]},
     r"paths\[0\]\.delay_ns must be a finite number, not '12'"),
    ({"frequency": {"start_hz": "26e9", "stop_hz": 30e9, "points": 24}},
     r"frequency\.start_hz must be a finite number, not '26e9'"),
    ({"noise": {"snr_db": "10"}}, r"noise\.snr_db must be a finite number, not '10'"),
    ({"ma": {"x": 5, "y": 5, "d_wl": "abc"}},
     r"ma\.d_wl must be a finite number, not 'abc'"),
    ({"ura": {"m": 3, "n": 3, "dy_wl": float("inf")}},
     r"ura\.dy_wl must be a finite number"),
    ({"estimator": {"gate_db": False}}, r"estimator\.gate_db must be a finite number"),
    ({"taper": {"sidelobe_db": [30]}}, r"taper\.sidelobe_db must be a finite number"),
    ({"steer": {"u0": 0.1, "v0": None}}, r"steer\.v0 must be a finite number, not None"),
    ({"compare": {"theta_deg": "90"}}, r"compare\.theta_deg must be a finite number"),
    ({"scan": {"phi": [90, "270", 1]}},
     r"scan\.phi\[1\] must be a finite number, not '270'"),
    ({"scan": {"theta": 5}}, r"scan\.theta must be \[start, stop, positive step\]"),
    # compare settings used to be checked only when compare ran, or never
    ({"compare": {"dynamic_range_db": -5}},
     r"compare\.dynamic_range_db must be > 0, not -5"),
    ({"compare": {"dynamic_range_db": 0}},
     r"compare\.dynamic_range_db must be > 0, not 0"),
    ({"compare": {"dynamic_range_db": float("nan")}},
     r"compare\.dynamic_range_db must be a finite number, not nan"),
    ({"compare": {"window": "hamming"}},
     r"compare\.window must be \"hann\" or null, not 'hamming'"),
    ({"compare": {"window": [1.0] * 24}}, r"compare\.window must be \"hann\" or null"),
    # values the domain types reject, reported as scenario errors
    ({"frequency": {"start_hz": 30e9, "stop_hz": 26e9, "points": 24}},
     "f_stop must exceed f_start"),
    ({"frequency": {"start_hz": 26e9, "stop_hz": 30e9, "points": 1}},
     "at least 2 points"),
    ({"ma": {"x": 4, "y": 5}}, "x_count must be odd and positive"),
    ({"ma": {"x": 5, "y": 5, "d_wl": 0}}, "element spacing must be positive"),
    ({"paths": [{"elevation_deg": 95, "azimuth_deg": 120, "delay_ns": 1.0}]},
     r"elevation must be in \[0, 90\] deg, got 95"),
    ({"paths": [{"elevation_deg": 60, "azimuth_deg": 120, "delay_ns": -1.0}]},
     "path delay must be nonnegative"),
    # a 4k + 3 sub-array would ask for an even taper of (count + 1) / 2
    ({"ma": {"x": 43, "y": 41}, "taper": {"sidelobe_db": 30}},
     r"ma\.x = 43: a tapered MA sub-array needs 4k \+ 1 elements"),
    ({"ma": {"x": 5, "y": 7}, "taper": {"sidelobe_db": 30}},
     r"ma\.y = 7: a tapered MA sub-array needs 4k \+ 1 elements"),
])
def test_scenario_validation_errors(tmp_path, breakage, match):
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(_write_tiny(tmp_path, overrides=breakage))


@pytest.mark.parametrize("overrides,match", [
    ({"scan": {"theta": [0, 90, 10], "phi": [90, 270, 1e-9]}},
     r"scan\.theta x scan\.phi asks for a 26822\.1 GiB scan beam"),
    ({"scan": {"theta": [0, 90, 10], "phi": [0, 1, 5e-324]}},
     r"scan\.theta x scan\.phi asks for a inf GiB scan beam"),
    ({"estimator": {"pad_factor": 10 ** 7}},
     r"frequency\.points x estimator\.pad_factor x scan\.phi asks for a 164\.509 GiB PADP"),
    ({"pattern_lattice": 8193},
     r"pattern_lattice squared asks for a 1\.00024 GiB pattern lattice"),
    ({"ura": {"m": 3, "n": 999_999}},
     r"ura\.m x ura\.n x frequency\.points asks for a 1\.07288 GiB URA CFR"),
    ({"ura": {"m": 3, "n": 150_001}, "scan": {"theta": [0, 90, 10], "phi": [90, 270, 0.1]}},
     r"ura\.n x scan\.phi asks for a 4\.02558 GiB URA steering matrix"),
    ({"ma": {"x": 5, "y": 3_000_001}},
     r"ma\.y x frequency\.points asks for a 1\.07288 GiB MA CFR"),
    ({"ma": {"x": 5, "y": 150_001}, "scan": {"theta": [0, 90, 10], "phi": [90, 270, 0.1]}},
     r"ma\.y x scan\.phi asks for a 4\.02558 GiB MA steering matrix"),
    ({"ura": {"m": 10_001, "n": 1}, "taper": {"sidelobe_db": 30}},
     r"ura\.m squared asks for a 1\.49041 GiB URA taper DFT"),
    ({"ma": {"x": 20_001, "y": 5}, "taper": {"sidelobe_db": 30}},
     r"\(\(ma\.x \+ 1\) / 2\) squared asks for a 1\.49041 GiB MA taper DFT"),
    ({"ura": {"m": 3, "n": 70_001}, "pattern_lattice": 1000},
     r"pattern_lattice x ura\.n asks for a 1\.0431 GiB URA line factor"),
    ({"frequency": {"start_hz": 26e9, "stop_hz": 30e9, "points": 2}, "paths": [],
      "ura": {"m": 50_001, "n": 1}, "ma": {"x": 100_001, "y": 1}, "pattern_lattice": 1000},
     r"pattern_lattice x ma\.x asks for a 1\.49013 GiB MA line factor"),
], ids=["scan-beam", "subnormal-step", "padp", "pattern-lattice", "ura-cfr",
        "ura-steering", "ma-cfr", "ma-steering", "ura-taper", "ma-taper",
        "ura-line-factor", "ma-line-factor"])
def test_oversized_scenarios_are_rejected_before_any_array_exists(tmp_path, overrides,
                                                                 match):
    path = _write_tiny(tmp_path, overrides=overrides)
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError,
                           match=match + "; one array may take at most 1 GiB$"):
            parse_scenario(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_a_scenario_at_the_array_size_limit_parses(tmp_path):
    # 8192 x 8192 complex values take exactly 1 GiB
    scenario = parse_scenario(_write_tiny(tmp_path, pattern_lattice=8192))
    assert scenario.pattern_lattice == 8192


def test_cli_rejects_an_oversized_scan_with_exit_2(tmp_path):
    # np.arange was asked for a 1.31 TiB scan axis, and estimate exited 1
    scenario = json.loads(Path(scenario_path("table1_small")).read_text())
    cfg = tmp_path / "fine_scan.json"
    cfg.write_text(json.dumps({**scenario, "scan": {"theta": [0, 90, 1],
                                                    "phi": [90, 270, 1e-9]}}))
    r = _run(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert r.exit_code == 2
    assert ("error: scan.theta x scan.phi asks for a 244081 GiB scan beam; "
            "one array may take at most 1 GiB") in r.output
    assert not (tmp_path / "out").exists()


def test_integral_float_integer_fields_read(tmp_path):
    s = parse_scenario(_write_tiny(tmp_path, overrides={
        "frequency": {"start_hz": 26e9, "stop_hz": 30e9, "points": 24.0},
        "ura": {"m": 3.0, "n": 3}, "pattern_lattice": 32.0}))
    assert s.freqs.n_points == 24 and s.ura.m_count == 3 and s.pattern_lattice == 32
    assert type(s.pattern_lattice) is int


def test_bad_json_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n "frequency": {,}\n}\n')
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario(p)


def test_non_object_top_level_rejected(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match="object"):
        parse_scenario(p)


def test_taper_helpers(tmp_path):
    s = parse_scenario(_write_tiny(tmp_path, taper={"sidelobe_db": 30}))
    tx, ty = s.ura_taper()
    assert tx.shape == (3,) and ty.shape == (3,)
    mx, my = s.ma_taper()
    assert mx.shape == (5,) and my.shape == (5,)
    wx, wy, wx_ma, wy_ma = s.steered_excitations()
    assert wx_ma.shape == (5,) and wy_ma.shape == (5,)
    plain = parse_scenario(_write_tiny(tmp_path))
    assert plain.ura_taper() is None and plain.ma_taper() is None
    for missing, helper in (("ura", Scenario.ura_taper), ("ma", Scenario.ma_taper)):
        s = parse_scenario(_write_tiny(tmp_path, taper={"sidelobe_db": 30},
                                       **{missing: None}))
        with pytest.raises(ScenarioError, match=f"no {missing.upper()} geometry"):
            helper(s)


def test_scan_grid_shape(tmp_path):
    s = parse_scenario(_write_tiny(tmp_path))
    grid = s.scan_grid()
    assert grid.theta_deg.size == 10 and grid.phi_deg.size == 46


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_cli_full_pipeline(tmp_path):
    cfg = str(_write_tiny(tmp_path))
    out = str(tmp_path / "out")
    r = _run(["synth-pattern", "--config", cfg, "--out", out, "--quiet"])
    assert r.exit_code == 0, r.output
    assert (tmp_path / "out" / "ura_pattern.csv").exists()
    assert (tmp_path / "out" / "ma_pattern.csv").exists()
    assert (tmp_path / "out" / "scenario_normalized.json").exists()

    r = _run(["simulate", "--config", cfg, "--out", out, "--quiet"])
    assert r.exit_code == 0, r.output
    for name in ("ura_cfr.csv", "ma_x_cfr.csv", "ma_y_cfr.csv"):
        assert (tmp_path / "out" / name).exists()

    r = _run(["beamscan", "--config", cfg, "--out", out, "--quiet"])
    assert r.exit_code == 0, r.output
    for name in ("ura_beam.csv", "ura_padp.csv", "ma_beam.csv", "ma_padp.csv"):
        assert (tmp_path / "out" / name).exists()
    header = (tmp_path / "out" / "ma_padp.csv").read_text().splitlines()[0]
    assert header == "azimuth_deg,delay_ns,level_db"

    r = _run(["estimate", "--config", cfg, "--out", out, "--quiet"])
    assert r.exit_code == 0, r.output
    lines = (tmp_path / "out" / "paths.csv").read_text().splitlines()
    assert lines[0] == \
        "iteration,power_db,delay_ns,elevation_deg,azimuth_deg,stop_reason"
    assert len(lines) >= 3  # both paths recovered
    assert (tmp_path / "out" / "ma_padp_iter0.csv").exists()

    r = _run(["compare", "--config", cfg, "--out", out, "--quiet"])
    assert r.exit_code == 0, r.output
    lines = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("path,ura_delay_ns,")


def test_cli_compare_pairs_paths_across_zero_azimuth(tmp_path):
    """A scan across 0 deg: the URA peaks at -10 deg where the MA reports
    350 deg. Rows pair, errors count the short way round the circle, and
    both azimuth columns read in [0, 360)."""
    with open(scenario_path("table2_mimic")) as fh:
        data = json.load(fh)
    data["scan"]["phi"] = [-90, 90, 1]
    data["paths"] = [
        {"power_db": 0.0, "elevation_deg": 90, "azimuth_deg": 350, "delay_ns": 14.0},
        {"power_db": -6.0, "elevation_deg": 90, "azimuth_deg": 20, "delay_ns": 20.0}]
    cfg = tmp_path / "wrap.json"
    cfg.write_text(json.dumps(data))
    r = _run(["compare", "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
    assert r.exit_code == 0, r.output
    rows = [[float(v) for v in line.split(",")] for line in
            (tmp_path / "comparison.csv").read_text().splitlines()[1:]]
    assert [(row[2], row[5]) for row in rows] == [(350.0, 350.0), (20.0, 20.0)]
    for row in rows:
        err_delay_ns, err_azimuth_deg = row[7], row[8]
        assert abs(err_delay_ns) < 0.05 and err_azimuth_deg == 0.0


def test_cli_padp_azimuths_lie_in_0_360(tmp_path):
    """A scan over phi in [-90, 90] writes each PADP azimuth in [0, 360), the
    azimuth paths.csv gives the same path."""
    scan = {"theta": [0, 90, 10], "phi": [-90, 90, 1]}
    path = {"power_db": 0, "elevation_deg": 60, "azimuth_deg": 350, "delay_ns": 1.0}
    cfg = str(_write_tiny(tmp_path, {"scan": scan, "paths": [path]}))
    out = tmp_path / "out"
    for args in (["simulate"], ["beamscan", "--theta", "60"], ["estimate"]):
        r = _run(args + ["--config", cfg, "--out", str(out), "--quiet"])
        assert r.exit_code == 0, r.output
    assert (out / "paths.csv").read_text().splitlines()[1].split(",")[4] == "350"
    for name in ("ma_padp.csv", "ura_padp.csv", "ma_padp_iter0.csv"):
        rows = [[float(v) for v in line.split(",")]
                for line in (out / name).read_text().splitlines()[1:]]
        azimuths = {row[0] for row in rows}
        assert azimuths == {phi % 360.0 for phi in range(-90, 91)}, name
        assert max(rows, key=lambda row: row[2])[0] == 350.0, name


@pytest.mark.parametrize("phi", [[-28, 28, 0.7], [-90, 90, 0.1]])
def test_cli_estimate_reports_a_path_at_0_azimuth_as_0(tmp_path, phi):
    """np.arange put the 0 deg column of these scans at -2.8e-14 and
    -5.1e-12 deg. The first made estimate exit 2 (azimuth 360.0), the second
    wrote the path at 360 in paths.csv and in every PADP row of its column."""
    with open(scenario_path("table1_small")) as fh:
        data = json.load(fh)
    data["scan"]["phi"] = phi
    data["paths"] = [{"power_db": 0, "elevation_deg": 60, "azimuth_deg": 0,
                      "delay_ns": 12}]
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    for command in ("simulate", "estimate"):
        r = _run([command, "--config", str(cfg), "--out", str(out), "--quiet"])
        assert r.exit_code == 0, r.output
    assert (out / "paths.csv").read_text().splitlines()[1].split(",")[4] == "0"
    padp = (out / "ma_padp_iter0.csv").read_text()
    assert "\n360," not in padp and "\n0," in padp


def test_cli_writes_an_azimuth_just_below_0_as_0(tmp_path, monkeypatch):
    """A scan column at -1e-14 deg, which % 360 takes to 360.0, reads 0 in
    the PADPs, paths.csv and comparison.csv, and its beam rows sit at v = 0."""
    phi = np.array([-40.0, -20.0, -1e-14, 20.0, 40.0])
    grid = ScanGrid(np.arange(0.0, 91.0, 10.0), phi)
    monkeypatch.setattr(Scenario, "scan_grid", lambda self: grid)
    path = {"power_db": 0, "elevation_deg": 60, "azimuth_deg": 0, "delay_ns": 1.0}
    cfg = str(_write_tiny(tmp_path, {"paths": [path], "compare": {"theta_deg": 60}}))
    out = tmp_path / "out"
    for args in (["simulate"], ["beamscan"], ["estimate"], ["compare"]):
        r = _run(args + ["--config", cfg, "--out", str(out), "--quiet"])
        assert r.exit_code == 0, r.output
    for name in ("ma_padp.csv", "ura_padp.csv", "ma_padp_iter0.csv"):
        azimuths = {line.split(",")[0] for line in
                    (out / name).read_text().splitlines()[1:]}
        assert azimuths == {"320", "340", "0", "20", "40"}, name
    for name in ("ma_beam.csv", "ura_beam.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert {row.split(",")[1] for row in rows[2::5]} == {"0"}, name
    assert (out / "paths.csv").read_text().splitlines()[1].split(",")[4] == "0"
    row = (out / "comparison.csv").read_text().splitlines()[1].split(",")
    assert (row[2], row[5]) == ("0", "0")


def _ura_only_mimic(tmp_path, delay_ns):
    """table2_mimic without its MA, 1/df = 374.5 ns, and a second path at
    delay_ns: past the 187.25 ns an MA sounding of this sweep could hold."""
    with open(scenario_path("table2_mimic")) as fh:
        data = json.load(fh)
    del data["ma"]
    data["paths"] = [data["paths"][0], {"power_db": -6.0, "elevation_deg": 90,
                                        "azimuth_deg": 150, "delay_ns": delay_ns}]
    cfg = tmp_path / f"ura_{delay_ns:g}.json"
    cfg.write_text(json.dumps(data))
    return str(cfg)


def test_cli_ura_sounds_delays_past_the_ma_range(tmp_path):
    cfg, out = _ura_only_mimic(tmp_path, 200.0), str(tmp_path / "out")
    r = _run(["simulate", "--config", cfg, "--out", out, "--quiet"])
    assert r.exit_code == 0, r.output
    r = _run(["beamscan", "--config", cfg, "--out", out, "--quiet", "--theta", "90"])
    assert r.exit_code == 0, r.output
    lines = (tmp_path / "out" / "ura_padp.csv").read_text().splitlines()[1:]
    column = [[float(v) for v in line.split(",")] for line in lines
              if line.startswith("150,")]
    late = max((row for row in column if 190.0 < row[1] < 210.0), key=lambda row: row[2])
    assert late[1] == pytest.approx(199.983, abs=5e-4)
    assert late[2] == pytest.approx(-6.0, abs=0.05)


def test_cli_ura_delay_past_its_range_exits_2_at_parse(tmp_path):
    out = tmp_path / "out"
    r = CliRunner().invoke(main, ["simulate", "--config", _ura_only_mimic(tmp_path, 400.0),
                                  "--out", str(out)])
    assert r.exit_code == 2
    assert ("path delay 400.000 ns exceeds the unambiguous range (374.500 ns); "
            "URA delays would alias") in r.output
    assert not (out / "scenario_normalized.json").exists()


def test_cli_compare_draws_the_noise_of_simulate(tmp_path):
    """compare --seed k adds to the MA the noise that simulate --seed k writes,
    so its MA columns are the paths estimate finds in those files."""
    with open(scenario_path("table2_mimic")) as fh:
        data = json.load(fh)
    data["noise"] = {"snr_db": 20}
    cfg = tmp_path / "noisy.json"
    cfg.write_text(json.dumps(data))
    sounding, compared = str(tmp_path / "sounding"), str(tmp_path / "compared")
    for args in (["simulate", "--seed", "3", "--out", sounding],
                 ["estimate", "--out", sounding],
                 ["compare", "--seed", "3", "--out", compared]):
        r = _run(args + ["--config", str(cfg), "--quiet"])
        assert r.exit_code == 0, r.output
    estimated = [line.split(",") for line in
                 (tmp_path / "sounding" / "paths.csv").read_text().splitlines()[1:]]
    rows = [line.split(",") for line in
            (tmp_path / "compared" / "comparison.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(data["paths"])
    assert (sorted((row[4], row[5], row[6]) for row in rows)
            == sorted((row[2], row[4], row[1]) for row in estimated))


def test_cli_outputs_are_deterministic(tmp_path):
    cfg = str(_write_tiny(tmp_path, noise={"snr_db": 30}))
    texts = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert _run(["simulate", "--config", cfg, "--out", out,
                     "--seed", "5", "--quiet"]).exit_code == 0
        assert _run(["estimate", "--config", cfg, "--out", out,
                     "--quiet"]).exit_code == 0
        texts.append(((tmp_path / sub / "ma_x_cfr.csv").read_text(),
                      (tmp_path / sub / "paths.csv").read_text()))
    assert texts[0] == texts[1]


def test_cli_simulate_from_normalized_dump_writes_the_same_cfrs(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert _run(["simulate", "--config", str(scenario_path("table1_small")),
                 "--out", str(first), "--quiet"]).exit_code == 0
    assert _run(["simulate", "--config", str(first / "scenario_normalized.json"),
                 "--out", str(second), "--quiet"]).exit_code == 0
    for name in ("ma_x_cfr.csv", "ma_y_cfr.csv", "scenario_normalized.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def test_cli_bad_config_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    r = CliRunner().invoke(main, ["simulate", "--config", str(p),
                                  "--out", str(tmp_path / "o")])
    assert r.exit_code == 2


def test_cli_unknown_scenario_key_exits_2(tmp_path):
    cfg = str(_write_tiny(tmp_path, noise={"snr": 10}))
    r = CliRunner().invoke(main, ["simulate", "--config", cfg,
                                  "--out", str(tmp_path / "o")])
    assert r.exit_code == 2
    assert "unknown key noise.snr" in r.output
    assert not (tmp_path / "o" / "ma_x_cfr.csv").exists()


def test_cli_fractional_integer_field_exits_2(tmp_path):
    cfg = str(_write_tiny(tmp_path, ma={"x": 5.9, "y": 5, "d_wl": 0.5}))
    r = CliRunner().invoke(main, ["simulate", "--config", cfg,
                                  "--out", str(tmp_path / "o")])
    assert r.exit_code == 2
    assert "ma.x must be an integer, not 5.9" in r.output
    assert not (tmp_path / "o" / "ma_x_cfr.csv").exists()


def test_cli_estimate_boolean_number_field_exits_2(tmp_path):
    out = tmp_path / "out"
    assert _run(["simulate", "--config", str(_write_tiny(tmp_path)),
                 "--out", str(out), "--quiet"]).exit_code == 0
    cfg = str(_write_tiny(tmp_path, estimator={"epsilon_db": True}))
    r = CliRunner().invoke(main, ["estimate", "--config", cfg, "--out", str(out)])
    assert r.exit_code == 2
    assert "estimator.epsilon_db must be a finite number, not True" in r.output
    assert not (out / "paths.csv").exists()


def test_cli_estimate_without_cfrs_exits_4(tmp_path):
    cfg = str(_write_tiny(tmp_path))
    r = CliRunner().invoke(main, ["estimate", "--config", cfg,
                                  "--out", str(tmp_path / "empty")])
    assert r.exit_code == 4
    assert "not found" in r.output


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_cli_estimate_cfr_pipe_exits_4(tmp_path):
    """A pipe has no size to bound its rows by, so reading it is an I/O
    failure, although io.UnsupportedOperation is a ValueError too."""
    cfg = str(_write_tiny(tmp_path))
    out = tmp_path / "out"
    assert _run(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]).exit_code == 0
    cfr_file = out / "ma_x_cfr.csv"
    text = cfr_file.read_bytes()
    cfr_file.unlink()
    os.mkfifo(cfr_file)

    def feed():
        try:
            cfr_file.write_bytes(text)
        except BrokenPipeError:  # the reader may close first
            pass
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        r = CliRunner().invoke(main, ["estimate", "--config", cfg, "--out", str(out)])
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert r.exit_code == 4
    assert "not seekable" in r.output


def test_cli_beamscan_without_cfrs_exits_4(tmp_path):
    cfg = str(_write_tiny(tmp_path))
    r = CliRunner().invoke(main, ["beamscan", "--config", cfg,
                                  "--out", str(tmp_path / "empty")])
    assert r.exit_code == 4


def test_cli_synth_pattern_needs_ura(tmp_path):
    cfg = str(_write_tiny(tmp_path, overrides={"ura": None}))
    r = CliRunner().invoke(main, ["synth-pattern", "--config", cfg,
                                  "--out", str(tmp_path / "o")])
    assert r.exit_code == 2


def test_cli_estimate_non_finite_cfr_exits_2(tmp_path):
    cfg = str(_write_tiny(tmp_path))
    out = tmp_path / "out"
    assert _run(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]).exit_code == 0
    cfr_file = out / "ma_x_cfr.csv"
    lines = cfr_file.read_text().splitlines()
    m, n, l, _, _ = lines[-1].split(",")
    lines[-1] = f"{m},{n},{l},nan,0"
    cfr_file.write_text("\n".join(lines) + "\n")
    r = CliRunner().invoke(main, ["estimate", "--config", cfg, "--out", str(out)])
    assert r.exit_code == 2
    assert "non-finite" in r.output


def test_cli_beamscan_non_finite_cfr_exits_2(tmp_path):
    cfg = str(_write_tiny(tmp_path))
    out = tmp_path / "out"
    assert _run(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]).exit_code == 0
    cfr_file = out / "ma_x_cfr.csv"
    lines = cfr_file.read_text().splitlines()
    m, n, l, _, _ = lines[-1].split(",")
    lines[-1] = f"{m},{n},{l},nan,0"
    cfr_file.write_text("\n".join(lines) + "\n")
    r = CliRunner().invoke(main, ["beamscan", "--config", cfg, "--out", str(out)])
    assert r.exit_code == 2
    assert "non-finite" in r.output
    assert not (out / "ma_padp.csv").exists()


@pytest.mark.parametrize("theta", ["nan", "150", "-1"])
def test_cli_beamscan_cut_elevation_outside_0_90_exits_2(tmp_path, theta):
    cfg = str(_write_tiny(tmp_path, overrides={"ura": None}))
    out = tmp_path / "out"
    assert _run(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]).exit_code == 0
    r = CliRunner().invoke(main, ["beamscan", "--config", cfg, "--out", str(out),
                                  "--theta", theta])
    assert r.exit_code == 2
    assert "PADP cut elevation must lie in [0, 90]" in r.output
    assert not list(out.glob("*_beam.csv")) + list(out.glob("*_padp.csv"))


def test_cli_synth_pattern_writes_no_pattern_when_the_ma_pattern_fails(tmp_path):
    # a 3 x 3 URA's excitations auto-convolve to 5 elements, not table1_small's 41
    scenario = json.loads(Path(scenario_path("table1_small")).read_text())
    cfg = tmp_path / "mismatched.json"
    cfg.write_text(json.dumps({**scenario, "ura": {"m": 3, "n": 3}}))
    out = tmp_path / "out"
    r = CliRunner().invoke(main, ["synth-pattern", "--config", str(cfg), "--out", str(out)])
    assert r.exit_code == 2
    assert "excitation lengths must match the MA geometry" in r.output
    assert not list(out.glob("*_pattern.csv"))


def test_cli_estimate_bad_gate_exits_2(tmp_path):
    out = tmp_path / "out"
    assert _run(["simulate", "--config", str(_write_tiny(tmp_path)),
                 "--out", str(out), "--quiet"]).exit_code == 0
    cfg = str(_write_tiny(tmp_path, estimator={"gate_db": -3}))
    r = CliRunner().invoke(main, ["estimate", "--config", cfg, "--out", str(out)])
    assert r.exit_code == 2
    assert "gate_db" in r.output
    assert not (out / "paths.csv").exists()


def test_cli_beamscan_mismatched_sub_arrays_exit_2(tmp_path):
    cfg = str(_write_tiny(tmp_path))
    out = tmp_path / "out"
    assert _run(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]).exit_code == 0
    scenario = parse_scenario(cfg)
    # The same channel on ma_y, swept 1 GHz higher than ma_x.
    shifted = FrequencyGrid(27e9, 31e9, scenario.freqs.n_points)
    _, ma_y = gen_ma_cfr(scenario.paths, scenario.ma, shifted)
    write_cfr(out / "ma_y_cfr.csv", ma_y)
    r = CliRunner().invoke(main, ["beamscan", "--config", cfg, "--out", str(out)])
    assert r.exit_code == 2
    assert "must share freqs" in r.output
    assert not (out / "ma_beam.csv").exists()


def test_cli_beam_csv_cosines_match_uv_map(tmp_path):
    cfg = str(_write_tiny(tmp_path))
    out = tmp_path / "out"
    for cmd in ("simulate", "beamscan"):
        assert _run([cmd, "--config", cfg, "--out", str(out), "--quiet"]).exit_code == 0
    rows = [line.split(",")[:2]
            for line in (out / "ma_beam.csv").read_text().splitlines()[1:]]
    grid = parse_scenario(cfg).scan_grid()
    expect = []
    for theta in grid.theta_deg:
        for phi in grid.phi_deg:
            uv = uv_map(Direction(float(theta), float(phi) % 360.0))
            expect.append([f"{uv.u:.9g}", f"{uv.v:.9g}"])
    assert rows == expect
