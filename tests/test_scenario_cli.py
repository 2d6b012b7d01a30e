import json

import pytest
from click.testing import CliRunner

from masounder.cfrfile import write_cfr
from masounder.channel import PathSet, gen_ma_cfr
from masounder.cli import main
from masounder.geometry import Direction, FrequencyGrid, uv_map
from masounder.scenario import (Scenario, ScenarioError, parse_scenario,
                                scenario_from_dict)

from conftest import scenario_path

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
    for name in ("fig2", "fig4", "fig5", "table1", "table1_small",
                 "table2_mimic"):
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


def test_to_dict_round_trip(tmp_path):
    s = parse_scenario(_write_tiny(tmp_path, taper={"sidelobe_db": 30},
                                   steer={"u0": 0.2, "v0": -0.1},
                                   noise={"snr_db": 25}))
    again = scenario_from_dict(s.to_dict())
    assert again == s


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
])
def test_scenario_validation_errors(tmp_path, breakage, match):
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(_write_tiny(tmp_path, overrides=breakage))


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


def test_cli_estimate_without_cfrs_exits_4(tmp_path):
    cfg = str(_write_tiny(tmp_path))
    r = CliRunner().invoke(main, ["estimate", "--config", cfg,
                                  "--out", str(tmp_path / "empty")])
    assert r.exit_code == 4
    assert "not found" in r.output


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
    assert not (out / "ma_padp.csv").exists()


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
    _, ma_y = gen_ma_cfr(PathSet(scenario.paths), scenario.ma, shifted)
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
