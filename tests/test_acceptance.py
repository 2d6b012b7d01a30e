"""End-to-end acceptance checks at pinned tolerances.

Each test prints exactly one [PASS]/[FAIL] line for its criterion. Run with
`pytest -s tests/test_acceptance.py` to see the lines for passing tests too.
"""

import ast
import re
import time
from pathlib import Path

import numpy as np

from masounder.beamform import (cbf_ma, cbf_ma_uv, find_peaks, padp_ma,
                                padp_ura)
from masounder.channel import gen_ma_cfr, gen_ura_cfr
from masounder.compare import compare_arrays
from masounder.geometry import (Direction, PathComponent, UvPoint, uv_map,
                                uv_unmap)
from masounder.patterns import ma_power_pattern, ura_power_pattern
from masounder.scenario import parse_scenario
from masounder.sic import EstimatorConfig, run_sic, subtract_path

from conftest import scenario_path


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_pattern_equivalence():
    """Steered, tapered URA and MA power patterns agree to < 1e-6 dB."""
    start = time.perf_counter()
    s = parse_scenario(scenario_path("fig2"))
    wx, wy, wx_ma, wy_ma = s.steered_excitations()
    axis = np.linspace(-1.0, 1.0, s.pattern_lattice)
    ura_pat = ura_power_pattern(wx, wy, s.ura, axis, axis)
    ma_pat = ma_power_pattern(wx_ma, wy_ma, s.ma, axis, axis)
    deviation = float(np.max(np.abs(ura_pat.level_db() - ma_pat.level_db())))
    elapsed = time.perf_counter() - start
    _report("pattern-equivalence",
            deviation < 1e-6 and elapsed < 10.0,
            f"max deviation {deviation:.3e} dB in {elapsed:.2f} s")


def test_criterion_ma_beam_cross_products():
    """Two paths produce exactly four MA beam maxima: the two true
    directions plus two cross products at the mixed coordinates, with the
    cross products at the average of the two path levels."""
    start = time.perf_counter()
    s = parse_scenario(scenario_path("fig4"))
    cx, cy = gen_ma_cfr(s.paths, s.ma, s.freqs)
    axis = np.linspace(0.0, 1.0, 401)
    beam = cbf_ma_uv(cx, cy, axis, axis, s.freqs.f_center_hz,
                     taper=s.ma_taper())
    peaks = find_peaks(beam, 14.0, min_separation=5)
    elapsed = time.perf_counter() - start
    got = {(round(p.u, 2), round(p.v, 2)): p.level_db - peaks[0].level_db
           for p in peaks}
    expected = {(0.15, 0.85): 0.0, (0.93, 0.34): -12.0,
                (0.15, 0.34): -6.0, (0.93, 0.85): -6.0}
    ok = (len(peaks) == 4 and set(got) == set(expected)
          and all(abs(got[k] - expected[k]) <= 0.5 for k in expected)
          and elapsed < 10.0)
    _report("ma-beam-cross-products", ok,
            f"{len(peaks)} maxima {sorted(got)} in {elapsed:.2f} s")


def test_criterion_angle_delay_profiles():
    """URA profile resolves the two paths at their delays; the MA profile
    shows them at doubled delay plus a summed-delay artifact midway, 3 dB
    above the average of the parents because the terms add coherently."""
    start = time.perf_counter()
    s = parse_scenario(scenario_path("fig5"))
    grid = s.scan_grid()
    bin_ns = 1e9 / (s.freqs.n_points * s.pad_factor * s.freqs.spacing_hz)

    ura_cfr = gen_ura_cfr(s.paths, s.ura, s.freqs)
    up = padp_ura(ura_cfr, s.compare_theta_deg, grid.phi_deg, s.pad_factor,
                  window=s.compare_window)
    upk = find_peaks(up, 13.0, min_separation=6)
    ura_ok = (len(upk) == 2
              and abs(upk[0].delay_s * 1e9 - 15.0) <= bin_ns
              and abs(upk[1].delay_s * 1e9 - 20.0) <= bin_ns
              and abs((upk[1].level_db - upk[0].level_db) + 12.0) <= 0.5
              and all(p.phi_deg == 180.0 for p in upk))

    mx, my = gen_ma_cfr(s.paths, s.ma, s.freqs)
    mp = padp_ma(mx, my, s.compare_theta_deg, np.array([180.0]), s.pad_factor,
                 window=s.compare_window)
    mpk = find_peaks(mp, 13.0, min_separation=6)
    ma_delays = [p.delay_s * 1e9 for p in mpk]
    ma_levels = [p.level_db - mpk[0].level_db for p in mpk]
    ma_ok = (len(mpk) == 3
             and all(abs(d - e) <= bin_ns
                     for d, e in zip(ma_delays, (30.0, 35.0, 40.0)))
             and abs(ma_levels[1] + 3.0) <= 0.5
             and abs(ma_levels[2] + 12.0) <= 0.5)
    elapsed = time.perf_counter() - start
    _report("angle-delay-profiles", ura_ok and ma_ok and elapsed < 30.0,
            f"ura delays {[round(p.delay_s * 1e9, 2) for p in upk]} ns, "
            f"ma delays {[round(d, 2) for d in ma_delays]} ns "
            f"levels {[round(l, 2) for l in ma_levels]} dB in {elapsed:.2f} s")


def _sic_recovery_ok(scenario_name):
    start = time.perf_counter()
    s = parse_scenario(scenario_path(scenario_name))
    cx, cy = gen_ma_cfr(s.paths, s.ma, s.freqs)
    report = run_sic(cx, cy, s.estimator_config())
    elapsed = time.perf_counter() - start
    ok = len(report.paths) == 3 and report.stop_reason == "dynamic-range"
    if ok:
        est = sorted(report.paths, key=lambda p: -abs(p.amplitude))
        true = sorted(s.paths, key=lambda p: -abs(p.amplitude))
        for e, t in zip(est, true):
            ok = ok and abs(e.direction.theta_deg - t.direction.theta_deg) <= 1.0
            ok = ok and abs(e.direction.phi_deg - t.direction.phi_deg) <= 1.0
            ok = ok and abs(e.delay_s - t.delay_s) <= 0.25e-9
            ok = ok and abs(e.amplitude_db - t.power_db) <= 0.5
    return ok, len(report.paths), report.stop_reason, elapsed


def test_criterion_sic_recovery():
    """The cancellation estimator recovers exactly the three configured
    paths, on both the full-size and the scaled-down MA sounding."""
    full_ok, full_n, full_stop, full_t = _sic_recovery_ok("table1")
    small_ok, small_n, small_stop, small_t = _sic_recovery_ok("table1_small")
    ok = full_ok and full_t < 300.0 and small_ok and small_t < 20.0
    _report("sic-recovery", ok,
            f"full: {full_n} paths, stop {full_stop}, {full_t:.1f} s; "
            f"scaled: {small_n} paths, stop {small_stop}, {small_t:.1f} s")


def test_criterion_sic_residual_structure():
    """After the strongest path is cancelled, its cross products vanish with
    it: the residual beam holds exactly the four terms of the two remaining
    paths."""
    start = time.perf_counter()
    s = parse_scenario(scenario_path("table1_small"))
    cx, cy = gen_ma_cfr(s.paths, s.ma, s.freqs)
    report = run_sic(cx, cy, EstimatorConfig(s.scan_grid(),
                                             epsilon_db=s.epsilon_db,
                                             max_iterations=1))
    first = report.paths[0]
    path = PathComponent(first.amplitude, first.direction, first.delay_s)
    rx, ry = subtract_path(cx, path), subtract_path(cy, path)
    beam = cbf_ma(rx, ry, s.scan_grid(), s.freqs.f_center_hz)
    peaks = find_peaks(beam, 6.0, min_separation=5)
    elapsed = time.perf_counter() - start
    got = {(p.theta_deg, p.phi_deg) for p in peaks}
    dir_a = Direction(30.0, 140.0)
    dir_b = Direction(80.0, 220.0)
    cross_ab = uv_unmap(UvPoint(uv_map(dir_a).u, uv_map(dir_b).v))
    cross_ba = uv_unmap(UvPoint(uv_map(dir_b).u, uv_map(dir_a).v))
    expected = [(d.theta_deg, d.phi_deg)
                for d in (dir_a, dir_b, cross_ab, cross_ba)]
    coords_ok = all(
        any(abs(t - et) <= 1.5 and abs(p - ep) <= 1.5 for t, p in got)
        for et, ep in expected)
    ok = len(peaks) == 4 and coords_ok and elapsed < 20.0
    _report("sic-residual-structure", ok,
            f"{len(peaks)} residual maxima at {sorted(got)} in {elapsed:.1f} s")


def test_criterion_array_comparison():
    """URA reference processing and MA estimation agree path by path on a
    six-path azimuthal channel."""
    start = time.perf_counter()
    s = parse_scenario(scenario_path("table2_mimic"))
    result = compare_arrays(s)
    elapsed = time.perf_counter() - start
    ok = result.ura_count == 6 and result.ma_count == 6 and len(result.rows) == 6
    worst = (0.0, 0.0, 0.0)
    for row in result.rows:
        ed, ea, ep = row.errors
        worst = tuple(max(w, abs(e)) for w, e in zip(worst, (ed, ea, ep)))
        ok = ok and abs(ed) <= 0.5 and abs(ea) <= 1.0 and abs(ep) <= 1.0
    _report("array-comparison", ok and elapsed < 60.0,
            f"{result.ura_count} vs {result.ma_count} paths, worst errors "
            f"{worst[0]:.3f} ns / {worst[1]:.2f} deg / {worst[2]:.2f} dB "
            f"in {elapsed:.1f} s")


def test_criterion_property_suite_coverage():
    """Every randomized property suite runs at least 200 examples."""
    source = (Path(__file__).parent / "test_properties.py").read_text()
    match = re.search(r"settings\(max_examples=(\d+)", source)
    examples = int(match.group(1)) if match else 0
    tree = ast.parse(source)
    suites = sum(
        1 for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(
            (isinstance(d, ast.Name) and d.id == "SUITE")
            for d in node.decorator_list))
    _report("property-suite-coverage",
            examples >= 200 and suites >= 7,
            f"{suites} suites at {examples} examples each")
