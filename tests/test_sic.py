import dataclasses
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from masounder.beamform import (BeamPattern, NoPeakError, cbf_ma, cbf_ma_uv,
                                cfr_to_cir, cir_to_cfr, line_spectrum, padp_ma)
from masounder.channel import add_noise, gen_ma_cfr
from masounder.geometry import (Direction, FrequencyGrid, MaGeometry,
                                PathComponent, ScanGrid, uv_map)
from masounder import sic
from masounder.scenario import parse_scenario
from masounder.sic import (EstimatorConfig, build_label_vector,
                           detect_strongest, estimate_power, extract_path_cir,
                           refine_delay, run_sic, subtract_path)

from conftest import scenario_path

FREQS = FrequencyGrid(26e9, 30e9, 48)
GEO = MaGeometry(9, 9, 0.5)
SCAN = ScanGrid(np.arange(0.0, 91.0, 5.0), np.arange(90.0, 271.0, 2.0))

THREE_PATHS = [
    PathComponent.from_power_db(0, 60, 120, 2.0),
    PathComponent.from_power_db(-10, 30, 140, 4.0),
    PathComponent.from_power_db(-15, 80, 220, 2.2),
]


def test_detect_strongest_and_tie_breaks():
    values = np.zeros((3, 4), complex)
    values[1, 2] = 0.8
    beam = BeamPattern(values, np.array([50.0, 60.0, 70.0]),
                       np.array([100.0, 110.0, 120.0, 130.0]), 28e9, "ma")
    assert detect_strongest(beam) == Direction(60.0, 120.0)
    values[2, 1] = 0.8  # tie: lower phi wins
    assert detect_strongest(beam) == Direction(70.0, 110.0)
    with pytest.raises(NoPeakError):
        detect_strongest(BeamPattern(np.zeros((2, 2), complex),
                                     np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                                     28e9, "ma"))
    # -1e-14 % 360 is 360.0, which Direction rejects
    beam = BeamPattern(values, beam.theta_deg, np.array([-10.0, -1e-14, 10.0, 20.0]),
                       28e9, "ma")
    assert detect_strongest(beam) == Direction(70.0, 0.0)


def test_build_label_vector_threshold():
    cir = np.array([0.001, 0.5, 1.0, 0.009, 0.011])
    gate = build_label_vector(cir, 40.0)  # threshold 0.01
    assert gate.tolist() == [False, True, True, False, True]
    # one 1-D gate serves every element, so 2-D responses are rejected
    with pytest.raises(ValueError, match="1-D"):
        build_label_vector(np.vstack([cir, cir]), 40.0)
    with pytest.raises(NoPeakError):
        build_label_vector(np.zeros(8), 30.0)


def test_extract_path_cir_gates_bins():
    cir = np.arange(12, dtype=complex).reshape(3, 4)
    gate = np.array([True, False, False, True])
    out = extract_path_cir(cir, gate)
    np.testing.assert_array_equal(out[:, 1:3], 0)
    np.testing.assert_array_equal(out[:, 0], cir[:, 0])
    with pytest.raises(ValueError):
        extract_path_cir(cir, np.array([True, False]))


def _single_path_cfrs(path):
    return gen_ma_cfr([path], GEO, FREQS)


def _spectra(cx, cy, theta, phi):
    """The two line spectra steered at the direction (theta, phi)."""
    uv = uv_map(Direction(theta, phi))
    return line_spectrum(cx, uv.u), line_spectrum(cy, uv.v)


def _kernel(freqs, tau, pad_factor=4):
    """Delay response of a unit path at delay tau."""
    return cfr_to_cir(np.exp(-2j * np.pi * freqs.points * tau), freqs, pad_factor)


def _gate(freqs, tau, pad_factor=4, gate_db=30.0):
    return build_label_vector(_kernel(freqs, tau, pad_factor), gate_db)


def _gated(values, gate, freqs, pad_factor=4):
    """Gate the delay response of every row (element) of values."""
    return cir_to_cfr(extract_path_cir(cfr_to_cir(values, freqs, pad_factor), gate),
                      freqs, pad_factor)


def test_line_spectrum_of_gated_cfr_is_gated_line_spectrum(rng):
    # beamforming is linear and the gate is the same for every element, so
    # gating each element then steering equals steering then gating
    re, im = rng.normal(size=(2, GEO.x_count, FREQS.n_points))
    cx, _ = _single_path_cfrs(THREE_PATHS[0])
    cx = cx.with_values(re + 1j * im)
    gate = _gate(FREQS, 2.0e-9)
    for u in (0.0, 0.37, -0.81):
        per_element = line_spectrum(cx.with_values(_gated(cx.values, gate, FREQS)), u)
        steered = _gated(line_spectrum(cx, u), gate, FREQS)
        np.testing.assert_allclose(steered, per_element,
                                   rtol=1e-12, atol=1e-12 * np.abs(per_element).max())


def test_refine_delay_recovers_off_bin_delay():
    # deliberately between delay bins of the padded axis
    true_tau = 2.0037e-9
    path = PathComponent.from_power_db(0, 60, 120, true_tau * 1e9)
    cx, cy = _single_path_cfrs(path)
    padp = padp_ma(cx, cy, 60.0, np.array([120.0]), pad_factor=4)
    coarse_tau = padp.delay_s[int(np.argmax(padp.level[:, 0]))] / 2.0
    assert abs(coarse_tau - true_tau) > 1e-13  # the bin really quantizes it
    gx, gy = _spectra(cx, cy, 60.0, 120.0)
    refined, _ = refine_delay(gx, gy, FREQS, coarse_tau, pad_factor=4)
    assert refined == pytest.approx(true_tau, abs=2e-14)
    # an all-zero response is returned unrefined
    zero = np.zeros_like(gx)
    assert refine_delay(zero, zero, FREQS, coarse_tau)[0] == coarse_tau


def test_refine_delay_stays_below_half_the_unambiguous_delay():
    # a response just past the limit pulls the search window's upper end
    # over it; the refined delay must stay where a path may lie
    limit = 0.5 * FREQS.unambiguous_delay_s
    bin_s = 1.0 / (FREQS.n_points * 4 * FREQS.spacing_hz)
    g = np.exp(-2j * np.pi * FREQS.points * (limit + bin_s / 2))
    refined, _ = refine_delay(g, g, FREQS, limit - bin_s / 4, pad_factor=4)
    assert limit - bin_s / 4 < refined < limit


def test_estimate_power_magnitude_and_phase():
    # 65 sweep points put the doubled 2 ns delay exactly on a padded delay
    # bin, so the profile peak carries the squared amplitude with no
    # scalloping loss
    freqs = FrequencyGrid(26e9, 30e9, 65)
    path = PathComponent.from_power_db(-6, 60, 120, 2.0, phase_deg=35.0)
    cx, cy = gen_ma_cfr([path], GEO, freqs)
    gx, gy = _spectra(cx, cy, 60.0, 120.0)
    assert estimate_power(gx, gy, freqs, GEO) == pytest.approx(abs(path.amplitude),
                                                               rel=1e-6)
    # the phase is that of the projection at the refined delay
    _, inner = refine_delay(gx, gy, freqs, 2e-9)
    assert np.angle(inner) == pytest.approx(np.radians(35.0), abs=1e-6)
    with pytest.raises(NoPeakError):
        estimate_power(np.zeros_like(gx), np.zeros_like(gy), freqs, GEO)


def test_estimate_power_off_bin_scalloping_is_small():
    path = PathComponent.from_power_db(-6, 60, 120, 2.0, phase_deg=35.0)
    cx, cy = _single_path_cfrs(path)
    gx, gy = _spectra(cx, cy, 60.0, 120.0)
    assert estimate_power(gx, gy, FREQS, GEO) == pytest.approx(abs(path.amplitude),
                                                               rel=0.02)
    _, inner = refine_delay(gx, gy, FREQS, 2e-9)
    assert np.angle(inner) == pytest.approx(np.radians(35.0), abs=1e-6)


def test_estimate_power_matches_per_element_oracle():
    # the per-element computation: gate every element's delay response,
    # take the magnitude from the MA profile of the extracted CFRs and the
    # phase from their projection onto a regenerated unit-amplitude path at
    # the refined delay; unequal sub-arrays tell the two element counts apart
    geo = MaGeometry(9, 5, 0.5)
    cx, cy = gen_ma_cfr(THREE_PATHS, geo, FREQS)
    for path in THREE_PATHS:
        theta, phi = path.direction.theta_deg, path.direction.phi_deg
        tau = path.delay_s + 3e-12
        gate = _gate(FREQS, tau)
        ext_x = cx.with_values(_gated(cx.values, gate, FREQS))
        ext_y = cy.with_values(_gated(cy.values, gate, FREQS))
        padp = padp_ma(ext_x, ext_y, theta, np.array([phi]), 4)
        magnitude = 10.0 ** (padp.level[:, 0].max() / 20.0)  # sqrt of the peak
        sx, sy = _spectra(cx, cy, theta, phi)
        gx, gy = _gated(sx, gate, FREQS), _gated(sy, gate, FREQS)
        refined, projection = refine_delay(gx, gy, FREQS, tau)
        model = PathComponent(1.0 + 0j, path.direction, refined)
        mx, my = gen_ma_cfr([model], geo, FREQS)
        inner = np.vdot(mx.values, ext_x.values) + np.vdot(my.values, ext_y.values)
        assert estimate_power(gx, gy, FREQS, geo) == pytest.approx(magnitude, rel=1e-12)
        assert np.angle(projection) == pytest.approx(np.angle(inner), abs=1e-12)


def test_subtract_path_cancels_exactly():
    path = PathComponent.from_power_db(0, 60, 120, 2.0, phase_deg=10.0)
    cx, cy = _single_path_cfrs(path)
    rx, ry = subtract_path(cx, cy, path)
    assert rx.total_power() == pytest.approx(0.0, abs=1e-24)
    assert ry.total_power() == pytest.approx(0.0, abs=1e-24)


def test_subtract_path_leaves_its_arguments_unchanged():
    cx, cy = gen_ma_cfr(THREE_PATHS, GEO, FREQS)
    before = cx.values.tobytes(), cy.values.tobytes()
    rx, ry = subtract_path(cx, cy, THREE_PATHS[0])
    assert (cx.values.tobytes(), cy.values.tobytes()) == before
    px, py = gen_ma_cfr(THREE_PATHS[:1], GEO, FREQS)
    assert rx.values.tobytes() == (cx.values - px.values).tobytes()
    assert ry.values.tobytes() == (cy.values - py.values).tobytes()
    # given out, the residuals are written there, with the same bits
    ox, oy = subtract_path(cx, cy, THREE_PATHS[0], out=(cx.values, cy.values))
    assert ox.values is cx.values and oy.values is cy.values
    assert (ox.values.tobytes(), oy.values.tobytes()) == (rx.values.tobytes(),
                                                          ry.values.tobytes())


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11, CPython keeps a call's arguments on the caller's "
                           "stack until the call returns")
def test_run_sic_holds_its_inputs_only_until_the_first_subtraction():
    refs = []

    def sub_array(i):
        cfr = gen_ma_cfr(THREE_PATHS, GEO, FREQS)[i]
        refs.append(weakref.ref(cfr.values))
        return cfr
    dead = {}

    def hook(q, padp):
        dead[q] = [r() is None for r in refs]
    # the caller builds the pair as arguments and keeps no names for it
    report = run_sic(sub_array(0), sub_array(1), EstimatorConfig(SCAN), snapshot_hook=hook)
    assert len(report.paths) == 3
    assert dead[0] == [False, False] and dead[1] == [True, True]


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(SCAN, epsilon_db=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(SCAN, max_iterations=0)
    with pytest.raises(ValueError):
        EstimatorConfig(SCAN, pad_factor=0)


@pytest.mark.parametrize("field,value", [
    ("epsilon_db", -5.0), ("epsilon_db", float("nan")), ("epsilon_db", float("inf")),
    ("gate_db", -5.0), ("gate_db", 0.0), ("gate_db", float("nan")),
    ("gate_db", float("inf")),
])
def test_estimator_config_rejects_non_finite_or_non_positive_levels(field, value):
    # Each of these used to end a sounding with 0 paths and no error.
    with pytest.raises(ValueError, match=field):
        EstimatorConfig(SCAN, **{field: value})


def test_run_sic_recovers_three_paths():
    cx, cy = gen_ma_cfr(THREE_PATHS, GEO, FREQS)
    report = run_sic(cx, cy, EstimatorConfig(SCAN, epsilon_db=30.0))
    assert report.stop_reason == "dynamic-range"
    assert len(report.paths) == 3
    got = sorted(report.paths, key=lambda p: -abs(p.amplitude))
    for est, true in zip(got, THREE_PATHS):
        assert est.direction == true.direction
        assert est.delay_s == pytest.approx(true.delay_s, abs=1e-12)
        # off-bin doubled delays scallop the profile peak a little
        assert est.amplitude_db == pytest.approx(true.power_db, abs=0.2)
    # residual energy shrinks monotonically as paths are removed
    energies = [p.residual_energy_after for p in report.paths]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    # a fourth, rejected candidate may be logged before the stop
    assert len(report.diagnostics) in (3, 4)
    assert all(d.accepted for d in report.diagnostics[:3])


def test_run_sic_dynamic_range_limits_path_count():
    cx, cy = gen_ma_cfr(THREE_PATHS, GEO, FREQS)
    report = run_sic(cx, cy, EstimatorConfig(SCAN, epsilon_db=5.0))
    assert len(report.paths) == 1
    assert report.stop_reason == "dynamic-range"


def test_run_sic_iteration_cap():
    cx, cy = gen_ma_cfr(THREE_PATHS, GEO, FREQS)
    report = run_sic(cx, cy, EstimatorConfig(SCAN, epsilon_db=30.0,
                                             max_iterations=1))
    assert len(report.paths) == 1
    assert report.stop_reason == "max-iterations"


def test_run_sic_rejects_zero_input():
    cx, cy = gen_ma_cfr(THREE_PATHS, GEO, FREQS)
    zx = cx.with_values(np.zeros_like(cx.values))
    zy = cy.with_values(np.zeros_like(cy.values))
    with pytest.raises(NoPeakError):
        run_sic(zx, zy, EstimatorConfig(SCAN))


# gen_ma_cfr arguments (after the paths) of an ma_y that differs from
# GEO/FREQS in the named CfrSet field.
MISMATCHED_Y = {
    "freqs": (GEO, FrequencyGrid(26e9, 30e9, 96)),
    "geometry": (MaGeometry(9, 9, 0.7), FREQS),
    "ref_freq_hz": (GEO, FREQS, True, 27e9),
    "narrowband_phase": (GEO, FREQS, False),
}


@pytest.mark.parametrize("name", list(MISMATCHED_Y))
def test_run_sic_rejects_mismatched_grids(name):
    cx, _ = gen_ma_cfr(THREE_PATHS, GEO, FREQS)
    _, cy = gen_ma_cfr(THREE_PATHS, *MISMATCHED_Y[name])
    with pytest.raises(ValueError, match=name):
        run_sic(cx, cy, EstimatorConfig(SCAN))
    f = FREQS.f_center_hz
    for call in (lambda: cbf_ma(cx, cy, SCAN, f),
                 lambda: cbf_ma_uv(cx, cy, np.array([0.5]), np.array([0.1]), f),
                 lambda: padp_ma(cx, cy, 90.0, SCAN.phi_deg)):
        with pytest.raises(ValueError, match=name):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_sic_rejects_non_finite_input(bad):
    cx, cy = gen_ma_cfr(THREE_PATHS, GEO, FREQS)
    values = cx.values.copy()
    values[3, 7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        run_sic(cx.with_values(values), cy, EstimatorConfig(SCAN))


def test_run_sic_snapshot_hook_sees_each_iteration():
    cx, cy = gen_ma_cfr(THREE_PATHS, GEO, FREQS)
    seen = []
    run_sic(cx, cy, EstimatorConfig(SCAN, epsilon_db=30.0),
            snapshot_hook=lambda q, padp: seen.append((q, padp.level.shape)))
    # a final below-range iteration may still snapshot before stopping
    assert len(seen) >= 3
    assert [q for q, _ in seen] == list(range(len(seen)))
    assert all(shape == (FREQS.n_points * 4, SCAN.phi_deg.size)
               for _, shape in seen)


def test_run_sic_skips_coherent_cross_products():
    # two equal-power paths at the same direction make the cross-product
    # term in the product profile outshine the weaker true peaks; the
    # consistency check must skip it instead of stalling
    paths = [PathComponent.from_power_db(0, 90, 180, 1.4),
             PathComponent.from_power_db(-4, 90, 180, 2.1),
             PathComponent.from_power_db(-6, 90, 142, 1.95),
    ]
    scan = ScanGrid(np.array([90.0]), np.arange(90.0, 271.0, 1.0))
    cx, cy = gen_ma_cfr(paths, GEO, FREQS)
    report = run_sic(cx, cy, EstimatorConfig(scan, epsilon_db=16.0))
    assert len(report.paths) == 3
    delays = sorted(p.delay_s for p in report.paths)
    # co-located paths leak into each other's gates, so the delay errors
    # are larger than in the separated case but well under a delay bin
    assert delays == pytest.approx([1.4e-9, 1.95e-9, 2.1e-9], abs=2e-11)
    assert any(d.candidates_skipped > 0 for d in report.diagnostics)


def _table1_small(narrowband_phase=True, noise_seeds=None, snr_db=10.0):
    scenario = parse_scenario(scenario_path("table1_small"))
    cx, cy = gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs,
                        narrowband_phase=narrowband_phase)
    if noise_seeds is not None:
        cx = add_noise(cx, snr_db, noise_seeds[0])
        cy = add_noise(cy, snr_db, noise_seeds[1])
    return run_sic(cx, cy, scenario.estimator_config())


def test_run_sic_noise_peak_near_the_delay_limit_ends_cleanly():
    # with this noise a candidate's delay search window used to reach past
    # half the unambiguous delay, and regenerating the path raised
    report = _table1_small(noise_seeds=(19, 20))
    assert report.stop_reason in ("dynamic-range", "max-iterations")
    assert report.paths


def test_run_sic_wideband_matches_narrowband():
    # table1_small's band is narrow against its carrier, so wideband phase
    # moves the estimates only slightly; all steering follows the CFR's phase
    narrow = _table1_small()
    wide = _table1_small(narrowband_phase=False)
    assert wide.stop_reason == narrow.stop_reason
    assert [p.direction for p in wide.paths] == [p.direction for p in narrow.paths]
    for w, n in zip(wide.paths, narrow.paths):
        assert w.delay_s == pytest.approx(n.delay_s, abs=0.1e-12)
        assert w.amplitude_db == pytest.approx(n.amplitude_db, abs=0.005)


def _count_calls(monkeypatch, name, result=lambda value, n: value):
    """Replace masounder.sic.<name> by a wrapper that records each call and
    returns result(real return value, 0-based call number)."""
    real = getattr(sic, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return result(real(*args, **kwargs), len(calls) - 1)
    monkeypatch.setattr(sic, name, wrapper)
    return calls


def test_run_sic_fits_only_the_candidates_that_pass(monkeypatch):
    # this realisation skips 11 candidates before it stops; none is fitted
    calls = _count_calls(monkeypatch, "refine_delay")
    report = _table1_small(noise_seeds=(3, 4), snr_db=10.0)
    assert sum(d.candidates_skipped for d in report.diagnostics) > 0
    # one fit per iteration: each accepted path, plus the last candidate
    # that passed the test but fell outside the dynamic range
    assert len(calls) == len(report.diagnostics)
    assert len(calls) == len(report.paths) + (not report.diagnostics[-1].accepted)


def test_run_sic_keeps_column_responses_per_iteration_and_two_gate_templates_per_iteration(
        monkeypatch):
    # noise seeds 9 and 10 at 10 dB: many candidates share a column or a
    # delay bin. The walk reads cells ahead of its decisions, in batches. A
    # column's two line spectra are computed once per iteration for the cells
    # read, a batch's new columns in one line_spectrum call per axis, so the
    # cosines passed to it are counted. Each iteration that reaches the walk
    # builds the gates of delay bins 0 and 1 and no other, however many bins
    # it visits.
    spectra = _count_calls(monkeypatch, "line_spectrum")
    templates = []
    gates = _count_calls(monkeypatch, "build_label_vector",
                         lambda gate, n: templates.append(gate) or gate)
    walks = []
    real_walk = sic.descending_cells

    def walk(*args):
        walks.append([])
        for cell in real_walk(*args):
            walks[-1].append(cell)
            yield cell
    monkeypatch.setattr(sic, "descending_cells", walk)
    scenario = parse_scenario(scenario_path("table1_small"))
    cx, cy = gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs)
    cx, cy = add_noise(cx, 10.0, 9), add_noise(cy, 10.0, 10)
    config = scenario.estimator_config()
    runs = []
    for gate_db in (None, None, 20.0):
        spectra.clear(), gates.clear(), templates.clear(), walks.clear()
        report = run_sic(cx, cy, dataclasses.replace(config, gate_db=gate_db))
        visited = sum(len(cells) for cells in walks)
        columns = sum(len({c for _, c in cells}) for cells in walks)
        bins = max(len({r for r, _ in cells}) for cells in walks)
        assert visited > columns and bins > 2
        assert sum(np.size(cosines) for _, cosines in spectra) == 2 * columns
        assert len(gates) == 2 * len(walks)
        runs.append((repr(report), templates[:2]))
    (first, wide), (second, _), (_, narrow) = runs
    assert second == first
    # a 20 dB gate keeps fewer bins than the default 30 dB one
    for w, g in zip(wide, narrow):
        assert g.sum() < w.sum() and not (g & ~w).any()


@pytest.mark.parametrize("name,noise_seeds,limit_mib", [
    ("table1", None, 26),  # 199-element sub-arrays, 1500 points
    ("table1_small", (9, 10), 5.5),  # 13 iterations at 10 dB
])
def test_run_sic_working_set_is_bounded(name, noise_seeds, limit_mib):
    # Peak traced allocation above the inputs. Each iteration's beam, profile
    # level, column responses and gates go before the next iteration makes
    # its own. The profile is held as its level, taken a block of azimuths at a time, and the walk marks hidden
    # cells in a one-byte mask: holding the complex profile and a float copy
    # of its level for the walk peaks at 34.6 and 7.0 MiB.
    scenario = parse_scenario(scenario_path(name))
    cx, cy = gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs)
    if noise_seeds is not None:
        cx, cy = add_noise(cx, 10.0, noise_seeds[0]), add_noise(cy, 10.0, noise_seeds[1])
    config = scenario.estimator_config()
    tracemalloc.start()
    try:
        run_sic(cx, cy, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2 ** 20


def test_run_sic_stops_once_the_walk_finds_no_peak(monkeypatch):
    # every candidate's gated response falls below the numerical floor: each
    # is skipped, and the exhausted walk ends the run before any iteration
    def no_peak(value, n):
        raise NoPeakError("gated response peak is below the numerical floor")
    calls = _count_calls(monkeypatch, "estimate_power", no_peak)
    cx, cy = gen_ma_cfr(THREE_PATHS, GEO, FREQS)
    report = run_sic(cx, cy, EstimatorConfig(SCAN))
    assert len(calls) > 1
    assert (report.paths, report.stop_reason, report.diagnostics) == \
        ((), "dynamic-range", ())


def test_run_sic_skips_a_candidate_with_zero_projection(monkeypatch):
    cx, cy = gen_ma_cfr(THREE_PATHS, GEO, FREQS)
    config = EstimatorConfig(SCAN, epsilon_db=30.0)
    plain = run_sic(cx, cy, config)
    # the first candidate that passes the test projects to zero
    calls = _count_calls(monkeypatch, "refine_delay",
                         lambda value, n: (value[0], 0j) if n == 0 else value)
    report = run_sic(cx, cy, config)
    first = report.diagnostics[0]
    assert first.accepted
    assert first.candidates_skipped == plain.diagnostics[0].candidates_skipped + 1
    # a later candidate of the same iteration is fitted and kept
    assert len(calls) > len(report.diagnostics)
    assert report.paths[0].iteration == 1
    assert (report.paths[0].direction, report.paths[0].delay_s) != \
        (plain.paths[0].direction, plain.paths[0].delay_s)


def _projection_objectives(seed: int, count: int):
    """Seeded objectives -|exp(j 2 pi f t) . s| of refine_delay's form, with s a
    few noisy paths, each with a one-bin window (some clipped at 0) around a
    delay and an xatol. Half are in GHz and ns, where xatol runs from 1e-16
    to 1e-3 of a window near 1; half in Hz and s, as refine_delay runs them."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        ns = i % 2 == 1
        unit = 1e-9 if ns else 1.0  # frequencies in GHz or in Hz
        n = int(rng.integers(8, 200))
        spacing = rng.uniform(1e6, 50e6) * unit
        f = rng.uniform(1e9, 30e9) * unit + spacing * np.arange(n)
        taus = rng.uniform(0.0, 0.5 / spacing, size=int(rng.integers(1, 4)))
        amps = rng.standard_normal(len(taus)) + 1j * rng.standard_normal(len(taus))
        s = amps @ np.exp(-2j * np.pi * np.outer(taus, f))
        s += 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        w = 2j * np.pi * f
        bin_t = 1.0 / (4 * n * spacing)
        tau_hat = rng.uniform(0.0, bin_t) if i % 3 == 0 else taus[0]
        xatol = 10.0 ** (rng.uniform(-16, -3) if ns else rng.uniform(-16, -12))
        yield (lambda t, w=w, s=s: -abs(np.exp(w * t) @ s),
               max(tau_hat - bin_t, 0.0), tau_hat + bin_t, xatol)


def test_brent_search_matches_scipy_bounded_minimizer():
    from scipy.optimize import minimize_scalar
    evaluations = []
    for objective, lo, hi, xatol in _projection_objectives(11, 1200):
        want = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                               options={"xatol": xatol})
        assert sic._brent_bounded(objective, lo, hi, xatol) == want.x
        evaluations.append(want.nfev)
    assert min(evaluations) > 1  # every search takes steps
    # A minimum on the lower bound 0, where the tolerance vanishes, runs to
    # the cap of 500 evaluations.
    calls = []
    x = sic._brent_bounded(lambda t: calls.append(t) or t, 0.0, 1e-10, 1e-300)
    want = minimize_scalar(lambda t: t, bounds=(0.0, 1e-10), method="bounded",
                           options={"xatol": 1e-300})
    assert (len(calls), want.nfev, want.status) == (500, 500, 1)
    assert x == want.x
