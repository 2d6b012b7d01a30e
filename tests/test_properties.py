import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masounder.beamform import cbf_ma_uv, cbf_ura, find_peaks
from masounder.channel import gen_ma_cfr, gen_ura_cfr
from masounder.geometry import (Direction, FrequencyGrid, MaGeometry,
                                PathComponent, ScanGrid, UraGeometry, UvPoint,
                                uv_map, uv_unmap)
from masounder.patterns import (auto_convolve, chebyshev_taper,
                                ma_power_pattern, steer, ura_power_pattern,
                                uv_lattice)
from masounder.sic import EstimatorConfig, detect_strongest, run_sic

SUITE = settings(max_examples=200, deadline=None)

FREQS = FrequencyGrid(26e9, 30e9, 41)
MA_GEO = MaGeometry(9, 9, 0.5)
URA_GEO = UraGeometry(5, 5, 0.5, 0.5)
SCAN = ScanGrid(np.array([30.0, 60.0, 90.0]), np.arange(90.0, 271.0, 10.0))

# widely separated directions that all sit on SCAN grid points
DIRECTION_POOL = [(90.0, 120.0), (30.0, 200.0), (60.0, 250.0)]
DELAY_POOL_NS = [1.0, 1.8, 2.6]


def _paths_from_choice(k, power_offsets_db, phases_deg):
    paths = []
    for i in range(k):
        theta, phi = DIRECTION_POOL[i]
        paths.append(PathComponent.from_power_db(
            0.0 if i == 0 else power_offsets_db[i - 1],
            theta, phi, DELAY_POOL_NS[i], phases_deg[i]))
    return tuple(paths)


path_sets = st.builds(
    _paths_from_choice,
    st.integers(min_value=1, max_value=3),
    st.tuples(st.floats(-8.0, -4.0), st.floats(-16.0, -10.0)),
    st.tuples(*[st.floats(0.0, 359.0)] * 3),
)


# u and v slots, in units of the 41-element null spacing 2 / 41, far enough
# apart that each path's sidelobes stay well below every other path's term
U_SLOTS, V_SLOTS = (-12, 2, 12), (8, -6, -14)


@SUITE
@given(st.integers(1, 3), st.permutations(range(3)),
       st.tuples(*[st.floats(-2.0, 0.0)] * 3), st.tuples(*[st.floats(0.0, 359.0)] * 3))
def test_ma_term_count_is_square_of_path_count(k, v_order, powers_db, phases_deg):
    # K paths on the null lattice of a 41 x 41 MA: the product beam holds
    # K^2 maxima, one at each (u_i, v_j), and the K true terms (u_i, v_i)
    # sit at the paths' own powers.
    k_u = U_SLOTS[:k]
    k_v = [V_SLOTS[i] for i in v_order[:k]]
    paths = []
    for i in range(k):
        direction = uv_unmap(UvPoint(k_u[i] * 2 / 41, k_v[i] * 2 / 41))
        paths.append(PathComponent.from_power_db(powers_db[i], direction.theta_deg,
                                                 direction.phi_deg, 1.0 + i, phases_deg[i]))
    cx, cy = gen_ma_cfr(paths, MaGeometry(41, 41, 0.5), FREQS)
    axis = np.arange(-41, 42) / 41
    beam = cbf_ma_uv(cx, cy, axis, axis, FREQS.f_center_hz)
    peaks = {(p.row, p.col): p.level_db for p in find_peaks(beam, dynamic_range_db=4.0)}
    assert len(peaks) == k ** 2
    assert set(peaks) == {(41 + 2 * k_u[i], 41 + 2 * k_v[j])
                          for i in range(k) for j in range(k)}
    for i in range(k):
        assert peaks[41 + 2 * k_u[i], 41 + 2 * k_v[i]] == pytest.approx(powers_db[i], abs=1e-9)


@SUITE
@given(path_sets, path_sets)
def test_cfr_generation_is_superposition(set_a, set_b):
    merged = set_a + set_b
    ax, ay = gen_ma_cfr(set_a, MA_GEO, FREQS)
    bx, by = gen_ma_cfr(set_b, MA_GEO, FREQS)
    mx, my = gen_ma_cfr(merged, MA_GEO, FREQS)
    np.testing.assert_allclose(mx.values, ax.values + bx.values, atol=1e-13)
    np.testing.assert_allclose(my.values, ay.values + by.values, atol=1e-13)


@SUITE
@given(path_sets, st.integers(0, 90), st.integers(90, 270))
def test_cbf_matches_elementwise_oracle(paths, theta, phi):
    cfr = gen_ura_cfr(paths, UraGeometry(3, 3, 0.5, 0.5), FREQS)
    grid = ScanGrid(np.array([float(theta)]), np.array([float(phi)]))
    beam = cbf_ura(cfr, grid, cfr.freqs.f_center_hz)
    uv = uv_map(Direction(float(theta), float(phi) % 360.0))
    total = 0.0 + 0.0j
    for a, m in enumerate((-1, 0, 1)):
        for b, n in enumerate((-1, 0, 1)):
            total += (np.exp(-2j * np.pi * 0.5 * (m * uv.u + n * uv.v))
                      * cfr.values[a, b, cfr.freqs.center_index])
    assert beam.values[0, 0] == pytest.approx(total / 9.0, abs=1e-9)


@SUITE
@given(st.sampled_from(DIRECTION_POOL), st.floats(0.8, 3.0),
       st.floats(0.0, 359.0))
def test_single_path_ma_estimate_matches_ura_scan(direction, delay_ns, phase):
    theta, phi = direction
    paths = [PathComponent.from_power_db(0.0, theta, phi, delay_ns, phase)]
    cx, cy = gen_ma_cfr(paths, MA_GEO, FREQS)
    report = run_sic(cx, cy, EstimatorConfig(SCAN, epsilon_db=25.0,
                                             max_iterations=1))
    assert len(report.paths) == 1
    ura_cfr = gen_ura_cfr(paths, URA_GEO, FREQS)
    ura_dir = detect_strongest(cbf_ura(ura_cfr, SCAN, FREQS.f_center_hz))
    assert report.paths[0].direction == ura_dir
    # delay gating truncates spectral leakage tails, which biases the
    # refined delay by a few ps; the delay bin is ~61 ps
    assert report.paths[0].delay_s == pytest.approx(delay_ns * 1e-9, abs=1e-11)


@SUITE
@given(path_sets, st.integers(1, 4))
def test_estimator_terminates_within_iteration_cap(paths, cap):
    cx, cy = gen_ma_cfr(paths, MA_GEO, FREQS)
    report = run_sic(cx, cy, EstimatorConfig(SCAN, epsilon_db=25.0,
                                             max_iterations=cap))
    assert len(report.paths) <= cap
    assert report.stop_reason in ("dynamic-range", "max-iterations")


@SUITE
@given(path_sets)
def test_estimated_powers_are_non_increasing(paths):
    cx, cy = gen_ma_cfr(paths, MA_GEO, FREQS)
    report = run_sic(cx, cy, EstimatorConfig(SCAN, epsilon_db=25.0))
    powers = [p.amplitude_db for p in report.paths]
    # successive cancellation peels the strongest remaining path first;
    # a small slack covers off-bin scalloping of the profile peak
    assert all(a >= b - 0.5 for a, b in zip(powers, powers[1:]))


@SUITE
@given(path_sets)
def test_separated_on_grid_paths_are_recovered_exactly(paths):
    cx, cy = gen_ma_cfr(paths, MA_GEO, FREQS)
    report = run_sic(cx, cy, EstimatorConfig(SCAN, epsilon_db=25.0))
    assert len(report.paths) == len(paths)
    by_direction = {(p.direction.theta_deg, p.direction.phi_deg): p
                    for p in report.paths}
    for true in paths:
        key = (true.direction.theta_deg, true.direction.phi_deg)
        assert key in by_direction
        est = by_direction[key]
        assert est.delay_s == pytest.approx(true.delay_s, abs=1e-11)
        assert est.amplitude_db == pytest.approx(true.power_db, abs=0.5)


@SUITE
@given(st.sampled_from([3, 5, 7]), st.sampled_from([3, 5, 7]),
       st.floats(20.0, 40.0), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_ura_and_ma_patterns_coincide_for_autoconvolved_tapers(m, n, sll,
                                                               u0, v0):
    ura = UraGeometry(m, n, 0.5, 0.5)
    ma = MaGeometry.equivalent_to(ura)
    wx = steer(chebyshev_taper(m, sll), u0, 0.5)
    wy = steer(chebyshev_taper(n, sll), v0, 0.5)
    u, v = uv_lattice(64)
    pu = ura_power_pattern(wx, wy, ura, u, v)
    pm = ma_power_pattern(auto_convolve(wx), auto_convolve(wy), ma, u, v)
    np.testing.assert_allclose(pm.values, pu.values, atol=1e-12)
