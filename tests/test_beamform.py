import tracemalloc

import numpy as np
import pytest

from masounder.beamform import (BeamPattern, Padp, UvBeam, _delay_phasors,
                                cbf_ma, cbf_ma_uv, cbf_ura,
                                cfr_to_cir, cir_to_cfr, find_peaks, line_spectrum,
                                padp_ma, padp_ura, predict_ma_terms)
from masounder.channel import PathSet, gen_ma_cfr, gen_ura_cfr
from masounder.geometry import (Direction, FrequencyGrid, MaGeometry,
                                PathComponent, ScanGrid, UraGeometry,
                                delay_axis, scan_cosines, uv_map)

FREQS = FrequencyGrid(26e9, 30e9, 64)
SHORT_PATHS = [
    PathComponent.from_power_db(0, 60, 120, 1.0),
    PathComponent.from_power_db(-6, 30, 200, 3.0, phase_deg=40.0),
]


def brute_force_ura_beam(cfr, theta_deg, phi_deg, f_index, taper=None):
    """Element-by-element delay-and-sum, plain double loop."""
    geo = cfr.geometry
    tx = np.ones(geo.m_count) if taper is None else taper[0]
    ty = np.ones(geo.n_count) if taper is None else taper[1]
    uv = uv_map(Direction(theta_deg, phi_deg % 360.0))
    total = 0.0 + 0.0j
    for a, m in enumerate(geo.x_indices):
        for b, n in enumerate(geo.y_indices):
            weight = (tx[a] * ty[b]
                      * np.exp(-2j * np.pi * geo.dx_wl * m * uv.u)
                      * np.exp(-2j * np.pi * geo.dy_wl * n * uv.v))
            total += weight * cfr.values[a, b, f_index]
    return total / (np.sum(np.abs(tx)) * np.sum(np.abs(ty)))


def brute_force_ma_beam(cfr_x, cfr_y, theta_deg, phi_deg, f_index):
    geo = cfr_x.geometry
    uv = uv_map(Direction(theta_deg, phi_deg % 360.0))
    bx = sum(np.exp(-2j * np.pi * geo.d_wl * m * uv.u) * cfr_x.values[a, f_index]
             for a, m in enumerate(geo.x_indices)) / geo.x_count
    by = sum(np.exp(-2j * np.pi * geo.d_wl * n * uv.v) * cfr_y.values[b, f_index]
             for b, n in enumerate(geo.y_indices)) / geo.y_count
    return bx * by


def test_cbf_ura_matches_brute_force():
    geo = UraGeometry(3, 5, 0.5, 0.5)
    cfr = gen_ura_cfr(PathSet(SHORT_PATHS), geo, FREQS)
    grid = ScanGrid(np.array([20.0, 60.0]), np.array([100.0, 200.0, 260.0]))
    beam = cbf_ura(cfr, grid, FREQS.f_center_hz)
    for i, theta in enumerate(grid.theta_deg):
        for j, phi in enumerate(grid.phi_deg):
            expect = brute_force_ura_beam(cfr, theta, phi, FREQS.center_index)
            assert beam.values[i, j] == pytest.approx(expect, abs=1e-9)


def test_cbf_ura_with_taper_matches_brute_force():
    geo = UraGeometry(3, 5, 0.5, 0.5)
    cfr = gen_ura_cfr(PathSet(SHORT_PATHS), geo, FREQS)
    taper = (np.array([0.5, 1.0, 0.5]), np.array([0.3, 0.8, 1.0, 0.8, 0.3]))
    grid = ScanGrid(np.array([30.0]), np.array([120.0]))
    beam = cbf_ura(cfr, grid, FREQS.f_center_hz, taper=taper)
    expect = brute_force_ura_beam(cfr, 30.0, 120.0, FREQS.center_index, taper)
    assert beam.values[0, 0] == pytest.approx(expect, abs=1e-9)


def test_cbf_ma_matches_brute_force():
    geo = MaGeometry(5, 9, 0.5)
    cx, cy = gen_ma_cfr(PathSet(SHORT_PATHS), geo, FREQS)
    grid = ScanGrid(np.array([20.0, 60.0]), np.array([100.0, 200.0, 260.0]))
    beam = cbf_ma(cx, cy, grid, FREQS.f_center_hz)
    for i, theta in enumerate(grid.theta_deg):
        for j, phi in enumerate(grid.phi_deg):
            expect = brute_force_ma_beam(cx, cy, theta, phi, FREQS.center_index)
            assert beam.values[i, j] == pytest.approx(expect, abs=1e-9)


def conj_steer(indices, d_wl, cosines, scale):
    """Conjugate steering matrix (n_elem, n_points), built out of place."""
    return np.exp(-2j * np.pi * d_wl * scale * np.outer(indices, np.ravel(cosines)))


def uncached_ma_beam(cfr_x, cfr_y, grid, f_index, taper=None):
    """cbf_ma as a product of two steering-matrix products, as it was
    before Horner's rule."""
    geo = cfr_x.geometry
    f = cfr_x.freqs.points[f_index]
    scale = 1.0 if cfr_x.narrowband_phase else f / cfr_x.ref_freq_hz
    u, v = scan_cosines(grid.theta_deg, grid.phi_deg)

    def line_sum(cfr, indices, cosines, weights):
        steer = conj_steer(indices, geo.d_wl, cosines, scale)
        weighted = weights[:, None] * cfr.values
        return steer.T @ weighted[:, [f_index]] / np.sum(np.abs(weights))
    tx, ty = taper if taper is not None else (np.ones(geo.x_count), np.ones(geo.y_count))
    b = line_sum(cfr_x, geo.x_indices, u, tx) * line_sum(cfr_y, geo.y_indices, v, ty)
    return b.reshape(u.shape)


def per_column_line_sums(cfr_x, cfr_y, cosines_x, cosines_y, taper=None):
    """Normalized x and y sub-array sums over every sweep column, one
    steering matrix per column; each shape (n_points, n_cols)."""
    geo = cfr_x.geometry
    tx, ty = taper if taper is not None else (np.ones(geo.x_count), np.ones(geo.y_count))
    sums = []
    for cfr, indices, cosines, weights in ((cfr_x, geo.x_indices, cosines_x, tx),
                                           (cfr_y, geo.y_indices, cosines_y, ty)):
        columns = []
        for c, f in enumerate(cfr.freqs.points):
            scale = 1.0 if cfr.narrowband_phase else f / cfr.ref_freq_hz
            steer = conj_steer(indices, geo.d_wl, cosines, scale)
            columns.append(steer.T @ (weights * cfr.values[:, c]))
        sums.append(np.stack(columns, axis=-1) / np.sum(np.abs(weights)))
    return sums


# Horner's rule sums in another order than the steering-matrix product.
# Each value must lie within HORNER_RTOL of the largest magnitude; for the
# 9-element sub-arrays below, n eps is 2e-15.
HORNER_RTOL = 1e-14


def assert_close_to_peak(actual, expect):
    np.testing.assert_allclose(actual, expect, rtol=0,
                               atol=HORNER_RTOL * np.abs(expect).max())


def test_cbf_ma_matches_uncached_steering():
    geo = MaGeometry(5, 9, 0.5)
    grids = [ScanGrid(np.array([20.0, 60.0]), np.array([100.0, 200.0, 260.0])),
             ScanGrid.regular(0.0, 90.0, 15.0, 90.0, 270.0, 20.0)]
    taper = (np.array([0.3, 0.8, 1.0, 0.8, 0.3]), np.linspace(0.2, 1.0, 9))
    narrow = gen_ma_cfr(PathSet(SHORT_PATHS), geo, FREQS)
    wide = gen_ma_cfr(PathSet(SHORT_PATHS), geo, FREQS, narrowband_phase=False)
    for grid in grids:
        for (cx, cy), tp in ((narrow, None), (wide, None), (narrow, taper), (wide, taper)):
            for f_index in (FREQS.center_index, 3):
                beam = cbf_ma(cx, cy, grid, FREQS.points[f_index], tp)
                expect = uncached_ma_beam(cx, cy, grid, f_index, tp)
                assert_close_to_peak(beam.values, expect)
                assert np.argmax(np.abs(beam.values)) == np.argmax(np.abs(expect))


def test_cbf_ma_steering_is_keyed_by_scan_values():
    geo = MaGeometry(5, 9, 0.5)
    cx, cy = gen_ma_cfr(PathSet(SHORT_PATHS), geo, FREQS)
    grid = ScanGrid(np.array([20.0, 60.0]), np.array([100.0, 200.0, 260.0]))
    first = cbf_ma(cx, cy, grid, FREQS.f_center_hz).values
    grid.phi_deg[:] += 10.0
    second = cbf_ma(cx, cy, grid, FREQS.f_center_hz).values
    assert not np.array_equal(first, second)
    assert_close_to_peak(second, uncached_ma_beam(cx, cy, grid, FREQS.center_index))


def test_wideband_line_spectrum_and_padp_ma_match_per_column_steering():
    geo = MaGeometry(5, 9, 0.5)
    cx, cy = gen_ma_cfr(PathSet(SHORT_PATHS), geo, FREQS, narrowband_phase=False)
    taper = (np.array([0.3, 0.8, 1.0, 0.8, 0.3]), np.linspace(0.2, 1.0, 9))
    u, v = scan_cosines(np.array([60.0]), np.array([100.0, 120.0, 200.0]))
    x_sum, y_sum = per_column_line_sums(cx, cy, u, v)
    assert_close_to_peak(line_spectrum(cx, u[0]), x_sum * geo.x_count)
    assert_close_to_peak(line_spectrum(cy, v[0]), y_sum * geo.y_count)
    for tp in (None, taper):
        x_sum, y_sum = per_column_line_sums(cx, cy, u, v, tp)
        padp = padp_ma(cx, cy, 60.0, np.array([100.0, 120.0, 200.0]), 2, taper=tp)
        assert_close_to_peak(padp.values, cfr_to_cir(x_sum * y_sum, FREQS, 2).T)


def test_narrowband_line_spectrum_and_padp_ma_are_bitwise_steering_products():
    geo = MaGeometry(5, 9, 0.5)
    cx, cy = gen_ma_cfr(PathSet(SHORT_PATHS), geo, FREQS)
    taper = (np.array([0.3, 0.8, 1.0, 0.8, 0.3]), np.linspace(0.2, 1.0, 9))
    phi = np.array([100.0, 120.0, 200.0])
    u, v = scan_cosines(np.array([60.0]), phi)
    spectrum = line_spectrum(cx, u[0])
    assert spectrum.tobytes() == (conj_steer(geo.x_indices, geo.d_wl, u, 1.0).T
                                  @ cx.values).tobytes()
    for tx, ty in ((np.ones(5), np.ones(9)), taper):
        x_sum = (conj_steer(geo.x_indices, geo.d_wl, u, 1.0).T
                 @ (tx[:, None] * cx.values) / np.sum(np.abs(tx)))
        y_sum = (conj_steer(geo.y_indices, geo.d_wl, v, 1.0).T
                 @ (ty[:, None] * cy.values) / np.sum(np.abs(ty)))
        padp = padp_ma(cx, cy, 60.0, phi, 2, taper=(tx, ty))
        assert padp.values.tobytes() == cfr_to_cir(x_sum * y_sum, FREQS, 2).T.tobytes()


def test_cbf_ma_on_a_large_scan_allocates_no_steering_matrix():
    # 199 + 199 elements over a 91 x 181 scan: a complex128 steering matrix
    # pair would take 16 B x 398 x 16,471 = 100 MiB.
    geo = MaGeometry(199, 199, 0.5)
    cx, cy = gen_ma_cfr(PathSet(SHORT_PATHS), geo, FREQS)
    grid = ScanGrid.regular(0.0, 90.0, 1.0, 0.0, 360.0, 2.0)
    tracemalloc.start()
    try:
        cbf_ma(cx, cy, grid, FREQS.f_center_hz)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_cached_delay_phasors_are_read_only():
    for array in _delay_phasors(FREQS, 4):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_matched_unit_path_gives_unit_beam():
    path = PathComponent.from_power_db(0, 60, 120, 2.0)
    geo = UraGeometry(5, 5)
    cfr = gen_ura_cfr(PathSet([path]), geo, FREQS)
    grid = ScanGrid(np.array([60.0]), np.array([120.0]))
    beam = cbf_ura(cfr, grid, FREQS.f_center_hz)
    assert abs(beam.values[0, 0]) == pytest.approx(1.0, abs=1e-12)
    ma = MaGeometry(9, 9)
    cx, cy = gen_ma_cfr(PathSet([path]), ma, FREQS)
    mbeam = cbf_ma(cx, cy, grid, FREQS.f_center_hz)
    assert abs(mbeam.values[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_uv_lattice_beams_agree_with_angle_scan():
    ma = MaGeometry(5, 9)
    cx, cy = gen_ma_cfr(PathSet(SHORT_PATHS), ma, FREQS)
    theta, phi = 50.0, 210.0
    uv = uv_map(Direction(theta, phi))
    grid = ScanGrid(np.array([theta]), np.array([phi]))
    mb = cbf_ma_uv(cx, cy, np.array([uv.u]), np.array([uv.v]), FREQS.f_center_hz)
    assert mb.values[0, 0] == pytest.approx(
        cbf_ma(cx, cy, grid, FREQS.f_center_hz).values[0, 0], abs=1e-12)


def test_off_grid_frequency_rejected():
    geo = UraGeometry(3, 3)
    cfr = gen_ura_cfr(PathSet(SHORT_PATHS[:1]), geo, FREQS)
    grid = ScanGrid(np.array([0.0]), np.array([180.0]))
    with pytest.raises(ValueError, match="not on the sweep grid"):
        cbf_ura(cfr, grid, FREQS.f_center_hz + 0.3 * FREQS.spacing_hz)


def test_delay_transform_round_trip():
    rng = np.random.default_rng(3)
    spectrum = rng.normal(size=(4, FREQS.n_points)) + \
        1j * rng.normal(size=(4, FREQS.n_points))
    for pad in (1, 2, 4):
        profile = cfr_to_cir(spectrum, FREQS, pad)
        assert profile.shape == (4, FREQS.n_points * pad)
        back = cir_to_cfr(profile, FREQS, pad)
        np.testing.assert_allclose(back, spectrum, atol=1e-12)


def test_delay_transform_localizes_single_delay():
    pad = 4
    tau = delay_axis(FREQS, pad)
    target = tau[40]
    spectrum = 0.7 * np.exp(-2j * np.pi * FREQS.points * target)
    profile = cfr_to_cir(spectrum, FREQS, pad)
    peak = int(np.argmax(np.abs(profile)))
    assert peak == 40
    # the transform preserves the complex amplitude at the true delay
    assert profile[peak] == pytest.approx(0.7, abs=1e-10)


def test_cir_round_trip_matches_transforms():
    geo = MaGeometry(5, 5)
    cx, _ = gen_ma_cfr(PathSet(SHORT_PATHS), geo, FREQS)
    cir = cfr_to_cir(cx.values, FREQS, 4)
    np.testing.assert_allclose(cir_to_cfr(cir, FREQS, 4), cx.values, atol=1e-12)


def test_cfr_to_cir_returns_a_fresh_array_with_the_same_bits():
    rng = np.random.default_rng(5)
    double = rng.normal(size=(3, FREQS.n_points)) + 1j * rng.normal(size=(3, FREQS.n_points))
    for spectrum, pad in ((double, 1), (double, 3), (double, 4),
                          (double.astype(np.complex64), 3)):
        before = spectrum.copy()
        n = FREQS.n_points * pad
        tau = delay_axis(FREQS, pad)
        profile = cfr_to_cir(spectrum, FREQS, pad)
        assert profile.flags.writeable
        expect = (np.fft.ifft(spectrum, n=n, axis=-1) * (n / FREQS.n_points)
                  * np.exp(2j * np.pi * FREQS.f_start_hz * tau))
        assert profile.tobytes() == expect.tobytes()
        back = cir_to_cfr(profile, FREQS, pad)
        expect = (np.fft.fft(profile * np.exp(-2j * np.pi * FREQS.f_start_hz * tau),
                             axis=-1)[..., :FREQS.n_points] * (FREQS.n_points / n))
        assert back.tobytes() == expect.tobytes()
        assert spectrum.tobytes() == before.tobytes()


def brute_force_padp_value(cfr, theta_deg, phi_deg, tau):
    """(1/L) sum over frequency of the beam response times exp(+j2pi f tau)."""
    values = np.array([brute_force_ura_beam(cfr, theta_deg, phi_deg, li)
                       for li in range(cfr.freqs.n_points)])
    return np.mean(values * np.exp(2j * np.pi * cfr.freqs.points * tau))


def test_padp_ura_matches_brute_force():
    geo = UraGeometry(3, 3)
    cfr = gen_ura_cfr(PathSet(SHORT_PATHS), geo, FREQS)
    phi_axis = np.array([120.0, 200.0])
    padp = padp_ura(cfr, 45.0, phi_axis, pad_factor=2)
    tau = delay_axis(FREQS, 2)
    for ti in (0, 7, 100):
        for j, phi in enumerate(phi_axis):
            expect = brute_force_padp_value(cfr, 45.0, phi, tau[ti])
            assert padp.values[ti, j] == pytest.approx(expect, abs=1e-9)


def test_padp_ma_doubles_path_delay():
    path = PathComponent.from_power_db(0, 90, 180, 2.0)
    geo = MaGeometry(9, 9)
    cx, cy = gen_ma_cfr(PathSet([path]), geo, FREQS)
    padp = padp_ma(cx, cy, 90.0, np.array([180.0]), pad_factor=4)
    tau_peak = padp.delay_s[int(np.argmax(np.abs(padp.values[:, 0])))]
    assert tau_peak == pytest.approx(4e-9, abs=padp.delay_s[1])


@pytest.mark.parametrize("theta", [float("nan"), 150.0, -1.0])
def test_padp_rejects_cut_elevation_outside_0_90(theta):
    ura = gen_ura_cfr(PathSet(SHORT_PATHS), UraGeometry(3, 3), FREQS)
    cx, cy = gen_ma_cfr(PathSet(SHORT_PATHS), MaGeometry(5, 5), FREQS)
    phi = np.array([120.0, 200.0])
    with pytest.raises(ValueError, match=r"cut elevation must lie in \[0, 90\]"):
        padp_ura(ura, theta, phi)
    with pytest.raises(ValueError, match=r"cut elevation must lie in \[0, 90\]"):
        padp_ma(cx, cy, theta, phi)


def test_padp_window_suppresses_delay_sidelobes():
    path = PathComponent.from_power_db(0, 90, 180, 2.0)
    geo = UraGeometry(5, 5)
    cfr = gen_ura_cfr(PathSet([path]), geo, FREQS)
    plain = padp_ura(cfr, 90.0, np.array([180.0]), pad_factor=4)
    windowed = padp_ura(cfr, 90.0, np.array([180.0]), pad_factor=4, window="hann")
    mag_plain = np.abs(plain.values[:, 0])
    mag_win = np.abs(windowed.values[:, 0])
    peak = int(np.argmax(mag_plain))
    far = np.abs(np.arange(mag_plain.size) - peak) > 12
    # windowing trades a slightly wider main lobe for much lower sidelobes
    assert mag_win[far].max() < 0.1 * mag_plain[far].max()
    assert mag_win[peak] == pytest.approx(1.0, abs=0.05)
    with pytest.raises(ValueError):
        padp_ura(cfr, 90.0, np.array([180.0]), window="hamming-typo")


def test_level_db_conventions():
    values = np.full((1, 1), 0.1 + 0j)
    ura = BeamPattern(values, np.array([0.0]), np.array([0.0]), 28e9, "ura")
    ma = BeamPattern(values, np.array([0.0]), np.array([0.0]), 28e9, "ma")
    assert ura.level_db()[0, 0] == pytest.approx(-20.0)
    assert ma.level_db()[0, 0] == pytest.approx(-10.0)


def test_predict_ma_terms_table_delays():
    paths = [PathComponent.from_power_db(0, 60, 120, 12),
             PathComponent.from_power_db(-10, 30, 140, 40),
             PathComponent.from_power_db(-15, 80, 220, 13)]
    terms = predict_ma_terms(paths)
    assert len(terms) == 9
    delays_ns = sorted(round(t.delay_s * 1e9, 6) for t in terms)
    assert delays_ns == [24.0, 25.0, 25.0, 26.0, 52.0, 52.0, 53.0, 53.0, 80.0]
    true_terms = [t for t in terms if t.is_true]
    assert sorted(round(t.delay_s * 1e9, 6) for t in true_terms) == [24.0, 26.0, 80.0]
    assert {round(t.level_db, 1) for t in true_terms} == {0.0, -10.0, -15.0}
    fake_12 = next(t for t in terms if t.origin == (0, 1))
    assert fake_12.level_db == pytest.approx(-5.0)
    assert fake_12.u == pytest.approx(uv_map(paths[0].direction).u)
    assert fake_12.v == pytest.approx(uv_map(paths[1].direction).v)
    with pytest.raises(ValueError):
        predict_ma_terms([])


def _beam_from_level_db(level):
    values = 10.0 ** (np.asarray(level, float) / 20.0)
    n_t, n_p = values.shape
    return BeamPattern(values, np.arange(n_t, dtype=float),
                       np.arange(n_p, dtype=float), 28e9, "ura")


def test_find_peaks_constant_grid_is_single_plateau():
    beam = _beam_from_level_db(np.zeros((5, 7)))
    peaks = find_peaks(beam, dynamic_range_db=10)
    assert len(peaks) == 1
    assert (peaks[0].row, peaks[0].col) == (0, 0)


def test_find_peaks_ordering_and_dynamic_range():
    level = np.full((9, 9), -40.0)
    level[2, 3] = -3.0
    level[6, 7] = 0.0
    level[8, 0] = -25.0
    beam = _beam_from_level_db(level)
    peaks = find_peaks(beam, dynamic_range_db=10)
    assert [(p.row, p.col) for p in peaks] == [(6, 7), (2, 3)]
    peaks = find_peaks(beam, dynamic_range_db=30)
    assert [(p.row, p.col) for p in peaks] == [(6, 7), (2, 3), (8, 0)]


def test_find_peaks_min_separation_suppression():
    level = np.full((9, 9), -40.0)
    level[4, 4] = 0.0
    level[4, 6] = -1.0   # two cells away: suppressed at separation 3
    level[4, 8] = -2.0
    beam = _beam_from_level_db(level)
    got = find_peaks(beam, dynamic_range_db=10, min_separation=3)
    assert [(p.row, p.col) for p in got] == [(4, 4), (4, 8)]
    got = find_peaks(beam, dynamic_range_db=10, min_separation=1)
    assert [(p.row, p.col) for p in got] == [(4, 4), (4, 6), (4, 8)]


def test_find_peaks_padp_tie_breaks_toward_low_delay():
    level = np.full((20, 5), -40.0)
    level[3, 2] = 0.0
    level[15, 2] = 0.0
    padp = Padp(10.0 ** (level / 10.0), np.arange(20) * 1e-10,
                np.arange(5, dtype=float), 90.0, "ma")
    peaks = find_peaks(padp, dynamic_range_db=5)
    assert [p.row for p in peaks] == [3, 15]
    assert peaks[0].delay_s == pytest.approx(3e-10)


def test_find_peaks_reports_uv_coordinates():
    level = np.full((11, 11), -50.0)
    level[2, 9] = 0.0
    u_axis = np.linspace(0, 1, 11)
    beam = UvBeam(10.0 ** (level / 10.0), u_axis, u_axis, 28e9, "ma")
    peaks = find_peaks(beam, dynamic_range_db=10)
    assert peaks[0].u == pytest.approx(0.2)
    assert peaks[0].v == pytest.approx(0.9)
