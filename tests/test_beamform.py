import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from masounder.beamform import (_PADP_BLOCK_BYTES, BeamPattern, Padp, UvBeam,
                                _delay_phasors, _level_db, _ma_beam, _row_blocks,
                                _ura_beam, cbf_ma, cbf_ma_uv, cbf_ura, cfr_to_cir,
                                cir_to_cfr, find_peaks, line_spectrum, padp_ma,
                                padp_ura)
from masounder.channel import gen_ma_cfr, gen_ura_cfr
from masounder.geometry import (Direction, FrequencyGrid, MaGeometry,
                                PathComponent, ScanGrid, UraGeometry,
                                UvPoint, delay_axis, scan_cosines, uv_map, uv_unmap)
from masounder.scenario import parse_scenario
from masounder.sic import subtract_path

from conftest import scenario_path

FREQS = FrequencyGrid(26e9, 30e9, 64)
SHORT_PATHS = [
    PathComponent.from_power_db(0, 60, 120, 1.0),
    PathComponent.from_power_db(-6, 30, 200, 3.0, phase_deg=40.0),
]


def element_indices(count):
    """Signed element indices of an odd count, -(count // 2) to count // 2."""
    return np.arange(-(count // 2), count // 2 + 1)


def brute_force_ura_beam(cfr, theta_deg, phi_deg, f_index, taper=None):
    """Element-by-element delay-and-sum, plain double loop. With wideband
    phase the steering scales with f / ref_freq_hz at the column's f."""
    geo = cfr.geometry
    scale = 1.0 if cfr.narrowband_phase else cfr.freqs.points[f_index] / cfr.ref_freq_hz
    tx = np.ones(geo.m_count) if taper is None else taper[0]
    ty = np.ones(geo.n_count) if taper is None else taper[1]
    uv = uv_map(Direction(theta_deg, phi_deg % 360.0))
    total = 0.0 + 0.0j
    for a, m in enumerate(geo.x_indices):
        for b, n in enumerate(geo.y_indices):
            weight = (tx[a] * ty[b]
                      * np.exp(-2j * np.pi * geo.dx_wl * m * uv.u * scale)
                      * np.exp(-2j * np.pi * geo.dy_wl * n * uv.v * scale))
            total += weight * cfr.values[a, b, f_index]
    return total / (np.sum(np.abs(tx)) * np.sum(np.abs(ty)))


def whole_profile(spectrum, freqs, pad_factor, kind):
    """The complex (delay, azimuth) profile of a cut's (azimuth, frequency)
    beam spectrum, transformed whole, and its level: a Padp takes its level
    block by block, and must hold this one bit for bit."""
    profile = cfr_to_cir(spectrum, freqs, pad_factor).T
    return profile, _level_db(profile, kind)


def ura_cut_spectrum(cfr, theta_deg, phi_deg, taper=None):
    """The (azimuth, frequency) beam spectrum padp_ura transforms."""
    u, v = scan_cosines(np.array([theta_deg]), phi_deg)
    return _ura_beam(cfr, taper, slice(None))(u, v)[0]


def brute_force_ma_beam(cfr_x, cfr_y, theta_deg, phi_deg, f_index):
    geo = cfr_x.geometry
    uv = uv_map(Direction(theta_deg, phi_deg % 360.0))
    bx = sum(np.exp(-2j * np.pi * geo.d_wl * m * uv.u) * cfr_x.values[a, f_index]
             for a, m in enumerate(element_indices(geo.x_count))) / geo.x_count
    by = sum(np.exp(-2j * np.pi * geo.d_wl * n * uv.v) * cfr_y.values[b, f_index]
             for b, n in enumerate(element_indices(geo.y_count))) / geo.y_count
    return bx * by


def test_cbf_ura_matches_brute_force():
    geo = UraGeometry(3, 5, 0.5, 0.5)
    cfr = gen_ura_cfr(SHORT_PATHS, geo, FREQS)
    grid = ScanGrid(np.array([20.0, 60.0]), np.array([100.0, 200.0, 260.0]))
    beam = cbf_ura(cfr, grid, FREQS.f_center_hz)
    for i, theta in enumerate(grid.theta_deg):
        for j, phi in enumerate(grid.phi_deg):
            expect = brute_force_ura_beam(cfr, theta, phi, FREQS.center_index)
            assert beam.values[i, j] == pytest.approx(expect, abs=1e-9)


def test_cbf_ura_with_taper_matches_brute_force():
    geo = UraGeometry(3, 5, 0.5, 0.5)
    cfr = gen_ura_cfr(SHORT_PATHS, geo, FREQS)
    taper = (np.array([0.5, 1.0, 0.5]), np.array([0.3, 0.8, 1.0, 0.8, 0.3]))
    grid = ScanGrid(np.array([30.0]), np.array([120.0]))
    beam = cbf_ura(cfr, grid, FREQS.f_center_hz, taper=taper)
    expect = brute_force_ura_beam(cfr, 30.0, 120.0, FREQS.center_index, taper)
    assert beam.values[0, 0] == pytest.approx(expect, abs=1e-9)


def test_wideband_cbf_ura_and_padp_ura_match_brute_force():
    cfr = gen_ura_cfr(SHORT_PATHS, UraGeometry(5, 7), FREQS, narrowband_phase=False)
    grid = ScanGrid(np.array([20.0, 60.0]), np.array([100.0, 200.0, 260.0]))
    for col in (0, FREQS.center_index, FREQS.n_points - 1):
        beam = cbf_ura(cfr, grid, FREQS.points[col])
        for i, theta in enumerate(grid.theta_deg):
            for j, phi in enumerate(grid.phi_deg):
                expect = brute_force_ura_beam(cfr, theta, phi, col)
                assert beam.values[i, j] == pytest.approx(expect, abs=1e-9)
    phi_axis = np.array([120.0, 200.0])
    padp = padp_ura(cfr, 45.0, phi_axis, pad_factor=2)
    profile, level = whole_profile(ura_cut_spectrum(cfr, 45.0, phi_axis), FREQS, 2, "ura")
    assert padp.level.tobytes() == level.tobytes()
    tau = delay_axis(FREQS, 2)
    for ti in (0, 7, 100):
        for j, phi in enumerate(phi_axis):
            expect = brute_force_padp_value(cfr, 45.0, phi, tau[ti])
            assert profile[ti, j] == pytest.approx(expect, abs=1e-9)


def test_cbf_ma_matches_brute_force():
    geo = MaGeometry(5, 9, 0.5)
    cx, cy = gen_ma_cfr(SHORT_PATHS, geo, FREQS)
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
    b = (line_sum(cfr_x, element_indices(geo.x_count), u, tx)
         * line_sum(cfr_y, element_indices(geo.y_count), v, ty))
    return b.reshape(u.shape)


def per_column_line_sums(cfr_x, cfr_y, cosines_x, cosines_y, taper=None):
    """Normalized x and y sub-array sums over every sweep column, one
    steering matrix per column; each shape (n_points, n_cols)."""
    geo = cfr_x.geometry
    tx, ty = taper if taper is not None else (np.ones(geo.x_count), np.ones(geo.y_count))
    sums = []
    for cfr, count, cosines, weights in ((cfr_x, geo.x_count, cosines_x, tx),
                                         (cfr_y, geo.y_count, cosines_y, ty)):
        indices = element_indices(count)
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
    narrow = gen_ma_cfr(SHORT_PATHS, geo, FREQS)
    wide = gen_ma_cfr(SHORT_PATHS, geo, FREQS, narrowband_phase=False)
    for grid in grids:
        for (cx, cy), tp in ((narrow, None), (wide, None), (narrow, taper), (wide, taper)):
            for f_index in (FREQS.center_index, 3):
                beam = cbf_ma(cx, cy, grid, FREQS.points[f_index], tp)
                expect = uncached_ma_beam(cx, cy, grid, f_index, tp)
                assert_close_to_peak(beam.values, expect)
                assert np.argmax(np.abs(beam.values)) == np.argmax(np.abs(expect))


def test_cbf_ma_steering_is_keyed_by_scan_values():
    geo = MaGeometry(5, 9, 0.5)
    cx, cy = gen_ma_cfr(SHORT_PATHS, geo, FREQS)
    grid = ScanGrid(np.array([20.0, 60.0]), np.array([100.0, 200.0, 260.0]))
    first = cbf_ma(cx, cy, grid, FREQS.f_center_hz).values
    grid.phi_deg[:] += 10.0
    second = cbf_ma(cx, cy, grid, FREQS.f_center_hz).values
    assert not np.array_equal(first, second)
    assert_close_to_peak(second, uncached_ma_beam(cx, cy, grid, FREQS.center_index))


def test_wideband_line_spectrum_and_padp_ma_match_per_column_steering():
    geo = MaGeometry(5, 9, 0.5)
    cx, cy = gen_ma_cfr(SHORT_PATHS, geo, FREQS, narrowband_phase=False)
    taper = (np.array([0.3, 0.8, 1.0, 0.8, 0.3]), np.linspace(0.2, 1.0, 9))
    u, v = scan_cosines(np.array([60.0]), np.array([100.0, 120.0, 200.0]))
    x_sum, y_sum = per_column_line_sums(cx, cy, u, v)
    assert_close_to_peak(np.stack([line_spectrum(cx, c) for c in u[0]]), x_sum * geo.x_count)
    assert_close_to_peak(np.stack([line_spectrum(cy, c) for c in v[0]]), y_sum * geo.y_count)
    for tp in (None, taper):
        x_sum, y_sum = per_column_line_sums(cx, cy, u, v, tp)
        padp = padp_ma(cx, cy, 60.0, np.array([100.0, 120.0, 200.0]), 2, taper=tp)
        profile, level = whole_profile(_ma_beam(cx, cy, tp, slice(None))(u, v)[0],
                                       FREQS, 2, "ma")
        assert padp.level.tobytes() == level.tobytes()
        assert_close_to_peak(profile, cfr_to_cir(x_sum * y_sum, FREQS, 2).T)


def test_narrowband_line_spectrum_and_padp_ma_are_bitwise_steering_products():
    geo = MaGeometry(5, 9, 0.5)
    cx, cy = gen_ma_cfr(SHORT_PATHS, geo, FREQS)
    taper = (np.array([0.3, 0.8, 1.0, 0.8, 0.3]), np.linspace(0.2, 1.0, 9))
    phi = np.array([100.0, 120.0, 200.0])
    u, v = scan_cosines(np.array([60.0]), phi)
    xs, ys = element_indices(5), element_indices(9)
    # one cosine is summed by Horner's rule, not by a steering product
    assert_close_to_peak(np.stack([line_spectrum(cx, c) for c in u[0]]),
                         conj_steer(xs, geo.d_wl, u, 1.0).T @ cx.values)
    for tx, ty in ((np.ones(5), np.ones(9)), taper):
        x_sum = (conj_steer(xs, geo.d_wl, u, 1.0).T
                 @ (tx[:, None] * cx.values) / np.sum(np.abs(tx)))
        y_sum = (conj_steer(ys, geo.d_wl, v, 1.0).T
                 @ (ty[:, None] * cy.values) / np.sum(np.abs(ty)))
        padp = padp_ma(cx, cy, 60.0, phi, 2, taper=(tx, ty))
        spectrum = _ma_beam(cx, cy, (tx, ty), slice(None))(u, v)[0]
        assert spectrum.tobytes() == (x_sum * y_sum).tobytes()
        assert padp.level.tobytes() == whole_profile(spectrum, FREQS, 2, "ma")[1].tobytes()


def test_cbf_ma_on_a_large_scan_allocates_no_steering_matrix():
    # 199 + 199 elements over a 91 x 181 scan: a complex128 steering matrix
    # pair would take 16 B x 398 x 16,471 = 100 MiB.
    geo = MaGeometry(199, 199, 0.5)
    cx, cy = gen_ma_cfr(SHORT_PATHS, geo, FREQS)
    grid = ScanGrid.regular(0.0, 90.0, 1.0, 0.0, 360.0, 2.0)
    tracemalloc.start()
    try:
        cbf_ma(cx, cy, grid, FREQS.f_center_hz)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_cbf_ura_on_a_large_scan_allocates_no_steering_matrix():
    # 201 x 3 elements over a 181 x 720 scan: a complex128 steering matrix
    # along x would take 16 B x 201 x 130,320 = 400 MiB.
    geo = UraGeometry(201, 3, 0.5, 0.5)
    cfr = gen_ura_cfr(SHORT_PATHS, geo, FREQS)
    grid = ScanGrid.regular(0.0, 90.0, 0.5, 0.0, 359.5, 0.5)
    tracemalloc.start()
    try:
        cbf_ura(cfr, grid, FREQS.f_center_hz)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("name,kind", [("table1", "ma"), ("fig5", "ura")])
def test_padp_peak_stays_below_one_complex_profile(name, kind):
    # The beam spectrum is formed a block of azimuths at a time and each
    # block's level is taken in sub-blocks, so neither the (azimuth x
    # frequency) spectrum nor the (delay x azimuth) complex profile, 16.6
    # MiB at these scenarios, ever exists. Above the level, 8 B a cell, a
    # call holds one block's sums and one sub-block's transform (1.5-1.8
    # MiB here).
    s = parse_scenario(scenario_path(name))
    phi = s.scan_grid().phi_deg
    if kind == "ura":
        padp_of, cfrs = padp_ura, [gen_ura_cfr(s.paths, s.ura, s.freqs)]
    else:
        padp_of, cfrs = padp_ma, gen_ma_cfr(s.paths, s.ma, s.freqs)
    tracemalloc.start()
    try:
        padp = padp_of(*cfrs, s.compare_theta_deg, phi, s.pad_factor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert padp.level.shape == (s.freqs.n_points * s.pad_factor, phi.size)
    assert peak < 8 * padp.level.size + 5 * _PADP_BLOCK_BYTES
    with pytest.raises(ValueError, match="read-only"):
        padp.level[0, 0] = 0.0


@pytest.mark.parametrize("kind", ["ura", "ma"])
def test_padp_blocks_bound_the_steering_matrix_of_an_axis_wider_than_the_sweep(kind):
    # 8,001 elements on the steered axis (y of a URA, the wider MA sub-array)
    # against 64 sweep points: one steering matrix over all 181 azimuths
    # would take 23 MB, so the blocks are sized by the elements as well.
    phi = np.arange(90.0, 271.0, 1.0)
    if kind == "ura":
        padp_of, cfrs = padp_ura, [gen_ura_cfr(SHORT_PATHS, UraGeometry(3, 8001), FREQS)]
    else:
        padp_of, cfrs = padp_ma, gen_ma_cfr(SHORT_PATHS, MaGeometry(5, 8001), FREQS)
    tracemalloc.start()
    try:
        padp = padp_of(*cfrs, 60.0, phi, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * padp.level.size + 5 * _PADP_BLOCK_BYTES


def test_row_blocks_leave_no_lone_last_row():
    for n_rows in range(1, 40):
        for step in (2, 3, 5, 21):
            blocks = list(_row_blocks(n_rows, step))
            assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n_rows))
            sizes = [b.stop - b.start for b in blocks]
            assert max(sizes) <= step + 1 and sum(s > step for s in sizes) <= 1
            assert min(sizes) >= 2 or n_rows == 1


@pytest.mark.parametrize("narrowband", [True, False])
def test_padp_blocks_give_the_whole_transform_bit_for_bit(narrowband):
    # 64 points give spectrum blocks of 512 rows, so 513 azimuths would
    # leave a 1-row last block, which joins the block before it. Each level
    # must hold the bits of the whole spectrum transformed at once.
    phi = np.linspace(90.0, 270.0, 513)
    n_rows = _PADP_BLOCK_BYTES // (16 * FREQS.n_points)
    assert phi.size % n_rows == 1
    u, v = scan_cosines(np.array([60.0]), phi)
    cfr = gen_ura_cfr(SHORT_PATHS, UraGeometry(5, 21), FREQS, narrowband_phase=narrowband)
    cx, cy = gen_ma_cfr(SHORT_PATHS, MaGeometry(9, 41, 0.5), FREQS,
                        narrowband_phase=narrowband)
    for taper in (None, (np.hanning(7)[1:-1], np.hanning(23)[1:-1])):
        padp = padp_ura(cfr, 60.0, phi, 2, taper=taper)
        spectrum = _ura_beam(cfr, taper, slice(None))(u, v)[0]
        assert padp.level.tobytes() == whole_profile(spectrum, FREQS, 2, "ura")[1].tobytes()
    for taper in (None, (np.hanning(11)[1:-1], np.hanning(43)[1:-1])):
        padp = padp_ma(cx, cy, 60.0, phi, 2, taper=taper)
        spectrum = _ma_beam(cx, cy, taper, slice(None))(u, v)[0]
        assert padp.level.tobytes() == whole_profile(spectrum, FREQS, 2, "ma")[1].tobytes()


def test_cached_delay_phasors_are_read_only():
    for array in _delay_phasors(FREQS, 4):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_matched_unit_path_gives_unit_beam():
    path = PathComponent.from_power_db(0, 60, 120, 2.0)
    geo = UraGeometry(5, 5)
    cfr = gen_ura_cfr([path], geo, FREQS)
    grid = ScanGrid(np.array([60.0]), np.array([120.0]))
    beam = cbf_ura(cfr, grid, FREQS.f_center_hz)
    assert abs(beam.values[0, 0]) == pytest.approx(1.0, abs=1e-12)
    ma = MaGeometry(9, 9)
    cx, cy = gen_ma_cfr([path], ma, FREQS)
    mbeam = cbf_ma(cx, cy, grid, FREQS.f_center_hz)
    assert abs(mbeam.values[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_uv_lattice_beams_agree_with_angle_scan():
    ma = MaGeometry(5, 9)
    cx, cy = gen_ma_cfr(SHORT_PATHS, ma, FREQS)
    theta, phi = 50.0, 210.0
    uv = uv_map(Direction(theta, phi))
    grid = ScanGrid(np.array([theta]), np.array([phi]))
    mb = cbf_ma_uv(cx, cy, np.array([uv.u]), np.array([uv.v]), FREQS.f_center_hz)
    assert mb.values[0, 0] == pytest.approx(
        cbf_ma(cx, cy, grid, FREQS.f_center_hz).values[0, 0], abs=1e-12)


def test_off_grid_frequency_rejected():
    geo = UraGeometry(3, 3)
    cfr = gen_ura_cfr(SHORT_PATHS[:1], geo, FREQS)
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
    cx, _ = gen_ma_cfr(SHORT_PATHS, geo, FREQS)
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
    cfr = gen_ura_cfr(SHORT_PATHS, geo, FREQS)
    phi_axis = np.array([120.0, 200.0])
    padp = padp_ura(cfr, 45.0, phi_axis, pad_factor=2)
    profile, level = whole_profile(ura_cut_spectrum(cfr, 45.0, phi_axis), FREQS, 2, "ura")
    assert padp.level.tobytes() == level.tobytes()
    tau = delay_axis(FREQS, 2)
    for ti in (0, 7, 100):
        for j, phi in enumerate(phi_axis):
            expect = brute_force_padp_value(cfr, 45.0, phi, tau[ti])
            assert profile[ti, j] == pytest.approx(expect, abs=1e-9)


def test_padp_ma_doubles_path_delay():
    path = PathComponent.from_power_db(0, 90, 180, 2.0)
    geo = MaGeometry(9, 9)
    cx, cy = gen_ma_cfr([path], geo, FREQS)
    padp = padp_ma(cx, cy, 90.0, np.array([180.0]), pad_factor=4)
    tau_peak = padp.delay_s[int(np.argmax(padp.level[:, 0]))]
    assert tau_peak == pytest.approx(4e-9, abs=padp.delay_s[1])


GRID = ScanGrid(np.array([30.0]), np.array([120.0]))
F_CENTER = FREQS.f_center_hz
PHI = np.array([120.0, 200.0])


# Calls on inputs a beamformer, the subtraction or a CfrSet cannot use, on a
# 3 x 3 URA CFR and the ma_x, ma_y CFRs of a 5 x 5 MA, with the error each
# raises.
@pytest.mark.parametrize("call,match", [
    (lambda ura, cx, cy: cbf_ura(cx, GRID, F_CENTER), "cbf_ura needs a URA-layout CFR"),
    (lambda ura, cx, cy: padp_ura(cy, 90.0, PHI), "padp_ura needs a URA-layout CFR"),
    (lambda ura, cx, cy: line_spectrum(ura, 0.5),
     r"layout 'ura' is not an MA sub-array \(ma_x or ma_y\)"),
    (lambda ura, cx, cy: line_spectrum(cx, np.array([0.1, 0.2])),
     "line_spectrum steers at one scalar cosine"),
    (lambda ura, cx, cy: subtract_path(ura, SHORT_PATHS[0]),
     r"layout 'ura' is not an MA sub-array \(ma_x or ma_y\)"),
    (lambda ura, cx, cy: replace(ura, geometry=cx.geometry),
     "layout 'ura' needs a UraGeometry"),
    (lambda ura, cx, cy: replace(cx, geometry=ura.geometry),
     "layout 'ma_x' needs a MaGeometry"),
    (lambda ura, cx, cy: cbf_ma(cy, cx, GRID, F_CENTER), "cbf_ma needs ma_x and ma_y CFRs"),
    (lambda ura, cx, cy: padp_ma(cx, cx, 90.0, PHI), "padp_ma needs ma_x and ma_y CFRs"),
    (lambda ura, cx, cy: cbf_ura(ura, GRID, F_CENTER, taper=(np.ones(3), np.ones(5))),
     "taper lengths must match the array geometry"),
    (lambda ura, cx, cy: padp_ma(cx, cy, 90.0, PHI, taper=(np.ones(5), np.ones(3))),
     "taper lengths must match the array geometry"),
    (lambda ura, cx, cy: find_peaks(_beam_from_level_db(np.zeros((0, 3))), 10.0),
     "empty grid"),
], ids=["cbf_ura-ma_x", "padp_ura-ma_y", "line_spectrum-ura", "line_spectrum-cosines",
        "subtract_path-ura", "CfrSet-ura-ma-geometry", "CfrSet-ma_x-ura-geometry",
        "cbf_ma-swapped", "padp_ma-two-ma_x", "cbf_ura-taper", "padp_ma-taper",
        "find_peaks-empty"])
def test_beamformers_reject_inputs_they_cannot_use(call, match):
    ura = gen_ura_cfr(SHORT_PATHS, UraGeometry(3, 3), FREQS)
    cx, cy = gen_ma_cfr(SHORT_PATHS, MaGeometry(5, 5), FREQS)
    with pytest.raises(ValueError, match=match):
        call(ura, cx, cy)


@pytest.mark.parametrize("theta", [float("nan"), 150.0, -1.0])
def test_padp_rejects_cut_elevation_outside_0_90(theta):
    ura = gen_ura_cfr(SHORT_PATHS, UraGeometry(3, 3), FREQS)
    cx, cy = gen_ma_cfr(SHORT_PATHS, MaGeometry(5, 5), FREQS)
    phi = np.array([120.0, 200.0])
    with pytest.raises(ValueError, match=r"cut elevation must lie in \[0, 90\]"):
        padp_ura(ura, theta, phi)
    with pytest.raises(ValueError, match=r"cut elevation must lie in \[0, 90\]"):
        padp_ma(cx, cy, theta, phi)


def test_padp_window_suppresses_delay_sidelobes():
    path = PathComponent.from_power_db(0, 90, 180, 2.0)
    geo = UraGeometry(5, 5)
    cfr = gen_ura_cfr([path], geo, FREQS)
    plain = padp_ura(cfr, 90.0, np.array([180.0]), pad_factor=4)
    windowed = padp_ura(cfr, 90.0, np.array([180.0]), pad_factor=4, window="hann")
    level_plain, level_win = plain.level[:, 0], windowed.level[:, 0]
    peak = int(np.argmax(level_plain))
    far = np.abs(np.arange(level_plain.size) - peak) > 12
    # windowing trades a slightly wider main lobe for much lower sidelobes:
    # a tenth of the magnitude is 20 dB down
    assert level_win[far].max() < level_plain[far].max() - 20.0
    assert 10.0 ** (level_win[peak] / 20.0) == pytest.approx(1.0, abs=0.05)
    with pytest.raises(ValueError):
        padp_ura(cfr, 90.0, np.array([180.0]), window="hamming-typo")


def test_level_db_conventions():
    values = np.full((1, 1), 0.1 + 0j)
    ura = BeamPattern(values, np.array([0.0]), np.array([0.0]), 28e9, "ura")
    ma = BeamPattern(values, np.array([0.0]), np.array([0.0]), 28e9, "ma")
    assert ura.level_db()[0, 0] == pytest.approx(-20.0)
    assert ma.level_db()[0, 0] == pytest.approx(-10.0)


def test_ma_uv_beam_peaks_at_every_cross_product_of_path_cosines():
    # Three paths whose u (and v) differ by whole multiples of the 41-element
    # null spacing 2 / 41: at any path's u the other paths fall on nulls, so
    # the x sum there is that path's amplitude alone. The product beam then
    # holds K^2 = 9 maxima, one at each (u_i, v_j), at (P_i + P_j) / 2 dB.
    # The sidelobes, 13 dB down on one axis, stay 6 dB below the weakest.
    k_u, k_v, powers_db = (-12, 2, 12), (8, -6, -14), (0.0, -1.0, -2.0)
    paths = []
    for ku, kv, power_db, delay_ns in zip(k_u, k_v, powers_db, (1.0, 3.0, 2.0)):
        direction = uv_unmap(UvPoint(ku * 2 / 41, kv * 2 / 41))
        paths.append(PathComponent.from_power_db(power_db, direction.theta_deg,
                                                 direction.phi_deg, delay_ns, 40.0 * ku))
    cx, cy = gen_ma_cfr(paths, MaGeometry(41, 41, 0.5), FREQS)
    axis = np.arange(-41, 42) / 41  # lattice step 1 / 41: index 41 + 2k is cosine 2k / 41
    beam = cbf_ma_uv(cx, cy, axis, axis, FREQS.f_center_hz)
    peaks = find_peaks(beam, dynamic_range_db=4.0)
    expect = {(41 + 2 * k_u[i], 41 + 2 * k_v[j]): (powers_db[i] + powers_db[j]) / 2
              for i in range(3) for j in range(3)}
    assert len(peaks) == 9
    assert {(p.row, p.col) for p in peaks} == set(expect)
    for p in peaks:
        assert p.level_db == pytest.approx(expect[p.row, p.col], abs=1e-9)


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
    padp = Padp(level, np.arange(20) * 1e-10, np.arange(5, dtype=float), 90.0, "ma")
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
