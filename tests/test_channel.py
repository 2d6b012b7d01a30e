import numpy as np
import pytest

from masounder.channel import (CfrSet, add_noise, gen_ma_cfr, gen_ura_cfr, ma_axis,
                               sounded_paths)
from masounder.geometry import (Direction, FrequencyGrid, MaGeometry,
                                PathComponent, UraGeometry, signed_indices, uv_map)

TABLE_PATHS = [
    PathComponent.from_power_db(0, 60, 120, 12),
    PathComponent.from_power_db(-10, 30, 140, 40),
    PathComponent.from_power_db(-15, 80, 220, 13),
]


def hand_cfr_value(paths, m, n, f_hz, d_wl):
    """Direct three-term sum for one URA element at one frequency."""
    total = 0.0 + 0.0j
    for p in paths:
        uv = uv_map(p.direction)
        total += (p.amplitude * np.exp(-2j * np.pi * f_hz * p.delay_s)
                  * np.exp(2j * np.pi * d_wl * (m * uv.u + n * uv.v)))
    return total


def test_ura_cfr_matches_hand_sum():
    freqs = FrequencyGrid(26e9, 30e9, 375)
    geo = UraGeometry(5, 5, 0.5, 0.5)
    cfr = gen_ura_cfr(TABLE_PATHS, geo, freqs)
    for (m, n, li) in [(0, 0, 0), (2, -1, 0), (-2, 2, 100), (1, 1, 374)]:
        expect = hand_cfr_value(TABLE_PATHS, m, n, freqs.points[li], 0.5)
        got = cfr.values[m + 2, n + 2, li]
        assert got == pytest.approx(expect, abs=1e-12)


def test_ma_cfr_matches_hand_sum():
    freqs = FrequencyGrid(26e9, 30e9, 375)
    geo = MaGeometry(9, 9, 0.5)
    cx, cy = gen_ma_cfr(TABLE_PATHS, geo, freqs)
    for (m, li) in [(0, 0), (-4, 10), (3, 374)]:
        assert cx.values[m + 4, li] == pytest.approx(
            hand_cfr_value(TABLE_PATHS, m, 0, freqs.points[li], 0.5), abs=1e-12)
        assert cy.values[m + 4, li] == pytest.approx(
            hand_cfr_value(TABLE_PATHS, 0, m, freqs.points[li], 0.5), abs=1e-12)


def test_ma_axis_gives_each_sub_array_its_indices_spacing_and_cosine():
    # 5 x 7 elements, so a swapped axis changes a count
    freqs = FrequencyGrid(26e9, 30e9, 16)
    geo = MaGeometry(5, 7, 0.4)
    path = PathComponent.from_power_db(0, 60, 120, 1.0)
    uv = uv_map(path.direction)
    expected = {"ma_x": (np.arange(-2, 3), 0, uv.u), "ma_y": (np.arange(-3, 4), 1, uv.v)}
    for cfr in gen_ma_cfr([path], geo, freqs):
        indices, axis, cosine = expected[cfr.layout]
        count, spacing, got_axis = ma_axis(cfr.layout, geo)
        np.testing.assert_array_equal(signed_indices(count), indices)
        assert (spacing, got_axis) == (0.4, axis)
        # each half of gen_ma_cfr is the path on those elements at that cosine
        hand = (path.amplitude * np.exp(2j * np.pi * spacing * indices * cosine)[:, None]
                * np.exp(-2j * np.pi * freqs.points * path.delay_s))
        np.testing.assert_allclose(cfr.values, hand, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match=r"layout 'ura' is not an MA sub-array"):
        ma_axis("ura", geo)


def test_cfr_superposition():
    freqs = FrequencyGrid(26e9, 30e9, 375)
    geo = UraGeometry(3, 5)
    both = gen_ura_cfr(TABLE_PATHS[:2], geo, freqs)
    first = gen_ura_cfr(TABLE_PATHS[:1], geo, freqs)
    second = gen_ura_cfr(TABLE_PATHS[1:2], geo, freqs)
    np.testing.assert_allclose(both.values, first.values + second.values,
                               atol=1e-14)


def test_wideband_phase_differs_but_agrees_at_reference():
    freqs = FrequencyGrid(26e9, 30e9, 41)
    geo = MaGeometry(9, 9, 0.5)
    path = [PathComponent.from_power_db(0, 60, 120, 1.0)]
    narrow, _ = gen_ma_cfr(path, geo, freqs)
    wide, _ = gen_ma_cfr(path, geo, freqs, narrowband_phase=False)
    assert not np.allclose(narrow.values, wide.values)
    # 28 GHz is on this grid and is the wavelength reference
    ref_index = int(np.argmin(np.abs(freqs.points - freqs.reference_hz)))
    assert freqs.points[ref_index] == pytest.approx(freqs.reference_hz)
    np.testing.assert_allclose(narrow.values[:, ref_index],
                               wide.values[:, ref_index], atol=1e-12)


def test_delay_aliasing_rejected():
    freqs = FrequencyGrid(26e9, 30e9, 41)  # unambiguous range 10 ns
    late = PathComponent.from_power_db(0, 60, 120, 6.0)  # doubles past 10 ns
    with pytest.raises(ValueError, match="alias"):
        gen_ma_cfr([late], MaGeometry(5, 5), freqs)


def test_cfr_shape_validation():
    freqs = FrequencyGrid(26e9, 30e9, 8)
    with pytest.raises(ValueError):
        CfrSet("ura", np.zeros((3, 3, 9), complex), freqs,
               UraGeometry(3, 3), 28e9)
    with pytest.raises(ValueError):
        CfrSet("bogus", np.zeros((3, 8), complex), freqs, MaGeometry(3, 3), 28e9)


@pytest.mark.parametrize("ref_freq_hz", [0.0, -28e9, float("inf"), float("nan")])
def test_cfr_set_rejects_a_reference_frequency_that_is_not_finite_and_positive(ref_freq_hz):
    with pytest.raises(ValueError, match="ref_freq_hz must be finite and positive"):
        CfrSet("ma_x", np.zeros((3, 8), complex), FrequencyGrid(26e9, 30e9, 8),
               MaGeometry(3, 3), ref_freq_hz)


def test_add_noise_none_is_identity():
    freqs = FrequencyGrid(26e9, 30e9, 16)
    path = [PathComponent.from_power_db(0, 60, 120, 0.5)]
    cfr, _ = gen_ma_cfr(path, MaGeometry(5, 5), freqs)
    assert add_noise(cfr, None, 0) is cfr


def test_add_noise_snr_level_and_determinism():
    freqs = FrequencyGrid(26e9, 30e9, 512)
    cfr, _ = gen_ma_cfr(TABLE_PATHS[:1], MaGeometry(41, 41), freqs)
    noisy_a = add_noise(cfr, 20.0, seed=7)
    noisy_b = add_noise(cfr, 20.0, seed=7)
    np.testing.assert_array_equal(noisy_a.values, noisy_b.values)
    noise_power = np.sum(np.abs(noisy_a.values - cfr.values) ** 2)
    measured_snr = 10 * np.log10(cfr.total_power() / noise_power)
    assert measured_snr == pytest.approx(20.0, abs=0.2)


def test_add_noise_rejects_zero_signal():
    freqs = FrequencyGrid(26e9, 30e9, 8)
    cfr = CfrSet("ma_x", np.zeros((5, 8), complex), freqs, MaGeometry(5, 5), 28e9)
    with pytest.raises(ValueError):
        add_noise(cfr, 10.0, 0)
    with pytest.raises(ValueError):
        add_noise(cfr, float("inf"), 0)


def test_each_array_sounds_its_own_delay_range():
    freqs = FrequencyGrid(26e9, 30e9, 41)  # unambiguous range 10 ns
    seven = [PathComponent.from_power_db(0, 60, 120, 7.0)]
    assert sounded_paths(iter(seven), UraGeometry(3, 3), freqs) == tuple(seven)
    gen_ura_cfr(seven, UraGeometry(3, 3), freqs)
    with pytest.raises(ValueError, match=r"path delay 7\.000 ns exceeds half the "
                       r"unambiguous range \(5\.000 ns\); doubled MA delays would alias"):
        gen_ma_cfr(seven, MaGeometry(5, 5), freqs)
    ten = [PathComponent.from_power_db(0, 60, 120, 10.0)]
    with pytest.raises(ValueError, match=r"path delay 10\.000 ns exceeds the "
                       r"unambiguous range \(10\.000 ns\); URA delays would alias"):
        gen_ura_cfr(ten, UraGeometry(3, 3), freqs)
