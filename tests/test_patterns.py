import tracemalloc

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.polynomial as nppoly
import pytest

from masounder.cli import EQUIVALENCE_TOL_DB
from masounder.geometry import MaGeometry, UraGeometry
from masounder.patterns import (PowerPattern, auto_convolve,
                                check_conjugate_symmetry, chebyshev_taper,
                                line_factor, ma_power_pattern, steer,
                                ura_power_pattern, uv_lattice)
from masounder.patterns import _cheb_poly_eval
from masounder.scenario import parse_scenario

from conftest import scenario_path


def traced_peak(fn, *args):
    """Peak traced bytes of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def chebyshev_taper_oracle(n: int, sidelobe_db: float) -> np.ndarray:
    """Independent Dolph-Chebyshev weights via polynomial coefficient algebra.

    The line-array factor is T_{n-1}(x0 cos(psi/2)). For odd n the order
    n-1 is even, so the factor is a polynomial in cos^2(psi/2) = (1+c)/2
    with c = cos(psi). Expanding that polynomial in the Chebyshev basis of
    c gives the cosine-series coefficients, i.e. the element weights.
    """
    order = n - 1
    ripple = 10.0 ** (sidelobe_db / 20.0)
    x0 = np.cosh(np.arccosh(ripple) / order)
    # T_order as a plain power-basis polynomial; even order -> even powers only
    t_power = npcheb.cheb2poly([0.0] * order + [1.0])
    s_coeffs = t_power[0::2]  # coefficients of s^k with s = y^2
    base = nppoly.Polynomial([x0 ** 2 / 2.0, x0 ** 2 / 2.0])  # s = x0^2 (1+c)/2
    poly_c = nppoly.Polynomial([0.0])
    for k, a in enumerate(s_coeffs):
        poly_c = poly_c + a * base ** k
    cosine_series = npcheb.poly2cheb(poly_c.coef)
    half = (n - 1) // 2
    w = np.zeros(n)
    w[half] = cosine_series[0]
    for k in range(1, half + 1):
        w[half + k] = w[half - k] = cosine_series[k] / 2.0
    return w / w.max()


def test_cheb_poly_eval_matches_numpy_inside_unit_interval():
    x = np.linspace(-1, 1, 101)
    for order in (0, 1, 2, 5, 8):
        expect = npcheb.chebval(x, [0.0] * order + [1.0])
        np.testing.assert_allclose(_cheb_poly_eval(order, x), expect, atol=1e-12)


def test_cheb_poly_eval_outside_unit_interval():
    x = np.array([-2.5, -1.5, 1.5, 2.5])
    for order in (2, 3, 6):
        expect = npcheb.chebval(x, [0.0] * order + [1.0])
        np.testing.assert_allclose(_cheb_poly_eval(order, x), expect, rtol=1e-12)


@pytest.mark.parametrize("n,sidelobe_db", [(5, 20), (5, 30), (9, 25),
                                           (21, 30), (31, 40)])
def test_chebyshev_taper_matches_polynomial_oracle(n, sidelobe_db):
    w = chebyshev_taper(n, sidelobe_db)
    oracle = chebyshev_taper_oracle(n, sidelobe_db)
    np.testing.assert_allclose(w, oracle, atol=1e-10)


def test_chebyshev_taper_basic_shape():
    w = chebyshev_taper(21, 30)
    assert w.shape == (21,)
    assert w.max() == pytest.approx(1.0)
    np.testing.assert_allclose(w, w[::-1], atol=1e-14)  # symmetric
    assert chebyshev_taper(1, 30).tolist() == [1.0]


def test_chebyshev_taper_equiripple_sidelobes():
    # dense line factor: all sidelobes sit sidelobe_db below the main beam
    w = chebyshev_taper(21, 30)
    u = np.linspace(-1, 1, 20001)
    af = np.abs(line_factor(w, 0.5, u))
    level = 20 * np.log10(af / af.max())
    main = np.abs(u) < 0.15  # first nulls of the 21-element 30 dB taper
    assert level[~main].max() == pytest.approx(-30.0, abs=0.1)


def test_chebyshev_taper_takes_no_square_matrix():
    # one inverse FFT of the n samples; an n x n DFT took 128 MB at n = 2001
    assert traced_peak(chebyshev_taper, 2001, 30) < 2 ** 20


@pytest.mark.parametrize("n", [1, 21, 101])
def test_line_factor_matches_the_direct_sum(n):
    # Horner's rule sums in another order than the direct sum of phasors, so
    # the two agree to rounding: n steps of a few ulps of the weights' sum
    w = steer(chebyshev_taper(n, 30), 0.3, 0.5)
    u = np.linspace(-1.0, 1.0, 301)
    m = np.arange(n) - n // 2
    direct = np.array([np.sum(w * np.exp(2j * np.pi * 0.5 * m * c)) for c in u])
    np.testing.assert_allclose(line_factor(w, 0.5, u), direct, rtol=0,
                               atol=8 * n * np.finfo(float).eps * np.sum(np.abs(w)))


def test_chebyshev_taper_validation():
    with pytest.raises(ValueError):
        chebyshev_taper(4, 30)
    with pytest.raises(ValueError):
        chebyshev_taper(5, 0)


def test_auto_convolve_is_polynomial_square():
    w = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(auto_convolve(w),
                               np.array([1.0, 4.0, 10.0, 12.0, 9.0]))
    assert auto_convolve(w).size == 2 * w.size - 1
    with pytest.raises(ValueError):
        auto_convolve(np.ones(4))


def test_steer_moves_line_factor_peak():
    w = chebyshev_taper(9, 25)
    u = np.linspace(-1, 1, 4001)
    af = np.abs(line_factor(steer(w, 0.4, 0.5), 0.5, u))
    assert abs(u[np.argmax(af)] - 0.4) < 2e-3
    np.testing.assert_allclose(np.abs(steer(w, 0.4, 0.5)), w, atol=1e-14)
    with pytest.raises(ValueError):
        steer(w, 1.2, 0.5)


def test_check_conjugate_symmetry():
    assert check_conjugate_symmetry(np.array([1 + 1j, 2.0, 1 - 1j]))
    assert check_conjugate_symmetry(np.ones(5))
    assert not check_conjugate_symmetry(np.array([1 + 1j, 2.0, 1 + 1j]))


def test_power_pattern_bookkeeping():
    values = np.array([[0.1, 0.2], [1.0, 0.4]])
    pat = PowerPattern(values, np.array([-1.0, 0.0]), np.array([0.0, 1.0]))
    assert pat.peak_value == 1.0
    assert pat.peak_uv == (0.0, 0.0)
    assert pat.visible.tolist() == [[True, False], [True, True]]
    assert pat.level_db()[1, 0] == pytest.approx(0.0)


def test_uniform_ura_pattern_peaks_at_broadside():
    geo = UraGeometry(5, 5)
    u, v = uv_lattice(201)
    pat = ura_power_pattern(np.ones(5), np.ones(5), geo, u, v)
    assert pat.peak_value == pytest.approx(1.0)
    assert pat.peak_uv == (0.0, 0.0)


@pytest.mark.parametrize("m,n,sidelobe_db,u0,v0", [
    (5, 5, 25, 0.0, 0.0),
    (5, 7, 30, 0.3, -0.2),
    (21, 21, 30, 0.5, 0.1),
])
def test_ma_pattern_equals_ura_pattern_for_autoconvolved_taper(m, n, sidelobe_db,
                                                               u0, v0):
    ura = UraGeometry(m, n, 0.5, 0.5)
    ma = MaGeometry.equivalent_to(ura)
    wx = steer(chebyshev_taper(m, sidelobe_db), u0, 0.5)
    wy = steer(chebyshev_taper(n, sidelobe_db), v0, 0.5)
    u, v = uv_lattice(256)
    pu = ura_power_pattern(wx, wy, ura, u, v)
    pm = ma_power_pattern(auto_convolve(wx), auto_convolve(wy), ma, u, v)
    np.testing.assert_allclose(pm.values, pu.values, atol=1e-12)


@pytest.mark.parametrize("pattern_of,geometry_of", [(ura_power_pattern, UraGeometry),
                                                    (ma_power_pattern, MaGeometry)],
                         ids=["ura", "ma"])
def test_power_pattern_peak_does_not_grow_with_the_element_count(pattern_of, geometry_of):
    # each line factor is summed by Horner's rule over the elements, so no
    # lattice x elements matrix (16 MB at 4,001 elements here) is built
    u, v = uv_lattice(256)
    small, large = (traced_peak(pattern_of, np.ones(n, complex), np.ones(n, complex),
                                geometry_of(n, n), u, v) for n in (5, 4001))
    assert large < small + 2 ** 16


def test_fig2_pattern_equivalence_keeps_three_quarters_of_its_margin():
    # the steered, tapered URA and MA patterns of fig2 deviate most at a
    # -159 dB null, where they differ only by rounding: 9.0e-7 dB when the
    # line factors were BLAS products and the taper a DFT matrix
    s = parse_scenario(scenario_path("fig2"))
    wx, wy, wx_ma, wy_ma = s.steered_excitations()
    u, v = uv_lattice(s.pattern_lattice)
    ura = ura_power_pattern(wx, wy, s.ura, u, v).level_db()
    ma = ma_power_pattern(wx_ma, wy_ma, s.ma, u, v).level_db()
    assert np.max(np.abs(ura - ma)) <= EQUIVALENCE_TOL_DB / 4


def test_pattern_length_validation():
    geo = UraGeometry(5, 5)
    with pytest.raises(ValueError):
        ura_power_pattern(np.ones(3), np.ones(5), geo, *uv_lattice(16))
    with pytest.raises(ValueError):
        ma_power_pattern(np.ones(3), np.ones(9), MaGeometry(9, 9), *uv_lattice(16))
