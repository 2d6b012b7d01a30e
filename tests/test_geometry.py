import math

import numpy as np
import pytest

from masounder.geometry import (Direction, FrequencyGrid, MaGeometry,
                                PathComponent, ScanGrid, UraGeometry, UvPoint,
                                delay_axis, uv_map, uv_unmap, wrap_azimuth)


@pytest.mark.parametrize("theta,phi,u,v", [
    (90, 0, 1.0, 0.0),
    (90, 90, 0.0, 1.0),
    (90, 180, -1.0, 0.0),
    (0, 123, 0.0, 0.0),
    (60, 120, math.sin(math.radians(60)) * math.cos(math.radians(120)),
     math.sin(math.radians(60)) * math.sin(math.radians(120))),
    (60, 80, 0.15038373318043535, 0.8528685319524432),
    (80, 20, 0.9254165783983234, 0.3368240888334653),
])
def test_uv_map_known_values(theta, phi, u, v):
    point = uv_map(Direction(theta, phi))
    assert point.u == pytest.approx(u, abs=1e-12)
    assert point.v == pytest.approx(v, abs=1e-12)


@pytest.mark.parametrize("theta,phi", [
    (90, 0), (45, 10), (30, 359), (89, 270), (1, 180), (90, 180),
])
def test_uv_round_trip(theta, phi):
    direction = uv_unmap(uv_map(Direction(theta, phi)))
    assert direction.theta_deg == pytest.approx(theta, abs=1e-9)
    assert direction.phi_deg == pytest.approx(phi, abs=1e-9)


def test_uv_unmap_origin_convention():
    assert uv_unmap(UvPoint(0.0, 0.0)) == Direction(0.0, 0.0)


def test_uv_unmap_just_below_zero_azimuth_is_0():
    # atan2 gives -1.1e-15 deg, which % 360 rounds to 360.0
    assert uv_unmap(UvPoint(0.5, -1e-17)).phi_deg == 0.0


@pytest.mark.parametrize("phi", [-1e-17, -2.8e-14, -0.0])
def test_wrap_azimuth_takes_a_360_result_to_0(phi):
    wrapped = wrap_azimuth(phi)
    assert wrapped == 0.0 and not math.copysign(1.0, wrapped) < 0
    assert type(wrapped) is float
    np.testing.assert_array_equal(wrap_azimuth(np.array([phi, -10.0, 370.0, 359.5])),
                                  [0.0, 350.0, 10.0, 359.5])


def test_wrap_azimuth_is_the_modulo_elsewhere():
    phi = np.array([0.0, 1e-300, -1e-13, 359.99999999999994, -359.5, 720.25, np.nan])
    np.testing.assert_array_equal(wrap_azimuth(phi), phi % 360.0)
    assert all(wrap_azimuth(p) == p % 360.0 for p in phi[:-1].tolist())


def test_uv_unmap_rejects_invisible_point():
    with pytest.raises(ValueError):
        uv_unmap(UvPoint(0.9, 0.9))


@pytest.mark.parametrize("theta,phi", [(-1, 0), (91, 0), (45, -1), (45, 360)])
def test_direction_bounds(theta, phi):
    with pytest.raises(ValueError):
        Direction(theta, phi)


def test_path_component_from_power_db():
    p = PathComponent.from_power_db(-10.0, 60, 120, 40.0, phase_deg=90.0)
    assert abs(p.amplitude) == pytest.approx(10 ** (-10 / 20))
    assert np.angle(p.amplitude) == pytest.approx(np.pi / 2)
    assert p.delay_s == pytest.approx(40e-9)
    assert p.power_db == pytest.approx(-10.0)


def test_path_component_validation():
    with pytest.raises(ValueError):
        PathComponent(0.0, Direction(10, 10), 1e-9)
    with pytest.raises(ValueError):
        PathComponent(1.0, Direction(10, 10), -1e-9)


def test_frequency_grid_arithmetic():
    freqs = FrequencyGrid(26e9, 30e9, 1500)
    assert freqs.bandwidth_hz == pytest.approx(4e9)
    assert freqs.spacing_hz == pytest.approx(4e9 / 1499)
    assert freqs.points.shape == (1500,)
    assert freqs.points[0] == 26e9
    assert freqs.points[-1] == pytest.approx(30e9)
    # the center frequency is an actual sweep point
    assert freqs.f_center_hz == freqs.points[freqs.center_index]
    assert freqs.reference_hz == pytest.approx(28e9)
    assert freqs.unambiguous_delay_s == pytest.approx(1499 / 4e9)


def test_frequency_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(30e9, 26e9, 100)
    with pytest.raises(ValueError):
        FrequencyGrid(26e9, 30e9, 1)
    for start, stop, name in ((26e9, float("inf"), "f_stop_hz"),
                              (float("nan"), 30e9, "f_start_hz"),
                              (float("-inf"), 30e9, "f_start_hz")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            FrequencyGrid(start, stop, 8)


def test_ura_geometry_indices():
    geo = UraGeometry(5, 7)
    assert list(geo.x_indices) == [-2, -1, 0, 1, 2]
    assert list(geo.y_indices) == [-3, -2, -1, 0, 1, 2, 3]


@pytest.mark.parametrize("m,n", [(4, 5), (5, 4), (0, 5), (5, -1)])
def test_ura_geometry_needs_odd_counts(m, n):
    with pytest.raises(ValueError):
        UraGeometry(m, n)


@pytest.mark.parametrize("make,match", [
    (lambda: MaGeometry(4, 5), "x_count must be odd and positive"),
    (lambda: MaGeometry(5, -3), "y_count must be odd and positive"),
    (lambda: MaGeometry(5, 5, 0.0), "element spacing must be positive"),
    (lambda: UraGeometry(3, 3, 0.5, -0.5), "element spacing must be positive"),
    (lambda: MaGeometry(5, 5, float("inf")), "d_wl must be finite, not inf"),
    (lambda: UraGeometry(3, 3, float("nan"), 0.5), "dx_wl must be finite, not nan"),
    (lambda: UraGeometry(3, 3, 0.5, float("inf")), "dy_wl must be finite, not inf"),
], ids=["ma-even-x", "ma-negative-y", "ma-zero-spacing", "ura-negative-dy",
        "ma-infinite-spacing", "ura-nan-dx", "ura-infinite-dy"])
def test_geometry_rejects_bad_counts_and_spacings(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_ma_equivalent_geometry():
    ura = UraGeometry(21, 21, 0.5, 0.5)
    ma = MaGeometry.equivalent_to(ura)
    assert (ma.x_count, ma.y_count, ma.d_wl) == (41, 41, 0.5)
    with pytest.raises(ValueError):
        MaGeometry.equivalent_to(UraGeometry(5, 5, 0.4, 0.5))


def test_delay_axis_bins():
    freqs = FrequencyGrid(26e9, 30e9, 375)
    tau = delay_axis(freqs, pad_factor=4)
    assert tau.shape == (1500,)
    assert tau[0] == 0.0
    assert tau[1] == pytest.approx(1.0 / (1500 * freqs.spacing_hz))
    with pytest.raises(ValueError):
        delay_axis(freqs, 0)


def test_scan_grid_regular_defaults():
    grid = ScanGrid.regular()
    assert grid.theta_deg[0] == 0 and grid.theta_deg[-1] == 90
    assert grid.phi_deg[0] == 90 and grid.phi_deg[-1] == 270
    assert grid.theta_deg.size == 91 and grid.phi_deg.size == 181


@pytest.mark.parametrize("start,stop,step", [(-28, 28, 0.7), (-90, 90, 0.1),
                                             (-0.3, 0.3, 0.1)])
def test_scan_grid_axis_through_zero_holds_an_exact_zero(start, stop, step):
    phi = ScanGrid.regular(0.0, 90.0, 1.0, start, stop, step).phi_deg
    arange = np.arange(start, stop + 0.5 * step, step)
    i = int(np.argmin(np.abs(arange)))
    assert arange[i] != 0.0  # -2.8e-14, -5.1e-12 and 5.6e-17 deg; -0.3 + 3 * 0.1 is not 0
    assert phi.size == arange.size and phi[i] == 0.0 and not np.signbit(phi[i])
    np.testing.assert_allclose(phi, arange, rtol=0, atol=1e-9)
    assert phi[0] == start and phi[-1] == stop


@pytest.mark.parametrize("start,stop,step", [(0, 90, 1), (90, 270, 1), (-90, 90, 1),
                                             (0, 90, 0.5), (-45.5, 45, 0.5), (0, 360, 2),
                                             (90, 90, 1)])
def test_scan_grid_integer_and_half_degree_axes_are_np_arange(start, stop, step):
    grid = ScanGrid.regular(start, stop, step, start, stop, step)
    expected = np.arange(float(start), stop + 0.5 * step, step)
    for axis in (grid.theta_deg, grid.phi_deg):
        np.testing.assert_array_equal(axis.view(np.uint64), expected.view(np.uint64))


def test_scan_grid_rejects_decreasing_axis():
    with pytest.raises(ValueError):
        ScanGrid(np.array([1.0, 0.5]), np.array([0.0, 1.0]))
