"""Domain types, angle/(u,v) conversions and frequency/delay grid arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class Direction:
    """Incidence direction: elevation from broadside and azimuth, in degrees."""

    theta_deg: float
    phi_deg: float

    def __post_init__(self):
        if not 0.0 <= self.theta_deg <= 90.0:
            raise ValueError(f"elevation must be in [0, 90] deg, got {self.theta_deg}")
        if not 0.0 <= self.phi_deg < 360.0:
            raise ValueError(f"azimuth must be in [0, 360) deg, got {self.phi_deg}")


@dataclass(frozen=True)
class UvPoint:
    """Direction cosines; points produced from a Direction satisfy u^2+v^2 <= 1."""

    u: float
    v: float


def uv_map(direction: Direction) -> UvPoint:
    """Map a direction to (u, v) = (sin(theta)cos(phi), sin(theta)sin(phi))."""
    theta = math.radians(direction.theta_deg)
    phi = math.radians(direction.phi_deg)
    st = math.sin(theta)
    return UvPoint(st * math.cos(phi), st * math.sin(phi))


def scan_cosines(theta_deg, phi_deg) -> tuple[np.ndarray, np.ndarray]:
    """uv_map over the grid of two angle axes: u, v of shape (theta.size, phi.size)."""
    st = np.sin(np.radians(np.asarray(theta_deg, float)))
    pp = np.radians(np.asarray(phi_deg, float))
    return st[:, None] * np.cos(pp)[None, :], st[:, None] * np.sin(pp)[None, :]


def wrap_azimuth(phi_deg):
    """phi_deg % 360 in [0, 360), on floats and arrays: a result of 360.0,
    from an azimuth less than about 3e-14 deg below 0, is taken to 0."""
    phi = phi_deg % 360.0
    return phi * (phi != 360.0)


def uv_unmap(point: UvPoint) -> Direction:
    """Invert uv_map. At the origin the azimuth is degenerate; 0 by convention."""
    r2 = point.u ** 2 + point.v ** 2
    if r2 > 1.0 + 1e-12:
        raise ValueError(f"(u, v) outside the visible region: ({point.u}, {point.v})")
    theta = math.degrees(math.asin(min(math.sqrt(r2), 1.0)))
    if theta == 0.0:
        return Direction(0.0, 0.0)
    return Direction(theta, wrap_azimuth(math.degrees(math.atan2(point.v, point.u))))


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: complex linear amplitude, direction and delay."""

    amplitude: complex
    direction: Direction
    delay_s: float

    def __post_init__(self):
        if self.delay_s < 0:
            raise ValueError("path delay must be nonnegative")
        if abs(self.amplitude) == 0:
            raise ValueError("path amplitude must be nonzero")

    @classmethod
    def from_power_db(cls, power_db: float, theta_deg: float, phi_deg: float,
                      delay_ns: float, phase_deg: float = 0.0) -> "PathComponent":
        amp = 10.0 ** (power_db / 20.0) * np.exp(1j * math.radians(phase_deg))
        return cls(complex(amp), Direction(theta_deg, phi_deg), delay_ns * 1e-9)

    @property
    def power_db(self) -> float:
        return 20.0 * math.log10(abs(self.amplitude))


def _check_finite(obj, *names: str) -> None:
    """ValueError naming the first of obj's fields names that is not finite."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, not {getattr(obj, name)}")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency sweep from f_start to f_stop with n_points samples."""

    f_start_hz: float
    f_stop_hz: float
    n_points: int

    def __post_init__(self):
        _check_finite(self, "f_start_hz", "f_stop_hz")
        if self.f_stop_hz <= self.f_start_hz:
            raise ValueError("f_stop must exceed f_start")
        if self.n_points < 2:
            raise ValueError("frequency grid needs at least 2 points")

    @property
    def bandwidth_hz(self) -> float:
        return self.f_stop_hz - self.f_start_hz

    @property
    def spacing_hz(self) -> float:
        return self.bandwidth_hz / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return self.f_start_hz + self.spacing_hz * np.arange(self.n_points)

    @property
    def center_index(self) -> int:
        return self.n_points // 2

    @property
    def f_center_hz(self) -> float:
        """Center frequency point of the sweep (on-grid)."""
        return self.f_start_hz + self.spacing_hz * self.center_index

    @property
    def reference_hz(self) -> float:
        """Mid-band frequency used as the wavelength reference for spacings."""
        return 0.5 * (self.f_start_hz + self.f_stop_hz)

    @property
    def unambiguous_delay_s(self) -> float:
        """Delay range before wrap-around of the inverse transform, 1/df."""
        return 1.0 / self.spacing_hz


def signed_indices(count: int) -> np.ndarray:
    """Ascending element indices of an odd count, symmetric about index 0."""
    return np.arange(count) - (count - 1) // 2


@dataclass(frozen=True)
class UraGeometry:
    """Uniform rectangular array of m_count x n_count elements.

    Element counts are odd so signed indices run symmetrically about the
    phase center. Spacings are in wavelengths at the reference frequency.
    """

    m_count: int
    n_count: int
    dx_wl: float = 0.5
    dy_wl: float = 0.5

    def __post_init__(self):
        if self.m_count < 1 or self.m_count % 2 == 0:
            raise ValueError("m_count must be odd and positive")
        if self.n_count < 1 or self.n_count % 2 == 0:
            raise ValueError("n_count must be odd and positive")
        _check_finite(self, "dx_wl", "dy_wl")
        if self.dx_wl <= 0 or self.dy_wl <= 0:
            raise ValueError("element spacing must be positive")

    @property
    def x_indices(self) -> np.ndarray:
        return signed_indices(self.m_count)

    @property
    def y_indices(self) -> np.ndarray:
        return signed_indices(self.n_count)


@dataclass(frozen=True)
class MaGeometry:
    """Multiplicative array: two orthogonal linear sub-arrays on x and y."""

    x_count: int
    y_count: int
    d_wl: float = 0.5

    def __post_init__(self):
        if self.x_count < 1 or self.x_count % 2 == 0:
            raise ValueError("x_count must be odd and positive")
        if self.y_count < 1 or self.y_count % 2 == 0:
            raise ValueError("y_count must be odd and positive")
        _check_finite(self, "d_wl")
        if self.d_wl <= 0:
            raise ValueError("element spacing must be positive")

    @classmethod
    def equivalent_to(cls, ura: UraGeometry) -> "MaGeometry":
        """MA whose auto-convolved excitations mimic the given URA."""
        if ura.dx_wl != ura.dy_wl:
            raise ValueError("URA-equivalent MA needs dx == dy")
        return cls(2 * ura.m_count - 1, 2 * ura.n_count - 1, ura.dx_wl)


def delay_axis(freqs: FrequencyGrid, pad_factor: int = 1) -> np.ndarray:
    """Delay bins of the zero-padded inverse transform over the sweep.

    Returns n_points*pad_factor delays starting at 0. Padding refines the
    bin spacing for peak picking; peak separability stays 1/bandwidth.
    """
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    n = freqs.n_points * pad_factor
    return np.arange(n) / (n * freqs.spacing_hz)


def regular_count(start: float, stop: float, step: float) -> float:
    """Point count of ScanGrid.regular's axis from start to stop, np.arange's
    count; inf when it overflows a float."""
    n = (stop + 0.5 * step - start) / step
    return math.ceil(n) if math.isfinite(n) else math.inf


@dataclass(frozen=True)
class ScanGrid:
    """Angular scan axes for beam and PADP evaluation."""

    theta_deg: np.ndarray
    phi_deg: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta_deg", np.asarray(self.theta_deg, float))
        object.__setattr__(self, "phi_deg", np.asarray(self.phi_deg, float))
        for name in ("theta_deg", "phi_deg"):
            axis = getattr(self, name)
            if axis.size > 1 and not np.all(np.diff(axis) > 0):
                raise ValueError(f"{name} axis must be strictly increasing")

    @classmethod
    def regular(cls, theta_start: float = 0.0, theta_stop: float = 90.0,
                theta_step: float = 1.0, phi_start: float = 90.0,
                phi_stop: float = 270.0, phi_step: float = 1.0) -> "ScanGrid":
        """Axes from start to stop, within half a step. Point i is start +
        i * step rounded to 9 decimals, so an axis through 0 holds an exact 0."""
        def axis(start, stop, step):
            n = regular_count(start, stop, step)
            return np.round(start + step * np.arange(n), 9) + 0.0  # -0.0 reads 0.0
        return cls(axis(theta_start, theta_stop, theta_step),
                   axis(phi_start, phi_stop, phi_step))
