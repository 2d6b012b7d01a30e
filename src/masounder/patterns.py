"""Excitation tapers, auto-convolution, steering and narrowband power patterns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamform import _steered_sum
from .geometry import MaGeometry, UraGeometry, signed_indices


def _cheb_poly_eval(order: int, x: np.ndarray) -> np.ndarray:
    """Chebyshev polynomial of the first kind, valid for |x| > 1 as well."""
    x = np.asarray(x, float)
    out = np.empty_like(x)
    inside = np.abs(x) <= 1.0
    out[inside] = np.cos(order * np.arccos(x[inside]))
    above = x > 1.0
    out[above] = np.cosh(order * np.arccosh(x[above]))
    below = x < -1.0
    sign = -1.0 if order % 2 else 1.0
    out[below] = sign * np.cosh(order * np.arccosh(-x[below]))
    return out


def chebyshev_taper(n: int, sidelobe_db: float) -> np.ndarray:
    """Dolph-Chebyshev line-array weights with equiripple sidelobes.

    Returns real, symmetric weights normalized to unit peak. The line-array
    factor is sampled from the defining Chebyshev polynomial and inverted
    with one inverse FFT, shifted onto the signed element indices.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("taper length must be odd and positive")
    if sidelobe_db <= 0:
        raise ValueError("sidelobe level must be positive dB")
    if n == 1:
        return np.ones(1)
    order = n - 1
    ripple = 10.0 ** (sidelobe_db / 20.0)
    x0 = np.cosh(np.arccosh(ripple) / order)
    samples = _cheb_poly_eval(order, x0 * np.cos(np.pi * np.arange(n) / n))
    w = np.fft.fftshift(np.fft.ifft(samples).real)
    w = 0.5 * (w + w[::-1])  # enforce exact symmetry against roundoff
    return w / w.max()


def auto_convolve(w: np.ndarray) -> np.ndarray:
    """Self-convolution of an excitation vector; output length 2*len(w)-1."""
    w = np.asarray(w)
    if w.size % 2 == 0:
        raise ValueError("excitation length must be odd")
    return np.convolve(w, w)


def steer(w: np.ndarray, u0: float, spacing_wl: float) -> np.ndarray:
    """Apply the linear phase ramp that steers the beam peak to cosine u0."""
    if abs(u0) > 1.0:
        raise ValueError("steering cosine must satisfy |u0| <= 1")
    w = np.asarray(w)
    m = signed_indices(w.size)
    return w * np.exp(-2j * np.pi * spacing_wl * m * u0)


def check_conjugate_symmetry(w: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff the conjugate of w equals its reversal elementwise."""
    w = np.asarray(w)
    scale = np.max(np.abs(w)) or 1.0
    return bool(np.max(np.abs(np.conj(w) - w[::-1])) <= tol * max(scale, 1.0))


def line_factor(w: np.ndarray, spacing_wl: float, u: np.ndarray) -> np.ndarray:
    """Unnormalized line-array factor sum_m w_m exp(j 2 pi d m u) at each
    cosine of u, flattened: the steered sum at -u, by Horner's rule."""
    w = np.asarray(w)
    u = np.asarray(u, float)
    return _steered_sum(signed_indices(w.size), spacing_wl, -u, None, 1)(w[:, None])[:, 0]


@dataclass(frozen=True)
class PowerPattern:
    """Real power pattern over a (u, v) lattice with its peak bookkeeping."""

    values: np.ndarray  # (len(u_axis), len(v_axis))
    u_axis: np.ndarray
    v_axis: np.ndarray

    @property
    def peak_value(self) -> float:
        return float(self.values.max())

    @property
    def peak_uv(self) -> tuple[float, float]:
        i, j = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return float(self.u_axis[i]), float(self.v_axis[j])

    @property
    def visible(self) -> np.ndarray:
        """Mask of lattice points inside the unit circle u^2 + v^2 <= 1."""
        uu = self.u_axis[:, None] ** 2 + self.v_axis[None, :] ** 2
        return uu <= 1.0

    def level_db(self, floor: float = 1e-30) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.values, floor))


def uv_lattice(n: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Default uniform (u, v) evaluation lattice over [-1, 1]^2."""
    axis = np.linspace(-1.0, 1.0, n)
    return axis, axis.copy()


def ura_power_pattern(wx: np.ndarray, wy: np.ndarray, geometry: UraGeometry,
                      u_axis: np.ndarray, v_axis: np.ndarray) -> PowerPattern:
    """|array factor|^2 of a URA with separable excitation wx * wy^T.

    Each axis factor is normalized by the magnitude sum of its excitation,
    so an unsteered uniform array peaks at exactly 1.
    """
    wx = np.asarray(wx)
    wy = np.asarray(wy)
    if wx.size != geometry.m_count or wy.size != geometry.n_count:
        raise ValueError("excitation lengths must match the URA geometry")
    du = line_factor(wx, geometry.dx_wl, u_axis) / np.sum(np.abs(wx))
    dv = line_factor(wy, geometry.dy_wl, v_axis) / np.sum(np.abs(wy))
    values = np.outer(np.abs(du) ** 2, np.abs(dv) ** 2)
    return PowerPattern(values, np.asarray(u_axis, float), np.asarray(v_axis, float))


def ma_power_pattern(wx: np.ndarray, wy: np.ndarray, geometry: MaGeometry,
                     u_axis: np.ndarray, v_axis: np.ndarray) -> PowerPattern:
    """Product of the two sub-array factors of a multiplicative array.

    Each sub-array factor is normalized by the magnitude sum of its
    excitation; for auto-convolved nonnegative (possibly steered) tapers
    this reproduces the matching URA power pattern exactly. The product is
    real for conjugate-symmetric excitations; its real part is returned.
    """
    wx = np.asarray(wx)
    wy = np.asarray(wy)
    if wx.size != geometry.x_count or wy.size != geometry.y_count:
        raise ValueError("excitation lengths must match the MA geometry")
    du = line_factor(wx, geometry.d_wl, u_axis) / np.sum(np.abs(wx))
    dv = line_factor(wy, geometry.d_wl, v_axis) / np.sum(np.abs(wy))
    values = np.real(np.outer(du, dv))
    return PowerPattern(values, np.asarray(u_axis, float), np.asarray(v_axis, float))
