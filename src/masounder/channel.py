"""Per-element wideband channel frequency responses for URA and MA geometries."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .geometry import FrequencyGrid, MaGeometry, PathComponent, UraGeometry, uv_map

_LAYOUT_SHAPES = ("ura", "ma_x", "ma_y")


def sounded_paths(paths: Iterable[PathComponent], geometry: UraGeometry | MaGeometry,
                  freqs: FrequencyGrid) -> tuple[PathComponent, ...]:
    """paths as a tuple, once no delay reaches the longest one the array can
    sound over freqs: 1/df for a URA, and half that for an MA, whose product
    of sub-array outputs doubles every delay."""
    paths = tuple(paths)
    delay = max((p.delay_s for p in paths), default=0.0)
    limit = freqs.unambiguous_delay_s
    if isinstance(geometry, MaGeometry):
        limit *= 0.5
        range_name, why = "half the unambiguous range", "doubled MA delays would alias"
    else:
        range_name, why = "the unambiguous range", "URA delays would alias"
    if delay >= limit:
        raise ValueError(f"path delay {delay * 1e9:.3f} ns exceeds {range_name} "
                         f"({limit * 1e9:.3f} ns); {why}")
    return paths


@dataclass(frozen=True)
class CfrSet:
    """Complex frequency response per element over a uniform sweep.

    Layouts: 'ura' holds (M, N, L); 'ma_x' and 'ma_y' hold (count, L), with
    element axes ordered by signed index. Spacings are wavelengths at
    ref_freq_hz; with narrowband_phase the spatial phase uses that single
    wavelength at every sweep frequency.
    """

    layout: str
    values: np.ndarray
    freqs: FrequencyGrid
    geometry: UraGeometry | MaGeometry
    ref_freq_hz: float
    narrowband_phase: bool = True

    def __post_init__(self):
        if self.layout not in _LAYOUT_SHAPES:
            raise ValueError(f"unknown layout {self.layout!r}")
        v = np.asarray(self.values)
        L = self.freqs.n_points
        if self.layout == "ura":
            expect = (self.geometry.m_count, self.geometry.n_count, L)
        elif self.layout == "ma_x":
            expect = (self.geometry.x_count, L)
        else:
            expect = (self.geometry.y_count, L)
        if v.shape != expect:
            raise ValueError(f"CFR shape {v.shape} does not match layout "
                             f"{self.layout!r}, expected {expect}")

    def with_values(self, values: np.ndarray) -> "CfrSet":
        return replace(self, values=values)

    def total_power(self) -> float:
        # one temporary: the magnitudes, squared in place
        power = np.abs(self.values)
        np.square(power, out=power)
        return float(np.sum(power))


def _axis_phase(indices: np.ndarray, spacing_wl: float, cosine: float,
                freqs: FrequencyGrid, ref_freq_hz: float,
                narrowband_phase: bool) -> np.ndarray:
    """Spatial phase factor, shape (n_elem, L), or (n_elem, 1) with
    narrowband phase, which is the same at every frequency."""
    if narrowband_phase:
        return np.exp(2j * np.pi * spacing_wl * indices * cosine)[:, None]
    scale = freqs.points / ref_freq_hz
    return np.exp(2j * np.pi * spacing_wl * np.outer(indices, scale * cosine))


def gen_ura_cfr(paths: Iterable[PathComponent], geometry: UraGeometry,
                freqs: FrequencyGrid, narrowband_phase: bool = True,
                ref_freq_hz: float | None = None) -> CfrSet:
    """Superpose plane-wave path contributions at every URA element."""
    paths = sounded_paths(paths, geometry, freqs)
    ref = freqs.reference_hz if ref_freq_hz is None else ref_freq_hz
    f = freqs.points
    out = np.zeros((geometry.m_count, geometry.n_count, freqs.n_points), complex)
    for p in paths:
        uv = uv_map(p.direction)
        delay = p.amplitude * np.exp(-2j * np.pi * f * p.delay_s)
        px = _axis_phase(geometry.x_indices, geometry.dx_wl, uv.u, freqs, ref,
                         narrowband_phase)
        py = _axis_phase(geometry.y_indices, geometry.dy_wl, uv.v, freqs, ref,
                         narrowband_phase)
        out += px[:, None, :] * py[None, :, :] * delay[None, None, :]
    return CfrSet("ura", out, freqs, geometry, ref, narrowband_phase)


# _ma_axis_cfr adds a path's contribution a block of elements at a time, so
# that its temporaries take at most about this many bytes.
_AXIS_BLOCK_BYTES = 2 ** 19


def _ma_axis_cfr(paths: tuple[PathComponent, ...], layout: str, geometry: MaGeometry,
                 freqs: FrequencyGrid, ref_freq_hz: float,
                 narrowband_phase: bool) -> np.ndarray:
    """Superposed path contributions on the sub-array of layout ('ma_x' or
    'ma_y'), shape (count, L); paths are already checked by sounded_paths."""
    indices = geometry.x_indices if layout == "ma_x" else geometry.y_indices
    out = np.zeros((indices.size, freqs.n_points), complex)
    step = max(1, _AXIS_BLOCK_BYTES // (16 * freqs.n_points))
    for p in paths:
        delay = p.amplitude * np.exp(-2j * np.pi * freqs.points * p.delay_s)
        uv = uv_map(p.direction)
        c = uv.u if layout == "ma_x" else uv.v
        for start in range(0, indices.size, step):
            rows = slice(start, start + step)
            out[rows] += _axis_phase(indices[rows], geometry.d_wl, c, freqs, ref_freq_hz,
                                     narrowband_phase) * delay
    return out


def gen_ma_cfr(paths: Iterable[PathComponent], geometry: MaGeometry,
               freqs: FrequencyGrid, narrowband_phase: bool = True,
               ref_freq_hz: float | None = None) -> tuple[CfrSet, CfrSet]:
    """Superpose path contributions on both MA sub-arrays."""
    paths = sounded_paths(paths, geometry, freqs)
    ref = freqs.reference_hz if ref_freq_hz is None else ref_freq_hz
    return tuple(CfrSet(layout, _ma_axis_cfr(paths, layout, geometry, freqs, ref,
                                             narrowband_phase),
                        freqs, geometry, ref, narrowband_phase)
                 for layout in ("ma_x", "ma_y"))


def add_noise(cfr: CfrSet, snr_db: float | None, seed: int) -> CfrSet:
    """Add circularly-symmetric complex Gaussian noise at the given total SNR.

    snr_db=None means no noise and returns the input untouched.
    """
    if snr_db is None:
        return cfr
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite (use None for no noise)")
    signal_power = cfr.total_power()
    if signal_power == 0:
        raise ValueError("cannot set an SNR on an all-zero CFR")
    n = cfr.values.size
    noise_var = signal_power / n / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=np.sqrt(noise_var / 2.0), size=(2,) + cfr.values.shape)
    return cfr.with_values(cfr.values + noise[0] + 1j * noise[1])
