"""Per-element wideband channel frequency responses for URA and MA geometries."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import FrequencyGrid, MaGeometry, PathComponent, UraGeometry, uv_map

_LAYOUT_SHAPES = ("ura", "ma_x", "ma_y")


@dataclass(frozen=True)
class PathSet:
    """Ordered collection of propagation paths."""

    paths: tuple[PathComponent, ...]

    def __init__(self, paths):
        object.__setattr__(self, "paths", tuple(paths))

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def max_delay_s(self) -> float:
        return max((p.delay_s for p in self.paths), default=0.0)

    def validate_against(self, freqs: FrequencyGrid) -> None:
        """Reject delays that would alias once the MA doubles them."""
        limit = 0.5 * freqs.unambiguous_delay_s
        if self.max_delay_s() >= limit:
            raise ValueError(
                f"path delay {self.max_delay_s() * 1e9:.3f} ns exceeds half the "
                f"unambiguous range ({limit * 1e9:.3f} ns); doubled MA delays would alias"
            )


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
        return float(np.sum(np.abs(self.values) ** 2))


def _axis_phase(indices: np.ndarray, spacing_wl: float, cosine: float,
                freqs: FrequencyGrid, ref_freq_hz: float,
                narrowband_phase: bool) -> np.ndarray:
    """Spatial phase factor, shape (n_elem, L), or (n_elem, 1) with
    narrowband phase, which is the same at every frequency."""
    if narrowband_phase:
        return np.exp(2j * np.pi * spacing_wl * indices * cosine)[:, None]
    scale = freqs.points / ref_freq_hz
    return np.exp(2j * np.pi * spacing_wl * np.outer(indices, scale * cosine))


def gen_ura_cfr(paths: PathSet, geometry: UraGeometry, freqs: FrequencyGrid,
                narrowband_phase: bool = True,
                ref_freq_hz: float | None = None) -> CfrSet:
    """Superpose plane-wave path contributions at every URA element."""
    paths = paths if isinstance(paths, PathSet) else PathSet(paths)
    paths.validate_against(freqs)
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


def gen_ma_cfr(paths: PathSet, geometry: MaGeometry, freqs: FrequencyGrid,
               narrowband_phase: bool = True,
               ref_freq_hz: float | None = None) -> tuple[CfrSet, CfrSet]:
    """Superpose path contributions on both MA sub-arrays."""
    paths = paths if isinstance(paths, PathSet) else PathSet(paths)
    paths.validate_against(freqs)
    ref = freqs.reference_hz if ref_freq_hz is None else ref_freq_hz
    f = freqs.points
    out_x = np.zeros((geometry.x_count, freqs.n_points), complex)
    out_y = np.zeros((geometry.y_count, freqs.n_points), complex)
    for p in paths:
        uv = uv_map(p.direction)
        delay = p.amplitude * np.exp(-2j * np.pi * f * p.delay_s)
        out_x += _axis_phase(geometry.x_indices, geometry.d_wl, uv.u, freqs, ref,
                             narrowband_phase) * delay[None, :]
        out_y += _axis_phase(geometry.y_indices, geometry.d_wl, uv.v, freqs, ref,
                             narrowband_phase) * delay[None, :]
    return (CfrSet("ma_x", out_x, freqs, geometry, ref, narrowband_phase),
            CfrSet("ma_y", out_y, freqs, geometry, ref, narrowband_phase))


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
