"""Classical beamforming, power-angle-delay profiles and the fake-path predictor."""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .channel import CfrSet
from .geometry import FrequencyGrid, ScanGrid, delay_axis, scan_cosines, uv_map

DB_FLOOR = 1e-30


class NoPeakError(RuntimeError):
    """No usable maximum found (all-zero or below the numerical floor)."""


def _level_db(values: np.ndarray, kind: str) -> np.ndarray:
    """Display convention: URA quantities are field-like (20 log10), MA
    quantities are products of two fields (10 log10)."""
    mag = np.maximum(np.abs(values), DB_FLOOR)
    scale = 20.0 if kind == "ura" else 10.0
    return scale * np.log10(mag)


@dataclass(frozen=True)
class BeamPattern:
    """Complex beamformed response over (theta, phi) at one frequency."""

    values: np.ndarray  # (n_theta, n_phi)
    theta_deg: np.ndarray
    phi_deg: np.ndarray
    frequency_hz: float
    kind: str  # 'ura' | 'ma'

    def level_db(self) -> np.ndarray:
        return _level_db(self.values, self.kind)


@dataclass(frozen=True)
class UvBeam:
    """Complex beamformed response over a direction-cosine lattice.

    Unlike a physical (theta, phi) scan this covers the whole (u, v)
    square, including the invisible region u^2 + v^2 > 1 where the
    multiplicative array places some of its cross-product terms.
    """

    values: np.ndarray  # (n_u, n_v)
    u_axis: np.ndarray
    v_axis: np.ndarray
    frequency_hz: float
    kind: str  # 'ura' | 'ma'

    def level_db(self) -> np.ndarray:
        return _level_db(self.values, self.kind)


@dataclass(frozen=True)
class Padp:
    """Complex angle-delay profile over (delay, phi) at fixed elevation."""

    values: np.ndarray  # (n_delay, n_phi)
    delay_s: np.ndarray
    phi_deg: np.ndarray
    theta_deg: float
    kind: str  # 'ura' | 'ma'

    def level_db(self) -> np.ndarray:
        return _level_db(self.values, self.kind)


def _freq_index(freqs: FrequencyGrid, f_hz: float) -> int:
    idx = int(round((f_hz - freqs.f_start_hz) / freqs.spacing_hz))
    if idx < 0 or idx >= freqs.n_points or \
            abs(freqs.points[idx] - f_hz) > 1e-6 * freqs.spacing_hz:
        raise ValueError(f"frequency {f_hz} Hz is not on the sweep grid")
    return idx


def _cut_cosines(theta_deg: float, phi_deg: np.ndarray):
    """scan_cosines along the azimuth cut at elevation theta_deg."""
    if not 0.0 <= theta_deg <= 90.0:
        raise ValueError(f"PADP cut elevation must lie in [0, 90] deg, not {theta_deg}")
    return scan_cosines(np.array([theta_deg]), phi_deg)


def _conj_steer(indices: np.ndarray, spacing_wl: float, cosines: np.ndarray,
                scale: float) -> np.ndarray:
    """Conjugated steering matrix, shape (n_elem, n_points)."""
    arg = -2j * np.pi * spacing_wl * scale * np.outer(indices, cosines.ravel())
    return np.exp(arg, out=arg)


def _resolve_window(window, n_points: int) -> np.ndarray | None:
    if window is None:
        return None
    if isinstance(window, str):
        if window == "hann":
            win = np.hanning(n_points)
        else:
            raise ValueError(f"unknown window {window!r}")
    else:
        win = np.asarray(window, float)
        if win.shape != (n_points,):
            raise ValueError("window length must match the frequency grid")
    return win / win.mean()


def _weights(taper, counts: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis element weights: uniform without a taper, else checked."""
    if taper is None:
        return np.ones(counts[0]), np.ones(counts[1])
    tx, ty = np.asarray(taper[0]), np.asarray(taper[1])
    if (tx.size, ty.size) != tuple(counts):
        raise ValueError("taper lengths must match the array geometry")
    return tx, ty


def _ura_beam(cfr: CfrSet, u: np.ndarray, v: np.ndarray, taper, cols) -> np.ndarray:
    """Normalized URA delay-and-sum at paired cosines (u, v) of one shape,
    over frequency columns cols; shape u.shape + (n_cols,). Narrowband phase
    steers all columns at the reference wavelength in one call; wideband
    phase scales the steering by f / ref_freq_hz per column."""
    geom = cfr.geometry
    tx, ty = _weights(taper, (geom.m_count, geom.n_count))

    def beam(scale, cols):
        ax = _conj_steer(geom.x_indices, geom.dx_wl, u, scale) * tx[:, None]
        ay = _conj_steer(geom.y_indices, geom.dy_wl, v, scale) * ty[:, None]
        return np.einsum("mp,mnl,np->pl", ax, cfr.values[:, :, cols], ay, optimize=True)
    if cfr.narrowband_phase:
        b = beam(1.0, cols)
    else:
        cols = np.arange(cfr.freqs.n_points)[cols]
        b = np.concatenate([beam(f / cfr.ref_freq_hz, [c])
                            for c, f in zip(cols, cfr.freqs.points[cols])], axis=-1)
    b = b / (np.sum(np.abs(tx)) * np.sum(np.abs(ty)))
    return b.reshape(u.shape + (-1,))


def check_ma_pair(cfr_x: CfrSet, cfr_y: CfrSet, caller: str) -> None:
    """Raise ValueError unless cfr_x and cfr_y are the ma_x and ma_y halves
    of one sounding: same frequency grid, geometry and phase model."""
    if cfr_x.layout != "ma_x" or cfr_y.layout != "ma_y":
        raise ValueError(f"{caller} needs ma_x and ma_y CFRs")
    for name in ("freqs", "geometry", "ref_freq_hz", "narrowband_phase"):
        if getattr(cfr_x, name) != getattr(cfr_y, name):
            raise ValueError(f"sub-array CFRs must share {name}")


def _steered_sum(cfr: CfrSet, values: np.ndarray, indices: np.ndarray,
                 cosines: np.ndarray, cols) -> np.ndarray:
    """Sum over elements k of values[k] exp(-j 2 pi d indices[k] c f / ref)
    for an MA sub-array at each cosine c, over frequency columns cols;
    shape (cosines.size, n_cols). values is cfr.values[:, cols] or a
    weighted copy of it; f / ref is 1 with narrowband phase.

    When every column shares one steering matrix (narrowband phase, more
    than one column), it is built and multiplied. Otherwise the sum, a
    polynomial in z = exp(-j 2 pi d c f / ref) over the consecutive indices,
    is evaluated by Horner's rule and multiplied by z^indices[0].
    """
    if cfr.narrowband_phase and values.shape[1] > 1:
        return _conj_steer(indices, cfr.geometry.d_wl, cosines, 1.0).T @ values
    scale = (np.ones(1) if cfr.narrowband_phase
             else cfr.freqs.points[cols] / cfr.ref_freq_hz)
    arg = -2j * np.pi * cfr.geometry.d_wl * np.outer(cosines.ravel(), scale)
    z = np.exp(arg)
    total = np.zeros((z.shape[0], values.shape[1]), complex)
    for row in values[::-1]:
        total *= z
        total += row
    total *= np.exp(arg * indices[0])
    return total


def line_spectrum(cfr: CfrSet, cosines, cols=slice(None)) -> np.ndarray:
    """Unnormalized steered sum a(c)^H H of an MA sub-array at cosines c along
    its axis, over frequency columns cols; shape c.shape + (n_cols,)."""
    if cfr.layout not in ("ma_x", "ma_y"):
        raise ValueError("line_spectrum needs an ma_x or ma_y CFR")
    geom, cosines = cfr.geometry, np.asarray(cosines, float)
    indices = geom.x_indices if cfr.layout == "ma_x" else geom.y_indices
    spectrum = _steered_sum(cfr, cfr.values[:, cols], indices, cosines, cols)
    return spectrum.reshape(cosines.shape + (-1,))


def _ma_beam(cfr_x: CfrSet, cfr_y: CfrSet, u: np.ndarray, v: np.ndarray, taper,
             cols) -> np.ndarray:
    """Product of the two normalized sub-array sums at broadcastable cosines
    (u, v), over frequency columns cols; shape broadcast(u, v) + (n_cols,)."""
    geom = cfr_x.geometry

    def line_sum(cfr, indices, cosines, weights):
        spectrum = _steered_sum(cfr, weights[:, None] * cfr.values[:, cols], indices,
                                cosines, cols)
        return spectrum.reshape(cosines.shape + (-1,)) / np.sum(np.abs(weights))
    tx, ty = _weights(taper, (geom.x_count, geom.y_count))
    return (line_sum(cfr_x, geom.x_indices, u, tx)
            * line_sum(cfr_y, geom.y_indices, v, ty))


def cbf_ura(cfr: CfrSet, grid: ScanGrid, f_hz: float,
            taper: tuple[np.ndarray, np.ndarray] | None = None) -> BeamPattern:
    """Delay-and-sum beam pattern of a URA at a single sweep frequency.

    Weights are normalized by their magnitude sum, so a single unit path
    scanned at its own direction gives |B| = 1.
    """
    if cfr.layout != "ura":
        raise ValueError("cbf_ura needs a URA-layout CFR")
    u, v = scan_cosines(grid.theta_deg, grid.phi_deg)
    b = _ura_beam(cfr, u, v, taper, [_freq_index(cfr.freqs, f_hz)])
    return BeamPattern(b[..., 0], grid.theta_deg, grid.phi_deg, f_hz, "ura")


def cbf_ma(cfr_x: CfrSet, cfr_y: CfrSet, grid: ScanGrid, f_hz: float,
           taper: tuple[np.ndarray, np.ndarray] | None = None) -> BeamPattern:
    """Product of the two normalized sub-array beamforming sums."""
    check_ma_pair(cfr_x, cfr_y, "cbf_ma")
    u, v = scan_cosines(grid.theta_deg, grid.phi_deg)
    b = _ma_beam(cfr_x, cfr_y, u, v, taper, [_freq_index(cfr_x.freqs, f_hz)])
    return BeamPattern(b[..., 0], grid.theta_deg, grid.phi_deg, f_hz, "ma")


def cbf_ma_uv(cfr_x: CfrSet, cfr_y: CfrSet, u_axis: np.ndarray,
              v_axis: np.ndarray, f_hz: float,
              taper: tuple[np.ndarray, np.ndarray] | None = None) -> UvBeam:
    """MA beam pattern on a direction-cosine lattice (separable product)."""
    check_ma_pair(cfr_x, cfr_y, "cbf_ma_uv")
    u_axis = np.asarray(u_axis, float)
    v_axis = np.asarray(v_axis, float)
    b = _ma_beam(cfr_x, cfr_y, u_axis[:, None], v_axis[None, :], taper,
                 [_freq_index(cfr_x.freqs, f_hz)])
    return UvBeam(b[..., 0], u_axis, v_axis, f_hz, "ma")


@functools.lru_cache(maxsize=4)
def _delay_phasors(freqs: FrequencyGrid, pad_factor: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only exp(+j 2 pi f_start tau) and exp(-j 2 pi f_start tau) on the
    bins of delay_axis(freqs, pad_factor)."""
    tau = delay_axis(freqs, pad_factor)
    phasors = (np.exp(2j * np.pi * freqs.f_start_hz * tau),
               np.exp(-2j * np.pi * freqs.f_start_hz * tau))
    for phasor in phasors:
        phasor.flags.writeable = False
    return phasors


def cfr_to_cir(values: np.ndarray, freqs: FrequencyGrid, pad_factor: int) -> np.ndarray:
    """Zero-padded sum over frequency of X(f) exp(+j 2 pi f tau), divided by L.

    Operates along the last axis; output length is L * pad_factor on the
    bins of delay_axis(freqs, pad_factor).
    """
    L = freqs.n_points
    n = L * pad_factor
    screen, _ = _delay_phasors(freqs, pad_factor)
    # The FFT output is a fresh array, so it is scaled in place. A
    # single-precision one is promoted first, as the phasor product would.
    out = np.fft.ifft(values, n=n, axis=-1)
    out *= n / L
    out = out.astype(np.result_type(out, screen), copy=False)
    out *= screen
    return out


def cir_to_cfr(cir: np.ndarray, freqs: FrequencyGrid, pad_factor: int) -> np.ndarray:
    """Exact inverse of cfr_to_cir (delay bins back to the sweep)."""
    L = freqs.n_points
    n = L * pad_factor
    _, descreen = _delay_phasors(freqs, pad_factor)
    return np.fft.fft(cir * descreen, axis=-1)[..., :L] * (L / n)


def _padp(spectrum: np.ndarray, cfr: CfrSet, theta_deg: float, phi_deg: np.ndarray,
          pad_factor: int, window, kind: str) -> Padp:
    """Window the (phi, frequency) beam spectrum and transform it to delay."""
    win = _resolve_window(window, cfr.freqs.n_points)
    if win is not None:
        spectrum = spectrum * win
    values = cfr_to_cir(spectrum, cfr.freqs, pad_factor).T
    return Padp(values, delay_axis(cfr.freqs, pad_factor), phi_deg, theta_deg, kind)


def padp_ura(cfr: CfrSet, theta_deg: float, phi_deg: np.ndarray,
             pad_factor: int = 4, taper=None, window=None) -> Padp:
    """Inverse transform of the URA beam pattern over the sweep."""
    if cfr.layout != "ura":
        raise ValueError("padp_ura needs a URA-layout CFR")
    phi_deg = np.asarray(phi_deg, float)
    u, v = _cut_cosines(theta_deg, phi_deg)
    spectrum = _ura_beam(cfr, u, v, taper, slice(None))[0]
    return _padp(spectrum, cfr, theta_deg, phi_deg, pad_factor, window, "ura")


def padp_ma(cfr_x: CfrSet, cfr_y: CfrSet, theta_deg: float, phi_deg: np.ndarray,
            pad_factor: int = 4, taper=None, window=None) -> Padp:
    """Inverse transform of the product MA beam pattern; true-path delays double."""
    check_ma_pair(cfr_x, cfr_y, "padp_ma")
    phi_deg = np.asarray(phi_deg, float)
    u, v = _cut_cosines(theta_deg, phi_deg)
    spectrum = _ma_beam(cfr_x, cfr_y, u, v, taper, slice(None))[0]
    return _padp(spectrum, cfr_x, theta_deg, phi_deg, pad_factor, window, "ma")


@dataclass(frozen=True)
class PredictedTerm:
    """One of the K^2 beam/PADP terms produced by the MA cross products."""

    u: float
    v: float
    delay_s: float
    level_db: float
    origin: tuple[int, int]

    @property
    def is_true(self) -> bool:
        return self.origin[0] == self.origin[1]


def predict_ma_terms(paths) -> list[PredictedTerm]:
    """Enumerate all K^2 true/fake terms of the MA for a known path set.

    Term (i, j) sits at (u_i, v_j) with delay tau_i + tau_j and displayed
    level (P_i + P_j)/2 dB; i == j marks a true path at doubled delay.
    """
    path_list = list(paths)
    if not path_list:
        raise ValueError("predict_ma_terms needs at least one path")
    terms = []
    for i, pi in enumerate(path_list):
        for j, pj in enumerate(path_list):
            ui = uv_map(pi.direction).u
            vj = uv_map(pj.direction).v
            level = 0.5 * (pi.power_db + pj.power_db)
            terms.append(PredictedTerm(ui, vj, pi.delay_s + pj.delay_s, level, (i, j)))
    return terms


@dataclass(frozen=True)
class Peak:
    """A local maximum of a beam pattern or PADP."""

    level_db: float
    row: int
    col: int
    theta_deg: float | None = None
    phi_deg: float | None = None
    delay_s: float | None = None
    u: float | None = None
    v: float | None = None


def descending_cells(level: np.ndarray, floor: float,
                     half_box: tuple[int, int]) -> Iterator[tuple[int, int]]:
    """Cells of a 2-D grid from the strongest down to floor, -inf excluded.
    Each step yields the first maximum in C order (ties go to the lowest row,
    then column) and hides the cells within half_box = (rows, cols) of it."""
    # Copied in C order: Padp.values is a transposed view, and np.argmax
    # over a copy that kept its F order takes about four times as long.
    work = np.array(level, dtype=float, order="C")
    dr, dc = half_box
    while True:
        r, c = np.unravel_index(np.argmax(work), work.shape)
        if not (work[r, c] >= floor and work[r, c] > -np.inf):
            return
        yield int(r), int(c)
        work[max(r - dr, 0):r + dr + 1, max(c - dc, 0):c + dc + 1] = -np.inf


def _plateau_peaks(level: np.ndarray) -> np.ndarray:
    """level at cells >= all 8 neighbours, -inf elsewhere. An equal-valued
    plateau keeps only its first cell in C order."""
    neigh = ndimage.maximum_filter(level, size=3, mode="constant", cval=-np.inf)
    labels, _ = ndimage.label(level >= neigh, structure=np.ones((3, 3), int))
    labs, first = np.unique(labels, return_index=True)
    cells = np.unravel_index(first[labs > 0], level.shape)  # label 0: background
    peaks = np.full(level.shape, -np.inf)
    peaks[cells] = level[cells]
    return peaks


def find_peaks(pattern: BeamPattern | Padp | UvBeam, dynamic_range_db: float,
               min_separation: int = 3) -> list[Peak]:
    """Ordered local maxima above (global max - dynamic_range_db).

    Maxima closer than min_separation grid cells (Chebyshev distance) to a
    stronger accepted peak are suppressed. Ties break toward the lowest
    delay, then lowest azimuth, then lowest elevation (or lowest u, then v
    on a direction-cosine lattice).
    """
    level = pattern.level_db()
    if level.size == 0:
        raise ValueError("empty grid")
    floor = level.max() - dynamic_range_db
    half_box = (max(min_separation - 1, 0),) * 2
    plateau = _plateau_peaks(level)
    # Padp rows are delay, cols azimuth; UvBeam rows are u, cols v.
    # BeamPattern rows are elevation, so it is walked transposed.
    if isinstance(pattern, BeamPattern):
        cells = [(r, c) for c, r in descending_cells(plateau.T, floor, half_box)]
    else:
        cells = list(descending_cells(plateau, floor, half_box))
    peaks = []
    for r, c in cells:
        if isinstance(pattern, Padp):
            peaks.append(Peak(float(level[r, c]), r, c,
                              theta_deg=pattern.theta_deg,
                              phi_deg=float(pattern.phi_deg[c]),
                              delay_s=float(pattern.delay_s[r])))
        elif isinstance(pattern, UvBeam):
            peaks.append(Peak(float(level[r, c]), r, c,
                              u=float(pattern.u_axis[r]),
                              v=float(pattern.v_axis[c])))
        else:
            peaks.append(Peak(float(level[r, c]), r, c,
                              theta_deg=float(pattern.theta_deg[r]),
                              phi_deg=float(pattern.phi_deg[c])))
    return peaks
