"""Classical beamforming and power-angle-delay profiles."""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channel import CfrSet
from .geometry import FrequencyGrid, ScanGrid, delay_axis, scan_cosines

DB_FLOOR = 1e-30


class NoPeakError(RuntimeError):
    """No usable maximum found (all-zero or below the numerical floor)."""


def _level_db(values: np.ndarray, kind: str) -> np.ndarray:
    """Display convention: URA quantities are field-like (20 log10), MA
    quantities are products of two fields (10 log10)."""
    # One full-grid array, computed in place: the magnitude of an integer
    # grid is promoted first, as np.maximum with DB_FLOOR would.
    mag = np.abs(values)
    mag = mag.astype(np.result_type(mag, DB_FLOOR), copy=False)
    np.maximum(mag, DB_FLOOR, out=mag)
    np.log10(mag, out=mag)
    mag *= 20.0 if kind == "ura" else 10.0
    return mag


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
    """Angle-delay profile over (delay, phi) at fixed elevation, held as its
    level in dB (read-only)."""

    level: np.ndarray  # (n_delay, n_phi)
    delay_s: np.ndarray
    phi_deg: np.ndarray
    theta_deg: float
    kind: str  # 'ura' | 'ma': the dB convention of the level

    def __post_init__(self):
        # Every caller shares the one level, so it is held through a
        # read-only view; the caller's array keeps its own flags.
        level = np.asarray(self.level, dtype=float).view()
        level.flags.writeable = False
        object.__setattr__(self, "level", level)

    def level_db(self) -> np.ndarray:
        return self.level


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


def _resolve_window(window, n_points: int) -> np.ndarray | None:
    if window is None:
        return None
    if not isinstance(window, str) or window != "hann":
        raise ValueError(f"unknown window {window!r}")
    win = np.hanning(n_points)
    return win / win.mean()


def _weights(taper, counts: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis element weights: uniform without a taper, else checked."""
    if taper is None:
        return np.ones(counts[0]), np.ones(counts[1])
    tx, ty = np.asarray(taper[0]), np.asarray(taper[1])
    if (tx.size, ty.size) != tuple(counts):
        raise ValueError("taper lengths must match the array geometry")
    return tx, ty


def check_ma_pair(cfr_x: CfrSet, cfr_y: CfrSet, caller: str) -> None:
    """Raise ValueError unless cfr_x and cfr_y are the ma_x and ma_y halves
    of one sounding: same frequency grid, geometry and phase model."""
    if cfr_x.layout != "ma_x" or cfr_y.layout != "ma_y":
        raise ValueError(f"{caller} needs ma_x and ma_y CFRs")
    for name in ("freqs", "geometry", "ref_freq_hz", "narrowband_phase"):
        if getattr(cfr_x, name) != getattr(cfr_y, name):
            raise ValueError(f"sub-array CFRs must share {name}")


def _steered_sum(indices: np.ndarray, spacing_wl: float, cosines: np.ndarray,
                 scale: np.ndarray | None, n_cols: int | None):
    """The function that takes values to the sum over elements k of values[k]
    exp(-j 2 pi d m_k c s) along one array axis, whose element spacing is d
    and element indices m_k, at each cosine c of cosines, flattened; shape
    (cosines.size, n_cols). s is each column's f / ref in scale, or 1 with
    narrowband phase (scale None). values is an (n_elem, n_cols) array, or,
    with n_cols None, a function that makes element k's (cosines.size,
    n_cols) row when the sum reaches it. The phasors are made here, once for
    every values the function sums.

    One narrowband steering matrix of at least 2 cosines times an array of
    at least 2 columns is built and multiplied. Every other sum, a
    polynomial in z = exp(-j 2 pi d c s) over the consecutive indices, is
    evaluated by Horner's rule and multiplied by z^m_0: a one-row BLAS
    product gave other bits at 1 and 2 OpenBLAS threads, the larger
    products did not.
    """
    flat = np.ravel(cosines)
    if scale is None and flat.size > 1 and (n_cols or 0) > 1:
        steer = -2j * np.pi * spacing_wl * np.outer(indices, flat)
        steer = np.exp(steer, out=steer).T
        return lambda values: steer @ values
    arg = -2j * np.pi * spacing_wl * np.outer(flat, np.ones(1) if scale is None else scale)
    z, z_first = np.exp(arg), np.exp(arg * indices[0])

    def horner(values):
        row = values if callable(values) else values.__getitem__
        # the sum of no rows is 0 * z, so each step multiplies in place
        total = 0j * z + row(indices.size - 1)
        for k in range(indices.size - 2, -1, -1):
            total *= z
            total += row(k)
        total *= z_first
        return total
    return horner


def _phase_scale(cfr: CfrSet, cols) -> np.ndarray | None:
    """f / ref_freq_hz of frequency columns cols, None with narrowband phase."""
    return None if cfr.narrowband_phase else cfr.freqs.points[cols] / cfr.ref_freq_hz


def _ura_beam(cfr: CfrSet, taper, cols):
    """The function that takes paired cosines (u, v) of one shape to the
    normalized URA delay-and-sum there, over frequency columns cols; shape
    u.shape + (n_cols,): the steered sum along x of each x-row's steered sum
    along y, each row made when the sum along x reaches it. A taper weights
    the values once, for every (u, v) the function is given."""
    geom = cfr.geometry
    tx, ty = _weights(taper, (geom.m_count, geom.n_count))
    scale = _phase_scale(cfr, cols)
    norm = np.sum(np.abs(tx)) * np.sum(np.abs(ty))
    values = cfr.values[:, :, cols]
    if taper is not None:
        values = (tx[:, None] * ty)[:, :, None] * values

    def beam(u, v):
        sum_y = _steered_sum(geom.y_indices, geom.dy_wl, v, scale, values.shape[2])
        sum_x = _steered_sum(geom.x_indices, geom.dx_wl, u, scale, None)
        b = sum_x(lambda m: sum_y(values[m]))
        b /= norm
        return b.reshape(u.shape + (-1,))
    return beam


def _ma_sum(cfr: CfrSet, values: np.ndarray, cosines: np.ndarray, cols) -> np.ndarray:
    """The steered sum of values, cfr.values[:, cols] or a weighted copy,
    along the axis of cfr's MA sub-array; shape cosines.shape + (n_cols,)."""
    geom = cfr.geometry
    indices = geom.x_indices if cfr.layout == "ma_x" else geom.y_indices
    total = _steered_sum(indices, geom.d_wl, cosines, _phase_scale(cfr, cols),
                         values.shape[1])(values)
    return total.reshape(np.shape(cosines) + (-1,))


def line_spectrum(cfr: CfrSet, cosines, cols=slice(None)) -> np.ndarray:
    """Unnormalized steered sum a(c)^H H of an MA sub-array at cosines c along
    its axis, over frequency columns cols; shape c.shape + (n_cols,)."""
    if cfr.layout not in ("ma_x", "ma_y"):
        raise ValueError("line_spectrum needs an ma_x or ma_y CFR")
    return _ma_sum(cfr, cfr.values[:, cols], np.asarray(cosines, float), cols)


def _ma_beam(cfr_x: CfrSet, cfr_y: CfrSet, taper, cols):
    """The function that takes broadcastable cosines (u, v) to the product of
    the two normalized sub-array sums there, over frequency columns cols;
    shape broadcast(u, v) + (n_cols,). A taper weights the values once, for
    every (u, v) the function is given."""
    tx, ty = _weights(taper, (cfr_x.geometry.x_count, cfr_x.geometry.y_count))
    # untapered, the values are summed as they are: a product by ones would
    # copy them and change no value
    axes = [(cfr, cfr.values[:, cols] if taper is None else w[:, None] * cfr.values[:, cols],
             np.sum(np.abs(w))) for cfr, w in ((cfr_x, tx), (cfr_y, ty))]

    def normalized_sum(axis, cosines):
        cfr, values, norm = axis
        total = _ma_sum(cfr, values, cosines, cols)
        total /= norm
        return total

    def beam(u, v):
        x, y = normalized_sum(axes[0], u), normalized_sum(axes[1], v)
        # the product is formed in x unless (u, v) broadcast to a larger shape
        return np.multiply(x, y, out=x if x.shape == y.shape else None)
    return beam


def cbf_ura(cfr: CfrSet, grid: ScanGrid, f_hz: float,
            taper: tuple[np.ndarray, np.ndarray] | None = None) -> BeamPattern:
    """Delay-and-sum beam pattern of a URA at a single sweep frequency.

    Weights are normalized by their magnitude sum, so a single unit path
    scanned at its own direction gives |B| = 1.
    """
    if cfr.layout != "ura":
        raise ValueError("cbf_ura needs a URA-layout CFR")
    u, v = scan_cosines(grid.theta_deg, grid.phi_deg)
    b = _ura_beam(cfr, taper, [_freq_index(cfr.freqs, f_hz)])(u, v)
    return BeamPattern(b[..., 0], grid.theta_deg, grid.phi_deg, f_hz, "ura")


def cbf_ma(cfr_x: CfrSet, cfr_y: CfrSet, grid: ScanGrid, f_hz: float,
           taper: tuple[np.ndarray, np.ndarray] | None = None) -> BeamPattern:
    """Product of the two normalized sub-array beamforming sums."""
    check_ma_pair(cfr_x, cfr_y, "cbf_ma")
    u, v = scan_cosines(grid.theta_deg, grid.phi_deg)
    b = _ma_beam(cfr_x, cfr_y, taper, [_freq_index(cfr_x.freqs, f_hz)])(u, v)
    return BeamPattern(b[..., 0], grid.theta_deg, grid.phi_deg, f_hz, "ma")


def cbf_ma_uv(cfr_x: CfrSet, cfr_y: CfrSet, u_axis: np.ndarray,
              v_axis: np.ndarray, f_hz: float,
              taper: tuple[np.ndarray, np.ndarray] | None = None) -> UvBeam:
    """MA beam pattern on a direction-cosine lattice (separable product)."""
    check_ma_pair(cfr_x, cfr_y, "cbf_ma_uv")
    u_axis = np.asarray(u_axis, float)
    v_axis = np.asarray(v_axis, float)
    beam = _ma_beam(cfr_x, cfr_y, taper, [_freq_index(cfr_x.freqs, f_hz)])
    b = beam(u_axis[:, None], v_axis[None, :])
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


# _padp forms the beam spectrum a block of azimuths at a time, up to this
# many bytes of it, and transforms each block in sub-blocks whose complex
# delay responses take at most as many bytes: neither the whole spectrum nor
# the complex profile is ever held.
_PADP_BLOCK_BYTES = 2 ** 19


def _row_blocks(n_rows: int, step: int) -> Iterator[slice]:
    """Consecutive slices of step rows over range(n_rows), the last one
    shorter; a lone last row joins the block before it."""
    start = 0
    while start < n_rows:
        stop = n_rows if n_rows - start <= step + 1 else start + step
        yield slice(start, stop)
        start = stop


def _padp(beam, cfr: CfrSet, theta_deg: float, phi_deg, pad_factor: int, window,
          kind: str) -> Padp:
    """Window the (phi, frequency) beam spectrum along the cut at theta_deg,
    transform it to delay and take its level, one block of azimuth rows at a
    time. beam, from _ura_beam or _ma_beam over every sweep column, forms
    each block's rows of the spectrum.

    A block holds at least 2 rows unless phi_deg holds 1: _steered_sum sums
    one cosine by Horner's rule and 2 or more by a steering product, whose
    bits differ, and a product of 2 or more rows gave each row the bits of
    the whole product (5 to 801 elements, 375 to 1,500 columns, at 1 to 4
    OpenBLAS threads). A row's window, transform and level do not depend on
    the rows stacked with it."""
    phi_deg = np.asarray(phi_deg, float)
    (u,), (v,) = _cut_cosines(theta_deg, phi_deg)
    n_points = cfr.freqs.n_points
    win = _resolve_window(window, n_points)
    n_delay = n_points * pad_factor
    level = np.empty((phi_deg.size, n_delay))
    # a block is a whole number of transform sub-blocks of step rows: each
    # transform call has a fixed cost, which a part-filled sub-block wastes
    step = max(1, _PADP_BLOCK_BYTES // (16 * n_delay))
    rows = max(2, _PADP_BLOCK_BYTES // (16 * n_points) // step * step)
    for block in _row_blocks(phi_deg.size, rows):
        spectrum, out = beam(u[block], v[block]), level[block]
        if win is not None:
            spectrum *= win
        for start in range(0, len(out), step):
            out[start:start + step] = _level_db(
                cfr_to_cir(spectrum[start:start + step], cfr.freqs, pad_factor), kind)
    return Padp(level.T, delay_axis(cfr.freqs, pad_factor), phi_deg, theta_deg, kind)


def padp_ura(cfr: CfrSet, theta_deg: float, phi_deg: np.ndarray,
             pad_factor: int = 4, taper=None, window=None) -> Padp:
    """Inverse transform of the URA beam pattern over the sweep."""
    if cfr.layout != "ura":
        raise ValueError("padp_ura needs a URA-layout CFR")
    return _padp(_ura_beam(cfr, taper, slice(None)), cfr, theta_deg, phi_deg, pad_factor,
                 window, "ura")


def padp_ma(cfr_x: CfrSet, cfr_y: CfrSet, theta_deg: float, phi_deg: np.ndarray,
            pad_factor: int = 4, taper=None, window=None) -> Padp:
    """Inverse transform of the product MA beam pattern; true-path delays double."""
    check_ma_pair(cfr_x, cfr_y, "padp_ma")
    return _padp(_ma_beam(cfr_x, cfr_y, taper, slice(None)), cfr_x, theta_deg, phi_deg,
                 pad_factor, window, "ma")


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
    then column) and hides the cells within half_box = (rows, cols) of it.
    A NaN anywhere ends the walk before its first cell. level is read in
    place, never written."""
    # Each column of level is one row of work, so the columns a box hides
    # are re-reduced alone: top[c] is column c's maximum among the cells not
    # hidden and first[c] the row where it first occurs. A Padp's level is
    # stored so that its columns are contiguous.
    work = np.asarray(level, dtype=float).T
    if work.size == 0:
        raise ValueError("empty grid")
    hidden = np.zeros(work.shape, bool)
    # argmax copies a read-only input whole, so the first maxima are found
    # on a one-byte mask. A row holding NaN would get no true first maximum,
    # but its NaN ends the walk before first is read.
    top = work.max(axis=1)
    first = (work == top[:, None]).argmax(axis=1)
    dr, dc = half_box
    while True:
        peak = top.max()
        if not (peak >= floor and peak > -np.inf):
            return
        cols = np.flatnonzero(top == peak)
        c = int(cols[np.argmin(first[cols])])
        r = int(first[c])
        yield r, c
        box = slice(max(c - dc, 0), c + dc + 1)
        hidden[box, max(r - dr, 0):r + dr + 1] = True
        shown = np.where(hidden[box], -np.inf, work[box])
        top[box], first[box] = shown.max(axis=1), shown.argmax(axis=1)


# Local maxima are found in blocks of rows of about this many cells.
_PEAK_BLOCK_CELLS = 2 ** 16


def _local_maxima(level: np.ndarray) -> np.ndarray:
    """Flat C-order indices, ascending, of the cells of level >= all 8
    neighbours, cells off the grid reading as -inf."""
    n_rows, n_cols = level.shape
    step = max(1, _PEAK_BLOCK_CELLS // n_cols)
    cells = []
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        # the rows on either side of the block hold its cells' neighbours
        lo = max(start - 1, 0)
        p = np.pad(level[lo:stop + 1], 1, constant_values=-np.inf)
        p = np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])[start - lo:stop - lo]
        top = np.maximum(np.maximum(p[:, :-2], p[:, 1:-1]), p[:, 2:])
        cells.append(np.flatnonzero(level[start:stop] >= top) + start * n_cols)
    return np.concatenate(cells)


def _plateau_peaks(level: np.ndarray) -> np.ndarray:
    """level at cells >= all 8 neighbours, -inf elsewhere. An equal-valued
    plateau keeps only its first cell in C order."""
    cells = _local_maxima(level)
    # Adjacent local maxima have equal levels, so each 8-connected component
    # of the cells is one plateau. Each cell is linked to the cells after it
    # in C order that touch it: right, below left, below and below right.
    n_cols = level.shape[1]
    col = cells % n_cols
    links = []
    for step, ok in ((1, col < n_cols - 1), (n_cols - 1, col > 0),
                     (n_cols, True), (n_cols + 1, col < n_cols - 1)):
        at = np.searchsorted(cells, cells + step)
        ok = ok & (at < cells.size)
        ok[ok] &= cells[at[ok]] == cells[ok] + step
        links.append(np.stack([np.flatnonzero(ok), at[ok]]))
    a, b = np.concatenate(links, axis=1)
    # Labels are positions in cells. Each cell takes the least label among
    # itself and the cells linked to it, then the label of the cell that
    # one names (pointer jumping), until nothing changes: every label then
    # names its plateau's first cell.
    label = np.arange(cells.size)
    while True:
        low = label.copy()
        np.minimum.at(low, a, label[b])
        np.minimum.at(low, b, label[a])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    first = np.unravel_index(cells[label == np.arange(cells.size)], level.shape)
    peaks = np.full_like(level, -np.inf, dtype=float)
    peaks[first] = level[first]
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
