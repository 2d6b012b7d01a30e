"""On-disk CFR exchange format: '#' key=value headers plus CSV body rows."""

from __future__ import annotations

import re

import numpy as np

from .channel import CfrSet
from .geometry import FrequencyGrid, MaGeometry, UraGeometry

FORMAT_VERSION = 2
# Body row: element index x, element index y, frequency index, Re, Im.
_ROW = [("m", int), ("n", int), ("l", int), ("re", float), ("im", float)]
# One printf field of a row format, or an escaped '%'.
_FIELD = re.compile(r"%%|%[-#0 +\d.]*[a-zA-Z]")


class CfrFormatError(ValueError):
    """Malformed or inconsistent CFR file."""


def _header_fields(cfr: CfrSet) -> dict:
    geom = cfr.geometry
    if cfr.layout == "ura":
        if geom.dx_wl != geom.dy_wl:
            raise CfrFormatError("file format carries one spacing; URA needs dx == dy")
        nx, ny, spacing = geom.m_count, geom.n_count, geom.dx_wl
    else:
        nx, ny, spacing = geom.x_count, geom.y_count, geom.d_wl
    return {
        "format_version": FORMAT_VERSION,
        "layout": cfr.layout,
        "f_start_hz": cfr.freqs.f_start_hz,
        "f_stop_hz": cfr.freqs.f_stop_hz,
        "n_freq": cfr.freqs.n_points,
        "n_elem_x": nx,
        "n_elem_y": ny,
        "spacing_wl": spacing,
        "ref_freq_hz": cfr.ref_freq_hz,
        "narrowband_phase": int(cfr.narrowband_phase),
    }


def _element_axes(layout: str, geometry) -> tuple[np.ndarray, np.ndarray]:
    """Signed element indices of the x and y index columns. An MA sub-array
    is an element grid whose other axis holds only index 0."""
    if layout == "ura":
        return geometry.x_indices, geometry.y_indices
    zero = np.zeros(1, int)
    return (geometry.x_indices, zero) if layout == "ma_x" else (zero, geometry.y_indices)


def write_rows(fh, fmt: str, *columns) -> None:
    """Write fmt % row for every cell of the columns' broadcast shape, in C
    order, with one write per run of the last axis. Each field is formatted
    at its column's own shape: once per file if the column varies only along
    the last axis, once per run if it is constant along it, else per cell."""
    columns = np.broadcast_arrays(*(np.atleast_1d(c) for c in columns))
    literals, tokens = _FIELD.split(fmt), _FIELD.findall(fmt)
    specs = [t for t in tokens if t != "%%"]
    if len(specs) != len(columns):
        raise ValueError(f"row format {fmt!r} has {len(specs)} fields "
                         f"for {len(columns)} columns")
    if not columns[0].size:
        return
    *outer, run = columns[0].shape
    per_file = {i: [spec % x for x in c[(0,) * len(outer)].tolist()]
                for i, (spec, c) in enumerate(zip(specs, columns))
                if c.strides[-1] and not any(c.strides[:-1])}
    for idx in np.ndindex(*outer):
        # fmt with the run's constant fields filled in and the per-file ones as %s
        run_fmt, seqs, i = literals[0], [], 0
        for token, literal in zip(tokens, literals[1:]):
            if token != "%%":
                if i in per_file:
                    token = "%s"
                    seqs.append(per_file[i])
                elif columns[i].strides[-1]:
                    seqs.append(columns[i][idx].tolist())
                else:
                    token = (token % columns[i].item(*idx, 0)).replace("%", "%%")
                i += 1
            run_fmt += token + literal
        rows = zip(*seqs) if seqs else [()] * run
        fh.write("".join([run_fmt % row for row in rows]))


def write_cfr(path, cfr: CfrSet) -> None:
    """Serialize one CFR set; complex values keep 17 significant digits."""
    fields = _header_fields(cfr)
    xs, ys = _element_axes(cfr.layout, cfr.geometry)
    values = cfr.values.reshape(xs.size, ys.size, cfr.freqs.n_points)
    with open(path, "w") as fh:
        for key, value in fields.items():
            if isinstance(value, float):
                fh.write(f"# {key}={value:.17g}\n")
            else:
                fh.write(f"# {key}={value}\n")
        write_rows(fh, "%d,%d,%d,%.17g,%.17g\n", xs[:, None, None], ys[:, None],
                   np.arange(cfr.freqs.n_points), values.real, values.imag)


def read_cfr(path) -> CfrSet:
    """Parse a CFR file back into a CfrSet; round-trips write_cfr exactly."""
    headers: dict[str, str] = {}
    rows = np.empty(0, _ROW)
    with open(path) as fh:
        for skip, line in enumerate(fh):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    # The headers end at the first body row. loadtxt reads on from
                    # there in C, and takes any later '#' line as a comment.
                    rows = np.loadtxt(path, _ROW, delimiter=",", comments="#",
                                      skiprows=skip, ndmin=1)
                except ValueError as exc:
                    raise CfrFormatError(f"malformed body row: {exc}") from exc
                break
            key, _, value = line[1:].partition("=")
            headers[key.strip()] = value.strip()
    try:
        version = int(headers["format_version"])
        layout = headers["layout"]
        freqs = FrequencyGrid(float(headers["f_start_hz"]),
                              float(headers["f_stop_hz"]),
                              int(headers["n_freq"]))
        nx = int(headers["n_elem_x"])
        ny = int(headers["n_elem_y"])
        spacing = float(headers["spacing_wl"])
        ref_freq = float(headers["ref_freq_hz"])
        # Version 1 files carry no flag and read as narrowband.
        narrowband = headers["narrowband_phase"] if version == FORMAT_VERSION else "1"
    except KeyError as exc:
        raise CfrFormatError(f"missing header key: {exc}") from exc
    if version not in (1, FORMAT_VERSION):
        raise CfrFormatError(f"unsupported format_version {version}")
    if narrowband not in ("0", "1"):
        raise CfrFormatError(f"narrowband_phase must be 0 or 1, not {narrowband!r}")
    if layout == "ura":
        geometry = UraGeometry(nx, ny, spacing, spacing)
    elif layout in ("ma_x", "ma_y"):
        geometry = MaGeometry(nx, ny, spacing)
    else:
        raise CfrFormatError(f"unknown layout {layout!r}")
    xs, ys = _element_axes(layout, geometry)
    L = freqs.n_points
    m, n, l = rows["m"], rows["n"], rows["l"]
    bad_l = np.flatnonzero((l < 0) | (l >= L))
    if bad_l.size:
        raise CfrFormatError(f"frequency index {l[bad_l[0]]} out of range")
    a, b = m - xs[0], n - ys[0]
    bad = np.flatnonzero((a < 0) | (a >= xs.size) | (b < 0) | (b >= ys.size))
    if bad.size:
        raise CfrFormatError(f"element index (elem_index_x, elem_index_y) out of range "
                             f"for layout {layout} in body row {rows[bad[0]]}")
    bad = np.flatnonzero(~(np.isfinite(rows["re"]) & np.isfinite(rows["im"])))
    if bad.size:
        raise CfrFormatError(f"non-finite value in body row {rows[bad[0]]}")
    shape = (xs.size, ys.size, L) if layout == "ura" else (xs.size * ys.size, L)
    flat = (a * ys.size + b) * L + l
    counts = np.bincount(flat, minlength=xs.size * ys.size * L)
    if np.any(counts > 1):
        key = np.unravel_index(np.flatnonzero(counts > 1)[0], shape)
        raise CfrFormatError(f"duplicate row for entry {tuple(int(k) for k in key)}")
    if not counts.all():
        raise CfrFormatError(
            f"body covers {np.count_nonzero(counts)} entries, header implies {counts.size}")
    values = np.empty(counts.size, complex)
    # Real and imaginary parts are set separately: re + 1j*im would turn a
    # -0.0 real part into +0.0.
    values.real[flat] = rows["re"]
    values.imag[flat] = rows["im"]
    return CfrSet(layout, values.reshape(shape), freqs, geometry, ref_freq,
                  narrowband == "1")
