"""On-disk CFR exchange format: '#' key=value headers plus CSV body rows."""

from __future__ import annotations

import numpy as np

from .channel import CfrSet
from .geometry import FrequencyGrid, MaGeometry, UraGeometry

FORMAT_VERSION = 2
# Header keys in file order, each with the type its value is written from
# and read as. Floats are written with 17 significant digits.
_HEADER = {"format_version": int, "layout": str, "f_start_hz": float,
           "f_stop_hz": float, "n_freq": int, "n_elem_x": int, "n_elem_y": int,
           "spacing_wl": float, "ref_freq_hz": float, "narrowband_phase": int}
# Body row: element index x, element index y, frequency index, Re, Im, each
# with the type it is read as and the spec it is written with.
_ROW = [("m", int, "%d"), ("n", int, "%d"), ("l", int, "%d"),
        ("re", float, "%.17g"), ("im", float, "%.17g")]


class CfrFormatError(ValueError):
    """Malformed or inconsistent CFR file."""


def _index_counts(layout: str, nx: int, ny: int) -> tuple[int, int]:
    """Lengths of the x and y element index columns, whose signed indices run
    symmetrically about 0. An MA sub-array's other axis holds only index 0."""
    return (1 if layout == "ma_y" else nx), (1 if layout == "ma_x" else ny)


def write_rows(fh, specs, *columns) -> None:
    """Write one line of comma-joined fields, field i formatted with specs[i],
    for every cell of the columns' broadcast shape, in C order, with one write
    per run of the last axis. Each field is formatted at its column's own
    shape: once per file if the column varies only along the last axis, once
    per run if it is constant along it, else per cell."""
    columns = np.broadcast_arrays(*(np.atleast_1d(c) for c in columns))
    if len(specs) != len(columns):
        raise ValueError(f"{len(specs)} fields for {len(columns)} columns")
    if not columns[0].size:
        return
    *outer, run = columns[0].shape
    per_file = {i: [spec % x for x in c[(0,) * len(outer)].tolist()]
                for i, (spec, c) in enumerate(zip(specs, columns))
                if c.strides[-1] and not any(c.strides[:-1])}
    for idx in np.ndindex(*outer):
        # the line with the run's constant fields filled in, the per-file ones as %s
        fields, seqs = [], []
        for i, (spec, c) in enumerate(zip(specs, columns)):
            if i in per_file:
                fields.append("%s")
                seqs.append(per_file[i])
            elif c.strides[-1]:
                fields.append(spec)
                seqs.append(c[idx].tolist())
            else:
                fields.append((spec % c.item(*idx, 0)).replace("%", "%%"))
        line = ",".join(fields) + "\n"
        rows = zip(*seqs) if seqs else [()] * run
        fh.write("".join([line % row for row in rows]))


def write_cfr(path, cfr: CfrSet) -> None:
    """Serialize one CFR set; complex values keep 17 significant digits."""
    geom, freqs = cfr.geometry, cfr.freqs
    if cfr.layout == "ura":
        if geom.dx_wl != geom.dy_wl:
            raise CfrFormatError("file format carries one spacing; URA needs dx == dy")
        nx, ny, spacing = geom.m_count, geom.n_count, geom.dx_wl
    else:
        nx, ny, spacing = geom.x_count, geom.y_count, geom.d_wl
    # the header values in _HEADER order
    header = (FORMAT_VERSION, cfr.layout, freqs.f_start_hz, freqs.f_stop_hz,
              freqs.n_points, nx, ny, spacing, cfr.ref_freq_hz, int(cfr.narrowband_phase))
    xs, ys = (np.arange(c) - c // 2 for c in _index_counts(cfr.layout, nx, ny))
    values = cfr.values.reshape(xs.size, ys.size, freqs.n_points)
    with open(path, "w") as fh:
        for (key, typ), value in zip(_HEADER.items(), header):
            spec = ".17g" if typ is float else ""
            fh.write(f"# {key}={value:{spec}}\n")
        write_rows(fh, [spec for *_, spec in _ROW], xs[:, None, None], ys[:, None],
                   np.arange(freqs.n_points), values.real, values.imag)


def _parse_header(text: dict[str, str]) -> dict:
    """The value of each _HEADER key, read as its type from the header text."""
    header = {}
    for key, typ in _HEADER.items():
        value = text.get(key)
        if key == "narrowband_phase" and header["format_version"] != FORMAT_VERSION:
            value = "1"  # version-1 files carry no flag and read as narrowband
        if value is None:
            raise CfrFormatError(f"missing header key: {key!r}")
        try:
            header[key] = typ(value)
        except ValueError:
            raise CfrFormatError(f"header {key} must be {typ.__name__}, "
                                 f"not {value!r}") from None
    return header


def read_cfr(path) -> CfrSet:
    """Parse a CFR file back into a CfrSet; round-trips write_cfr exactly."""
    text: dict[str, str] = {}
    row_dtype = [(name, typ) for name, typ, _ in _ROW]
    rows = np.empty(0, row_dtype)
    with open(path) as fh:
        for skip, line in enumerate(fh):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    # The headers end at the first body row. loadtxt reads on from
                    # there in C, and takes any later '#' line as a comment.
                    rows = np.loadtxt(path, row_dtype, delimiter=",", comments="#",
                                      skiprows=skip, ndmin=1)
                except ValueError as exc:
                    raise CfrFormatError(f"malformed body row: {exc}") from exc
                break
            key, _, value = line[1:].partition("=")
            text[key.strip()] = value.strip()
    header = _parse_header(text)
    layout, L = header["layout"], header["n_freq"]
    freqs = FrequencyGrid(header["f_start_hz"], header["f_stop_hz"], L)
    if header["format_version"] not in (1, FORMAT_VERSION):
        raise CfrFormatError(f"unsupported format_version {header['format_version']}")
    if header["narrowband_phase"] not in (0, 1):
        raise CfrFormatError(f"narrowband_phase must be 0 or 1, "
                             f"not {header['narrowband_phase']}")
    nx, ny, spacing = header["n_elem_x"], header["n_elem_y"], header["spacing_wl"]
    if layout == "ura":
        geometry = UraGeometry(nx, ny, spacing, spacing)
    elif layout in ("ma_x", "ma_y"):
        geometry = MaGeometry(nx, ny, spacing)
    else:
        raise CfrFormatError(f"unknown layout {layout!r}")
    # The counts come from the header, so until the body is known to hold a
    # row per entry they are only compared with, never used to size an array.
    cx, cy = _index_counts(layout, nx, ny)
    hx, hy = cx // 2, cy // 2
    m, n, l = rows["m"], rows["n"], rows["l"]
    bad_l = np.flatnonzero((l < 0) | (l >= L))
    if bad_l.size:
        raise CfrFormatError(f"frequency index {l[bad_l[0]]} out of range")
    bad = np.flatnonzero((m < -hx) | (m > hx) | (n < -hy) | (n > hy))
    if bad.size:
        raise CfrFormatError(f"element index (elem_index_x, elem_index_y) out of range "
                             f"for layout {layout} in body row {rows[bad[0]]}")
    bad = np.flatnonzero(~(np.isfinite(rows["re"]) & np.isfinite(rows["im"])))
    if bad.size:
        raise CfrFormatError(f"non-finite value in body row {rows[bad[0]]}")
    size = cx * cy * L
    if rows.size < size:
        raise CfrFormatError(f"body covers {rows.size} entries at most, "
                             f"header implies {size}")
    # With at least one in-range row per entry, the rows cover every entry
    # unless one repeats.
    shape = (cx, cy, L) if layout == "ura" else (cx * cy, L)
    flat = ((m + hx) * cy + n + hy) * L + l
    counts = np.bincount(flat, minlength=size)
    if np.any(counts > 1):
        key = np.unravel_index(np.flatnonzero(counts > 1)[0], shape)
        raise CfrFormatError(f"duplicate row for entry {tuple(int(k) for k in key)}")
    values = np.empty(size, complex)
    # Real and imaginary parts are set separately: re + 1j*im would turn a
    # -0.0 real part into +0.0.
    values.real[flat] = rows["re"]
    values.imag[flat] = rows["im"]
    return CfrSet(layout, values.reshape(shape), freqs, geometry, header["ref_freq_hz"],
                  header["narrowband_phase"] == 1)
