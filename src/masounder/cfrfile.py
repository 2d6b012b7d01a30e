"""On-disk CFR exchange format: '#' key=value headers plus CSV body rows."""

from __future__ import annotations

import functools
import re
import warnings

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


def _veltkamp(v):
    """Split float64 v into a 26-bit high part and the exact remainder."""
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


# 10**k is exact in float64 for 0 <= k <= 22.
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI, _POW10_LO = _veltkamp(_POW10)
# The formatted text is held in little-endian uint64 words ("<u8"), so that
# byte i of a word is byte i of its text on any host. To insert the decimal
# point at byte j of a word, with t = clip(j, -1, 8) + 1, the digit word keeps
# the bytes in _BELOW[t], the word shifted up one byte fills those in
# _ABOVE[t], and _POINT[t] holds the '.'.
_ALL = 2 ** 64 - 1
_BELOW = np.array([0] + [2 ** (8 * j) - 1 for j in range(8)] + [_ALL], "<u8")
_ABOVE = np.array([_ALL] + [_ALL ^ (2 ** (8 * j + 8) - 1) for j in range(8)] + [0], "<u8")
_POINT = np.array([0] + [ord(".") << 8 * j for j in range(8)] + [0], "<u8")
# A field with this spec, p <= 17, of float values is formatted in numpy
# (_format_g); any other field by Python.
_G_SPEC = re.compile(r"%\.(\d+)g")
# Bound on the working set of a chunk of lines: its line and mask matrices,
# each field's words and the kernel's temporaries.
_CHUNK_BYTES = 2 ** 21
# read_cfr parses the body in blocks of lines of about this many characters.
# A block's line strings and rows take about 3 bytes per character.
_BODY_BLOCK_CHARS = 2 ** 18


@functools.cache
def _digit_tables():
    """Word i of the first table holds the four ASCII digits of i, 0 <= i <
    10000, zero-padded, in bytes 0-3; item i of the second is the count of
    trailing zero digits of i, for i > 0. Built on first use, so that
    importing the package costs no memory for them."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # first to last
    ascii4 = np.zeros((10000, 8), np.uint8)
    ascii4[:, :4] = digits.T + ord("0")
    zeros = (digits[3] == 0) * (1 + (digits[2] == 0) * (1 + (digits[1] == 0)))
    return ascii4.view("<u8")[:, 0], zeros.astype(np.intp)


@functools.cache
def _g_layout(p: int, sep: bytes):
    """The tables of a '%.<p>g' field led by sep. Its slot is one word of
    prefix, sep and the text before the digits right-aligned, then
    (p + 8) // 8 words of body, the digits with the decimal point. For
    exponent x in -4..p-1 and sign s, the prefix is row 2 * (x + 4) + s of
    the first table, and the mask of the slot's bytes that the field keeps,
    with the body's first b bytes, is row (2 * (x + 4) + s) * (p + 2) + b of
    the second."""
    prefixes = [sep + (b"-" if s else b"") + (b"0." + b"0" * (-x - 1) if x < 0 else b"")
                for x in range(-4, p) for s in (0, 1)]
    body = np.arange(8 * ((p + 8) // 8)) < np.arange(p + 2)[:, None]
    keep = [np.concatenate([np.arange(8) >= 8 - len(prefix), b])
            for prefix in prefixes for b in body]
    masks = np.array(keep).view("<u8")
    masks.flags.writeable = False
    return np.frombuffer(b"".join(prefix.rjust(8, b"\0") for prefix in prefixes),
                         "<u8"), masks


def _format_g(x: np.ndarray, p: int, spec: str, sep: bytes):
    """sep + spec % v for each float64 v of x, where spec is '%.<p>g' with
    1 <= p <= 17, as _g_layout(p, sep) lays it out: a matrix of
    1 + (p + 8) // 8 words per value, and a matrix of the same shape that
    marks the bytes of the text, one run per row.

    The digits are the p-digit integer nearest |v| * 10**k, taken from an
    exact two-product (Dekker 1971).
    A value the kernel cannot prove is formatted by Python into its row: one
    within 1e-6 of a rounding tie, one that rounds up to a power of ten or
    needs exponent notation, and +-0, nan, inf and subnormals.
    """
    a = np.abs(x)
    # False for nan, inf, 0, subnormals and the exponent notation below 1e-4
    ok = (a >= 1e-4) & (a < _POW10[p])
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    k = np.maximum(p - 1 - e, 0)  # at most p + 4 <= 21
    # a * 10**k == high + low exactly
    high = a * _POW10[k]
    ah, al = _veltkamp(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    low = ((ah * bh - high) + ah * bl + al * bh) + al * bl
    # log10 may misjudge e by one next to a power of ten: a * 10**k must be
    # at least 10**(p-1), and below 10**p once rounded (checked with q)
    ok &= (high > _POW10[p - 1]) | ((high == _POW10[p - 1]) & (low >= 0))
    whole = np.rint(high)
    frac = (high - whole) + low  # the exact remainder to within 2e-15
    step = np.rint(frac)
    ok &= np.abs(frac - step) < 0.5 - 1e-6
    q = whole.astype(np.int64) + step.astype(np.int64)
    ok &= (q < 10 ** p) & (e >= -4) & (e < p)  # else a carry or exponent notation
    q[~ok], e[~ok] = 10 ** (p - 1), 0
    digits4, zeros4 = _digit_tables()
    # index of the last nonzero digit; four or more trailing zeros are rare
    low4 = q % 10000
    last = p - 1 - zeros4.take(low4)
    more = np.flatnonzero(low4 == 0)
    if more.size:
        last[more] = p - 1 - sum(q[more] % 10 ** j == 0 for j in range(1, p))
    point = e >= 0
    body = np.where(point & (last > e), last + 2, np.maximum(last, e) + 1)
    prefix, masks = _g_layout(p, sep)
    code = 2 * (e + 4) + np.signbit(x)
    words = (p + 8) // 8
    chars = np.empty((x.size, 1 + words), "<u8")
    chars[:, 0] = prefix.take(code)
    # body word w holds digits 8w..8w+7 of q, the decimal point at its byte
    # e + 1 - 8w, and the digits past the point one byte up
    at = np.where(point, e + 1, 8 * words)
    below = 0
    for w in range(words):
        tail = p - 8 * w - 8  # digits of q after this word
        if tail >= 0:
            eight = q // 10 ** tail % 10 ** 8
        else:
            eight = q % 10 ** max(0, p - 8 * w) * 10 ** -tail
        high4, low4 = np.divmod(eight, 10000)
        digits = digits4.take(high4) | digits4.take(low4) << 32
        t = np.minimum(np.maximum(at - 8 * w, -1), 8) + 1
        chars[:, 1 + w] = (digits & _BELOW.take(t)
                           | (digits << 8 | below >> 56) & _ABOVE.take(t)
                           | _POINT.take(t))
        below = digits
    keep = masks.take(code * (p + 2) + body, axis=0)
    text_bytes, keep_bytes = chars.view(np.uint8), keep.view(bool)
    for i in np.flatnonzero(~ok):
        text = sep + (spec % x[i]).encode()  # at most p + 8 bytes
        text_bytes[i, :len(text)] = np.frombuffer(text, np.uint8)
        keep_bytes[i] = np.arange(keep_bytes.shape[1]) < len(text)
    return chars, keep


def _format(spec: str, sep: str, values: np.ndarray):
    """sep + spec % v for each v of values: a matrix of words, one row of
    UTF-8 text per value, and a matrix of the same shape that marks its
    bytes. Float values of a '%.<p>g' spec, p <= 17, are formatted in numpy
    (_format_g), anything else by Python."""
    match = _G_SPEC.fullmatch(spec)
    if match and int(match[1]) <= 17 and values.dtype.kind == "f" and values.itemsize <= 8:
        p = max(1, int(match[1]))  # as in Python, precision 0 means 1
        return _format_g(values.astype(float, copy=False), p, spec, sep.encode())
    data = [(sep + spec % v).encode() for v in values.tolist()]
    sizes = np.fromiter(map(len, data), np.intp, len(data))
    width = 8 * max(1, -(-sizes.max(initial=0) // 8))
    chars = np.array(data, f"S{width}").view("<u8").reshape(len(data), -1)
    return chars, (np.arange(width) < sizes[:, None]).view("<u8")


def write_rows(fh, specs, *columns) -> None:
    """Write one line of comma-joined fields, field i formatted with specs[i],
    for every cell of the columns' broadcast shape, in C order, in chunks of
    bounded memory with one write each. On a grid of two or more axes, a
    column that varies along at most one axis is formatted once per value
    along it (once, if it is constant) and gathered by that axis's index;
    any other column is formatted per cell. Either way, float '%.<p>g'
    fields, p <= 17, are formatted in numpy, byte-identical to Python's
    '%'."""
    columns = np.broadcast_arrays(*(np.atleast_1d(c) for c in columns))
    if len(specs) != len(columns):
        raise ValueError(f"{len(specs)} fields for {len(columns)} columns")
    shape, size = columns[0].shape, columns[0].size
    if not size:
        return
    # Each field fills whole words of a line matrix, led by its comma, and
    # the same words of a mask matrix mark its bytes; a last word holds the
    # newline. line_bytes is what a chunk holds per line at its peak, as
    # tracemalloc measured it: 160 bytes, 64 per field, 192 more per
    # per-cell float '%.<p>g' field.
    fields, line_bytes = [], 160  # (spec, sep, axis or None per cell, column or text)
    for i, (spec, c) in enumerate(zip(specs, columns)):
        sep, axis = "," if i else "", None
        varies = [a for a, (n, s) in enumerate(zip(shape, c.strides)) if n > 1 and s != 0]
        if len(varies) <= 1 < len(shape):
            axis, = varies or [0]
            along = tuple(slice(None) if a in varies else 0 for a in range(len(shape)))
            chars, keep = _format(spec, sep, np.atleast_1d(c[along]))
            c = [m.compress(keep.any(0), 1) for m in (chars, keep)]  # drop empty words
        elif c.dtype.kind == "f" and _G_SPEC.fullmatch(spec):
            line_bytes += 192
        fields.append((spec, sep, axis, c))
        line_bytes += 64
    step = max(1, _CHUNK_BYTES // line_bytes)
    for start in range(0, size, step):
        index = np.unravel_index(np.arange(start, min(size, start + step)), shape)
        parts = []  # the words of each field and their mask
        for spec, sep, axis, c in fields:
            if axis is None:
                parts.append(_format(spec, sep, c[index]))
            else:  # a constant column's one row stands for every index
                parts.append([words.take(index[axis], 0, mode="clip") for words in c])
        ends = np.cumsum([chars.shape[1] for chars, _ in parts] + [1])
        line = np.empty((index[0].size, ends[-1]), "<u8")
        mask = np.empty(line.shape, "<u8")
        for (chars, keep), end in zip(parts, ends):
            begin = end - chars.shape[1]
            line[:, begin:end], mask[:, begin:end] = chars, keep
        line[:, -1], mask[:, -1] = ord("\n"), 1
        fh.write(line.view(np.uint8)[mask.view(bool)].tobytes().decode())


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


def _header_spec(text: dict[str, str]) -> tuple[dict, FrequencyGrid, MaGeometry | UraGeometry]:
    """The header values, sweep and geometry the header text declares."""
    header = _parse_header(text)
    freqs = FrequencyGrid(header["f_start_hz"], header["f_stop_hz"], header["n_freq"])
    if header["format_version"] not in (1, FORMAT_VERSION):
        raise CfrFormatError(f"unsupported format_version {header['format_version']}")
    if header["narrowband_phase"] not in (0, 1):
        raise CfrFormatError(f"narrowband_phase must be 0 or 1, "
                             f"not {header['narrowband_phase']}")
    nx, ny, spacing = header["n_elem_x"], header["n_elem_y"], header["spacing_wl"]
    if header["layout"] == "ura":
        return header, freqs, UraGeometry(nx, ny, spacing, spacing)
    if header["layout"] in ("ma_x", "ma_y"):
        return header, freqs, MaGeometry(nx, ny, spacing)
    raise CfrFormatError(f"unknown layout {header['layout']!r}")


def _row_faults(rows: np.ndarray, layout: str, hx: int, hy: int, L: int) -> list:
    """For each body row check, in order (frequency index, element index,
    finite value), the message naming the first of rows that fails it, or
    None."""
    m, n, l = rows["m"], rows["n"], rows["l"]
    bad_l = np.flatnonzero((l < 0) | (l >= L))
    bad_mn = np.flatnonzero((m < -hx) | (m > hx) | (n < -hy) | (n > hy))
    bad_value = np.flatnonzero(~(np.isfinite(rows["re"]) & np.isfinite(rows["im"])))
    return [None if not bad_l.size else f"frequency index {l[bad_l[0]]} out of range",
            None if not bad_mn.size else (
                f"element index (elem_index_x, elem_index_y) out of range "
                f"for layout {layout} in body row {rows[bad_mn[0]]}"),
            None if not bad_value.size else
            f"non-finite value in body row {rows[bad_value[0]]}"]


def _line_count(fh) -> int:
    """Lines from the position of the text file fh to its end, as iterating
    over fh yields them."""
    count, last = 0, "\n"
    for chunk in iter(lambda: fh.read(2 ** 16), ""):
        count += chunk.count("\n")
        last = chunk[-1]
    return count + (last != "\n")


def _parse_block(lines) -> np.ndarray:
    """The rows of a block of body lines. loadtxt skips an empty line but
    not a whitespace-only one, so a block that fails to parse is parsed
    again with its whitespace-only lines emptied."""
    row_dtype = [(name, typ) for name, typ, _ in _ROW]
    with warnings.catch_warnings():
        # a block of blank and comment lines holds no rows
        warnings.filterwarnings("ignore", "loadtxt: ", UserWarning)
        try:
            return np.loadtxt(lines, row_dtype, delimiter=",", comments="#", ndmin=1)
        except ValueError:
            emptied = ["\n" if line.isspace() else line for line in lines]
            if emptied == lines:
                raise
            return np.loadtxt(emptied, row_dtype, delimiter=",", comments="#", ndmin=1)


def _body_rows(fh, first):
    """The rows of the body that starts at line first and goes on in fh, one
    block of about _BODY_BLOCK_CHARS characters of lines at a time. '#'
    lines are comments, and blank lines are skipped."""
    lines = [] if first is None else [first, *fh.readlines(_BODY_BLOCK_CHARS)]
    n_rows = 0
    while lines:
        try:
            rows = _parse_block(lines)
        except ValueError as exc:
            # loadtxt numbers the rows of its own input
            message = re.sub(r"at row (\d+)",
                             lambda match: f"at row {int(match[1]) + n_rows}", str(exc))
            raise CfrFormatError(f"malformed body row: {message}") from exc
        n_rows += rows.size
        yield rows
        lines = fh.readlines(_BODY_BLOCK_CHARS)


def _body_values(blocks, header: dict, n_lines: int) -> np.ndarray:
    """The values of the entries the header declares, scattered from the
    blocks of body rows. The body has n_lines lines. A fault is raised after
    the last block, the first of these the rows have: a frequency index out
    of range, an element index out of range, a non-finite value, fewer rows
    than entries, and a repeated entry. Each names the first row at fault, a
    repeated entry the lowest one."""
    layout, L = header["layout"], header["n_freq"]
    cx, cy = _index_counts(layout, header["n_elem_x"], header["n_elem_y"])
    hx, hy = cx // 2, cy // 2
    size = cx * cy * L
    shape = (cx, cy, L) if layout == "ura" else (cx * cy, L)
    # The counts come from the header, so until the file is known to hold a
    # line per entry they are only compared with, never used to size an array.
    values = seen = None
    if n_lines >= size:
        values, seen = np.empty(size, complex), np.zeros(size, bool)
    faults = [None, None, None]
    n_rows, repeat = 0, size  # repeat: the lowest repeated entry, size for none
    for rows in blocks:
        n_rows += rows.size
        faults = [old or new for old, new in zip(faults, _row_faults(rows, layout, hx, hy, L))]
        if values is None or any(faults):
            continue
        flat = ((rows["m"] + hx) * cy + rows["n"] + hy) * L + rows["l"]
        ordered = np.sort(flat)
        repeats = np.concatenate([flat[seen[flat]], ordered[1:][ordered[1:] == ordered[:-1]]])
        repeat = min(repeat, repeats.min(initial=size))
        seen[flat] = True
        # Real and imaginary parts are set separately: re + 1j*im would turn
        # a -0.0 real part into +0.0.
        values.real[flat] = rows["re"]
        values.imag[flat] = rows["im"]
    for fault in faults:
        if fault is not None:
            raise CfrFormatError(fault)
    if values is None or n_rows < size:
        raise CfrFormatError(f"body covers {n_rows} entries at most, "
                             f"header implies {size}")
    if repeat < size:
        key = np.unravel_index(repeat, shape)
        raise CfrFormatError(f"duplicate row for entry {tuple(int(k) for k in key)}")
    return values.reshape(shape)


def read_cfr(path) -> CfrSet:
    """Parse a CFR file back into a CfrSet; round-trips write_cfr exactly.

    The body is parsed a block of lines at a time, and each block is
    scattered into the values before the next is read. A malformed row is
    reported first, then a fault of the header, then one of the rows (see
    _body_values).
    """
    text: dict[str, str] = {}
    with open(path) as fh:
        n_lines = _line_count(fh)
        fh.seek(0)
        first = None
        for skip, line in enumerate(fh):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                first = line  # the headers end at the first body row
                break
            key, _, value = stripped[1:].partition("=")
            text[key.strip()] = value.strip()
        else:
            skip = n_lines
        try:
            header, freqs, geometry = _header_spec(text)
        except ValueError:
            for _ in _body_rows(fh, first):  # a malformed row comes first
                pass
            raise
        values = _body_values(_body_rows(fh, first), header, n_lines - skip)
    return CfrSet(header["layout"], values, freqs, geometry, header["ref_freq_hz"],
                  header["narrowband_phase"] == 1)
