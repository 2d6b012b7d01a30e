"""On-disk CFR exchange format: '#' key=value headers plus CSV body rows."""

from __future__ import annotations

import functools
import io
import os
import re
import warnings

import numpy as np

from .channel import CfrSet, ma_axis
from .geometry import FrequencyGrid, MaGeometry, UraGeometry, signed_indices

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
_ROW_DTYPE = np.dtype([(name, typ) for name, typ, _ in _ROW])


class CfrFormatError(ValueError):
    """Malformed or inconsistent CFR file."""


def _veltkamp(v):
    """Split float64 v into a 26-bit high part and the exact remainder."""
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


# 10**k is exact in float64 for 0 <= k <= 22.
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _times_pow10(a, k):
    """high, low with a * 10**k == high + low exactly, high the rounded
    product: a two-product (Dekker 1971)."""
    high = a * _POW10[k]
    ah, al = _veltkamp(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    return high, ((ah * bh - high) + ah * bl + al * bh) + al * bl


# The formatted text is held in little-endian uint64 words ("<u8"), so that
# byte i of a word is byte i of its text on any host. Item t of _ABOVE masks
# bytes t..7 of a word, none for t >= 8.
_ABOVE = np.array([2 ** 64 - 2 ** (8 * t) for t in range(9)] + [0], "<u8")
_G_SPEC = re.compile(r"%\.(\d+)g")
# Bound on the working set of a chunk of lines: its line matrix, the words
# of each field formatted by Python and the kernel's temporaries.
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


def _g_precision(spec: str, values: np.ndarray) -> int:
    """p if _format_g formats values with spec, float values of a '%.<p>g'
    spec with p <= 17, else 0."""
    match = _G_SPEC.fullmatch(spec)
    kernel = match and int(match[1]) <= 17 and values.dtype.kind == "f" and values.itemsize <= 8
    return max(1, int(match[1])) if kernel else 0  # as in Python, precision 0 means 1


@functools.cache
def _g_layout(p: int, sep: bytes, end: bytes):
    """The tables of a '%.<p>g' field led by sep and ended by end (b"" or
    one byte). Its slot is a word of prefix, sep and the text before the
    digits right-aligned, then (p + len(end) + 8) // 8 words of body: the
    digits, the point and end; every other byte is 0. For exponent x in
    -4..p-1 and sign s, the prefix is item 2 * (x + 4) + s of the first
    table. For b bytes of body before end, item (x + 4) * (p + 2) + b of
    masks[w] has body word w's masks of digits and of digits shifted up past
    the point, and the point and end bytes it adds."""
    prefixes = [sep + (b"-" if s else b"") + (b"0." + b"0" * (-x - 1) if x < 0 else b"")
                for x in range(-4, p) for s in (0, 1)]
    byte = np.arange(8 * ((p + len(end) + 8) // 8))
    x, b = np.arange(-4, p)[:, None, None], np.arange(p + 2)[:, None]
    at = np.where(x >= 0, x + 1, byte.size)  # the point's byte, past the body if none
    text = byte < b
    masks = np.array(np.broadcast_arrays(
        (text & (byte < at)) * 255, (text & (byte > at)) * 255,
        np.where(text & (byte == at), ord("."), 0) + (byte == b) * int.from_bytes(end, "little")),
        np.uint8).reshape(3, -1, byte.size).view("<u8").transpose(2, 0, 1).copy()
    masks.flags.writeable = False
    return np.frombuffer(b"".join(prefix.rjust(8, b"\0") for prefix in prefixes), "<u8"), masks


def _format_g(x: np.ndarray, p: int, spec: str, sep: bytes, end: bytes, out=None):
    """sep + spec % v + end for each float64 v of x, where spec is '%.<p>g'
    with 1 <= p <= 17, laid out by _g_layout(p, sep, end) in the rows of out
    (a new matrix if None), 1 + (p + len(end) + 8) // 8 words each.

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
    high, low = _times_pow10(a, k)
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
    # Digits are split by floor division, which numpy does by multiplying
    # (libdivide), and multiply-subtract, not by the slower '%'. The index of
    # the last nonzero digit; four or more trailing zeros are rare
    low4 = q - q // 10000 * 10000
    last = p - 1 - zeros4.take(low4)
    more = np.flatnonzero(low4 == 0)
    if more.size:
        last[more] = p - 1 - sum(q[more] % 10 ** j == 0 for j in range(1, p))
    body = np.where((e >= 0) & (last > e), last + 2, np.maximum(last, e) + 1)
    prefix, masks = _g_layout(p, sep, end)
    out = np.empty((x.size, 1 + len(masks)), "<u8") if out is None else out
    out[:, 0] = prefix.take(2 * (e + 4) + np.signbit(x))
    code = (e + 4) * (p + 2) + body
    # body word w holds digits 8w..8w+7 of q, the decimal point at its byte
    # e + 1 - 8w, and the digits past the point one byte up
    rest, below = q, 0  # the digits of q after the last word, the last word
    for w, (digit_mask, shifted_mask, add) in enumerate(masks):
        tail = p - 8 * w - 8  # digits of q after this word
        if tail > 0:
            eight = rest // 10 ** tail
            rest = rest - eight * 10 ** tail
        else:
            eight, rest = rest * 10 ** -tail, 0
        high4 = eight // 10000
        digits = digits4.take(high4) | digits4.take(eight - high4 * 10000) << 32
        out[:, 1 + w] = (digits & digit_mask.take(code)
                         | (digits << 8 | below >> 56) & shifted_mask.take(code)
                         | add.take(code))
        below = digits
    for i in np.flatnonzero(~ok):
        text = sep + (spec % x[i]).encode() + end  # at most p + 8 + len(end) bytes
        out[i] = np.frombuffer(text.ljust(8 * out.shape[1], b"\0"), "<u8")
    return out


def _format(spec: str, sep: str, end: str, values: np.ndarray, out=None):
    """sep + spec % v + end for each v of values: a matrix of words, one row
    of UTF-8 text per value, NUL-padded. Float values of a '%.<p>g' spec,
    p <= 17, are formatted in numpy (_format_g), into out if given; anything
    else by Python, whose text must hold no NUL byte."""
    p = _g_precision(spec, values)
    if p:
        return _format_g(values.astype(float, copy=False), p, spec, sep.encode(),
                         end.encode(), out)
    data = [(sep + spec % v + end).encode() for v in values.tolist()]
    width = 8 * max(1, -(-max(map(len, data), default=0) // 8))
    words = np.array(data, f"S{width}").view("<u8").reshape(len(data), -1)
    if np.count_nonzero(words.view(np.uint8)) != sum(map(len, data)):
        raise ValueError(f"field {spec!r} formats text with a NUL byte")
    return words


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
    # Each field writes its text, led by its comma, NUL-padded into its own
    # words of a line matrix, the last field's text ending with the newline.
    # line_bytes bounds what a chunk holds per line at its peak: 160 bytes,
    # 64 per field, 192 more per per-cell float '%.<p>g' field. tracemalloc
    # measured 110-340 bytes: the line, its index and one field's temporaries.
    fields, line_bytes = [], 160  # (spec, sep, end, axis, words or column, kernel width)
    for i, (spec, c) in enumerate(zip(specs, columns)):
        sep, end = "," if i else "", "" if i < len(specs) - 1 else "\n"
        axis, p = None, _g_precision(spec, c)
        varies = [a for a, (n, s) in enumerate(zip(shape, c.strides)) if n > 1 and s != 0]
        if len(varies) <= 1 < len(shape):
            axis, = varies or [0]
            along = tuple(slice(None) if a in varies else 0 for a in range(len(shape)))
            c, p = _format(spec, sep, end, np.atleast_1d(c[along])), 0
            c = c.compress(c.any(0), 1)  # drop empty words
        fields.append((spec, sep, end, axis, c, p and 1 + (p + len(end) + 8) // 8))
        line_bytes += 64 + 192 * bool(p)
    step = max(1, _CHUNK_BYTES // line_bytes)
    for start in range(0, size, step):
        index = np.unravel_index(np.arange(start, min(size, start + step)), shape)
        # A per-cell float '%.<p>g' field is formatted in the line, any other
        # copied into it. A constant column's one row stands for every index.
        words = [c.take(index[axis], 0, mode="clip") if axis is not None
                 else None if width else _format(spec, sep, end, c[index])
                 for spec, sep, end, axis, c, width in fields]
        stops = np.cumsum([width or w.shape[1] for w, (*_, width) in zip(words, fields)])
        line = np.empty((index[0].size, stops[-1]), "<u8")
        for (spec, sep, end, _, c, width), w, stop in zip(fields, words, stops):
            if w is None:
                _format(spec, sep, end, c[index], line[:, stop - width:stop])
            else:
                line[:, stop - w.shape[1]:stop] = w
        text = line.view(np.uint8).ravel()
        fh.write(text[text != 0].tobytes().decode())


def write_cfr(path, cfr: CfrSet) -> None:
    """Serialize one CFR set; complex values keep 17 significant digits."""
    geom, freqs = cfr.geometry, cfr.freqs
    if cfr.layout == "ura":
        if geom.dx_wl != geom.dy_wl:
            raise CfrFormatError("file format carries one spacing; URA needs dx == dy")
        nx, ny, spacing = geom.m_count, geom.n_count, geom.dx_wl
        xs, ys = geom.x_indices, geom.y_indices
    else:  # an MA sub-array's other axis holds only index 0
        nx, ny = geom.x_count, geom.y_count
        count, spacing, axis = ma_axis(cfr.layout, geom)
        xs, ys = (signed_indices(count if a == axis else 1) for a in (0, 1))
    # the header values in _HEADER order
    header = (FORMAT_VERSION, cfr.layout, freqs.f_start_hz, freqs.f_stop_hz,
              freqs.n_points, nx, ny, spacing, cfr.ref_freq_hz, int(cfr.narrowband_phase))
    values = cfr.values.reshape(xs.size, ys.size, freqs.n_points)
    with open(path, "w") as fh:
        for (key, typ), value in zip(_HEADER.items(), header):
            spec = ".17g" if typ is float else ""
            fh.write(f"# {key}={value:{spec}}\n")
        write_rows(fh, [spec for *_, spec in _ROW], xs[:, None, None], ys[:, None],
                   np.arange(freqs.n_points), values.real, values.imag)


def _header_spec(text: dict[str, str]) -> tuple[dict, FrequencyGrid, MaGeometry | UraGeometry]:
    """The header values, read as their _HEADER types, and the sweep and
    geometry the header text declares."""
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


def _fold(words):
    """The integer that the 8 digit values, one per byte, of each word of
    words spell, byte 0 the leading digit: pairs, then quads, then all 8
    are combined by one multiply and shift each (Lemire 2021)."""
    words = words * 2561 >> 8  # 10 * 2**8 + 1
    words = (words & 0x00FF00FF00FF00FF) * 6553601 >> 16  # 100 * 2**16 + 1
    return (words & 0x0000FFFF0000FFFF) * 42949672960001 >> 32  # 10**4 * 2**32 + 1


def _digits(words, end, count, frac=None):
    """The integer spelt by the count digits that end at byte end of each
    field, where words[i] is the little-endian word at byte i, and the
    integer spelt by all but their last 8. Each word is taken from the 8
    bytes before its end, the bytes that are not digits cleared. If frac is
    given, a decimal point sits before the last frac digits of a field: the
    digits before it are taken one byte earlier, from the word shifted up
    one byte."""
    value = high = 0
    earlier = None  # the raw word before this one, for the byte shifted in
    chars = int(count.max(initial=0)) + (frac is not None)  # with the point
    for k in reversed(range(-(-chars // 8))):
        word = words[end - 8 * (k + 1)]
        if frac is not None:
            shifted = word << 8 if earlier is None else word << 8 | earlier >> 56
            earlier = word
            word = shifted ^ ((word ^ shifted) & _ABOVE.take(8 * k + 8 - frac, mode="clip"))
        word &= _DIGIT_NIBBLES.take(8 * k + 8 - count, mode="clip")
        high, value = value, value * 10 ** 8 + _fold(word)
    return value, high


def _scale(digits, k):
    """digits / 10**k rounded to the nearest double, for uint64 digits below
    10**18 and 0 <= k <= 22, and whether the kernel proved it.

    q = fl(digits / 10**k) is within two units in the last place, and the
    remainder digits - q * 10**k, exact to a few units in its last place,
    says how far: q moves one unit toward it if that is nearer. A quotient
    within 1e-6 of a unit of halfway between two doubles, or 1.25 units or
    more from q, is not proved (Clinger 1990).
    """
    high = digits.astype(float)
    p = _POW10[k]
    q = high / p
    ph, pl = _times_pow10(q, k)
    # high - ph is exact (Sterbenz), and so is the rest of digits
    rest = high - ph
    rest -= pl
    rest += digits.view(np.int64) - high.astype(np.int64)
    unit = np.spacing(q)
    off = rest / (p * unit)  # the quotient is q + off * unit
    step = np.rint(off)
    # One unit's step at most. Below a power of two the spacing halves, so a
    # q that is one stays only if off > -1/4, and a step down to one needs
    # off > -5/4.
    ok = (np.abs(off - step) < 0.5 - 1e-6) & (np.abs(off) < 1.25)
    ok &= (off > -0.25 + 1e-6) | (q.view(np.uint64) << 12 != 0)
    return q + step * unit, ok


# The kernel's body row: three ints '-?digits' and two floats
# '-?digits.digits[e(+|-)digits]', joined by ',' and ended by '\n'. These are
# its marks, the bytes ',', '.' and '\n', in order.
_ROW_MARKS = np.frombuffer(b",,,.,.\n", np.uint8)
# A block's bytes are led by this many zero bytes, so that the three words
# before the end of any field start inside the block.
_PAD = 24
_ROW_BYTES = 9  # the shortest body row, '0,0,0,0,0', without its line end
_DIGIT_NIBBLES = _ABOVE & 0x0F0F0F0F0F0F0F0F  # item t: the value bits of bytes t..7


def _parse_rows(text: str):
    """The rows of a block of whole body lines, parsed in numpy, or None if
    a line is not in the kernel's grammar (_ROW_MARKS). Each float is
    rounded from its digits and exponent by _scale; one that _scale does
    not prove, or whose exponent is out of its range, is parsed by float().
    Either way the bits are those of a correctly rounded parse, as loadtxt
    gives."""
    if not text.isascii():
        return None
    data = bytes(_PAD) + text.encode() + (b"" if text.endswith("\n") else b"\n")
    b = np.frombuffer(data, np.uint8)
    words = np.ndarray((b.size - 7,), "<u8", data, strides=(1,))
    marks = np.flatnonzero((b == 10) | (b == 44) | (b == 46))
    n = marks.size // 7
    if marks.size % 7 or not (b[marks].reshape(n, 7) == _ROW_MARKS).all():
        return None
    at = marks.reshape(n, 7).T  # at[j]: the place of mark j in each row
    i_start = np.stack([np.concatenate([[_PAD], at[6, :-1] + 1]), at[0] + 1, at[1] + 1])
    i_end, f_start, f_end, dot = at[:3], at[[2, 4]] + 1, at[[4, 6]], at[[3, 5]]
    i_neg, f_neg = b[i_start] == 45, b[f_start] == 45
    i_count = i_end - i_start - i_neg
    # an 'e' follows the point of a float, one at most, and ends its mantissa
    exp = np.flatnonzero(b == 101)
    after = np.searchsorted(marks, exp)
    field = after % 7 // 2 - 2, after // 7
    point = f_end.copy()
    point[field] = exp
    exp_sign, exp_count = b[exp + 1], f_end[field] - exp - 2
    exp_minus, exp_plus = np.count_nonzero(exp_sign == 45), np.count_nonzero(exp_sign == 43)
    frac = point - dot - 1
    count = point - f_start - f_neg - 1
    minus, plus = np.count_nonzero(b == 45), np.count_nonzero(b == 43)
    # every byte is a digit or in its place; an int has 1 to 16 digits, a
    # mantissa digits on both sides of its point and at most 23 in all, an
    # exponent a sign and 1 to 3 digits
    if (np.count_nonzero(b - 48 < 10) + marks.size + exp.size + minus + plus != b.size - _PAD
            or minus != np.count_nonzero(i_neg) + np.count_nonzero(f_neg) + exp_minus
            or plus != exp_plus or exp_minus + exp_plus != exp.size
            or (after % 7 < 4).any() or (after % 7 % 2).any() or (np.diff(after) == 0).any()
            or (i_count < 1).any() or (i_count > 16).any()
            or (frac < 1).any() or (count - frac < 1).any() or (count > 23).any()
            or (exp_count < 1).any() or (exp_count > 3).any()):
        return None
    rows = np.empty(n, _ROW_DTYPE)
    value = _digits(words, i_end, i_count)[0].view(np.int64)
    rows["m"], rows["n"], rows["l"] = np.where(i_neg, -value, value)
    # arrays are dropped once used, to bound the block's working set
    del marks, at, i_start, i_end, i_neg, i_count, value
    power = -frac
    if exp.size:
        power[field] += (np.where(exp_sign == 45, -1, 1)
                         * _digits(words, f_end[field], exp_count)[0].view(np.int64))
    mantissa, high = _digits(words, point, count, frac)
    del point, frac, count, dot
    ok = (high < 10 ** 10) & (power <= 0) & (power >= -22)
    x, proved = _scale(np.where(ok, mantissa, 0), np.where(ok, -power, 0))
    x = np.where(f_neg, -x, x)
    for i in zip(*np.nonzero(~(ok & proved))):
        x[i] = float(data[f_start[i]:f_end[i]])
    rows["re"], rows["im"] = x
    return rows


def _parse_block(text: str) -> np.ndarray:
    """The rows of a block of whole body lines: by _parse_rows if every line
    is in its grammar, else by loadtxt. loadtxt skips an empty line but not
    a whitespace-only one, so whitespace-only lines are emptied first."""
    rows = _parse_rows(text)
    if rows is not None:
        return rows
    lines = ["\n" if line.isspace() else line
             for line in io.StringIO(text, newline="\n").readlines()]
    with warnings.catch_warnings():
        # a block of blank and comment lines holds no rows
        warnings.filterwarnings("ignore", "loadtxt: ", UserWarning)
        return np.loadtxt(lines, _ROW_DTYPE, delimiter=",", comments="#", ndmin=1)


def _body_rows(fh, first: str):
    """The rows of the body that starts with the text first and goes on in
    fh, one block of about _BODY_BLOCK_CHARS characters of whole lines at a
    time. '#' lines are comments, and blank lines are skipped."""
    text = first + fh.read(_BODY_BLOCK_CHARS)
    n_rows = 0
    while text:
        if not text.endswith("\n"):
            text += fh.readline()
        try:
            rows = _parse_block(text)
        except ValueError as exc:
            # loadtxt numbers the rows of its own input
            message = re.sub(r"at row (\d+)",
                             lambda match: f"at row {int(match[1]) + n_rows}", str(exc))
            raise CfrFormatError(f"malformed body row: {message}") from exc
        n_rows += rows.size
        yield rows
        text = fh.read(_BODY_BLOCK_CHARS)


def _body_values(blocks, header: dict, geometry, max_rows: int) -> np.ndarray:
    """The values of the entries the header and its geometry declare,
    scattered from the blocks of body rows, of which there are at most
    max_rows. A fault is raised after the last block, the first of these the
    rows have: a frequency index out of range, an element index out of
    range, a non-finite value, fewer rows than entries, and a repeated entry.
    Each names the first row at fault, a repeated entry the lowest one."""
    layout, L = header["layout"], header["n_freq"]
    cx, cy = header["n_elem_x"], header["n_elem_y"]
    if layout != "ura":  # an MA sub-array's other axis holds only index 0
        count, _, axis = ma_axis(layout, geometry)
        cx, cy = (count if a == axis else 1 for a in (0, 1))
    hx, hy = cx // 2, cy // 2
    size = cx * cy * L
    shape = (cx, cy, L) if layout == "ura" else (cx * cy, L)
    # The counts come from the header, so until the file could hold a row
    # per entry they are only compared with, never used to size an array.
    values = seen = None
    if max_rows >= size:
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
    repeated = None  # the first _HEADER key given twice
    with open(path, encoding="utf-8") as fh:
        if not fh.seekable():  # a pipe has no size to bound the rows by
            raise io.UnsupportedOperation("underlying stream is not seekable")
        # the body's bytes: the file's, less at least those of the headers
        body_bytes, first = os.fstat(fh.fileno()).st_size, ""
        for line in fh:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                first = line  # the headers end at the first body row
                break
            body_bytes -= len(line)
            key, _, value = stripped[1:].partition("=")
            key = key.strip()
            if key in text and key in _HEADER:
                repeated = repeated or key
            text[key] = value.strip()
        try:
            if repeated:
                raise CfrFormatError(f"header key {repeated!r} given twice")
            header, freqs, geometry = _header_spec(text)
        except ValueError:
            for _ in _body_rows(fh, first):  # a malformed row comes first
                pass
            raise
        values = _body_values(_body_rows(fh, first), header, geometry,
                              body_bytes // _ROW_BYTES)
    return CfrSet(header["layout"], values, freqs, geometry, header["ref_freq_hz"],
                  header["narrowband_phase"] == 1)
