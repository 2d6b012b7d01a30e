import io
import os
import re
import threading
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masounder import cfrfile
from masounder.cfrfile import (FORMAT_VERSION, CfrFormatError, read_cfr, write_cfr,
                               write_rows)
from masounder.channel import CfrSet, gen_ma_cfr, gen_ura_cfr
from masounder.geometry import (FrequencyGrid, MaGeometry, PathComponent,
                                UraGeometry)
from masounder.scenario import parse_scenario

from conftest import scenario_path

FREQS = FrequencyGrid(26e9, 30e9, 12)
PATHS = [
    PathComponent.from_power_db(0, 60, 120, 0.3, phase_deg=17.0),
    PathComponent.from_power_db(-8, 30, 200, 0.7),
]


def _tiny_file(tmp_path, body_lines, **header_overrides):
    headers = {
        "format_version": 1, "layout": "ma_x",
        "f_start_hz": 26e9, "f_stop_hz": 30e9, "n_freq": 2,
        "n_elem_x": 3, "n_elem_y": 3, "spacing_wl": 0.5,
        "ref_freq_hz": 28e9,
    }
    headers.update(header_overrides)
    path = tmp_path / "cfr.csv"
    lines = [f"# {k}={v}" for k, v in headers.items() if v is not None]
    path.write_text("\n".join(lines + body_lines) + "\n")
    return path


FULL_MA_BODY = [f"{m},0,{l},{m + 1}.0,{l}.5" for m in (-1, 0, 1) for l in (0, 1)]


def test_ura_round_trip_is_bit_exact(tmp_path):
    cfr = gen_ura_cfr(PATHS, UraGeometry(3, 5, 0.5, 0.5), FREQS)
    p = tmp_path / "ura.csv"
    write_cfr(p, cfr)
    back = read_cfr(p)
    assert back.layout == "ura"
    assert back.freqs == cfr.freqs
    assert back.geometry == cfr.geometry
    assert back.ref_freq_hz == cfr.ref_freq_hz
    np.testing.assert_array_equal(back.values, cfr.values)


def test_ma_round_trips_are_bit_exact(tmp_path):
    cx, cy = gen_ma_cfr(PATHS, MaGeometry(5, 7, 0.414), FREQS)
    # signed zeros must survive: -0.0 and 0.0 compare equal, so check bits
    signed = cx.values.copy()
    signed[0, :4] = [complex(-0.0, 1.5), complex(2.0, -0.0),
                     complex(-0.0, -0.0), complex(0.0, -0.0)]
    for cfr, name in ((cx.with_values(signed), "x.csv"), (cy, "y.csv")):
        p = tmp_path / name
        write_cfr(p, cfr)
        back = read_cfr(p)
        assert back.layout == cfr.layout
        assert back.geometry == cfr.geometry
        np.testing.assert_array_equal(back.values.view(np.uint64),
                                      cfr.values.view(np.uint64))


def test_wideband_round_trip_keeps_narrowband_flag(tmp_path):
    freqs = FrequencyGrid(26e9, 30e9, 16)
    for cfr in gen_ma_cfr(PATHS, MaGeometry(5, 5), freqs, narrowband_phase=False):
        p = tmp_path / f"{cfr.layout}.csv"
        write_cfr(p, cfr)
        assert f"# format_version={FORMAT_VERSION}" in p.read_text().splitlines()
        back = read_cfr(p)
        assert back.narrowband_phase is False
        np.testing.assert_array_equal(back.values.view(np.uint64),
                                      cfr.values.view(np.uint64))


def test_read_narrowband_phase_header(tmp_path):
    # version 1 has no narrowband_phase header
    assert read_cfr(_tiny_file(tmp_path, FULL_MA_BODY)).narrowband_phase is True
    p = _tiny_file(tmp_path, FULL_MA_BODY, format_version=2)
    with pytest.raises(CfrFormatError, match="missing header key"):
        read_cfr(p)
    p = _tiny_file(tmp_path, FULL_MA_BODY, format_version=2, narrowband_phase="yes")
    with pytest.raises(CfrFormatError, match="narrowband_phase"):
        read_cfr(p)
    p = _tiny_file(tmp_path, FULL_MA_BODY, format_version=2, narrowband_phase=2)
    with pytest.raises(CfrFormatError, match="narrowband_phase must be 0 or 1, not 2"):
        read_cfr(p)
    p = _tiny_file(tmp_path, FULL_MA_BODY, format_version=2, narrowband_phase=0)
    assert read_cfr(p).narrowband_phase is False


def test_write_matches_row_by_row_reference(tmp_path):
    ura = gen_ura_cfr(PATHS, UraGeometry(3, 5, 0.5, 0.5), FREQS)
    _, ma_y = gen_ma_cfr(PATHS, MaGeometry(5, 7, 0.5), FREQS)
    for cfr, xs, ys in ((ura, ura.geometry.x_indices, ura.geometry.y_indices),
                        (ma_y, [0], range(-3, 4))):
        values = cfr.values.reshape(len(xs), len(ys), FREQS.n_points)
        body = [f"{m},{n},{l},{values[a, b, l].real:.17g},{values[a, b, l].imag:.17g}"
                for a, m in enumerate(xs) for b, n in enumerate(ys)
                for l in range(FREQS.n_points)]
        p = tmp_path / f"{cfr.layout}.csv"
        write_cfr(p, cfr)
        lines = p.read_text().splitlines()
        assert lines[-len(body):] == body
        assert all(line.startswith("#") for line in lines[:-len(body)])


def _reference_rows(specs, *columns):
    """The comma-joined specs % row for every cell of the broadcast columns,
    one row at a time."""
    fmt = ",".join(specs) + "\n"
    cells = [c.ravel().tolist() for c in np.broadcast_arrays(*map(np.atleast_1d, columns))]
    return "".join(fmt % row for row in zip(*cells))


def _written_rows(specs, *columns):
    fh = io.StringIO()
    write_rows(fh, specs, *columns)
    return fh.getvalue()


# -0.0, subnormals, large exponents and non-finite values; then doubles next
# to where %.9g and %.17g round hardest: carries into the next power of ten
# (9.9999999995 -> 10, 999999999.5 -> 1e+09), decimal ties, powers of ten and
# the switch to exponent notation below 1e-4
EDGE = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308,
                 -1.7976931348623157e308, 1.2345678901234567e-300, 123456789.0,
                 0.1, np.nan, np.inf, -np.inf,
                 9.9999999995, -9.9999999995, 999999999.5, 99999999.995, 123456789.5,
                 1.0000000005, 0.5, -2.5, 0.30000000000000004,
                 9.999999995e-05, 9.9999999949999998e-05, 1e-4, np.nextafter(1e-4, 0),
                 np.nextafter(100.0, 0), 1e16, np.nextafter(1e16, 0), 1e17,
                 np.nextafter(1e17, 0)])


def test_write_rows_padp_shape_matches_reference(rng):
    phi = np.arange(90.0, 271.0, 7.0)
    delay_ns = np.arange(40) * 0.3125
    level = 20 * np.log10(np.abs(rng.standard_normal((40, phi.size))))
    fmt = ["%.9g"] * 3
    assert not level.T.flags.c_contiguous
    expected = _reference_rows(fmt, phi[:, None], delay_ns, level.T)
    assert _written_rows(fmt, phi[:, None], delay_ns, level.T) == expected
    assert expected.splitlines()[1] == f"90,0.3125,{level[1, 0]:.9g}"


@pytest.mark.parametrize("layout", ["ura", "ma_x", "ma_y"])
def test_write_rows_cfr_shape_matches_reference(tmp_path, layout):
    if layout == "ura":
        cfr = gen_ura_cfr(PATHS, UraGeometry(3, 5, 0.5, 0.5), FREQS)
    else:
        cfr = gen_ma_cfr(PATHS, MaGeometry(5, 7, 0.5), FREQS)[layout == "ma_y"]
    x5, y7, zero = np.arange(-2, 3), np.arange(-3, 4), np.zeros(1, int)
    xs, ys = {"ura": (np.arange(-1, 2), x5), "ma_x": (x5, zero), "ma_y": (zero, y7)}[layout]
    values = cfr.values.reshape(xs.size, ys.size, FREQS.n_points)
    fmt = ["%d"] * 3 + ["%.17g"] * 2
    columns = (xs[:, None, None], ys[:, None], np.arange(FREQS.n_points),
               values.real, values.imag)
    expected = _reference_rows(fmt, *columns)
    assert _written_rows(fmt, *columns) == expected
    p = tmp_path / "cfr.csv"
    write_cfr(p, cfr)
    assert p.read_text().endswith(expected)


def test_write_rows_length_one_last_axis_matches_reference(rng):
    x, level = np.arange(5.0)[:, None], rng.standard_normal((5, 1))
    for columns in ((x, 0.5, level), (x, [0.5], level), (x, level, level[:, :1])):
        expected = _reference_rows(["%.9g"] * 3, *columns)
        assert _written_rows(["%.9g"] * 3, *columns) == expected
        assert len(expected.splitlines()) == 5
    for empty, axis in ((np.empty((0, 1)), np.arange(5.0)), (np.empty((3, 0)), x[:3])):
        assert _written_rows(["%.9g"] * 3, empty, axis, 1.0) == ""


@pytest.mark.parametrize("spec", ["%.9g", "%.17g"])
def test_write_rows_edge_values_match_reference(spec):
    fmt = [spec] * 3
    n = np.arange(EDGE.size)
    grid = EDGE[np.add.outer(n, 3 * n) % EDGE.size]  # every value in every row
    # each edge value as a per-run, a per-file and a per-cell column
    for columns in ((EDGE[:, None], EDGE, grid), (EDGE[:, None], EDGE, grid.T[::-1])):
        expected = _reference_rows(fmt, *columns)
        assert _written_rows(fmt, *columns) == expected
        assert "e-324" in expected and "e+308" in expected and "nan" in expected
    assert _written_rows(fmt, EDGE[:, None], EDGE, grid).startswith("-0,-0,-0\n")


@pytest.mark.parametrize("chunk_bytes", [1, 2000, 5000])
def test_write_rows_chunk_boundaries_keep_every_byte(monkeypatch, chunk_bytes):
    """Chunks of one line, and of a few lines, that split the runs of every
    axis at every offset: 31 edge values along the last axis."""
    monkeypatch.setattr(cfrfile, "_CHUNK_BYTES", chunk_bytes)
    n = np.arange(EDGE.size)
    grid = EDGE[np.add.outer(n, 3 * n) % EDGE.size]
    padp = ["%.9g"] * 3, (EDGE[:, None], EDGE, grid)
    # a CFR on a 3-D grid whose y axis has one index, with a constant column
    cfr = ["%d"] * 3 + ["%.17g"] * 3, (np.arange(-2, 3)[:, None, None], np.zeros((1, 1), int),
                                       np.arange(EDGE.size), grid[:5, None], 0.25,
                                       grid[::-1][:5, None])
    beam = ["%.9g"] * 3, (grid, grid.T, grid[::-1])
    for specs, columns in (padp, cfr, beam):
        assert _written_rows(specs, *columns) == _reference_rows(specs, *columns)


def _near(centre, ulps, negative):
    """The double ulps steps from centre, away from zero if ulps > 0, and
    negated if negative."""
    x = centre
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else 0.0)
    return -x if negative else x


@st.composite
def _g_cases(draw):
    """A '%.<p>g' spec and doubles to format with it: any double, nan, inf
    and subnormals included, and doubles next to where the rounding is
    hardest: a decimal tie (q + 1/2) * 10**(e - p + 1), a carry into the next
    power of ten, which at e = -5 or e = p - 1 also leaves exponent notation
    for fixed or the other way, and a power of ten."""
    p = draw(st.sampled_from([1, 3, 9, 17]))
    e = st.integers(-6, p + 1)
    centres = st.one_of(
        st.builds(lambda q, e: (q + 0.5) * 10.0 ** (e - p + 1),
                  st.integers(10 ** (p - 1), 10 ** p - 1), e),
        st.builds(lambda e: (10.0 ** p - 0.5) * 10.0 ** (e - p + 1), e),
        st.builds(lambda e: 10.0 ** e, e))
    hard = st.builds(_near, centres, st.integers(-3, 3), st.booleans())
    return f"%.{p}g", np.array(draw(st.lists(st.floats() | hard, min_size=1, max_size=30)))


@settings(max_examples=200, deadline=None)
@given(_g_cases())
def test_write_rows_g_fields_are_byte_identical_to_python(case):
    spec, values = case
    assert _written_rows([spec], values) == _reference_rows([spec], values)


def test_write_cfr_peak_memory_is_bounded(tmp_path):
    # table1's MA sub-array: 199 elements x 1500 frequencies, 15 MB of text
    cx, _ = gen_ma_cfr(PATHS, MaGeometry(199, 199, 0.5), FrequencyGrid(26e9, 30e9, 1500))
    tracemalloc.start()
    try:
        write_cfr(tmp_path / "x.csv", cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20  # a chunk's budget, _CHUNK_BYTES; it measured 1.2 MiB


def test_write_rows_integer_and_literal_columns_match_reference():
    m = np.arange(-3, 4)
    n = np.array([-(2 ** 40), 0, 7])
    cell = np.arange(7 * 3 * 4).reshape(7, 3, 4) - 40
    fmt = ["%d", "%+d", "%5d", "%.3g"]
    columns = (m[:, None, None], n[:, None], np.arange(4), cell * 0.5)
    expected = _reference_rows(fmt, *columns)
    assert _written_rows(fmt, *columns) == expected
    assert expected.startswith("-3,-1099511627776,    0,-20\n")
    assert _written_rows(["%d"] * 2, m, cell[:, 0, 0]) == _reference_rows(["%d"] * 2, m,
                                                                         cell[:, 0, 0])
    labels = np.array(["5%", "a%%b%d"])[:, None]  # a run constant holding '%'
    specs = ["%s", "%d"]
    assert _written_rows(specs, labels, m) == _reference_rows(specs, labels, m)


def test_write_rows_rejects_a_nul_byte_in_python_formatted_text():
    """The writer keeps a line's nonzero bytes, so a NUL in the text of a
    field formatted by Python, per cell or per axis value, is an error."""
    for labels, m in ((np.array(["a", "b\0c"]), np.arange(2)),
                      (np.array(["a", "b\0c"])[:, None], np.arange(3))):
        with pytest.raises(ValueError, match="field '%s' formats text with a NUL byte"):
            _written_rows(["%s", "%d"], labels, m)


@pytest.mark.parametrize("spec", ["%d", "%.9g", "%.17g", "%s"])
def test_write_rows_formats_a_one_axis_column_once_per_axis_value(monkeypatch, spec):
    """On a 3-D grid, a column that follows only the middle axis is formatted
    once per value of that axis, and a constant column once. A column that
    follows the two leading axes, and a full one, are formatted per cell.
    Float '%.<p>g' values, in either role, go through the numpy kernel."""
    formatted, kernel = Counter(), Counter()
    format_, format_g = cfrfile._format, cfrfile._format_g

    def counting(spec, sep, end, values, out=None):
        formatted.update(values.tolist())
        return format_(spec, sep, end, values, out)

    def counting_g(x, *args):
        kernel.update(x.tolist())
        return format_g(x, *args)
    monkeypatch.setattr(cfrfile, "_format", counting)
    monkeypatch.setattr(cfrfile, "_format_g", counting_g)
    middle = np.array([-3, 1, 10 ** 15])[:, None]
    leading = np.arange(100, 106).reshape(2, 3, 1)
    constant = np.array(7)
    cell = np.arange(1000, 1024).reshape(2, 3, 4)
    columns = [middle, leading, constant, cell]
    if spec != "%d":  # exact binary fractions
        columns = [c / 8 for c in columns]
    specs = [spec] * 4
    assert _written_rows(specs, *columns) == _reference_rows(specs, *columns)
    middle, leading, constant, cell = (c.ravel().tolist() for c in columns)
    assert formatted == Counter(middle + leading * 4 + constant + cell)
    assert kernel == (formatted if spec.endswith("g") else Counter())


def test_write_rows_rejects_mismatched_columns():
    with pytest.raises(ValueError, match="2 fields for 3 columns"):
        _written_rows(["%d"] * 2, [1], [2], [3])
    with pytest.raises(ValueError):
        _written_rows(["%d"] * 2, np.arange(3), np.arange(4))


def test_write_rejects_anisotropic_ura(tmp_path):
    cfr = gen_ura_cfr(PATHS, UraGeometry(3, 3, 0.4, 0.5), FREQS)
    with pytest.raises(CfrFormatError, match="dx == dy"):
        write_cfr(tmp_path / "bad.csv", cfr)


def test_read_hand_built_file(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY)
    cfr = read_cfr(p)
    assert cfr.layout == "ma_x"
    assert cfr.values.shape == (3, 2)
    assert cfr.values[0, 1] == complex(0.0, 1.5)   # row "-1,0,1,0.0,1.5"
    assert cfr.values[2, 0] == complex(2.0, 0.5)


def test_read_missing_header_key(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY, n_freq=None)
    with pytest.raises(CfrFormatError, match="missing header key"):
        read_cfr(p)


def test_read_unparsable_header_value_names_its_key(tmp_path):
    for key, value, kind in (("n_freq", "abc", "int"), ("format_version", "2.0", "int"),
                             ("f_start_hz", "26 GHz", "float"), ("n_elem_y", "", "int")):
        p = _tiny_file(tmp_path, FULL_MA_BODY, **{key: value})
        with pytest.raises(CfrFormatError, match=f"header {key} must be {kind}, not '"):
            read_cfr(p)


@pytest.mark.parametrize("key,value", [("ref_freq_hz", "1e9"), ("narrowband_phase", "0")])
def test_read_rejects_a_header_key_given_twice(tmp_path, key, value):
    p = _tiny_file(tmp_path, FULL_MA_BODY, format_version=2, narrowband_phase=1)
    lines = p.read_text().splitlines()
    header, body = lines[:10], lines[10:]
    p.write_text("\n".join(header + [f"# {key}={value}"] + body) + "\n")
    with pytest.raises(CfrFormatError, match=f"^header key '{key}' given twice$"):
        read_cfr(p)
    # after the first body row the same line is a comment
    p.write_text("\n".join(header + body[:1] + [f"# {key}={value}"] + body[1:]) + "\n")
    cfr = read_cfr(p)
    assert (cfr.ref_freq_hz, cfr.narrowband_phase) == (28e9, True)


@pytest.mark.parametrize("n_elem_x", [200001, 10 ** 20 + 1])
def test_read_sizes_nothing_from_header_counts_until_the_body_has_the_rows(
        tmp_path, n_elem_x):
    # an 11-line file that declares n_elem_x * 16 entries and holds one
    p = _tiny_file(tmp_path, ["0,0,0,1.0,2.0"], format_version=2, narrowband_phase=1,
                   n_freq=16, n_elem_x=n_elem_x)
    assert len(p.read_text().splitlines()) == 11
    tracemalloc.start()
    try:
        with pytest.raises(CfrFormatError, match=f"body covers 1 entries at most, "
                                                 f"header implies {n_elem_x * 16}$"):
            read_cfr(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_refuses_a_pipe_whose_size_cannot_bound_its_rows(tmp_path):
    text = _tiny_file(tmp_path, FULL_MA_BODY).read_bytes()
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)

    def feed():
        try:
            pipe.write_bytes(text)
        except BrokenPipeError:  # the reader may close first
            pass
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        with pytest.raises(io.UnsupportedOperation, match="not seekable"):
            read_cfr(pipe)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_read_bad_version(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY, format_version=9)
    with pytest.raises(CfrFormatError, match="format_version"):
        read_cfr(p)


def test_read_unknown_layout(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY, layout="hex")
    with pytest.raises(CfrFormatError, match="layout"):
        read_cfr(p)


def test_read_duplicate_row(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY + ["0,0,0,9.0,9.0"])
    with pytest.raises(CfrFormatError, match="duplicate"):
        read_cfr(p)


def test_read_incomplete_coverage(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY[:-1])
    with pytest.raises(CfrFormatError, match="covers 5 entries"):
        read_cfr(p)


def test_read_out_of_range_indices(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY[:-1] + ["2,0,1,1.0,1.0"])
    with pytest.raises(CfrFormatError, match="element index"):
        read_cfr(p)
    p = _tiny_file(tmp_path, FULL_MA_BODY[:-1] + ["1,0,2,1.0,1.0"])
    with pytest.raises(CfrFormatError, match="frequency index"):
        read_cfr(p)


def test_read_malformed_row(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY + ["1,0,0"])
    with pytest.raises(CfrFormatError, match="malformed"):
        read_cfr(p)


def test_read_non_numeric_field_keeps_its_position(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY[:-1] + ["1,0,1,abc,1.0"])
    with pytest.raises(CfrFormatError, match="malformed body row: .*'abc'.*row"):
        read_cfr(p)


def test_read_non_finite_value(tmp_path):
    for bad in ("nan,0", "1.0,inf", "-inf,nan"):
        p = _tiny_file(tmp_path, FULL_MA_BODY[:-1] + [f"1,0,1,{bad}"])
        with pytest.raises(CfrFormatError, match=r"non-finite value in body row \(1, 0, 1"):
            read_cfr(p)


def test_header_only_file_reports_coverage_without_a_warning(tmp_path):
    p = _tiny_file(tmp_path, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CfrFormatError, match="body covers 0 entries"):
            read_cfr(p)


def test_hash_line_after_the_first_body_row_is_a_comment(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY[:3] + ["# layout=ma_y"] + FULL_MA_BODY[3:]
                   + ["# layout=ma_y"])
    cfr = read_cfr(p)
    assert cfr.layout == "ma_x"
    assert cfr.values[2, 0] == complex(2.0, 0.5)


def test_header_lines_may_be_indented_or_blank(tmp_path):
    lines = _tiny_file(tmp_path, FULL_MA_BODY).read_text().splitlines()
    p = tmp_path / "indented.csv"
    p.write_text("\n".join(["   "] + ["  " + line for line in lines[:9]] + lines[9:]) + "\n")
    assert read_cfr(p).values[2, 0] == complex(2.0, 0.5)


def test_read_peak_memory_is_below_two_and_a_half_file_sizes(tmp_path):
    cfr = gen_ura_cfr(PATHS, UraGeometry(9, 9, 0.5, 0.5), FrequencyGrid(26e9, 30e9, 2000))
    p = tmp_path / "ura.csv"
    write_cfr(p, cfr)
    tracemalloc.start()
    try:
        read_cfr(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * p.stat().st_size


@pytest.mark.parametrize("name,layout", [("table1", "ma_x"), ("fig5", "ura")])
def test_read_peak_memory_is_below_twice_its_output(tmp_path, name, layout):
    # the body is parsed and scattered a block of lines at a time, so the
    # values, a one-byte mask per entry and one block are held at the peak
    s = parse_scenario(scenario_path(name))
    if layout == "ura":
        write_cfr(tmp_path / "cfr.csv", gen_ura_cfr(s.paths, s.ura, s.freqs))
    else:
        write_cfr(tmp_path / "cfr.csv", gen_ma_cfr(s.paths, s.ma, s.freqs)[0])
    tracemalloc.start()
    try:
        cfr = read_cfr(tmp_path / "cfr.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfr.layout == layout
    assert peak <= 2 * cfr.values.nbytes


def _body_faults(tmp_path, faults, **header_overrides):
    """A 3 x 1 ma_x file of 12 sweep points, one body row per line, with
    body line i replaced by faults[i]."""
    cfr, _ = gen_ma_cfr(PATHS, MaGeometry(3, 3, 0.5), FREQS)
    write_cfr(tmp_path / "good.csv", cfr)
    lines = (tmp_path / "good.csv").read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    for key, value in header_overrides.items():
        header = [f"# {key}={value}" if line.startswith(f"# {key}=") else line
                  for line in header]
    body = lines[len(header):]
    for i, line in faults.items():
        body[i] = line
    path = tmp_path / "faulty.csv"
    path.write_text("\n".join(header + body) + "\n")
    return path


def _read_error(path, monkeypatch, block_chars):
    monkeypatch.setattr(cfrfile, "_BODY_BLOCK_CHARS", block_chars)
    with pytest.raises(ValueError) as info:
        read_cfr(path)
    return type(info.value), str(info.value)


# A block of 1 character holds one line after the first block's two, so
# body line 2 opens the second block; 64 characters hold about three lines.
BLOCK_CHARS = [1, 64, 2 ** 18]


@pytest.mark.parametrize("fault,message", [
    ("1,0,5,abc,1.0", r"malformed body row: .*'abc'.* at row \d+"),
    ("1,0", r"malformed body row: .* at row \d+"),
    ("2,0,5,1.0,1.0", r"element index \(elem_index_x, elem_index_y\) out of range "
                      r"for layout ma_x in body row \(2, 0, 5"),
    ("1,0,12,1.0,1.0", r"frequency index 12 out of range$"),
    ("1,0,5,nan,1.0", r"non-finite value in body row \(1, 0, 5"),
    ("-1,0,0,1.0,1.0", r"duplicate row for entry \(0, 0\)$"),
], ids=["non-numeric", "short", "element-index", "frequency-index", "non-finite",
        "duplicate"])
def test_read_fault_past_the_first_block_keeps_its_message(tmp_path, monkeypatch,
                                                           fault, message):
    path = _body_faults(tmp_path, {2: fault})
    # One block holds the whole body: it is parsed as one input, so loadtxt
    # numbers a malformed row from the first body row.
    whole = _read_error(path, monkeypatch, 10 ** 9)
    assert whole[0] is CfrFormatError
    assert re.search(message, whole[1])
    for block_chars in BLOCK_CHARS:
        assert _read_error(path, monkeypatch, block_chars) == whole


def test_read_reports_faults_in_a_fixed_order_across_blocks(tmp_path, monkeypatch):
    # Each fault of the order sits in a later block than the faults after
    # it, and each step drops one. The repeat of entry (0, 3) is found
    # first, that of the lower entry (0, 1) later.
    steps = [(r"malformed body row: ", {}, {33: "1,0,11,1.0"}),
             (r"unknown layout 'hex'$", {"layout": "hex"}, {}),
             (r"frequency index 12 ", {}, {27: "1,0,12,1.0,1.0"}),
             (r"element index ", {}, {21: "2,0,5,1.0,1.0"}),
             (r"non-finite value ", {}, {16: "0,0,4,inf,1.0"}),
             (r"duplicate row for entry \(0, 1\)$", {},
              {6: "-1,0,3,1.0,1.0", 30: "-1,0,1,1.0,1.0"})]
    for i, (message, _, _) in enumerate(steps):
        header, faults = {}, {}
        for _, step_header, step_faults in steps[i:]:
            header.update(step_header)
            faults.update(step_faults)
        path = _body_faults(tmp_path, faults, **header)
        whole = _read_error(path, monkeypatch, 10 ** 9)
        assert re.match(message, whole[1]), (message, whole[1])
        for block_chars in BLOCK_CHARS:
            assert _read_error(path, monkeypatch, block_chars) == whole
    # one line fewer than entries: the coverage check comes before repeats
    path = _body_faults(tmp_path, {6: "-1,0,3,1.0,1.0", 10: "# dropped"})
    for block_chars in BLOCK_CHARS:
        assert _read_error(path, monkeypatch, block_chars) == \
            (CfrFormatError, "body covers 35 entries at most, header implies 36")


def test_read_blocks_of_blank_and_comment_lines(tmp_path, monkeypatch):
    # A line of spaces or tabs is blank too. At 1 character a block, each
    # blank line opens a block that holds no other line.
    def padded(path, blank):
        text = path.read_text().replace("\n0,0,", f"\n{blank}\n# a comment\n{blank}\n0,0,")
        path.write_text(text + f"{blank}\n" * 200)
        return path
    cfr, _ = gen_ma_cfr(PATHS, MaGeometry(3, 3, 0.5), FREQS)
    for blank in ("", "  ", "\t"):
        path = padded(_body_faults(tmp_path, {}), blank)
        for block_chars in BLOCK_CHARS:
            monkeypatch.setattr(cfrfile, "_BODY_BLOCK_CHARS", block_chars)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = read_cfr(path)
            assert got.values.tobytes() == cfr.values.tobytes()
        # loadtxt numbers the rows it parses, from 1; a blank line is not one
        path = padded(_body_faults(tmp_path, {20: "1,0"}), blank)
        for block_chars in [*BLOCK_CHARS, 10 ** 9]:
            error = _read_error(path, monkeypatch, block_chars)
            assert re.match(r"malformed body row: .* at row 21;", error[1])


def test_read_ma_x_rejects_nonzero_y_index(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY[:-1] + ["1,2,1,1.0,1.0"])
    with pytest.raises(CfrFormatError, match="elem_index_y"):
        read_cfr(p)


def test_blank_lines_are_ignored(tmp_path):
    p = _tiny_file(tmp_path, [""] + FULL_MA_BODY + ["", ""])
    assert read_cfr(p).values.shape == (3, 2)


# Spellings of a number that loadtxt reads, or fails to read, but that the
# kernel's grammar leaves to it; and non-finite values
HAND_SPELLINGS = ["1.", ".5", "+1", "-0", "-0.0", "1e5", "1E+05", " 1.5", "1.5 ", "\t-2.25",
                  "2.5\t", "nan", "inf", "-inf"]


@st.composite
def _bodies(draw):
    """A body of one element's n sweep points: value fields written from
    any double with %.17g, %.9g, %r or %.3e, as ints, or spelled by hand,
    lines ended by LF, CRLF or a lone CR, the last maybe by none. Half the
    bodies are all doubles and LF, the output's form."""
    double = st.builds(lambda spec, x: spec % x,
                       st.sampled_from(["%.17g", "%.9g", "%r", "%.3e"]), st.floats())
    clean = draw(st.booleans())
    value = double if clean else st.one_of(
        double, st.integers(-10 ** 20, 10 ** 20).map(str), st.sampled_from(HAND_SPELLINGS))
    index = st.just("0") if clean else st.sampled_from(["0", "-0", "+0", "00", " 0", "0\t"])
    end = st.just("\n") if clean else st.sampled_from(["\n", "\r\n", "\r"])
    n = draw(st.integers(2, 12))
    lines = [f"{draw(index)},0,{l},{draw(value)},{draw(value)}{draw(end)}" for l in range(n)]
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return n, "".join(lines)


@settings(max_examples=300, deadline=None)
@given(_bodies(), st.sampled_from([1, 64, 2 ** 18]))
def test_read_body_values_are_those_of_loadtxt(tmp_path_factory, body, block_chars):
    """Whether the kernel parses a block or leaves it to loadtxt, read_cfr
    gives loadtxt's bits for the body, or its error."""
    n, text = body
    path = _tiny_file(tmp_path_factory.getbasetemp(), [], n_freq=n, n_elem_x=1, n_elem_y=1)
    path.write_bytes(path.read_bytes() + text.encode())
    lines = io.StringIO(text, newline=None).readlines()  # as a text file reads them
    with mock.patch.object(cfrfile, "_BODY_BLOCK_CHARS", block_chars):
        try:
            ref = np.loadtxt(lines, cfrfile._ROW_DTYPE, delimiter=",", ndmin=1)
        except ValueError as exc:
            with pytest.raises(CfrFormatError) as info:
                read_cfr(path)
            assert str(info.value) == f"malformed body row: {exc}"
            return
        if not (np.isfinite(ref["re"]) & np.isfinite(ref["im"])).all():
            with pytest.raises(CfrFormatError, match="^non-finite value in body row"):
                read_cfr(path)
            return
        values = read_cfr(path).values[0]
    assert values.real.tobytes() == ref["re"].tobytes()
    assert values.imag.tobytes() == ref["im"].tobytes()


@pytest.mark.parametrize("name,layout", [("table1", "ma_x"), ("table1", "ma_y"),
                                         ("fig5", "ura")])
def test_read_parses_every_block_of_a_bundled_cfr_in_numpy(tmp_path, monkeypatch, name,
                                                           layout):
    s = parse_scenario(scenario_path(name))
    if layout == "ura":
        cfr = gen_ura_cfr(s.paths, s.ura, s.freqs)
    else:
        cfr = gen_ma_cfr(s.paths, s.ma, s.freqs)[layout == "ma_y"]
    write_cfr(tmp_path / "cfr.csv", cfr)

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("a block of write_cfr's output was left to loadtxt")
    monkeypatch.setattr(cfrfile.np, "loadtxt", no_loadtxt)
    back = read_cfr(tmp_path / "cfr.csv")
    assert back.values.tobytes() == cfr.values.tobytes()


@pytest.mark.parametrize("block_chars", [1, 2 ** 18])
def test_read_non_utf8_body_byte_raises_a_value_error(tmp_path, monkeypatch, block_chars):
    # the CLI exits 2 on a ValueError
    monkeypatch.setattr(cfrfile, "_BODY_BLOCK_CHARS", block_chars)
    p = _tiny_file(tmp_path, FULL_MA_BODY)
    text = p.read_bytes()
    assert text.endswith(b",1.5\n")
    p.write_bytes(text[:-3] + b"\xff5\n")
    with pytest.raises(ValueError):
        read_cfr(p)
