import numpy as np
import pytest

from masounder.cfrfile import FORMAT_VERSION, CfrFormatError, read_cfr, write_cfr
from masounder.channel import CfrSet, PathSet, gen_ma_cfr, gen_ura_cfr
from masounder.geometry import (FrequencyGrid, MaGeometry, PathComponent,
                                UraGeometry)

FREQS = FrequencyGrid(26e9, 30e9, 12)
PATHS = PathSet([
    PathComponent.from_power_db(0, 60, 120, 0.3, phase_deg=17.0),
    PathComponent.from_power_db(-8, 30, 200, 0.7),
])


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
    p = _tiny_file(tmp_path, FULL_MA_BODY, format_version=2, narrowband_phase=0)
    assert read_cfr(p).narrowband_phase is False


def test_write_matches_row_by_row_reference(tmp_path):
    ura = gen_ura_cfr(PATHS, UraGeometry(3, 5, 0.5, 0.5), FREQS)
    _, ma_y = gen_ma_cfr(PATHS, MaGeometry(5, 7, 0.5), FREQS)
    for cfr, xs, ys in ((ura, ura.geometry.x_indices, ura.geometry.y_indices),
                        (ma_y, [0], ma_y.geometry.y_indices)):
        values = cfr.values.reshape(len(xs), len(ys), FREQS.n_points)
        body = [f"{m},{n},{l},{values[a, b, l].real:.17g},{values[a, b, l].imag:.17g}"
                for a, m in enumerate(xs) for b, n in enumerate(ys)
                for l in range(FREQS.n_points)]
        p = tmp_path / f"{cfr.layout}.csv"
        write_cfr(p, cfr)
        lines = p.read_text().splitlines()
        assert lines[-len(body):] == body
        assert all(line.startswith("#") for line in lines[:-len(body)])


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


def test_read_ma_x_rejects_nonzero_y_index(tmp_path):
    p = _tiny_file(tmp_path, FULL_MA_BODY[:-1] + ["1,2,1,1.0,1.0"])
    with pytest.raises(CfrFormatError, match="elem_index_y"):
        read_cfr(p)


def test_blank_lines_are_ignored(tmp_path):
    p = _tiny_file(tmp_path, [""] + FULL_MA_BODY + ["", ""])
    assert read_cfr(p).values.shape == (3, 2)
