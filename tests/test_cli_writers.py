"""The grid CSV writers pass axes, not meshgrids, and keep every byte."""

import tracemalloc

import numpy as np
import pytest

from masounder.beamform import Padp, cbf_ma, padp_ma
from masounder.channel import gen_ma_cfr
from masounder.cli import _write_beam_csv, _write_padp_csv, _write_uv_pattern
from masounder.geometry import scan_cosines
from masounder.patterns import auto_convolve, ma_power_pattern, uv_lattice
from masounder.scenario import parse_scenario

from conftest import scenario_path


def _meshgrid_csv(header, x, y, level):
    """The grid CSV as it was written from equal-shape meshgrids, row by row."""
    rows = zip(np.ravel(x).tolist(), np.ravel(y).tolist(), np.ravel(level).tolist())
    return header + "".join("%.9g,%.9g,%.9g\n" % row for row in rows)


@pytest.fixture(scope="module")
def table1_small():
    scenario = parse_scenario(scenario_path("table1_small"))
    ma_x, ma_y = gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs)
    return scenario, ma_x, ma_y


def test_padp_csv_matches_meshgrid_reference(tmp_path, table1_small):
    scenario, ma_x, ma_y = table1_small
    padp = padp_ma(ma_x, ma_y, scenario.compare_theta_deg, scenario.scan_grid().phi_deg,
                   scenario.pad_factor)
    p = tmp_path / "padp.csv"
    _write_padp_csv(p, padp)
    phi, tau_ns = np.meshgrid(padp.phi_deg, padp.delay_s * 1e9, indexing="ij")
    expected = _meshgrid_csv("azimuth_deg,delay_ns,level_db\n", phi, tau_ns,
                             padp.level_db().T)
    assert p.read_text() == expected


def test_beam_csv_matches_meshgrid_reference(tmp_path, table1_small):
    scenario, ma_x, ma_y = table1_small
    beam = cbf_ma(ma_x, ma_y, scenario.scan_grid(), scenario.freqs.f_center_hz)
    p = tmp_path / "beam.csv"
    _write_beam_csv(p, beam)
    u, v = scan_cosines(beam.theta_deg, beam.phi_deg % 360.0)
    assert p.read_text() == _meshgrid_csv("u,v,level_db\n", u, v, beam.level_db())


def test_uv_pattern_csv_matches_meshgrid_reference(tmp_path, table1_small):
    scenario = table1_small[0]
    w = auto_convolve(np.ones((scenario.ma.x_count + 1) // 2))
    u_axis, v_axis = uv_lattice(scenario.pattern_lattice)
    pattern = ma_power_pattern(w, w, scenario.ma, u_axis, v_axis)
    p = tmp_path / "pattern.csv"
    _write_uv_pattern(p, pattern)
    u, v = np.meshgrid(pattern.u_axis, pattern.v_axis, indexing="ij")
    assert p.read_text() == _meshgrid_csv("u,v,level_db\n", u, v, pattern.level_db())


def test_padp_csv_peak_memory_is_one_run_of_strings(tmp_path):
    # 181 azimuths x 6000 delays: two meshgrids alone would take 17 MB. The
    # level is laid out as padp_ma lays it out, each azimuth's delays in turn,
    # and exists before the trace starts, so the bound is on the writer alone.
    level = np.random.default_rng(7).standard_normal((181, 6000)).T
    padp = Padp(level, np.arange(6000) * 1e-10, np.arange(90.0, 271.0), 90.0, "ma")
    tracemalloc.start()
    try:
        _write_padp_csv(tmp_path / "padp.csv", padp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20  # a chunk's budget, _CHUNK_BYTES; it measured 1.3 MiB
