"""Stacked delay transforms against one row at a time.

A row of a stacked cfr_to_cir or cir_to_cfr carries the bits of that row
transformed alone. Two stacked transforms rely on it: _padp transforms each
block of azimuths in sub-blocks, so a profile's level does not depend on how
its azimuths are split, and the SIC walk transforms the gate kernels of delay
bins 0 and 1 as one stack, where tests/test_gate_templates.py transforms each
kernel alone. The sizes are those of table1_small and table1 at their pad
factor.
"""

import numpy as np
import pytest

from masounder.beamform import cfr_to_cir, cir_to_cfr
from masounder.scenario import parse_scenario

from conftest import scenario_path


@pytest.mark.parametrize("rows", [1, 3, 8])
@pytest.mark.parametrize("name", ["table1_small", "table1"])
def test_stacked_rows_transform_as_single_rows(name, rows):
    scenario = parse_scenario(scenario_path(name))
    freqs, pad = scenario.freqs, scenario.pad_factor
    rng = np.random.default_rng(rows)
    spectra = (rng.standard_normal((rows, freqs.n_points))
               + 1j * rng.standard_normal((rows, freqs.n_points)))
    cirs = cfr_to_cir(spectra, freqs, pad)
    assert cirs.tobytes() == np.stack([cfr_to_cir(s, freqs, pad) for s in spectra]).tobytes()
    # a gated stack: each row keeps one band of delay bins
    gated = cirs * (np.abs(np.arange(cirs.shape[1]) - rng.integers(0, cirs.shape[1],
                                                                    (rows, 1))) < 40)
    for stack in (cirs, gated):
        back = cir_to_cfr(stack, freqs, pad)
        assert back.tobytes() == np.stack([cir_to_cfr(c, freqs, pad) for c in stack]).tobytes()


@pytest.mark.parametrize("name", ["table1_small", "table1"])
def test_stacked_gate_kernels_equal_single_kernels(name):
    # a gate kernel is the sweep of a unit path at half a delay bin's delay
    freqs = parse_scenario(scenario_path(name)).freqs
    taus = np.random.default_rng(7).uniform(0.0, 0.5 / freqs.spacing_hz, 8)
    stacked = np.exp(-2j * np.pi * freqs.points * taus[:, None])
    single = np.stack([np.exp(-2j * np.pi * freqs.points * float(t)) for t in taus])
    assert stacked.tobytes() == single.tobytes()
