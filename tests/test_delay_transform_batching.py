"""Stacked delay transforms against one row at a time.

A row of a stacked cfr_to_cir or cir_to_cfr carries the bits of that row
transformed alone. The package's one stacked transform relies on it: _padp
transforms each block of azimuths in sub-blocks, so a profile's level does
not depend on how its azimuths are split. The sizes are those of
table1_small and table1 at their pad factor.
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

