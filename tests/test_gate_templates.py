"""Delay gates as shifted templates.

The SIC candidate walk builds the gates of delay bins 0 and 1 and takes the
gate of bin r as that of bin r % 2 shifted circularly by r // 2 bins. Its
reports equal those of a walk that builds every bin's gate from its own
kernel only because the two give the same threshold decisions bit for bit,
which rests on the FFT's bits. The grids are those of table1_small and
table1.
"""

import numpy as np
import pytest

from masounder.geometry import delay_axis
from masounder.scenario import parse_scenario
from masounder.sic import build_label_vector

from conftest import scenario_path
from test_sic import _gate, _kernel

GATE_DB = (20.0, 30.0, 40.0)


@pytest.mark.parametrize("pad_factor", [1, 4])
@pytest.mark.parametrize("name", ["table1_small", "table1"])
def test_every_gate_is_a_shifted_template(name, pad_factor):
    freqs = parse_scenario(scenario_path(name)).freqs
    delay_s = delay_axis(freqs, pad_factor)
    n = delay_s.size
    doubled = {gate_db: np.tile([_gate(freqs, delay_s[r] / 2.0, pad_factor, gate_db)
                                 for r in (0, 1)], 2) for gate_db in GATE_DB}
    mismatched = []
    for r in range(n):
        kernel = _kernel(freqs, delay_s[r] / 2.0, pad_factor)
        mismatched += [(r, gate_db) for gate_db, templates in doubled.items()
                       if not np.array_equal(templates[r % 2, n - r // 2:2 * n - r // 2],
                                             build_label_vector(kernel, gate_db))]
    assert mismatched == []
