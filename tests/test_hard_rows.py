"""Soundings that run_sic gets wrong today, each built here with its truth.

A row that fails today is a strict xfail whose reason quotes what run_sic
returns now; the change that makes it pass turns it into a plain test. Each
row expects exactly the true paths, each found, and a stop other than
max-iterations. A true path is found when some estimate lies within 1 deg in
elevation and in azimuth, 0.25 ns and 0.5 dB of it, the tolerances of
test_acceptance.py.
"""

import dataclasses

import pytest

from masounder.channel import gen_ma_cfr
from masounder.geometry import Direction
from masounder.scenario import parse_scenario
from masounder.sic import run_sic

from conftest import scenario_path

ANGLE_TOL_DEG, DELAY_TOL_S, POWER_TOL_DB = 1.0, 0.25e-9, 0.5


def _found(estimates, truth) -> int:
    """The number of true paths that some estimate lies within tolerance of."""
    def near(e, t):
        d_phi = (e.direction.phi_deg - t.direction.phi_deg + 180.0) % 360.0 - 180.0
        return (abs(e.direction.theta_deg - t.direction.theta_deg) <= ANGLE_TOL_DEG
                and abs(d_phi) <= ANGLE_TOL_DEG
                and abs(e.delay_s - t.delay_s) <= DELAY_TOL_S
                and abs(e.amplitude_db - t.power_db) <= POWER_TOL_DB)
    return sum(any(near(e, t) for e in estimates) for t in truth)


@pytest.mark.parametrize("d_theta,d_phi", [
    pytest.param(0.5, 0.5, marks=pytest.mark.xfail(
        strict=True, reason="20 paths at max-iterations, 1 of them in tolerance")),
    pytest.param(0.3, -0.7, marks=pytest.mark.xfail(
        strict=True, reason="20 paths at max-iterations, 3 of them in tolerance")),
], ids=["plus0.5-plus0.5", "plus0.3-minus0.7"])
def test_table1_small_paths_off_the_scan_grid_are_found(d_theta, d_phi):
    # every path of table1_small moved by (d_theta, d_phi) deg off the 1 deg scan
    scenario = parse_scenario(scenario_path("table1_small"))
    truth = [dataclasses.replace(p, direction=Direction(p.direction.theta_deg + d_theta,
                                                        p.direction.phi_deg + d_phi))
             for p in scenario.paths]
    cx, cy = gen_ma_cfr(truth, scenario.ma, scenario.freqs)
    report = run_sic(cx, cy, scenario.estimator_config())
    assert report.stop_reason != "max-iterations"
    assert len(report.paths) == len(truth) == 3
    assert _found(report.paths, truth) == 3
