"""CLI outputs on bundled scenarios, compared byte for byte with committed copies.

The files under tests/golden/ were written by the CLI at the default seed,
or at the seed the test names; any change to them must be a deliberate change of the estimator's output.
"""

import hashlib
import json
from pathlib import Path

from click.testing import CliRunner

from masounder.cli import main

from conftest import scenario_path

GOLDEN = Path(__file__).parent / "golden"


def _run(*args):
    r = CliRunner().invoke(main, [*args, "--quiet"], catch_exceptions=False)
    assert r.exit_code == 0, r.output


def test_table1_small_paths_match_golden(tmp_path):
    cfg = scenario_path("table1_small")
    _run("simulate", "--config", cfg, "--out", str(tmp_path))
    _run("estimate", "--config", cfg, "--out", str(tmp_path))
    assert (tmp_path / "paths.csv").read_bytes() == \
        (GOLDEN / "table1_small_paths.csv").read_bytes()


def test_table1_small_outputs_match_golden_digests(tmp_path):
    # every file simulate, beamscan and estimate write, PADP snapshots
    # included, as the sha256sum listing table1_small_outputs.sha256
    cfg = scenario_path("table1_small")
    for command in ("simulate", "beamscan", "estimate"):
        _run(command, "--config", cfg, "--out", str(tmp_path))
    listing = (GOLDEN / "table1_small_outputs.sha256").read_text().splitlines()
    expected = dict(reversed(line.split("  ", 1)) for line in listing)
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.iterdir()}
    assert written == expected


def test_table1_small_noisy_paths_match_golden(tmp_path):
    # noise seeds 9 and 10 at 10 dB: a 13-path run whose walk skips many
    # cross-product candidates
    scenario = json.loads(Path(scenario_path("table1_small")).read_text())
    cfg = tmp_path / "table1_small_noisy.json"
    cfg.write_text(json.dumps({**scenario, "noise": {"snr_db": 10}}))
    _run("simulate", "--config", str(cfg), "--out", str(tmp_path), "--seed", "8")
    _run("estimate", "--config", str(cfg), "--out", str(tmp_path))
    assert (tmp_path / "paths.csv").read_bytes() == \
        (GOLDEN / "table1_small_noisy_paths.csv").read_bytes()


def test_table2_mimic_comparison_matches_golden(tmp_path):
    _run("compare", "--config", scenario_path("table2_mimic"), "--out", str(tmp_path))
    assert (tmp_path / "comparison.csv").read_bytes() == \
        (GOLDEN / "table2_mimic_comparison.csv").read_bytes()
