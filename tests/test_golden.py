"""CLI outputs on bundled scenarios, compared byte for byte with committed copies.

The files under tests/golden/ were written by the CLI at the default seed,
or at the seed the test names; any change to them must be a deliberate change of the estimator's output.
"""

import hashlib
import json
from pathlib import Path

from click.testing import CliRunner

from masounder.channel import add_noise, gen_ma_cfr
from masounder.cli import main
from masounder.scenario import parse_scenario
from masounder.sic import run_sic

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


def _sic_reports():
    """(name, run_sic report) for noiseless table1_small and table1, and for
    table1_small with noise realisation k (ma_x seed 2k+1, ma_y seed 2k+2,
    as the benchmark's noisy pool draws it) at 20, 10 and 0 dB."""
    for name in ("table1_small", "table1"):
        scenario = parse_scenario(scenario_path(name))
        cx, cy = gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs)
        yield name, run_sic(cx, cy, scenario.estimator_config())
    scenario = parse_scenario(scenario_path("table1_small"))
    cx, cy = gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs)
    for snr_db in (20, 10, 0):
        for k in range(5):
            yield f"table1_small_snr{snr_db}_k{k}", run_sic(
                add_noise(cx, snr_db, 2 * k + 1), add_noise(cy, snr_db, 2 * k + 2),
                scenario.estimator_config())


def test_sic_reports_match_golden_digests():
    # the sha256 of repr(report), candidates_skipped and every float included,
    # as the listing sic_reports.sha256
    listing = (GOLDEN / "sic_reports.sha256").read_text().splitlines()
    expected = dict(reversed(line.split("  ", 1)) for line in listing)
    written = {name: hashlib.sha256(repr(report).encode()).hexdigest()
               for name, report in _sic_reports()}
    assert written == expected
