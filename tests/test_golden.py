"""CLI outputs on bundled scenarios, compared byte for byte with committed copies.

The files under tests/golden/ were written by the CLI at the default seed,
or at the seed the test names; any change to them must be a deliberate change of the estimator's output.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

import masounder
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
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.iterdir()}
    assert written == _listing("table1_small_outputs.sha256")


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


@functools.cache
def _sic_reports():
    """{name: run_sic report} for noiseless table1_small and table1, and for
    table1_small with noise realisation k (ma_x seed 2k+1, ma_y seed 2k+2,
    as the benchmark's noisy pool draws it) at 20, 10 and 0 dB."""
    reports = {}
    for name in ("table1_small", "table1"):
        scenario = parse_scenario(scenario_path(name))
        cx, cy = gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs)
        reports[name] = run_sic(cx, cy, scenario.estimator_config())
    scenario = parse_scenario(scenario_path("table1_small"))
    cx, cy = gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs)
    for snr_db in (20, 10, 0):
        for k in range(5):
            reports[f"table1_small_snr{snr_db}_k{k}"] = run_sic(
                add_noise(cx, snr_db, 2 * k + 1), add_noise(cy, snr_db, 2 * k + 2),
                scenario.estimator_config())
    return reports


def _listing(name):
    lines = (GOLDEN / name).read_text().splitlines()
    return dict(reversed(line.split("  ", 1)) for line in lines)


def test_sic_reports_match_golden_digests():
    # the sha256 of repr(report), candidates_skipped and every float included,
    # as the listing sic_reports.sha256
    assert {name: hashlib.sha256(repr(report).encode()).hexdigest()
            for name, report in _sic_reports().items()} == _listing("sic_reports.sha256")


def test_sic_paths_match_golden_digests():
    # the sha256 of repr(report.paths) alone, as the listing sic_paths.sha256:
    # a change to the stop or the diagnostics shows apart from a change to
    # the estimates
    assert {name: hashlib.sha256(repr(report.paths).encode()).hexdigest()
            for name, report in _sic_reports().items()} == _listing("sic_paths.sha256")


_THREAD_PROBE = """
import hashlib, sys
from masounder.beamform import padp_ura
from masounder.channel import gen_ma_cfr, gen_ura_cfr
from masounder.patterns import ma_power_pattern, ura_power_pattern, uv_lattice
from masounder.scenario import parse_scenario
from masounder.sic import run_sic
table1, fig5, fig2 = (parse_scenario(path) for path in sys.argv[1:])
cx, cy = gen_ma_cfr(table1.paths, table1.ma, table1.freqs)
report = run_sic(cx, cy, table1.estimator_config())
ura = gen_ura_cfr(fig5.paths, fig5.ura, fig5.freqs)
padp = padp_ura(ura, 90.0, fig5.scan_grid().phi_deg, fig5.pad_factor)
wx, wy, wx_ma, wy_ma = fig2.steered_excitations()
u, v = uv_lattice(fig2.pattern_lattice)
patterns = (ura_power_pattern(wx, wy, fig2.ura, u, v),
            ma_power_pattern(wx_ma, wy_ma, fig2.ma, u, v))
print(hashlib.sha256(repr(report).encode()).hexdigest(),
      hashlib.sha256(padp.level.tobytes()).hexdigest(),
      *(hashlib.sha256(p.level_db().tobytes()).hexdigest() for p in patterns))
"""


def test_estimates_and_padps_do_not_depend_on_the_blas_thread_count():
    """The noiseless table1 run_sic report, the fig5 URA PADP at
    theta = 90 deg and the levels of fig2's URA and MA power patterns, each
    computed in a child process at one OpenBLAS thread and at one per CPU
    of the host (at least two), have the same sha256.
    CI runs the goldens at its default count and at one thread; this test
    checks the host's own count against one in a single run. The test
    is vacuous where numpy does not link OpenBLAS, or on a host of one CPU,
    as OpenBLAS caps its thread count at the CPUs."""
    src = str(Path(masounder.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", str(max(2, os.cpu_count() or 1))):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", _THREAD_PROBE, scenario_path("table1"),
                              scenario_path("fig5"), scenario_path("fig2")], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout)
    assert digests[0] == digests[1]
