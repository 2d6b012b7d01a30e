"""Names and import costs the benchmark in perfbench/ relies on.

perfbench/tracing.py replaces functions under the names their calling
modules bound; a renamed or unbound name would make traced runs fail.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import masounder

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    importlib.import_module("masounder.cli")
    for module_name, attr, _ in _tracing().WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            f"{module_name}.{attr}"


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    """The package runs on numpy and click alone: with scipy blocked, simulate,
    beamscan and estimate on table1_small, compare on table2_mimic and
    synth-pattern on fig2 exit 0 and load no scipy module."""
    src = str(Path(masounder.__file__).resolve().parent.parent)
    scenarios = Path(masounder.__file__).resolve().parent / "scenarios"
    small, mimic = str(scenarios / "table1_small.json"), str(scenarios / "table2_mimic.json")
    fig2 = str(scenarios / "fig2.json")
    commands = [["simulate", "--config", small, "--out", str(tmp_path / "small"), "--quiet"],
                ["beamscan", "--config", small, "--out", str(tmp_path / "small"), "--quiet"],
                ["estimate", "--config", small, "--out", str(tmp_path / "small"), "--quiet"],
                ["compare", "--config", mimic, "--out", str(tmp_path / "mimic"), "--quiet"],
                ["synth-pattern", "--config", fig2, "--out", str(tmp_path / "fig2"),
                 "--quiet"]]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None  # any import of scipy raises ImportError\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from masounder.cli import main\n"
            "codes = []\n"
            "for args in json.loads(sys.argv[2]):\n"
            "    try:\n"
            "        main.main(args, standalone_mode=False)\n"
            "        codes.append(0)\n"
            "    except SystemExit as exc:\n"
            "        codes.append(exc.code)\n"
            "print(json.dumps([codes, sorted(m for m, v in sys.modules.items()\n"
            "                                if m.startswith('scipy') and v is not None)]))\n")
    out = subprocess.run([sys.executable, "-c", code, src, json.dumps(commands)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[0] * len(commands), []]
    for name in ("small/ma_padp.csv", "small/paths.csv", "mimic/comparison.csv",
                 "fig2/ura_pattern.csv", "fig2/ma_pattern.csv"):
        assert (tmp_path / name).stat().st_size > 0
