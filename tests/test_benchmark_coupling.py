"""Names and import costs the benchmark in perfbench/ relies on.

perfbench/tracing.py replaces functions under the names their calling
modules bound; a renamed or unbound name would make traced runs fail.
"""

import importlib
import importlib.util
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


def test_cli_import_leaves_scipy_optimize_unloaded():
    """Only estimate needs scipy.optimize and only compare scipy.ndimage; the
    other commands should not pay for importing them."""
    src = str(Path(masounder.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import masounder.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.ndimage') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
