"""Byte-for-byte sameness check of the CLI over the bundled scenarios.

    python3 tools/sameness.py <src-dir> <listing>

Runs synth-pattern, simulate, beamscan, estimate and compare, in that order,
on each scenario under <src-dir>/masounder/scenarios, with <src-dir> first
on PYTHONPATH and one fresh output directory per scenario. It writes
<listing>, sorted by name: one "sha256  name" line per output file, and per
command one line each for its exit code, its stdout and its stderr, in
which the scenario and output paths are masked. Two trees behave the same
when their listings are equal:

    python3 tools/sameness.py parent/src parent.sha256
    python3 tools/sameness.py src change.sha256
    diff parent.sha256 change.sha256

The environment is passed on, so OPENBLAS_NUM_THREADS=1 before the command
checks the single-thread run.
"""

from __future__ import annotations

import collections
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("synth-pattern", "simulate", "beamscan", "estimate", "compare")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(src_dir: str, listing: str) -> None:
    src = Path(src_dir).resolve()
    configs = sorted((src / "masounder" / "scenarios").glob("*.json"))
    if not configs:
        sys.exit(f"no scenarios under {src / 'masounder' / 'scenarios'}")
    env = dict(os.environ, PYTHONPATH=str(src))
    lines, exits = [], collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            out = Path(tmp) / config.stem
            for i, command in enumerate(COMMANDS):
                run = subprocess.run([sys.executable, "-m", "masounder.cli", command,
                                      "--config", str(config), "--out", str(out)],
                                     env=env, capture_output=True)
                name = f"{config.stem}/{i}-{command}"
                exits[run.returncode] += 1
                lines.append((f"{name}.exit", _sha256(str(run.returncode).encode())))
                for stream, text in (("stdout", run.stdout), ("stderr", run.stderr)):
                    text = text.replace(str(out).encode(), b"<out>")
                    text = text.replace(str(config).encode(), b"<config>")
                    lines.append((f"{name}.{stream}", _sha256(text)))
            files = [p for p in out.rglob("*") if p.is_file()] if out.exists() else []
            lines += [(f"{config.stem}/{p.relative_to(out)}", _sha256(p.read_bytes()))
                      for p in files]
    Path(listing).write_text("".join(f"{digest}  {name}\n" for name, digest in sorted(lines)))
    n_files = len(lines) - 3 * len(configs) * len(COMMANDS)
    codes = ", ".join(f"{n} x {code}" for code, n in sorted(exits.items()))
    print(f"{sum(exits.values())} commands (exit codes {codes}), "
          f"{n_files} output files: {listing}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
