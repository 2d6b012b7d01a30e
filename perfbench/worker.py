"""Child process of the benchmark: one process per set-up sample, per
in-process run and per traced CLI command, so each has its own peak RSS.

Usage: python3 perfbench/worker.py '<json spec>', with ``src/`` on PYTHONPATH.

The spec's ``kind`` is ``inprocess`` (set up, then soundings), ``cli-probe``
(import the CLI and parse the scenarios) or ``cli-traced`` (one CLI command
in process, with spans). The result is written once, as JSON, to
``spec["result"]``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402
from workloads import round_robin  # noqa: E402


def _paths(report) -> list[list[float]]:
    return [[p.amplitude_db, p.delay_s, p.direction.theta_deg, p.direction.phi_deg]
            for p in report.paths]


def _sounding(masounder, scenario, config, item) -> dict:
    """gen_ma_cfr (+ add_noise) + run_sic, through the module attributes so
    an installed tracer sees the calls."""
    channel, sic = masounder.channel, masounder.sic
    k, snr = item
    start = time.perf_counter()
    try:
        cx, cy = channel.gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs)
        if snr is not None:
            cx = channel.add_noise(cx, snr, 2 * k + 1)
            cy = channel.add_noise(cy, snr, 2 * k + 2)
        report = sic.run_sic(cx, cy, config)
    except (ValueError, masounder.NoPeakError) as exc:
        # The estimator's documented failures; anything else ends the run.
        return {"item": item, "seconds": time.perf_counter() - start,
                "raised": f"{type(exc).__name__}: {exc}", "stop": None, "paths": []}
    return {"item": item, "seconds": time.perf_counter() - start, "raised": None,
            "stop": report.stop_reason, "paths": _paths(report)}


def _pass(masounder, scenario, config, pool, tracer) -> dict:
    start = time.perf_counter()
    soundings = []
    for i, item in enumerate(pool):
        tracer.unit = f"sounding{i}"
        soundings.append(_sounding(masounder, scenario, config, item))
    return {"wall_s": time.perf_counter() - start, "soundings": soundings}


def run_inprocess(spec: dict) -> dict:
    start = time.perf_counter()
    import masounder
    import_s = time.perf_counter() - start
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
        tracer.unit = "setup"
    scenario = masounder.scenario.parse_scenario(spec["scenario"])
    config = masounder.EstimatorConfig(
        scan=scenario.scan_grid(), epsilon_db=scenario.epsilon_db,
        max_iterations=scenario.max_iterations, gate_db=scenario.gate_db,
        pad_factor=scenario.pad_factor)
    if tracer is not None:
        tracer.unit = "warmup"
    warmup = _sounding(masounder, scenario, config, [0, None])
    result = {"setup_s": time.perf_counter() - start, "import_s": import_s,
              "warmup": warmup, "traced_pass": None}
    if tracer is not None:
        tracer.uninstall()
    if spec["probe"]:
        return result
    soundings = []

    def run_item(n, i):
        soundings.append({**_sounding(masounder, scenario, config, spec["pool"][i]),
                          "pass": n})
        return soundings[-1]["seconds"]

    # A traced run makes one untraced pass, then the traced one.
    result["samples"] = round_robin(len(spec["pool"]), spec["seconds"], run_item,
                                    repeat=tracer is None)
    result["soundings"] = soundings
    if tracer is not None:
        tracer.install()
        result["traced_pass"] = _pass(masounder, scenario, config, spec["pool"], tracer)
        tracer.uninstall()
        result["spans"] = tracer.spans
    return result


def run_cli_probe(spec: dict) -> dict:
    start = time.perf_counter()
    import masounder.cli  # noqa: F401
    import_s = time.perf_counter() - start
    for path in spec["scenarios"]:
        masounder.scenario.parse_scenario(path)
    return {"setup_s": time.perf_counter() - start, "import_s": import_s}


def run_cli_traced(spec: dict) -> dict:
    start = time.perf_counter()
    import click
    import masounder.cli
    import_s = time.perf_counter() - start
    tracer = Tracer(out_dir=spec["out_dir"])
    tracer.install()
    tracer.unit = spec["argv"][0]
    try:
        masounder.cli.main.main(args=spec["argv"], standalone_mode=False)
        code = 0
    except SystemExit as exc:  # _guarded maps failures onto exit codes
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        code = exc.exit_code
    tracer.uninstall()
    return {"import_s": import_s, "exit_code": code, "spans": tracer.spans}


def main() -> None:
    spec = json.loads(sys.argv[1])
    run = {"inprocess": run_inprocess, "cli-probe": run_cli_probe,
           "cli-traced": run_cli_traced}[spec["kind"]]
    result = run(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
