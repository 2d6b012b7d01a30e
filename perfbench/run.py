"""masounder benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload noisy_small --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another
    python3 perfbench/run.py --smoke            # every workload at reduced size

Run from any directory; paths resolve against the checkout that holds this
file. The program is imported from ``src/`` of that checkout. Outputs go to
``.perfbench_out/<run>/`` there: the spans of a traced run (``spans.jsonl``)
and the full record (``result.json``, also printed as the second-to-last
line). The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.

Every child process gets ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1`` and is
reaped with ``os.wait4``, so its peak RSS is its own (``RUSAGE_CHILDREN``
keeps the maximum over every child so far).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import at_nominal_speed  # noqa: E402
from tracing import LayerStats  # noqa: E402
from workloads import (CLI, IN_PROCESS, WORKLOADS, Outcome,  # noqa: E402
                       check_command, check_sounding, round_robin, scenario_file,
                       true_paths)

ROOT = HERE.parent
BLAS_THREADS = "1"
SETUP_SAMPLES = 5  # processes whose set-up is timed; setup_s is their median
RUN_LIMIT_S = 170.0
MIB = 1024.0 * 1024.0
CLI_COMMANDS = ("simulate", "estimate", "beamscan", "compare", "synth-pattern")


def pass_seconds(samples) -> tuple[float, float]:
    """Seconds of one pass, as measured and at nominal host speed: the sum
    over its soundings or commands of each one's median in the run."""
    return (sum(statistics.median(s for s, _ in item) for item in samples),
            sum(at_nominal_speed(item) for item in samples))


class BenchError(RuntimeError):
    """The run could not produce a result."""


class Child(NamedTuple):
    """A finished child process: wall time, exit code and its own peak RSS."""

    seconds: float
    exit_code: int
    rss_mib: float
    log_path: Path


def run_child(argv, log_path: Path, deadline: float) -> Child:
    """Run argv from the checkout root, killing it at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run limit reached before {argv[1:3]}")
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    exited = threading.Event()
    lock = threading.Lock()

    def kill_if_running():
        with lock:
            if not exited.is_set():
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(remaining, kill_if_running)
    timer.start()
    try:
        # Wait without reaping, so the pid cannot be reused while the timer
        # may still signal it; then reap with wait4 for the child's rusage.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        seconds = time.perf_counter() - start
        with lock:
            exited.set()
    finally:
        timer.cancel()
        if not exited.is_set():
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise BenchError(f"{argv[1:3]} killed at the run limit")
    # ru_maxrss is in KiB on Linux.
    return Child(seconds, proc.returncode, usage.ru_maxrss / 1024.0, log_path)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.smoke = trace, smoke
        tag = "smoke-" if smoke else ""
        self.dir = (ROOT / ".perfbench_out"
                    / f"{tag}{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
        self.dir.mkdir(parents=True, exist_ok=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.outcome = Outcome()
        self.rss: list[float] = []
        self.out_mib: list[float] = []  # bytes each CLI pass wrote
        self.setup: list[list[float]] = []  # [seconds, reference seconds]
        self.imports: list[float] = []
        self.span_lists: list[list] = []
        self._children = 0

    def spawn(self, argv) -> Child:
        self._children += 1
        child = run_child(argv, self.dir / f"child{self._children}.log", self.deadline)
        self.rss.append(child.rss_mib)
        return child

    def worker(self, spec: dict) -> dict:
        result_path = self.dir / f"child{self._children + 1}.json"
        spec = {**spec, "result": str(result_path)}
        child = self.spawn([sys.executable, str(HERE / "worker.py"), json.dumps(spec)])
        if child.exit_code != 0:
            raise BenchError(f"worker {spec['kind']} exited {child.exit_code}; "
                             f"see {child.log_path}")
        with open(result_path) as fh:
            result = json.load(fh)
        result_path.unlink()
        return result

    # -- in-process workloads ---------------------------------------------

    def run_inprocess(self) -> tuple[list, dict, dict]:
        wl = IN_PROCESS[self.workload]
        scen = scenario_file(ROOT, wl["scenario"], self.smoke, self.dir)
        pool = wl["smoke_pool" if self.smoke else "pool"]
        base = {"kind": "inprocess", "scenario": str(scen), "pool": pool,
                "seconds": self.seconds}
        truth = true_paths(scen)
        for r in self.time_setup({**base, "probe": True, "trace": False}):
            check_sounding(self.outcome, r["warmup"], truth, noisy=False, measured=False)
        main = self.worker({**base, "probe": False, "trace": self.trace})
        check_sounding(self.outcome, main["warmup"], truth, noisy=False, measured=False)
        traced = main["traced_pass"]
        # The first pass counts in the tallies; repeats are only checked.
        for s in main["soundings"] + (traced["soundings"] if traced else []):
            check_sounding(self.outcome, s, truth, noisy=s["item"][1] is not None,
                           measured=s.get("pass") == 0)
        samples = main["samples"]
        layer = {}
        if self.trace:
            self.span_lists.append(main["spans"])
            layer = {"trace.overhead_s": traced["wall_s"] - sum(t[0][0] for t in samples)}
        return samples, layer, {"item_s": [[item, t] for item, t in zip(pool, samples)]}

    def time_setup(self, spec: dict) -> list[dict]:
        """Run SETUP_SAMPLES fresh set-up processes, with reference blocks
        between them; return their results."""
        results = []

        def probe(_, i):
            results.append(self.worker(spec))
            self.imports.append(results[-1]["import_s"])
            return results[-1]["setup_s"]

        self.setup = [item[0] for item in round_robin(SETUP_SAMPLES, 0.0, probe, repeat=False)]
        return results

    # -- CLI workloads ------------------------------------------------------

    def run_command(self, pass_index: int, i: int, scenarios: dict, traced: bool) -> float:
        """Run command i of the workload's pass, check its outputs and
        return its seconds. A pass's outputs are removed when the next
        pass starts."""
        command, name = CLI[self.workload][i]
        pass_dir = self.dir / f"pass{pass_index}"
        if i == 0 and pass_index:
            self.close_pass(pass_index - 1)
        out_dir = pass_dir / name
        out_dir.mkdir(parents=True, exist_ok=True)
        args = [command, "--config", str(scenarios[name]), "--out", str(out_dir), "--quiet"]
        if traced:
            t0 = time.perf_counter()
            result = self.worker({"kind": "cli-traced", "argv": args,
                                  "out_dir": str(out_dir)})
            seconds, code = time.perf_counter() - t0, result["exit_code"]
            self.span_lists.append(result["spans"])
            self.imports.append(result["import_s"])
        else:
            child = self.spawn([sys.executable, "-m", "masounder.cli", *args])
            seconds, code = child.seconds, child.exit_code
        check_command(self.outcome, command, scenarios[name], out_dir, code,
                      measured=pass_index == 0)
        return seconds

    def close_pass(self, pass_index: int) -> None:
        pass_dir = self.dir / f"pass{pass_index}"
        self.out_mib.append(sum(f.stat().st_size for f in pass_dir.rglob("*")
                                if f.is_file()) / MIB)
        shutil.rmtree(pass_dir)

    def run_cli(self) -> tuple[list, dict, dict]:
        commands = CLI[self.workload]
        scenarios = {name: scenario_file(ROOT, name, self.smoke, self.dir)
                     for _, name in commands}
        self.time_setup({"kind": "cli-probe", "scenarios": [str(p) for p in scenarios.values()]})
        # A traced run makes one untraced pass, then the traced one.
        samples = round_robin(
            len(commands), self.seconds,
            lambda n, i: self.run_command(n, i, scenarios, traced=False), repeat=not self.trace)
        passes = max(len(t) for t in samples)
        layer = {}
        if self.trace:
            traced_s = sum(self.run_command(passes, i, scenarios, traced=True)
                           for i in range(len(commands)))
            passes += 1
            layer = {"trace.overhead_s": traced_s - sum(t[0][0] for t in samples)}
            for command in CLI_COMMANDS:
                layer[f"cli.{command}.wall_s"] = sum(
                    (t[0][0] for (c, _), t in zip(commands, samples) if c == command), 0.0)
        self.close_pass(passes - 1)
        layer["cli.out_mb"] = self.out_mib[0]
        return samples, layer, {
            "item_s": [[c, n, t] for (c, n), t in zip(commands, samples)],
            "out_mib": self.out_mib}

    # -- metrics --------------------------------------------------------------

    def execute(self) -> tuple[dict, dict]:
        """Run the workload; return (metric values, record of the run)."""
        items, layer, samples = (self.run_inprocess() if self.workload in IN_PROCESS
                                 else self.run_cli())
        pass_s, nominal_pass_s = pass_seconds(items)
        out = self.outcome
        if self.trace:
            values = {**layer_metrics(self.span_lists),
                      **{f"cli.{c}.wall_s": 0.0 for c in CLI_COMMANDS},
                      "cli.out_mb": 0.0, **layer,
                      "import_s": statistics.median(self.imports)}
            with open(self.dir / "spans.jsonl", "w") as fh:
                for process, spans in enumerate(self.span_lists):
                    for s in spans:
                        fh.write(json.dumps([process, *s]) + "\n")
        else:
            values = {"wall_s": nominal_pass_s,
                      "setup_s": at_nominal_speed(self.setup),
                      "peak_rss_mb": max(self.rss),
                      "ok_frac": 1.0 - out.failed / out.attempted,
                      "in_tol_frac": (out.paths_in_tol / out.paths_checked
                                      if out.paths_checked else 0.0)}
        record = {"workload": self.workload, "seed": self.seed, "trace": int(self.trace),
                  "seconds": self.seconds, "smoke": self.smoke,
                  "environment": environment(self.seed),
                  "measured_s": {"pass": pass_s,
                                 "setup": statistics.median(s for s, _ in self.setup)},
                  "samples": {**samples, "setup_s": self.setup,
                              "peak_rss_mib_per_child": self.rss},
                  "checks": {"attempted": out.attempted, "failed": out.failed,
                             "paths_checked": out.paths_checked,
                             "paths_in_tol": out.paths_in_tol,
                             "problems": out.problems},
                  "sha256": out.sha256, "run_dir": str(self.dir.relative_to(ROOT))}
        return values, record


def layer_metrics(span_lists) -> dict:
    stats = LayerStats()
    for spans in span_lists:
        stats.add(spans, skip_units=("warmup",))
    s, calls = stats.self_s, stats.calls
    notes = stats.notes["sic.run_sic"]
    # Every candidate the SIC loop tries is refined once. The report's
    # candidates_skipped misses the candidates of the iteration that ends
    # the loop, so the spans count them instead.
    candidates = calls["sic.refine_delay"]
    accepted = sum(n[1] for n in notes)
    return {
        "beamform.cbf_ma.calls": calls["beamform.cbf_ma"],
        "beamform.cbf_ma.self_s": s("beamform.cbf_ma"),
        "beamform.cbf_ma.steer_mb": stats.bytes_max["beamform.cbf_ma"] / MIB,
        "beamform.delay_transform.calls": calls["beamform.delay_transform"],
        "beamform.delay_transform.self_s": s("beamform.delay_transform"),
        "beamform.padp_ma.self_s": s("beamform.padp_ma"),
        "beamform.cbf_ura.self_s": s("beamform.cbf_ura"),
        "beamform.padp_ura.self_s": s("beamform.padp_ura"),
        "beamform.find_peaks.self_s": s("beamform.find_peaks"),
        "sic.run_sic.self_s": s("sic.run_sic"),
        "sic.iterations": sum(n[2] for n in notes),
        "sic.candidates_tried": candidates,
        "sic.paths_per_candidate": accepted / candidates if candidates else 0.0,
        "sic.refine_delay.self_s": s("sic.refine_delay"),
        "sic.estimate_power.self_s": s("sic.estimate_power"),
        "sic.gate.self_s": s("sic.gate"),
        "sic.subtract_path.self_s": s("sic.subtract_path"),
        "sic.stop.dynamic-range": sum(n[0] == "dynamic-range" for n in notes),
        "sic.stop.max-iterations": sum(n[0] == "max-iterations" for n in notes),
        "sic.raised": stats.errors["sic.run_sic"],
        "channel.gen_ma_cfr.calls": calls["channel.gen_ma_cfr"],
        "channel.gen_ma_cfr.self_s": s("channel.gen_ma_cfr"),
        "channel.add_noise.self_s": s("channel.add_noise"),
        "cfrfile.write_cfr.self_s": s("cfrfile.write_cfr"),
        "cfrfile.write_cfr.mb": stats.bytes_sum["cfrfile.write_cfr"] / MIB,
        "cfrfile.read_cfr.self_s": s("cfrfile.read_cfr"),
        "cfrfile.read_cfr.mb": stats.bytes_sum["cfrfile.read_cfr"] / MIB,
        "cli.snapshot_write.self_s": s("cli.snapshot_write"),
        "cli.snapshot_write.mb": stats.bytes_sum["cli.snapshot_write"] / MIB,
        "compare.compare_arrays.self_s": s("compare.compare_arrays"),
        "patterns.power_pattern.self_s": s("patterns.power_pattern"),
        "scenario.parse_scenario.self_s": s("scenario.parse_scenario"),
    }


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or None
    return {"nproc": os.cpu_count(), "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(BLAS_THREADS), "git_sha": sha, "seed": seed}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run a workload, print its metrics and record; return the result object."""
    values, record = Run(workload, seed, seconds, trace, smoke).execute()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']!r} {m['unit']}")
    checks = record["checks"]
    correct = not checks["problems"] and checks["paths_checked"] > 0
    print(f"{workload} output check: {'ok' if correct else 'FAILED'} "
          f"({checks['attempted']} attempted, {checks['failed']} failed, "
          f"{checks['paths_in_tol']}/{checks['paths_checked']} paths in tolerance)")
    with open(ROOT / record["run_dir"] / "result.json", "w") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"record": record}))
    return {"correct": correct, "attempted": checks["attempted"],
            "failed": checks["failed"], "metrics": metrics}


def smoke(spec: dict, seed: int) -> bool:
    """Every workload at reduced size, untraced and traced: each named metric
    must be printed with its unit, and the output check must have run."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_one(spec, workload, seed, 1.0, trace, smoke=True)
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                         for v in result["metrics"].values())
            checked = result["correct"] and result["attempted"] >= 1
            verdict = got == wanted and finite and checked
            ok = ok and verdict
            print(f"smoke {workload} trace={int(trace)}: {'ok' if verdict else 'FAILED'}")
    return ok


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at reduced size and check the output format")
    args = parser.parse_args()
    if not (ROOT / "src" / "masounder" / "__init__.py").is_file():
        print(f"error: no masounder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The work is one closed loop, so one CPU runs all of it: the reference
    # blocks (hostspeed.py) then time the same CPU the work runs on. The
    # children inherit the affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                      MKL_NUM_THREADS=BLAS_THREADS, PYTHONDONTWRITEBYTECODE="1",
                      PYTHONPATH=os.pathsep.join(
                          p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    try:
        if args.smoke:
            passed = smoke(spec, args.seed)
            print(f"smoke: {'ok' if passed else 'FAILED'}")
            return 0 if passed else 1
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_one(spec, w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
