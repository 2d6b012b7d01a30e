"""The two benchmark workloads and the checks of their outputs.

Every workload is a closed loop from one client: a sounding or command
starts only after the previous one ended. A *pass* is the workload's fixed
work, a list of soundings or commands. A run makes one whole pass, then goes
on through the list again, from the start, while the next item still fits in
``--seconds`` going by its last time, and times a reference block between
items (``round_robin``).

Why these two:

- ``noisy_small``: ``table1_small`` with noise at 20 and 10 dB per-sample
  SNR, in process, so the SIC candidate-rejection loop dominates, no file
  is read or written, and some soundings fail today.
- ``cli``: every CLI command as a subprocess, what a user runs.
  ``simulate`` + ``estimate`` on ``table1`` is dominated by CSV text I/O;
  ``synth-pattern``/``simulate``/``beamscan``/``compare`` on the URA
  scenarios are the only calls into the URA beamformers, ``patterns`` and
  ``compare``.

There are two, each run as long as the run budget allows, because the
host's speed drifts by tens of percent over tens of seconds: shorter runs
of more workloads spread past their bounds.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

from hostspeed import reference

SCENARIO_DIR = Path("src") / "masounder" / "scenarios"

# Acceptance tolerances of tests/test_acceptance.py: angle (deg), delay (s),
# power (dB).
TABLE1_TOL = (1.0, 0.25e-9, 0.5)
TABLE2_TOL = (1.0, 0.5e-9, 1.0)

NOISY_SNRS_DB = (20.0, 10.0)
# Noise realisation k draws ma_x noise from seed 2k+1 and ma_y noise from
# seed 2k+2. The pool is fixed rather than drawn from --seed: one noisy
# sounding costs 0.3 s to 12 s and about one in four fails, so pools that
# differ per seed differ in work far beyond any useful bound.
NOISY_REALISATIONS = 5

IN_PROCESS = {
    "noisy_small": {"scenario": "table1_small",
                    "pool": [[k, snr] for k in range(NOISY_REALISATIONS)
                             for snr in NOISY_SNRS_DB],
                    "smoke_pool": [[0, snr] for snr in NOISY_SNRS_DB]},
}

# (command, scenario); each scenario gets its own output directory, so
# beamscan reads the CFR files simulate wrote next to it.
CLI = {
    "cli": [("simulate", "table1"), ("estimate", "table1"), ("synth-pattern", "fig2"),
            ("simulate", "fig5"), ("beamscan", "fig5"), ("compare", "table2_mimic")],
}

WORKLOADS = tuple(IN_PROCESS) + tuple(CLI)


def round_robin(count: int, seconds: float, run_item, repeat: bool = True) -> list:
    """Call ``run_item(pass_index, item_index)`` for items 0..count-1, then,
    if ``repeat``, again from item 0 while the next item still fits in
    ``seconds`` going by its last duration. ``run_item`` returns the seconds
    to record for the item. A reference block (``hostspeed``) is timed
    before the first item and after each one. Returns, per item, a list of
    ``[seconds, reference seconds]`` samples, the reference being the mean of
    the blocks just before and just after that run of the item."""
    samples: list[list[list[float]]] = [[] for _ in range(count)]
    start = time.perf_counter()
    before = reference()
    n = 0
    while True:
        pass_index, i = divmod(n, count)
        if pass_index and (not repeat
                           or time.perf_counter() - start + samples[i][-1][0] > seconds):
            return samples
        item_s = run_item(pass_index, i)
        after = reference()
        samples[i].append([item_s, (before + after) / 2])
        before = after
        n += 1


# Smoke runs swap each scenario for a reduced copy of it.
SMOKE_SCENARIOS = {
    "table1": lambda d: {**d, "ma": {**d["ma"], "x": 41, "y": 41},
                         "frequency": {**d["frequency"], "points": 375}},
    "fig2": lambda d: {**d, "pattern_lattice": 64},
    "fig5": lambda d: {**d, "frequency": {**d["frequency"], "points": 375}},
}


def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def scenario_file(root: Path, name: str, smoke: bool, scratch: Path) -> Path:
    """Path of the scenario a run uses; smoke runs write a reduced copy."""
    bundled = root / SCENARIO_DIR / f"{name}.json"
    if not smoke or name not in SMOKE_SCENARIOS:
        return bundled
    reduced = scratch / "scenarios" / f"{name}.json"
    reduced.parent.mkdir(parents=True, exist_ok=True)
    reduced.write_text(json.dumps(SMOKE_SCENARIOS[name](_load(bundled))))
    return reduced


def true_paths(scenario_path: Path) -> list[tuple[float, float, float, float]]:
    """(power_db, delay_s, elevation_deg, azimuth_deg) of each configured path."""
    return [(float(p.get("power_db", 0.0)), float(p["delay_ns"]) * 1e-9,
             float(p["elevation_deg"]), float(p["azimuth_deg"]))
            for p in _load(scenario_path).get("paths", [])]


def _within(e, t, tol) -> bool:
    angle_tol, delay_tol, power_tol = tol
    return (abs(e[0] - t[0]) <= power_tol and abs(e[1] - t[1]) <= delay_tol
            and abs(e[2] - t[2]) <= angle_tol and abs(e[3] - t[3]) <= angle_tol)


def _nearest(e, candidates, tol):
    angle_tol, delay_tol, power_tol = tol
    return min(candidates, key=lambda t: (
        abs(e[0] - t[0]) / power_tol + abs(e[1] - t[1]) / delay_tol
        + abs(e[2] - t[2]) / angle_tol + abs(e[3] - t[3]) / angle_tol))


def paths_in_tolerance(estimates, truth, tol) -> int:
    """Match each true path, strongest first, to the nearest unused estimate
    and count the matches inside the tolerances."""
    unused = list(estimates)
    hits = 0
    for t in sorted(truth, key=lambda p: -p[0]):
        if not unused:
            break
        best = _nearest(t, unused, tol)
        unused.remove(best)
        hits += _within(best, t, tol)
    return hits


class Outcome:
    """Tally of one run's output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.paths_checked = 0
        self.paths_in_tol = 0
        self.problems: list[str] = []  # outputs that should be right and are not
        self.sha256: dict[str, str] = {}

    def record_hash(self, key: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        if self.sha256.setdefault(key, digest) != digest:
            self.problems.append(f"{key} differs between passes of the same input")


def check_sounding(out: Outcome, record: dict, truth, noisy: bool,
                   measured: bool = True) -> None:
    """Check one in-process sounding. Noiseless soundings must recover every
    path; a noisy one may fail, which counts in ``failed`` and the fractions."""
    if measured:
        out.attempted += 1
    if record["raised"] is not None:
        if measured:
            out.failed += 1
        if not noisy:
            out.problems.append(f"noiseless sounding raised {record['raised']}")
        return
    label = "noisy" if noisy else "clean"
    out.record_hash(f"report/{label}/{record['item']}",
                    json.dumps([record["stop"], record["paths"]]).encode())
    hits = paths_in_tolerance(record["paths"], truth, TABLE1_TOL)
    wrong_count = len(record["paths"]) != len(truth)
    if measured:
        out.failed += wrong_count
        out.paths_checked += len(record["paths"])
        out.paths_in_tol += hits
    if not noisy and (wrong_count or hits != len(truth)):
        out.problems.append(f"noiseless sounding recovered {len(record['paths'])} "
                            f"paths, {hits} within tolerance")


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _padp_peak_delay_s(path: Path, azimuth: str) -> float:
    best_level, best_delay = -math.inf, math.nan
    with open(path) as fh:
        next(fh)
        for line in fh:
            if line.startswith(azimuth + ","):
                _, delay_ns, level = line.split(",")
                if float(level) > best_level:
                    best_level, best_delay = float(level), float(delay_ns) * 1e-9
    return best_delay


def _beam_peak_direction(path: Path) -> tuple[float, float]:
    rows = _csv_rows(path)
    u, v, _ = (float(x) for x in max(rows, key=lambda r: float(r[2])))
    theta = math.degrees(math.asin(min(math.hypot(u, v), 1.0)))
    return theta, math.degrees(math.atan2(v, u)) % 360.0


def check_command(out: Outcome, command: str, scenario_path: Path, out_dir: Path,
                  exit_code: int, measured: bool = True) -> None:
    """Check the files one CLI command wrote against the scenario's truth.
    Only a measured command counts in the tallies; any wrong output is a
    problem."""
    tally = out if measured else Outcome()
    tally.attempted += 1
    ok = exit_code == 0
    truth = true_paths(scenario_path)
    scen = _load(scenario_path)
    if ok and command == "simulate":
        ok = all((out_dir / f).is_file() for f in ("ma_x_cfr.csv", "ma_y_cfr.csv"))
    elif ok and command == "synth-pattern":
        n = scen.get("pattern_lattice", 512)
        for name in ("ura_pattern.csv", "ma_pattern.csv"):
            with open(out_dir / name, "rb") as fh:
                ok = ok and sum(1 for _ in fh) == 1 + n * n
    elif ok and command == "estimate":
        data = (out_dir / "paths.csv").read_bytes()
        out.record_hash(f"{scenario_path.stem}/paths.csv", data)
        est = [(float(r[1]), float(r[2]) * 1e-9, float(r[3]), float(r[4]))
               for r in _csv_rows(out_dir / "paths.csv")]
        hits = paths_in_tolerance(est, truth, TABLE1_TOL)
        ok = len(est) == len(truth)
        tally.paths_checked += len(est)
        tally.paths_in_tol += hits
        if hits != len(truth):
            out.problems.append(f"paths.csv has {hits} of {len(truth)} paths "
                                "within tolerance")
    elif ok and command == "compare":
        data = (out_dir / "comparison.csv").read_bytes()
        out.record_hash(f"{scenario_path.stem}/comparison.csv", data)
        rows = _csv_rows(out_dir / "comparison.csv")
        ok = len(rows) == len(truth)
        for r in rows:
            # The azimuth-only cut reports no elevation; it is the cut's.
            ura = (float(r[3]), float(r[1]) * 1e-9, scen["compare"]["theta_deg"], float(r[2]))
            ma = (float(r[6]), float(r[4]) * 1e-9, scen["compare"]["theta_deg"], float(r[5]))
            t = _nearest(ma, truth, TABLE2_TOL)
            hit = _within(ura, t, TABLE2_TOL) and _within(ma, t, TABLE2_TOL)
            tally.paths_checked += 1
            tally.paths_in_tol += hit
            if not hit:
                out.problems.append(f"comparison row {r[0]} outside tolerance")
    elif ok and command == "beamscan":
        # The strongest path must lead both beams and both PADP cuts at its
        # azimuth; the MA doubles its delay.
        top = max(truth, key=lambda p: p[0])
        f = scen["frequency"]
        pad = scen.get("estimator", {}).get("pad_factor", 4)
        bin_s = (f["points"] - 1) / (f["points"] * pad * (f["stop_hz"] - f["start_hz"]))
        azimuth = f"{top[3]:.9g}"
        for kind, scale in (("ura", 1.0), ("ma", 2.0)):
            theta, phi = _beam_peak_direction(out_dir / f"{kind}_beam.csv")
            delay = _padp_peak_delay_s(out_dir / f"{kind}_padp.csv", azimuth)
            hit = (abs(theta - top[2]) <= 1.0 and abs(phi - top[3]) <= 1.0
                   and abs(delay - scale * top[1]) <= bin_s)
            tally.paths_checked += 1
            tally.paths_in_tol += hit
            if not hit:
                out.problems.append(f"{kind} beam/PADP peak at {theta:.1f} deg, "
                                    f"{phi:.1f} deg, {delay * 1e9:.3f} ns")
    if not ok:
        tally.failed += 1
        out.problems.append(f"{command} on {scenario_path.stem} failed "
                            f"(exit {exit_code})")
