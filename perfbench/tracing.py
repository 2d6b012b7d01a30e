"""In-memory spans around the calls into masounder's layers.

The program carries no timers of its own, so the spans are recorded here:
each wrapper replaces a function under the name a *calling* module bound at
import (``masounder.sic.cbf_ma``, ``masounder.cli.read_cfr``, ...), because
rebinding ``masounder.beamform.cbf_ma`` would not reach callers that did
``from .beamform import cbf_ma``.

A span is a list ``[id, name, start_ns, end_ns, parent_id, unit, bytes,
note, error]``; ``unit`` is the sounding or command the span belongs to.
Spans stay in memory until the worker writes them out once, at its end.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

ID, NAME, START, END, PARENT, UNIT, BYTES, NOTE, ERROR = range(9)

# (calling module, name bound there, layer span name)
WRAPPED = (
    ("masounder.sic", "cbf_ma", "beamform.cbf_ma"),
    ("masounder.cli", "cbf_ma", "beamform.cbf_ma"),
    ("masounder.sic", "padp_ma", "beamform.padp_ma"),
    ("masounder.cli", "padp_ma", "beamform.padp_ma"),
    ("masounder.sic", "cfr_to_cir", "beamform.delay_transform"),
    ("masounder.sic", "cir_to_cfr", "beamform.delay_transform"),
    ("masounder.cli", "cbf_ura", "beamform.cbf_ura"),
    ("masounder.cli", "padp_ura", "beamform.padp_ura"),
    ("masounder.compare", "padp_ura", "beamform.padp_ura"),
    ("masounder.compare", "find_peaks", "beamform.find_peaks"),
    ("masounder.sic", "run_sic", "sic.run_sic"),
    ("masounder.cli", "run_sic", "sic.run_sic"),
    ("masounder.compare", "run_sic", "sic.run_sic"),
    ("masounder.sic", "refine_delay", "sic.refine_delay"),
    ("masounder.sic", "estimate_power", "sic.estimate_power"),
    ("masounder.sic", "build_label_vector", "sic.gate"),
    ("masounder.sic", "extract_path_cir", "sic.gate"),
    ("masounder.sic", "subtract_path", "sic.subtract_path"),
    ("masounder.channel", "gen_ma_cfr", "channel.gen_ma_cfr"),
    ("masounder.sic", "gen_ma_cfr", "channel.gen_ma_cfr"),
    ("masounder.cli", "gen_ma_cfr", "channel.gen_ma_cfr"),
    ("masounder.compare", "gen_ma_cfr", "channel.gen_ma_cfr"),
    ("masounder.channel", "add_noise", "channel.add_noise"),
    ("masounder.cli", "add_noise", "channel.add_noise"),
    ("masounder.compare", "add_noise", "channel.add_noise"),
    ("masounder.cli", "write_cfr", "cfrfile.write_cfr"),
    ("masounder.cli", "read_cfr", "cfrfile.read_cfr"),
    ("masounder.cli", "compare_arrays", "compare.compare_arrays"),
    ("masounder.cli", "ura_power_pattern", "patterns.power_pattern"),
    ("masounder.cli", "ma_power_pattern", "patterns.power_pattern"),
    ("masounder.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("masounder.cli", "parse_scenario", "scenario.parse_scenario"),
)


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _steer_bytes(args, kwargs, result):
    """Complex128 steering matrices one cbf_ma call builds: 16 B x
    (x_count + y_count) x scan points."""
    cfr_x, grid = args[0], args[2]
    geom = cfr_x.geometry
    return 16 * (geom.x_count + geom.y_count) * grid.theta_deg.size * grid.phi_deg.size


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _sic_note(args, kwargs, result):
    return [result.stop_reason, len(result.paths), len(result.diagnostics)]


_BYTES = {"beamform.cbf_ma": _steer_bytes,
          "cfrfile.write_cfr": _file_bytes,
          "cfrfile.read_cfr": _file_bytes}


class Tracer:
    """Span recorder; ``install`` wraps the layer functions, ``uninstall``
    puts the originals back."""

    def __init__(self, out_dir=None):
        self.spans: list[list] = []
        self.unit = None
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._out_dir = out_dir  # where cli.estimate writes its snapshots

    def open(self, name: str) -> list:
        span = [len(self.spans), name, time.perf_counter_ns(), None,
                self._stack[-1][ID] if self._stack else None, self.unit,
                None, None, False]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name):
        measure = _BYTES.get(name)
        note = _sic_note if name == "sic.run_sic" else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None and kwargs.get("snapshot_hook") is not None:
                kwargs["snapshot_hook"] = tracer._wrap_snapshot(kwargs["snapshot_hook"])
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                tracer.close(span)
            if measure is not None:
                span[BYTES] = measure(args, kwargs, result)
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result
        return traced

    def _wrap_snapshot(self, hook):
        def traced(*args, **kwargs):
            before = _dir_bytes(self._out_dir)
            span = self.open("cli.snapshot_write")
            try:
                return hook(*args, **kwargs)
            finally:
                self.close(span)
                span[BYTES] = _dir_bytes(self._out_dir) - before
        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class LayerStats:
    """Calls, self time, bytes and notes per span name, summed over span
    lists from any number of processes."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.bytes_sum: dict[str, int] = defaultdict(int)
        self.bytes_max: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.notes: dict[str, list] = defaultdict(list)

    def add(self, spans, skip_units=()) -> None:
        """Add one process's spans; a span's self time is its duration
        minus the durations of its direct children."""
        child_ns: dict[int, int] = defaultdict(int)
        for s in spans:
            if s[PARENT] is not None:
                child_ns[s[PARENT]] += s[END] - s[START]
        for s in spans:
            if s[UNIT] in skip_units:
                continue
            name = s[NAME]
            self.calls[name] += 1
            self.self_ns[name] += s[END] - s[START] - child_ns[s[ID]]
            if s[BYTES] is not None:
                self.bytes_sum[name] += s[BYTES]
                self.bytes_max[name] = max(self.bytes_max[name], s[BYTES])
            if s[ERROR]:
                self.errors[name] += 1
            if s[NOTE] is not None:
                self.notes[name].append(s[NOTE])

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9
