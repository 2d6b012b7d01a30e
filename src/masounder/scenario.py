"""Scenario configuration: JSON parsing, validation and normalized dumps."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .channel import sounded_paths
from .geometry import (FrequencyGrid, MaGeometry, PathComponent, ScanGrid, UraGeometry,
                       regular_count)
from .patterns import auto_convolve, chebyshev_taper, steer
from .sic import EstimatorConfig


class ScenarioError(ValueError):
    """Invalid or inconsistent scenario configuration."""


# The most bytes an array that a command holds whole may take. A scenario
# whose counts ask for a larger one is rejected at parse, before any array
# exists.
MAX_ARRAY_BYTES = 2 ** 30


_REQUIRED = object()
# Every key a scenario may hold, with its default or _REQUIRED; "scenario"
# is the top level. Any other key, such as a misspelt "noise": {"snr": 10},
# is rejected: it would otherwise be ignored in favour of the default. An
# absent or null object section takes its top-level default, where None
# means "not declared" and {} means "all defaults".
_SCHEMA = {
    "scenario": {"frequency": _REQUIRED, "ura": None, "ma": None, "paths": [],
                 "scan": {}, "estimator": {}, "taper": None, "steer": None,
                 "noise": {}, "compare": {}, "pattern_lattice": 512},
    "frequency": {"start_hz": _REQUIRED, "stop_hz": _REQUIRED, "points": _REQUIRED},
    "ura": {"m": _REQUIRED, "n": _REQUIRED, "dx_wl": 0.5, "dy_wl": 0.5},
    "ma": {"x": _REQUIRED, "y": _REQUIRED, "d_wl": 0.5},
    "paths": {"power_db": 0.0, "phase_deg": 0.0, "elevation_deg": _REQUIRED,
              "azimuth_deg": _REQUIRED, "delay_ns": _REQUIRED},
    "scan": {"theta": [0.0, 90.0, 1.0], "phi": [90.0, 270.0, 1.0]},
    "estimator": {"epsilon_db": 30.0, "max_iterations": 20, "pad_factor": 4,
                  "gate_db": None},
    "taper": {"kind": "chebyshev", "sidelobe_db": _REQUIRED},
    "steer": {"u0": _REQUIRED, "v0": _REQUIRED},
    "noise": {"snr_db": None},
    "compare": {"theta_deg": 90.0, "window": "hann", "dynamic_range_db": 25.0,
                "min_separation": 6},
}


@dataclass(frozen=True)
class Scenario:
    freqs: FrequencyGrid
    ura: UraGeometry | None
    ma: MaGeometry | None
    paths: tuple[PathComponent, ...]
    scan_theta: tuple[float, float, float]
    scan_phi: tuple[float, float, float]
    epsilon_db: float
    max_iterations: int
    pad_factor: int
    gate_db: float | None
    taper_sidelobe_db: float | None
    steer_uv: tuple[float, float] | None
    snr_db: float | None
    compare_theta_deg: float
    compare_window: str | None
    compare_dynamic_range_db: float
    compare_min_separation: int
    pattern_lattice: int
    # JSON text of the input as parsed, defaults filled in: what to_dict()
    # returns, so a dump re-parses to this scenario exactly.
    _normalized: str = field(compare=False, repr=False)

    def scan_grid(self) -> ScanGrid:
        t0, t1, dt = self.scan_theta
        p0, p1, dp = self.scan_phi
        return ScanGrid.regular(t0, t1, dt, p0, p1, dp)

    def estimator_config(self) -> EstimatorConfig:
        """SIC settings of this scenario, scanning its scan grid."""
        return EstimatorConfig(scan=self.scan_grid(), epsilon_db=self.epsilon_db,
                               max_iterations=self.max_iterations,
                               gate_db=self.gate_db, pad_factor=self.pad_factor)

    def ura_taper(self) -> tuple[np.ndarray, np.ndarray] | None:
        if self.taper_sidelobe_db is None:
            return None
        if self.ura is None:
            raise ScenarioError("taper requested but no URA geometry declared")
        return (chebyshev_taper(self.ura.m_count, self.taper_sidelobe_db),
                chebyshev_taper(self.ura.n_count, self.taper_sidelobe_db))

    def ma_taper(self) -> tuple[np.ndarray, np.ndarray] | None:
        """MA sub-array tapers: auto-convolved line tapers matching the MA size."""
        if self.taper_sidelobe_db is None:
            return None
        if self.ma is None:
            raise ScenarioError("taper requested but no MA geometry declared")
        wx = chebyshev_taper((self.ma.x_count + 1) // 2, self.taper_sidelobe_db)
        wy = chebyshev_taper((self.ma.y_count + 1) // 2, self.taper_sidelobe_db)
        return auto_convolve(wx), auto_convolve(wy)

    def steered_excitations(self):
        """Per-axis URA excitations and their auto-convolved MA counterparts."""
        if self.ura is None:
            raise ScenarioError("pattern synthesis needs a URA geometry")
        tx, ty = self.ura_taper() or (np.ones(self.ura.m_count),
                                      np.ones(self.ura.n_count))
        if self.steer_uv is not None:
            u0, v0 = self.steer_uv
            tx = steer(tx, u0, self.ura.dx_wl)
            ty = steer(ty, v0, self.ura.dy_wl)
        return tx, ty, auto_convolve(tx), auto_convolve(ty)

    def is_ura_equivalent_ma(self) -> bool:
        return (self.ura is not None and self.ma is not None
                and self.ura.dx_wl == self.ura.dy_wl
                and self.ma == MaGeometry.equivalent_to(self.ura))

    def to_dict(self) -> dict:
        """The validated input with every default filled in, as a new dict."""
        return json.loads(self._normalized)


def _fields(mapping, section: str, context: str) -> dict:
    """mapping with the defaults of section filled in. mapping must be an
    object that holds every required key of section and no other key."""
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{context} must be an object")
    schema = _SCHEMA[section]
    for key in mapping:
        if key not in schema:
            raise ScenarioError(f"unknown key {context}.{key}")
    for key, default in schema.items():
        if default is _REQUIRED and key not in mapping:
            raise ScenarioError(f"missing field {key!r} in {context}")
    return {**schema, **mapping}


def _number(value, name: str, kind=float):
    """value as kind, float or int. Only a JSON number that is finite as a
    double reads, and as an int only one with no fraction (24.0 as 24). A
    boolean, a string or a fraction is rejected, naming the field, rather
    than converted."""
    # abs(nan) and abs(inf) fail the bound too; an int is compared exactly.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max
            or (kind is int and value != int(value))):
        what = "an integer" if kind is int else "a finite number"
        raise ScenarioError(f"{name} must be {what}, not {value!r}")
    return kind(value)


def _scan_axis(value, name: str) -> tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ScenarioError(f"{name} must be [start, stop, positive step]")
    start, stop, step = (_number(x, f"{name}[{i}]") for i, x in enumerate(value))
    if step <= 0 or stop < start:
        raise ScenarioError(f"{name} must be [start, stop, positive step]")
    return start, stop, step


def _normalize(data) -> dict:
    """data with every section's defaults filled in, keys in schema order."""
    top = _fields(data, "scenario", "scenario")
    for name, value in top.items():
        if name == "paths":
            if not isinstance(value, list):
                raise ScenarioError("paths must be a list")
            top[name] = [_fields(p, name, f"paths[{i}]") for i, p in enumerate(value)]
        elif name in _SCHEMA:
            value = _SCHEMA["scenario"][name] if value is None else value
            top[name] = None if value is None else _fields(value, name, name)
    return top


def scenario_from_dict(data: dict) -> Scenario:
    norm = _normalize(data)

    def num(section: str, key: str, kind=float):
        value = norm[section][key]
        if value is None and _SCHEMA[section][key] is None:
            return None  # a number whose default is null may be null
        return _number(value, f"{section}.{key}", kind)

    try:
        freqs = FrequencyGrid(num("frequency", "start_hz"), num("frequency", "stop_hz"),
                              num("frequency", "points", int))
        ura = None if norm["ura"] is None else UraGeometry(
            num("ura", "m", int), num("ura", "n", int), num("ura", "dx_wl"),
            num("ura", "dy_wl"))
        ma = None if norm["ma"] is None else MaGeometry(
            num("ma", "x", int), num("ma", "y", int), num("ma", "d_wl"))
        paths = tuple(PathComponent.from_power_db(*(
            _number(p[key], f"paths[{i}].{key}") for key in
            ("power_db", "elevation_deg", "azimuth_deg", "delay_ns", "phase_deg")))
            for i, p in enumerate(norm["paths"]))
        taper = norm["taper"]
        if taper is not None and taper["kind"] != "chebyshev":
            raise ScenarioError(f"unsupported taper kind {taper['kind']!r}")
        scenario = Scenario(
            freqs=freqs, ura=ura, ma=ma, paths=paths,
            scan_theta=_scan_axis(norm["scan"]["theta"], "scan.theta"),
            scan_phi=_scan_axis(norm["scan"]["phi"], "scan.phi"),
            epsilon_db=num("estimator", "epsilon_db"),
            max_iterations=num("estimator", "max_iterations", int),
            pad_factor=num("estimator", "pad_factor", int),
            gate_db=num("estimator", "gate_db"),
            taper_sidelobe_db=None if taper is None else num("taper", "sidelobe_db"),
            steer_uv=(None if norm["steer"] is None
                      else (num("steer", "u0"), num("steer", "v0"))),
            snr_db=num("noise", "snr_db"),
            compare_theta_deg=num("compare", "theta_deg"),
            compare_window=norm["compare"]["window"],
            compare_dynamic_range_db=num("compare", "dynamic_range_db"),
            compare_min_separation=num("compare", "min_separation", int),
            pattern_lattice=_number(norm["pattern_lattice"], "pattern_lattice", int),
            _normalized=json.dumps(norm),
        )
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc
    _validate(scenario)
    return scenario


def _check_array_sizes(s: Scenario) -> None:
    """Reject s if an array that a command holds whole would, by s's counts
    alone, exceed MAX_ARRAY_BYTES as complex values, naming the fields that
    set it. Every other working array is bounded where it is built."""
    n_theta, n_phi = regular_count(*s.scan_theta), regular_count(*s.scan_phi)
    points = s.freqs.n_points
    arrays = [("scan.theta x scan.phi", "scan beam", n_theta * n_phi),
              ("frequency.points x estimator.pad_factor x scan.phi", "PADP",
               points * s.pad_factor * n_phi),
              ("pattern_lattice squared", "pattern lattice", s.pattern_lattice ** 2)]
    if s.ura is not None:
        arrays.append(("ura.m x ura.n x frequency.points", "URA CFR",
                       s.ura.m_count * s.ura.n_count * points))
    if s.ma is not None:
        larger = "ma.x" if s.ma.x_count >= s.ma.y_count else "ma.y"
        arrays.append((f"{larger} x frequency.points", "MA CFR",
                       max(s.ma.x_count, s.ma.y_count) * points))
    for fields, name, count in arrays:
        size = 16 * count  # complex128
        if size > MAX_ARRAY_BYTES:
            raise ScenarioError(f"{fields} asks for a {size / 2 ** 30:.6g} GiB {name}; "
                                f"one array may take at most "
                                f"{MAX_ARRAY_BYTES / 2 ** 30:g} GiB")


def _validate(s: Scenario) -> None:
    _check_array_sizes(s)
    if s.taper_sidelobe_db is not None and s.ma is not None:
        # a tapered sub-array auto-convolves an odd taper of (count + 1) / 2
        for name, count in (("ma.x", s.ma.x_count), ("ma.y", s.ma.y_count)):
            if count % 4 != 1:
                raise ScenarioError(f"{name} = {count}: a tapered MA sub-array needs 4k + 1 "
                                    "elements, the auto-convolution of an odd taper")
    try:  # the MA's range, half the URA's, is the one a path reaches first
        for geometry in (s.ma, s.ura):
            if geometry is not None:
                sounded_paths(s.paths, geometry, s.freqs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    theta = s.scan_grid().theta_deg
    if not 0.0 <= theta[0] <= theta[-1] <= 90.0:
        raise ScenarioError(f"scan.theta runs from {theta[0]:g} to {theta[-1]:g} deg; "
                            "elevations must lie in [0, 90]")
    if not 0.0 <= s.compare_theta_deg <= 90.0:
        raise ScenarioError(f"compare.theta_deg must lie in [0, 90], "
                            f"not {s.compare_theta_deg:g}")
    if s.compare_window not in ("hann", None):
        raise ScenarioError(f'compare.window must be "hann" or null, '
                            f"not {s.compare_window!r}")
    if s.compare_dynamic_range_db <= 0:
        raise ScenarioError(f"compare.dynamic_range_db must be > 0, "
                            f"not {s.compare_dynamic_range_db:g}")
    try:
        s.estimator_config()
    except ValueError as exc:
        raise ScenarioError(f"estimator.{exc}") from exc
    if s.pattern_lattice < 2:
        raise ScenarioError("pattern_lattice must be >= 2")


def parse_scenario(path) -> Scenario:
    """Load and validate a JSON scenario file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(data)


def dump_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario.to_dict(), fh, indent=2)
        fh.write("\n")
