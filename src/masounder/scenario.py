"""Scenario configuration: JSON parsing, validation and normalized dumps."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .channel import PathSet
from .geometry import FrequencyGrid, MaGeometry, PathComponent, ScanGrid, UraGeometry
from .patterns import auto_convolve, chebyshev_taper, steer
from .sic import EstimatorConfig


class ScenarioError(ValueError):
    """Invalid or inconsistent scenario configuration."""


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
    paths: PathSet
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


def _integer(value, name: str) -> int:
    """value as an int. A JSON number with no fraction reads (24.0 as 24); a
    boolean, a fraction or a non-number is rejected rather than truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{name} must be an integer, not {value!r}")
    return value


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
    try:
        fd, ud, md = norm["frequency"], norm["ura"], norm["ma"]
        freqs = FrequencyGrid(float(fd["start_hz"]), float(fd["stop_hz"]),
                              _integer(fd["points"], "frequency.points"))
        ura = None if ud is None else UraGeometry(
            _integer(ud["m"], "ura.m"), _integer(ud["n"], "ura.n"),
            float(ud["dx_wl"]), float(ud["dy_wl"]))
        ma = None if md is None else MaGeometry(
            _integer(md["x"], "ma.x"), _integer(md["y"], "ma.y"), float(md["d_wl"]))
        paths = PathSet([
            PathComponent.from_power_db(float(p["power_db"]), float(p["elevation_deg"]),
                                        float(p["azimuth_deg"]), float(p["delay_ns"]),
                                        float(p["phase_deg"]))
            for p in norm["paths"]])
        scan, est, taper = norm["scan"], norm["estimator"], norm["taper"]
        if taper is not None and taper["kind"] != "chebyshev":
            raise ScenarioError(f"unsupported taper kind {taper['kind']!r}")
        steer_cfg, noise, cmp_cfg = norm["steer"], norm["noise"], norm["compare"]
        scenario = Scenario(
            freqs=freqs, ura=ura, ma=ma, paths=paths,
            scan_theta=tuple(float(x) for x in scan["theta"]),
            scan_phi=tuple(float(x) for x in scan["phi"]),
            epsilon_db=float(est["epsilon_db"]),
            max_iterations=_integer(est["max_iterations"], "estimator.max_iterations"),
            pad_factor=_integer(est["pad_factor"], "estimator.pad_factor"),
            gate_db=None if est["gate_db"] is None else float(est["gate_db"]),
            taper_sidelobe_db=None if taper is None else float(taper["sidelobe_db"]),
            steer_uv=(None if steer_cfg is None
                      else (float(steer_cfg["u0"]), float(steer_cfg["v0"]))),
            snr_db=None if noise["snr_db"] is None else float(noise["snr_db"]),
            compare_theta_deg=float(cmp_cfg["theta_deg"]),
            compare_window=cmp_cfg["window"],
            compare_dynamic_range_db=float(cmp_cfg["dynamic_range_db"]),
            compare_min_separation=_integer(cmp_cfg["min_separation"],
                                            "compare.min_separation"),
            pattern_lattice=_integer(norm["pattern_lattice"], "pattern_lattice"),
            _normalized=json.dumps(norm),
        )
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc
    _validate(scenario)
    return scenario


def _validate(s: Scenario) -> None:
    if len(s.paths) and s.ma is not None:
        try:
            s.paths.validate_against(s.freqs)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    for axis, name in ((s.scan_theta, "scan.theta"), (s.scan_phi, "scan.phi")):
        if (len(axis) != 3 or not np.all(np.isfinite(axis)) or axis[2] <= 0
                or axis[1] < axis[0]):
            raise ScenarioError(f"{name} must be [start, stop, positive step]")
    theta = s.scan_grid().theta_deg
    if not 0.0 <= theta[0] <= theta[-1] <= 90.0:
        raise ScenarioError(f"scan.theta runs from {theta[0]:g} to {theta[-1]:g} deg; "
                            "elevations must lie in [0, 90]")
    if not 0.0 <= s.compare_theta_deg <= 90.0:
        raise ScenarioError(f"compare.theta_deg must lie in [0, 90], "
                            f"not {s.compare_theta_deg:g}")
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
