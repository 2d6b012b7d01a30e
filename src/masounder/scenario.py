"""Scenario configuration: JSON parsing, validation and normalized dumps."""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    pattern_lattice: int = 512

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
        """Normalized dump with every default materialized."""
        out: dict = {
            "frequency": {"start_hz": self.freqs.f_start_hz,
                          "stop_hz": self.freqs.f_stop_hz,
                          "points": self.freqs.n_points},
            "paths": [
                {"power_db": p.power_db,
                 "phase_deg": float(np.degrees(np.angle(p.amplitude))),
                 "elevation_deg": p.direction.theta_deg,
                 "azimuth_deg": p.direction.phi_deg,
                 "delay_ns": p.delay_s * 1e9}
                for p in self.paths],
            "scan": {"theta": list(self.scan_theta), "phi": list(self.scan_phi)},
            "estimator": {"epsilon_db": self.epsilon_db,
                          "max_iterations": self.max_iterations,
                          "pad_factor": self.pad_factor,
                          "gate_db": self.gate_db},
            "taper": (None if self.taper_sidelobe_db is None
                      else {"kind": "chebyshev",
                            "sidelobe_db": self.taper_sidelobe_db}),
            "steer": (None if self.steer_uv is None
                      else {"u0": self.steer_uv[0], "v0": self.steer_uv[1]}),
            "noise": {"snr_db": self.snr_db},
            "compare": {"theta_deg": self.compare_theta_deg,
                        "window": self.compare_window,
                        "dynamic_range_db": self.compare_dynamic_range_db,
                        "min_separation": self.compare_min_separation},
            "pattern_lattice": self.pattern_lattice,
        }
        if self.ura is not None:
            out["ura"] = {"m": self.ura.m_count, "n": self.ura.n_count,
                          "dx_wl": self.ura.dx_wl, "dy_wl": self.ura.dy_wl}
        if self.ma is not None:
            out["ma"] = {"x": self.ma.x_count, "y": self.ma.y_count,
                         "d_wl": self.ma.d_wl}
        return out


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


def _section(top: dict, name: str) -> dict | None:
    """Section name of the top-level fields top, with its defaults filled in."""
    value = _SCHEMA["scenario"][name] if top[name] is None else top[name]
    return None if value is None else _fields(value, name, name)


def scenario_from_dict(data: dict) -> Scenario:
    top = _fields(data, "scenario", "scenario")
    try:
        fd = _section(top, "frequency")
        freqs = FrequencyGrid(float(fd["start_hz"]), float(fd["stop_hz"]),
                              int(fd["points"]))
        ud = _section(top, "ura")
        ura = None if ud is None else UraGeometry(int(ud["m"]), int(ud["n"]),
                                                  float(ud["dx_wl"]), float(ud["dy_wl"]))
        md = _section(top, "ma")
        ma = None if md is None else MaGeometry(int(md["x"]), int(md["y"]),
                                                float(md["d_wl"]))
        if not isinstance(top["paths"], list):
            raise ScenarioError("paths must be a list")
        entries = [_fields(p, "paths", f"paths[{i}]") for i, p in enumerate(top["paths"])]
        paths = PathSet([
            PathComponent.from_power_db(float(p["power_db"]), float(p["elevation_deg"]),
                                        float(p["azimuth_deg"]), float(p["delay_ns"]),
                                        float(p["phase_deg"]))
            for p in entries])
        scan = _section(top, "scan")
        est = _section(top, "estimator")
        taper = _section(top, "taper")
        if taper is not None and taper["kind"] != "chebyshev":
            raise ScenarioError(f"unsupported taper kind {taper['kind']!r}")
        steer_cfg = _section(top, "steer")
        noise = _section(top, "noise")
        cmp_cfg = _section(top, "compare")
        scenario = Scenario(
            freqs=freqs, ura=ura, ma=ma, paths=paths,
            scan_theta=tuple(float(x) for x in scan["theta"]),
            scan_phi=tuple(float(x) for x in scan["phi"]),
            epsilon_db=float(est["epsilon_db"]),
            max_iterations=int(est["max_iterations"]),
            pad_factor=int(est["pad_factor"]),
            gate_db=None if est["gate_db"] is None else float(est["gate_db"]),
            taper_sidelobe_db=None if taper is None else float(taper["sidelobe_db"]),
            steer_uv=(None if steer_cfg is None
                      else (float(steer_cfg["u0"]), float(steer_cfg["v0"]))),
            snr_db=None if noise["snr_db"] is None else float(noise["snr_db"]),
            compare_theta_deg=float(cmp_cfg["theta_deg"]),
            compare_window=cmp_cfg["window"],
            compare_dynamic_range_db=float(cmp_cfg["dynamic_range_db"]),
            compare_min_separation=int(cmp_cfg["min_separation"]),
            pattern_lattice=int(top["pattern_lattice"]),
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
