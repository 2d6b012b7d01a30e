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


_SCAN_DEFAULTS = {"theta": [0.0, 90.0, 1.0], "phi": [90.0, 270.0, 1.0]}
_ESTIMATOR_DEFAULTS = {"epsilon_db": 30.0, "max_iterations": 20,
                       "pad_factor": 4, "gate_db": None}
_COMPARE_DEFAULTS = {"theta_deg": 90.0, "window": "hann",
                     "dynamic_range_db": 25.0, "min_separation": 6}
# The keys each section may hold. Any other key, such as a misspelt
# "noise": {"snr": 10}, would otherwise be ignored in favour of the default.
_SECTION_KEYS = {
    "frequency": ("start_hz", "stop_hz", "points"),
    "ura": ("m", "n", "dx_wl", "dy_wl"),
    "ma": ("x", "y", "d_wl"),
    "paths": ("power_db", "phase_deg", "elevation_deg", "azimuth_deg", "delay_ns"),
    "scan": tuple(_SCAN_DEFAULTS),
    "estimator": tuple(_ESTIMATOR_DEFAULTS),
    "taper": ("kind", "sidelobe_db"),
    "steer": ("u0", "v0"),
    "noise": ("snr_db",),
    "compare": tuple(_COMPARE_DEFAULTS),
}
_SCENARIO_KEYS = (*_SECTION_KEYS, "pattern_lattice")


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
                and self.ma.x_count == 2 * self.ura.m_count - 1
                and self.ma.y_count == 2 * self.ura.n_count - 1
                and self.ura.dx_wl == self.ura.dy_wl == self.ma.d_wl)

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


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"missing field {key!r} in {context}")
    return mapping[key]


def _checked(mapping, keys, context: str) -> dict:
    """mapping, which must be an object holding no key outside keys."""
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{context} must be an object")
    for key in mapping:
        if key not in keys:
            raise ScenarioError(f"unknown key {context}.{key}")
    return mapping


def _section(data: dict, name: str) -> dict | None:
    """The checked section name of data; None when absent or null."""
    value = data.get(name)
    return None if value is None else _checked(value, _SECTION_KEYS[name], name)


def _path_entries(data: dict) -> list[dict]:
    """The checked entries of data["paths"]; none when the key is absent."""
    entries = data.get("paths", [])
    if not isinstance(entries, list):
        raise ScenarioError("paths must be a list")
    return [_checked(p, _SECTION_KEYS["paths"], f"paths[{i}]")
            for i, p in enumerate(entries)]


def scenario_from_dict(data: dict) -> Scenario:
    _checked(data, _SCENARIO_KEYS, "scenario")
    try:
        fd = _checked(_require(data, "frequency", "scenario"),
                      _SECTION_KEYS["frequency"], "frequency")
        freqs = FrequencyGrid(float(_require(fd, "start_hz", "frequency")),
                              float(_require(fd, "stop_hz", "frequency")),
                              int(_require(fd, "points", "frequency")))
        ud = _section(data, "ura")
        ura = None if ud is None else UraGeometry(int(_require(ud, "m", "ura")),
                                                  int(_require(ud, "n", "ura")),
                                                  float(ud.get("dx_wl", 0.5)),
                                                  float(ud.get("dy_wl", 0.5)))
        md = _section(data, "ma")
        ma = None if md is None else MaGeometry(int(_require(md, "x", "ma")),
                                                int(_require(md, "y", "ma")),
                                                float(md.get("d_wl", 0.5)))
        paths = PathSet([
            PathComponent.from_power_db(float(p.get("power_db", 0.0)),
                                        float(_require(p, "elevation_deg", "path")),
                                        float(_require(p, "azimuth_deg", "path")),
                                        float(_require(p, "delay_ns", "path")),
                                        float(p.get("phase_deg", 0.0)))
            for p in _path_entries(data)])
        scan = {**_SCAN_DEFAULTS, **(_section(data, "scan") or {})}
        est = {**_ESTIMATOR_DEFAULTS, **(_section(data, "estimator") or {})}
        taper = _section(data, "taper")
        if taper is not None and taper.get("kind", "chebyshev") != "chebyshev":
            raise ScenarioError(f"unsupported taper kind {taper.get('kind')!r}")
        steer_cfg = _section(data, "steer")
        noise = _section(data, "noise") or {}
        cmp_cfg = {**_COMPARE_DEFAULTS, **(_section(data, "compare") or {})}
        scenario = Scenario(
            freqs=freqs, ura=ura, ma=ma, paths=paths,
            scan_theta=tuple(float(x) for x in scan["theta"]),
            scan_phi=tuple(float(x) for x in scan["phi"]),
            epsilon_db=float(est["epsilon_db"]),
            max_iterations=int(est["max_iterations"]),
            pad_factor=int(est["pad_factor"]),
            gate_db=None if est["gate_db"] is None else float(est["gate_db"]),
            taper_sidelobe_db=(None if taper is None
                               else float(_require(taper, "sidelobe_db", "taper"))),
            steer_uv=(None if steer_cfg is None
                      else (float(_require(steer_cfg, "u0", "steer")),
                            float(_require(steer_cfg, "v0", "steer")))),
            snr_db=None if noise.get("snr_db") is None else float(noise["snr_db"]),
            compare_theta_deg=float(cmp_cfg["theta_deg"]),
            compare_window=cmp_cfg["window"],
            compare_dynamic_range_db=float(cmp_cfg["dynamic_range_db"]),
            compare_min_separation=int(cmp_cfg["min_separation"]),
            pattern_lattice=int(data.get("pattern_lattice", 512)),
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
