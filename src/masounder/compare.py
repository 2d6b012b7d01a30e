"""URA-vs-MA estimation comparison on a shared synthetic channel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamform import find_peaks, padp_ura
from .channel import CfrSet, add_noise, gen_ma_cfr, gen_ura_cfr
from .scenario import Scenario, ScenarioError
from .sic import run_sic


@dataclass(frozen=True)
class UraPathEstimate:
    power_db: float
    azimuth_deg: float
    delay_s: float


@dataclass(frozen=True)
class ComparisonRow:
    index: int
    ura_delay_ns: float
    ura_azimuth_deg: float
    ura_power_db: float
    ma_delay_ns: float
    ma_azimuth_deg: float
    ma_power_db: float

    @property
    def errors(self) -> tuple[float, float, float]:
        """(delay, azimuth, power) differences, MA minus URA."""
        return (self.ma_delay_ns - self.ura_delay_ns,
                self.ma_azimuth_deg - self.ura_azimuth_deg,
                self.ma_power_db - self.ura_power_db)


def ura_cbf_estimate(cfr: CfrSet, theta_deg: float, phi_axis: np.ndarray,
                     pad_factor: int = 4, dynamic_range_db: float = 25.0,
                     taper=None, window=None, min_separation: int = 6,
                     max_paths: int | None = None) -> list[UraPathEstimate]:
    """Peak extraction on the URA angle-delay profile at one elevation."""
    padp = padp_ura(cfr, theta_deg, phi_axis, pad_factor, taper=taper,
                    window=window)
    peaks = find_peaks(padp, dynamic_range_db, min_separation)
    if max_paths is not None:
        peaks = peaks[:max_paths]
    return [UraPathEstimate(p.level_db, p.phi_deg, p.delay_s) for p in peaks]


@dataclass(frozen=True)
class ComparisonResult:
    rows: tuple[ComparisonRow, ...]
    ura_count: int
    ma_count: int

    @property
    def count_mismatch(self) -> bool:
        return self.ura_count != self.ma_count


def compare_arrays(scenario: Scenario, seed: int = 0) -> ComparisonResult:
    """Run URA CBF extraction and MA SIC on the same synthetic channel.

    Rows are aligned by nearest (delay, azimuth); a count mismatch between
    the two estimators is flagged rather than fatal.
    """
    if scenario.ura is None or scenario.ma is None:
        raise ScenarioError("comparison needs both URA and MA geometries")
    if len(scenario.paths) == 0:
        raise ScenarioError("comparison needs at least one path")
    ura_cfr = gen_ura_cfr(scenario.paths, scenario.ura, scenario.freqs)
    ma_x, ma_y = gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs)
    if scenario.snr_db is not None:
        ura_cfr = add_noise(ura_cfr, scenario.snr_db, seed)
        ma_x = add_noise(ma_x, scenario.snr_db, seed + 1)
        ma_y = add_noise(ma_y, scenario.snr_db, seed + 2)

    grid = scenario.scan_grid()
    ura_paths = ura_cbf_estimate(
        ura_cfr, scenario.compare_theta_deg, grid.phi_deg,
        pad_factor=scenario.pad_factor,
        dynamic_range_db=scenario.compare_dynamic_range_db,
        taper=scenario.ura_taper(), window=scenario.compare_window,
        min_separation=scenario.compare_min_separation,
        max_paths=len(scenario.paths))

    report = run_sic(ma_x, ma_y, scenario.estimator_config())

    delay_scale = 1.0 / scenario.freqs.bandwidth_hz  # one resolution bin
    phi_scale = scenario.scan_phi[2]
    remaining = list(report.paths)
    rows = []
    for i, up in enumerate(ura_paths):
        if not remaining:
            break
        dist = [abs(mp.delay_s - up.delay_s) / delay_scale +
                abs(mp.direction.phi_deg - up.azimuth_deg) / phi_scale
                for mp in remaining]
        mp = remaining.pop(int(np.argmin(dist)))
        rows.append(ComparisonRow(
            index=i + 1,
            ura_delay_ns=up.delay_s * 1e9,
            ura_azimuth_deg=up.azimuth_deg,
            ura_power_db=up.power_db,
            ma_delay_ns=mp.delay_s * 1e9,
            ma_azimuth_deg=mp.direction.phi_deg,
            ma_power_db=mp.amplitude_db))
    return ComparisonResult(tuple(rows), len(ura_paths), len(report.paths))
