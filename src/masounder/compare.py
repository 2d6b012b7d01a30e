"""URA-vs-MA estimation comparison on a shared synthetic channel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamform import Peak, find_peaks, padp_ura
from .channel import add_noise, gen_ma_cfr, gen_ura_cfr
from .scenario import Scenario, ScenarioError
from .sic import EstimatedPath, run_sic


def _wrap_deg(d: float) -> float:
    """An azimuth difference wrapped into [-180, 180]; exact for |d| < 180."""
    return d - 360.0 * round(d / 360.0)


@dataclass(frozen=True)
class ComparisonRow:
    """A URA PADP peak and the MA SIC path matched to it."""

    index: int
    ura: Peak
    ma: EstimatedPath

    @property
    def errors(self) -> tuple[float, float, float]:
        """(delay in ns, azimuth in deg, power in dB) differences, MA minus URA;
        the azimuth difference is taken the short way round the circle."""
        return (self.ma.delay_s * 1e9 - self.ura.delay_s * 1e9,
                _wrap_deg(self.ma.direction.phi_deg - self.ura.phi_deg),
                self.ma.amplitude_db - self.ura.level_db)


@dataclass(frozen=True)
class ComparisonResult:
    rows: tuple[ComparisonRow, ...]
    ura_count: int
    ma_count: int

    @property
    def count_mismatch(self) -> bool:
        return self.ura_count != self.ma_count


def _ura_peaks(scenario: Scenario, seed: int) -> list[Peak]:
    """Peaks of the URA's PADP cut, strongest first, at most one per path. The
    URA CFR and its PADP die on return, before the MA is sounded."""
    cfr = gen_ura_cfr(scenario.paths, scenario.ura, scenario.freqs)
    if scenario.snr_db is not None:
        cfr = add_noise(cfr, scenario.snr_db, seed)
    padp = padp_ura(cfr, scenario.compare_theta_deg, scenario.scan_grid().phi_deg,
                    scenario.pad_factor, taper=scenario.ura_taper(),
                    window=scenario.compare_window)
    return find_peaks(padp, scenario.compare_dynamic_range_db,
                      scenario.compare_min_separation)[:len(scenario.paths)]


def compare_arrays(scenario: Scenario, seed: int = 0) -> ComparisonResult:
    """Run URA CBF extraction and MA SIC on the same synthetic channel.

    Rows are aligned by nearest (delay, azimuth); a count mismatch between
    the two estimators is flagged rather than fatal.
    """
    if scenario.ura is None or scenario.ma is None:
        raise ScenarioError("comparison needs both URA and MA geometries")
    if len(scenario.paths) == 0:
        raise ScenarioError("comparison needs at least one path")
    ura_peaks = _ura_peaks(scenario, seed)
    ma_x, ma_y = gen_ma_cfr(scenario.paths, scenario.ma, scenario.freqs)
    if scenario.snr_db is not None:
        ma_x = add_noise(ma_x, scenario.snr_db, seed + 1)
        ma_y = add_noise(ma_y, scenario.snr_db, seed + 2)
    report = run_sic(ma_x, ma_y, scenario.estimator_config())

    delay_scale = 1.0 / scenario.freqs.bandwidth_hz  # one resolution bin
    phi_scale = scenario.scan_phi[2]
    remaining = list(report.paths)
    rows = []
    for i, peak in enumerate(ura_peaks):
        if not remaining:
            break
        dist = [abs(mp.delay_s - peak.delay_s) / delay_scale +
                abs(_wrap_deg(mp.direction.phi_deg - peak.phi_deg)) / phi_scale
                for mp in remaining]
        rows.append(ComparisonRow(i + 1, peak, remaining.pop(int(np.argmin(dist)))))
    return ComparisonResult(tuple(rows), len(ura_peaks), len(report.paths))
