"""Successive interference cancellation estimator for MA channel sounding.

Each iteration detects the strongest beam maximum at the center frequency
and walks the maxima of the residual angle-delay profile as path candidates.
A candidate is tested on the two sub-array line spectra steered at its
direction and gated around its halved delay: the amplitude of their gated
product must reach the profile level, which a cross-product maximum does
not. Only the candidate that passes is fitted: its delay is refined on the
sum of the gated spectra, and its phase is that of their projection there.
The path is regenerated on every element and subtracted; the cross
products it spawned vanish with it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .beamform import (DB_FLOOR, BeamPattern, NoPeakError, cbf_ma, cfr_to_cir,
                       check_ma_pair, cir_to_cfr, descending_cells, line_spectrum, padp_ma)
# gen_ma_cfr stays bound here, where perfbench traces it.
from .channel import CfrSet, gen_ma_axis_cfr, gen_ma_cfr  # noqa: F401
from .geometry import (Direction, FrequencyGrid, MaGeometry, PathComponent,
                       ScanGrid, uv_map, wrap_azimuth)

# A profile maximum whose gated amplitude falls this far below the profile
# level is a cross-product artifact (no single-axis support); it is skipped
# in favour of the next maximum.
CONSISTENCY_MARGIN_DB = 6.0

# Probability that some cell of a pure-noise profile clears the noise floor
# (noise_floor_db), so that a noise-only residual yields a candidate.
FALSE_ALARM_PROBABILITY = 0.01


@dataclass(frozen=True)
class EstimatorConfig:
    scan: ScanGrid
    epsilon_db: float = 30.0
    max_iterations: int = 20
    gate_db: float | None = None  # defaults to epsilon_db
    pad_factor: int = 4

    def __post_init__(self):
        for name in ("epsilon_db",) if self.gate_db is None else ("epsilon_db", "gate_db"):
            level = getattr(self, name)
            if (isinstance(level, bool) or not isinstance(level, numbers.Real)
                    or not (math.isfinite(level) and level > 0)):
                raise ValueError(f"{name} must be finite and positive")
        for name in ("max_iterations", "pad_factor"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
                raise ValueError(f"{name} must be an integer >= 1")


@dataclass(frozen=True)
class EstimatedPath:
    amplitude: complex
    direction: Direction
    delay_s: float
    iteration: int
    residual_energy_after: float

    @property
    def amplitude_db(self) -> float:
        return 20.0 * math.log10(abs(self.amplitude))


@dataclass(frozen=True)
class IterationDiagnostics:
    iteration: int
    beam_peak_db: float
    padp_peak_db: float
    amplitude_db: float
    gate_bins: int
    gate_span_s: tuple[float, float]
    accepted: bool
    candidates_skipped: int = 0


@dataclass(frozen=True)
class EstimationReport:
    paths: tuple[EstimatedPath, ...]
    stop_reason: str  # 'dynamic-range' | 'below-noise-floor' | 'max-iterations'
    diagnostics: tuple[IterationDiagnostics, ...] = field(default_factory=tuple)


def detect_strongest(beam: BeamPattern) -> Direction:
    """Direction of the global beam maximum; ties go to lowest phi, then theta."""
    mag = np.abs(beam.values).T
    c, r = np.unravel_index(np.argmax(mag), mag.shape)
    if mag[c, r] <= 0:
        raise NoPeakError("beam pattern is identically zero")
    return Direction(float(beam.theta_deg[r]), wrap_azimuth(float(beam.phi_deg[c])))


def build_label_vector(synthetic_cir: np.ndarray, epsilon_db: float) -> np.ndarray:
    """Binary delay gate: 1 where the unit-amplitude synthetic response
    exceeds the threshold 10^(-eps/20) of its own maximum.

    Path delays are element-independent, so the 1-D delay response of a
    unit path gives one gate for every element and both line spectra.
    """
    mag = np.abs(np.asarray(synthetic_cir))
    if mag.ndim != 1:
        raise ValueError("the synthetic impulse response must be 1-D")
    top = mag.max()
    if top <= 0:
        raise NoPeakError("synthetic impulse response is identically zero")
    return mag > top * 10.0 ** (-epsilon_db / 20.0)


def extract_path_cir(residual_cir: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """Zero every delay bin outside the gate."""
    residual_cir = np.asarray(residual_cir)
    gate = np.asarray(gate, bool)
    if residual_cir.shape[-1] != gate.shape[-1]:
        raise ValueError("gate and impulse response must share the delay axis")
    return residual_cir * gate


_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


def _golden_max(f, a: float, b: float, xatol: float) -> float:
    """Maximizer of a unimodal f on [a, b] by golden-section search (Kiefer
    1953). Each step keeps the sub-bracket around the better of two inner
    points, which shrinks the bracket by 1/phi and reuses the other point.
    It stops once the bracket is xatol wide or no longer shrinks, as when
    xatol is below the spacing of the floats in it."""
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    width = math.inf
    while xatol < b - a < width:
        width = b - a
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return c if fc >= fd else d


def refine_delay(gated_x: np.ndarray, gated_y: np.ndarray, freqs: FrequencyGrid,
                 tau_hat: float, pad_factor: int = 4) -> tuple[float, complex]:
    """Sub-bin delay refinement around the profile peak, and the projection
    exp(j 2 pi f tau) . (g_x + g_y) of a single-delay model onto the gated
    line spectra at the refined delay.

    The padded delay axis quantizes the peak to a finite bin; the leftover
    offset turns into a phase ramp across the band that caps how deep the
    later subtraction can cancel. Maximizing |projection| over a one-bin
    window removes that quantization, and its phase is the path's. The
    window ends below half the unambiguous delay, which no path may reach.
    The search ends within 1e-18 s, which moves the phase by 2 pi f 1e-18,
    2e-7 rad at 30 GHz.
    """
    spectrum = gated_x + gated_y
    w = 2j * np.pi * freqs.points

    def project(t):
        return np.exp(w * t) @ spectrum
    if np.abs(spectrum).max() <= DB_FLOOR:
        return tau_hat, project(tau_hat)
    bin_s = 1.0 / (freqs.n_points * pad_factor * freqs.spacing_hz)
    limit = 0.5 * freqs.unambiguous_delay_s
    tau = _golden_max(lambda t: abs(project(t)), max(tau_hat - bin_s, 0.0),
                      min(tau_hat + bin_s, float(np.nextafter(limit, 0.0))), xatol=1e-18)
    return tau, project(tau)


def estimate_power(gated_x: np.ndarray, gated_y: np.ndarray, freqs: FrequencyGrid,
                   geometry: MaGeometry, pad_factor: int = 4) -> float:
    """Magnitude of the gated single-path response: the square root of the
    gated MA profile's peak, cfr_to_cir(g_x g_y) / (N_x N_y), as a true MA
    term carries the squared amplitude. It does not depend on the delay
    estimate, so it tests a candidate before any fit. NoPeakError is raised
    when the peak is below the numerical floor.
    """
    profile = np.abs(cfr_to_cir(gated_x * gated_y, freqs, pad_factor))
    peak = float(profile.max()) / (geometry.x_count * geometry.y_count)
    if peak <= DB_FLOOR:
        raise NoPeakError("gated response peak is below the numerical floor")
    return math.sqrt(peak)


def subtract_path(residual: CfrSet, path: PathComponent,
                  out: np.ndarray | None = None) -> CfrSet:
    """Regenerate the path's CFR on the residual's MA sub-array and subtract
    it. The new residual is written into out, which may be the residual's
    own values, or else into the regenerated path's buffer; the residual
    passed in is never written unless out is its values."""
    regenerated = gen_ma_axis_cfr([path], residual.layout, residual.geometry, residual.freqs,
                                  residual.narrowband_phase, residual.ref_freq_hz).values
    return residual.with_values(np.subtract(residual.values, regenerated,
                                            out=regenerated if out is None else out))


def noise_floor_db(level: np.ndarray, pad_factor: int) -> float:
    """Ordered-statistic CFAR floor (Rohling 1983) of an MA profile's level:
    the median of its unpadded delay bins, every pad_factor-th, plus the
    margin by which the largest of those M cells exceeds their median with
    probability FALSE_ALARM_PROBABILITY when each is a complex-Gaussian
    noise cell. |c| is then Rayleigh, and the margin is the ratio of its
    1 - P/M quantile to its median, 5 log10(ln(M/P) / ln 2) dB in the
    profile's 10 log10|c| convention. The padded bins interpolate between
    the unpadded ones, so only the latter are independent cells."""
    sample = level[::pad_factor]
    m = sample.size
    median = np.partition(sample, m // 2, axis=None)[m // 2]
    return float(median) + 5.0 * math.log10(math.log(m / FALSE_ALARM_PROBABILITY)
                                            / math.log(2.0))


def _find_path(rx: CfrSet, ry: CfrSet, config: EstimatorConfig, q: int, snapshot_hook):
    """Iteration q up to the subtraction: detect, then test the profile's
    maxima one at a time in descending order and fit the first that passes.
    Returns the fitted path and the IterationDiagnostics fields known by
    then, or the stop reason when nothing is left to detect:
    'below-noise-floor' when the walk ends at the profile's noise_floor_db,
    so that no cell above it is left, 'dynamic-range' when it ends
    epsilon_db below the profile's peak. Nothing outlives the call: the
    beam, the profile and each candidate's gate die on return."""
    freqs = rx.freqs
    pad = config.pad_factor
    gate_db = config.epsilon_db if config.gate_db is None else config.gate_db
    beam = cbf_ma(rx, ry, config.scan, freqs.f_center_hz)
    if np.abs(beam.values).max() <= DB_FLOOR:
        return "dynamic-range"
    coarse = detect_strongest(beam)
    padp = padp_ma(rx, ry, coarse.theta_deg, config.scan.phi_deg, pad)
    if snapshot_hook is not None:
        snapshot_hook(q, padp)
    level, delay_s, phi_deg = padp.level, padp.delay_s, padp.phi_deg
    padp_peak_db = float(level.max())
    range_db = padp_peak_db - config.epsilon_db
    noise_db = noise_floor_db(level, pad)
    # The walk ends at the dynamic range or at the noise floor, whichever is
    # higher, and an exhausted walk names the one it ended at.
    stop = "below-noise-floor" if noise_db > range_db else "dynamic-range"
    cells = descending_cells(level, max(range_db, noise_db), (2 * pad, 3))
    for skipped, (r, c) in enumerate(cells):
        direction = Direction(coarse.theta_deg, wrap_azimuth(float(phi_deg[c])))
        uv = uv_map(direction)
        # bin r's gate is that of a unit path at its halved delay
        kernel = cfr_to_cir(np.exp(-2j * np.pi * freqs.points * (delay_s[r] / 2.0)), freqs, pad)
        gate = build_label_vector(kernel, gate_db)
        gx, gy = (cir_to_cfr(extract_path_cir(cfr_to_cir(spectrum, freqs, pad), gate), freqs, pad)
                  for spectrum in (line_spectrum(rx, uv.u), line_spectrum(ry, uv.v)))
        try:
            magnitude = estimate_power(gx, gy, freqs, rx.geometry, pad)
        except NoPeakError:
            continue
        # A cross-product artifact is strong in the product profile, but has
        # no single-axis support at the halved delay. The walk skips it; it
        # disappears once its parent paths are subtracted.
        if 20.0 * math.log10(magnitude) < level[r, c] - CONSISTENCY_MARGIN_DB:
            continue
        tau_hat, inner = refine_delay(gx, gy, freqs, float(delay_s[r]) / 2.0, pad)
        if abs(inner) <= DB_FLOOR:
            continue
        phase = float(np.angle(inner))
        alpha = magnitude * complex(math.cos(phase), math.sin(phase))
        bins = np.nonzero(gate)[0]
        return PathComponent(alpha, direction, tau_hat), dict(
            beam_peak_db=float(beam.level_db().max()), padp_peak_db=padp_peak_db,
            gate_bins=len(bins), gate_span_s=(float(delay_s[bins[0]]), float(delay_s[bins[-1]])),
            candidates_skipped=skipped)
    return stop


def run_sic(cfr_x: CfrSet, cfr_y: CfrSet, config: EstimatorConfig,
            snapshot_hook=None) -> EstimationReport:
    """Iterate detect -> test each candidate -> fit the one that passes ->
    subtract until the next path falls outside the dynamic range, no
    candidate is left above the residual profile's noise floor, or the
    iteration cap is reached. The reference amplitude is frozen at the first
    detected path.
    snapshot_hook(q, padp), when given, receives the residual angle-delay
    profile at the start of each iteration: a Padp, which holds the
    profile's level in dB, not its complex values."""
    check_ma_pair(cfr_x, cfr_y, "run_sic")
    if not (np.isfinite(cfr_x.values).all() and np.isfinite(cfr_y.values).all()):
        raise ValueError("input CFR has non-finite values")
    if cfr_x.total_power() == 0 and cfr_y.total_power() == 0:
        raise NoPeakError("input CFR is identically zero")
    # The inputs are named here only as the first residuals, so a caller that
    # keeps no names for them frees each at its first subtraction. That one
    # writes the new residual into the regenerated path's buffer, and every
    # later subtraction writes into that residual in place.
    rx, ry = cfr_x, cfr_y
    del cfr_x, cfr_y
    alpha_max: float | None = None
    paths: list[EstimatedPath] = []
    diags: list[IterationDiagnostics] = []
    stop_reason = "max-iterations"
    for q in range(config.max_iterations):
        found = _find_path(rx, ry, config, q, snapshot_hook)
        if isinstance(found, str):
            stop_reason = found
            break
        path, diagnostics = found
        magnitude = abs(path.amplitude)
        if alpha_max is None:
            alpha_max = magnitude
        accepted = magnitude > alpha_max * 10.0 ** (-config.epsilon_db / 20.0) or q == 0
        diags.append(IterationDiagnostics(
            iteration=q + 1,
            amplitude_db=20.0 * math.log10(max(magnitude, DB_FLOOR)),
            accepted=accepted,
            **diagnostics,
        ))
        if not accepted:
            stop_reason = "dynamic-range"
            break
        # one statement per sub-array: the old x residual dies before y's
        # path is regenerated
        rx = subtract_path(rx, path, out=rx.values if paths else None)
        ry = subtract_path(ry, path, out=ry.values if paths else None)
        residual_energy = rx.total_power() + ry.total_power()
        paths.append(EstimatedPath(path.amplitude, path.direction, path.delay_s, q + 1,
                                   residual_energy))
    return EstimationReport(tuple(paths), stop_reason, tuple(diags))
