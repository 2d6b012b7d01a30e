"""Successive interference cancellation estimator for MA channel sounding.

Each iteration detects the strongest beam maximum at the center frequency
and tries the maxima of the residual angle-delay profile as path candidates.
A candidate is tested on the two sub-array line spectra steered at its
direction: both are gated around its halved delay, which is refined on
their sum, and its amplitude comes from their gated product. A cross-product
maximum has no single-axis support there and is skipped. An accepted path
is regenerated on every element and subtracted; the cross products it
spawned vanish with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beamform import (BeamPattern, NoPeakError, cbf_ma, cfr_to_cir, check_ma_pair,
                       cir_to_cfr, descending_cells, line_spectrum, padp_ma)
from .channel import CfrSet, PathSet, gen_ma_cfr
from .geometry import (Direction, FrequencyGrid, MaGeometry, PathComponent,
                       ScanGrid, delay_axis, uv_map)

# A profile maximum whose gated amplitude falls this far below the profile
# level is a cross-product artifact (no single-axis support); it is skipped
# in favour of the next maximum.
CONSISTENCY_MARGIN_DB = 6.0


@dataclass(frozen=True)
class EstimatorConfig:
    scan: ScanGrid
    epsilon_db: float = 30.0
    max_iterations: int = 20
    gate_db: float | None = None  # defaults to epsilon_db
    pad_factor: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.epsilon_db) and self.epsilon_db > 0):
            raise ValueError("epsilon_db must be finite and positive")
        if self.gate_db is not None and not (math.isfinite(self.gate_db)
                                             and self.gate_db > 0):
            raise ValueError("gate_db must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.pad_factor < 1:
            raise ValueError("pad_factor must be >= 1")


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
    stop_reason: str  # 'dynamic-range' | 'max-iterations'
    diagnostics: tuple[IterationDiagnostics, ...] = field(default_factory=tuple)


def detect_strongest(beam: BeamPattern) -> Direction:
    """Direction of the global beam maximum; ties go to lowest phi, then theta."""
    mag = np.abs(beam.values).T
    c, r = np.unravel_index(np.argmax(mag), mag.shape)
    if mag[c, r] <= 0:
        raise NoPeakError("beam pattern is identically zero")
    return Direction(float(beam.theta_deg[r]), float(beam.phi_deg[c]) % 360.0)


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


def refine_delay(gated_x: np.ndarray, gated_y: np.ndarray, freqs: FrequencyGrid,
                 tau_hat: float, pad_factor: int = 4) -> float:
    """Sub-bin delay refinement around the profile peak.

    The padded delay axis quantizes the peak to a finite bin; the leftover
    offset turns into a phase ramp across the band that caps how deep the
    later subtraction can cancel. Maximizing |exp(j 2 pi f tau) . (g_x + g_y)|,
    the projection of a single-delay model onto the gated line spectra,
    over a one-bin window removes that quantization. The window ends below
    half the unambiguous delay, which no path delay may reach.
    """
    spectrum = gated_x + gated_y
    if np.abs(spectrum).max() <= 1e-30:
        return tau_hat
    f = freqs.points
    bin_s = 1.0 / (freqs.n_points * pad_factor * freqs.spacing_hz)
    limit = 0.5 * freqs.unambiguous_delay_s
    # Imported here: scipy.optimize takes longer to import than the rest of
    # the package, and only estimation needs it.
    from scipy.optimize import minimize_scalar
    w = 2j * np.pi * f
    result = minimize_scalar(
        lambda t: -abs(np.exp(w * t) @ spectrum),
        bounds=(max(tau_hat - bin_s, 0.0),
                min(tau_hat + bin_s, float(np.nextafter(limit, 0.0)))),
        method="bounded", options={"xatol": 1e-15})
    return float(result.x)


def estimate_power(gated_x: np.ndarray, gated_y: np.ndarray, freqs: FrequencyGrid,
                   tau_hat: float, geometry: MaGeometry,
                   pad_factor: int = 4) -> complex:
    """Complex amplitude of the gated single-path response.

    The magnitude is the square root of the gated MA profile's peak,
    cfr_to_cir(g_x g_y) / (N_x N_y), as a true MA term carries the squared
    amplitude. The phase is that of the unit-path projection
    exp(j 2 pi f tau) . (g_x + g_y): it absorbs the phase offset of the
    finite delay-bin resolution, so the later subtraction is a
    least-squares fit rather than a bin-quantized one.
    """
    profile = np.abs(cfr_to_cir(gated_x * gated_y, freqs, pad_factor))
    peak = profile.max() / (geometry.x_count * geometry.y_count)
    if peak <= 1e-30:
        raise NoPeakError("gated response peak is below the numerical floor")
    magnitude = math.sqrt(peak)
    inner = np.exp(2j * np.pi * freqs.points * tau_hat) @ (gated_x + gated_y)
    if abs(inner) <= 1e-30:
        raise NoPeakError("gated response does not project onto the model path")
    phase = float(np.angle(inner))
    return magnitude * complex(math.cos(phase), math.sin(phase))


def subtract_path(residual_x: CfrSet, residual_y: CfrSet,
                  path: PathComponent) -> tuple[CfrSet, CfrSet]:
    """Regenerate the path's CFR on both sub-arrays and subtract it."""
    hx, hy = gen_ma_cfr(PathSet([path]), residual_x.geometry, residual_x.freqs,
                        narrowband_phase=residual_x.narrowband_phase,
                        ref_freq_hz=residual_x.ref_freq_hz)
    return (residual_x.with_values(residual_x.values - hx.values),
            residual_y.with_values(residual_y.values - hy.values))


def _gate_diag(gate: np.ndarray, delays: np.ndarray) -> tuple[int, tuple[float, float]]:
    idx = np.nonzero(gate)[0]
    return len(idx), (float(delays[idx[0]]), float(delays[idx[-1]]))


def _gated_spectrum(cfr: CfrSet, cosine: float, gate: np.ndarray,
                    pad_factor: int) -> np.ndarray:
    """Line spectrum of cfr steered at cosine, with every delay bin outside
    the gate zeroed."""
    cir = cfr_to_cir(line_spectrum(cfr, cosine), cfr.freqs, pad_factor)
    return cir_to_cfr(extract_path_cir(cir, gate), cfr.freqs, pad_factor)


def run_sic(cfr_x: CfrSet, cfr_y: CfrSet, config: EstimatorConfig,
            snapshot_hook=None) -> EstimationReport:
    """Iterate detect -> gate -> refine -> estimate -> subtract until the
    next candidate falls outside the dynamic range or the iteration cap is
    reached. The reference amplitude is frozen at the first detected path.
    snapshot_hook(q, padp), when given, receives the residual angle-delay
    profile at the start of each iteration."""
    check_ma_pair(cfr_x, cfr_y, "run_sic")
    if not (np.isfinite(cfr_x.values).all() and np.isfinite(cfr_y.values).all()):
        raise ValueError("input CFR has non-finite values")
    if cfr_x.total_power() == 0 and cfr_y.total_power() == 0:
        raise NoPeakError("input CFR is identically zero")
    freqs = cfr_x.freqs
    pad = config.pad_factor
    gate_db = config.epsilon_db if config.gate_db is None else config.gate_db
    delays = delay_axis(freqs, pad)
    rx, ry = cfr_x, cfr_y
    alpha_max: float | None = None
    paths: list[EstimatedPath] = []
    diags: list[IterationDiagnostics] = []
    stop_reason = "max-iterations"
    for q in range(config.max_iterations):
        beam = cbf_ma(rx, ry, config.scan, freqs.f_center_hz)
        if np.abs(beam.values).max() <= 1e-30:
            stop_reason = "dynamic-range"
            break
        coarse = detect_strongest(beam)
        padp = padp_ma(rx, ry, coarse.theta_deg, config.scan.phi_deg, pad)
        if snapshot_hook is not None:
            snapshot_hook(q, padp)
        level = padp.level_db()
        found = None
        skipped = 0
        for r, c in descending_cells(level, level.max() - config.epsilon_db,
                                     (2 * pad, 3)):
            tau_hat = float(padp.delay_s[r]) / 2.0
            direction = Direction(coarse.theta_deg, float(padp.phi_deg[c]) % 360.0)
            uv = uv_map(direction)
            kernel = cfr_to_cir(np.exp(-2j * np.pi * freqs.points * tau_hat), freqs, pad)
            gate = build_label_vector(kernel, gate_db)
            gx = _gated_spectrum(rx, uv.u, gate, pad)
            gy = _gated_spectrum(ry, uv.v, gate, pad)
            tau_hat = refine_delay(gx, gy, freqs, tau_hat, pad)
            try:
                alpha = estimate_power(gx, gy, freqs, tau_hat, rx.geometry, pad)
            except NoPeakError:
                alpha = None
            if (alpha is not None and 20.0 * math.log10(abs(alpha))
                    >= level[r, c] - CONSISTENCY_MARGIN_DB):
                found = (direction, tau_hat, alpha, gate)
                break
            # Cross-product artifact: strong in the product profile, but no
            # single-axis support at the halved delay. The walk hides it and
            # moves on; it disappears once its parent paths are subtracted.
            skipped += 1
        if found is None:
            stop_reason = "dynamic-range"
            break
        direction, tau_hat, alpha, gate = found
        magnitude = abs(alpha)
        if alpha_max is None:
            alpha_max = magnitude
        gate_bins, gate_span = _gate_diag(gate, delays)
        accepted = magnitude > alpha_max * 10.0 ** (-config.epsilon_db / 20.0) or q == 0
        diags.append(IterationDiagnostics(
            iteration=q + 1,
            beam_peak_db=float(beam.level_db().max()),
            padp_peak_db=float(level.max()),
            amplitude_db=20.0 * math.log10(max(magnitude, 1e-30)),
            gate_bins=gate_bins,
            gate_span_s=gate_span,
            accepted=accepted,
            candidates_skipped=skipped,
        ))
        if not accepted:
            stop_reason = "dynamic-range"
            break
        rx, ry = subtract_path(rx, ry, PathComponent(alpha, direction, tau_hat))
        residual_energy = rx.total_power() + ry.total_power()
        paths.append(EstimatedPath(alpha, direction, tau_hat, q + 1, residual_energy))
    return EstimationReport(tuple(paths), stop_reason, tuple(diags))
