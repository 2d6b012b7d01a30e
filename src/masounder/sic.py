"""Successive interference cancellation estimator for MA channel sounding.

Each iteration detects the strongest beam maximum at the center frequency,
refines azimuth and (halved) delay on the angle-delay profile, gates the
residual impulse response around the detected delay, estimates the path
amplitude from the gated response, reconstructs the path's CFR and
subtracts it. Fake cross-product paths vanish together with the true path
that spawned them, so the strongest residual maximum is always a true path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beamform import (BeamPattern, NoPeakError, cbf_ma, cfr_to_cir, cir_to_cfr,
                       padp_ma)
from .channel import CfrSet, PathSet, gen_ma_cfr
from .geometry import Direction, PathComponent, ScanGrid, delay_axis, uv_map

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
        if self.epsilon_db <= 0:
            raise ValueError("epsilon_db must be positive")
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
    joint_capture: bool
    accepted: bool
    candidates_skipped: int = 0


@dataclass(frozen=True)
class EstimationReport:
    paths: tuple[EstimatedPath, ...]
    stop_reason: str  # 'dynamic-range' | 'max-iterations'
    diagnostics: tuple[IterationDiagnostics, ...] = field(default_factory=tuple)


def detect_strongest(beam: BeamPattern) -> Direction:
    """Direction of the global beam maximum; ties go to lowest phi, then theta."""
    mag = np.abs(beam.values)
    top = mag.max()
    if top <= 0:
        raise NoPeakError("beam pattern is identically zero")
    rows, cols = np.nonzero(mag == top)
    k = np.lexsort((rows, cols))[0]
    return Direction(float(beam.theta_deg[rows[k]]), float(beam.phi_deg[cols[k]]) % 360.0)


def _argmax_cell(level: np.ndarray) -> tuple[int, int]:
    """Cell of the grid maximum; ties go to the lowest row, then column."""
    rows, cols = np.nonzero(level == level.max())
    k = np.lexsort((cols, rows))[0]
    return int(rows[k]), int(cols[k])


def build_label_vector(synthetic_cir: np.ndarray, epsilon_db: float) -> np.ndarray:
    """Binary delay gate: 1 where the unit-amplitude synthetic response
    exceeds the threshold 10^(-eps/20) of its own maximum.

    Path delays are element-independent, so a single gate serves every
    element row; a 2D input is reduced over elements first.
    """
    mag = np.abs(np.asarray(synthetic_cir))
    if mag.ndim == 2:
        mag = mag.mean(axis=0)
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


def _linear_axis_profile(cfr: CfrSet, cosine: float, indices: np.ndarray,
                         pad_factor: int) -> np.ndarray:
    """Beamformed single-axis delay profile; linear in the path amplitude."""
    steer = np.exp(-2j * np.pi * cfr.geometry.d_wl * indices * cosine)
    spectrum = steer @ cfr.values / indices.size
    return cfr_to_cir(spectrum, cfr.freqs, pad_factor)


def refine_delay(extracted_x: CfrSet, extracted_y: CfrSet, theta_hat: float,
                 phi_hat: float, tau_hat: float, pad_factor: int = 4) -> float:
    """Sub-bin delay refinement around the profile peak.

    The padded delay axis quantizes the peak to a finite bin; the leftover
    offset turns into a phase ramp across the band that caps how deep the
    later subtraction can cancel. Maximizing the projection of a steered
    single-delay model onto the gated response over a one-bin window
    removes that quantization.
    """
    uv = uv_map(Direction(theta_hat, phi_hat))
    f = extracted_x.freqs.points
    steer_x = np.exp(-2j * np.pi * extracted_x.geometry.d_wl
                     * extracted_x.geometry.x_indices * uv.u)
    steer_y = np.exp(-2j * np.pi * extracted_y.geometry.d_wl
                     * extracted_y.geometry.y_indices * uv.v)
    spectrum = steer_x @ extracted_x.values + steer_y @ extracted_y.values
    if np.abs(spectrum).max() <= 1e-30:
        return tau_hat
    bin_s = 1.0 / (extracted_x.freqs.n_points * pad_factor
                   * extracted_x.freqs.spacing_hz)
    # Imported here: scipy.optimize takes longer to import than the rest of
    # the package, and only estimation needs it.
    from scipy.optimize import minimize_scalar
    result = minimize_scalar(
        lambda t: -abs(np.exp(2j * np.pi * f * t) @ spectrum),
        bounds=(max(tau_hat - bin_s, 0.0), tau_hat + bin_s),
        method="bounded", options={"xatol": 1e-15})
    return float(result.x)


def estimate_power(extracted_x: CfrSet, extracted_y: CfrSet, theta_hat: float,
                   phi_hat: float, tau_hat: float,
                   pad_factor: int = 4) -> complex:
    """Complex amplitude of the gated single-path response.

    The magnitude is the square root of the MA profile peak (a true MA term
    carries the squared amplitude). The phase is taken from the projection
    of a unit-amplitude model of the detected path onto the gated response:
    the projection is linear in the amplitude and absorbs the phase offset
    caused by the finite delay-bin resolution, so the later subtraction is
    a least-squares fit rather than a bin-quantized one.
    """
    padp = padp_ma(extracted_x, extracted_y, theta_hat, np.array([phi_hat]),
                   pad_factor)
    profile = np.abs(padp.values[:, 0])
    peak = profile.max()
    if peak <= 1e-30:
        raise NoPeakError("gated response peak is below the numerical floor")
    magnitude = math.sqrt(peak)
    model = PathComponent(1.0 + 0j, Direction(theta_hat, phi_hat), tau_hat)
    mx, my = gen_ma_cfr(PathSet([model]), extracted_x.geometry,
                        extracted_x.freqs,
                        narrowband_phase=extracted_x.narrowband_phase,
                        ref_freq_hz=extracted_x.ref_freq_hz)
    inner = (np.vdot(mx.values, extracted_x.values)
             + np.vdot(my.values, extracted_y.values))
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


def _joint_capture(extracted_x: CfrSet, theta_hat: float, phi_hat: float,
                   pad_factor: int, freqs) -> bool:
    """Flag when the gated profile holds more than one comparable delay peak."""
    uv = uv_map(Direction(theta_hat, phi_hat))
    bx = np.abs(_linear_axis_profile(extracted_x, uv.u,
                                     extracted_x.geometry.x_indices, pad_factor))
    top = bx.max()
    if top <= 0:
        return False
    main = int(np.argmax(bx))
    lobe = pad_factor  # one resolution bin on the padded axis
    mask = np.abs(np.arange(bx.size) - main) > 2 * lobe
    return bool(np.any(bx[mask] > top * 10.0 ** (-3.0 / 20.0)))


def run_sic(cfr_x: CfrSet, cfr_y: CfrSet, config: EstimatorConfig,
            snapshot_hook=None) -> EstimationReport:
    """Iterate detect -> refine -> gate -> extract -> estimate -> subtract
    until the next candidate falls outside the dynamic range or the
    iteration cap is reached. The reference amplitude is frozen at the
    first detected path. snapshot_hook(q, padp), when given, receives the
    residual angle-delay profile at the start of each iteration."""
    for name in ("freqs", "geometry", "ref_freq_hz", "narrowband_phase"):
        if getattr(cfr_x, name) != getattr(cfr_y, name):
            raise ValueError(f"sub-array CFRs must share {name}")
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
        cir_x = cfr_to_cir(rx.values, freqs, pad)
        cir_y = cfr_to_cir(ry.values, freqs, pad)
        level = padp.level_db()
        work = level.copy()
        floor = level.max() - config.epsilon_db
        found = None
        skipped = 0
        while work.max() >= floor:
            r, c = _argmax_cell(work)
            phi_hat = float(padp.phi_deg[c]) % 360.0
            tau_hat = float(padp.delay_s[r]) / 2.0
            direction = Direction(coarse.theta_deg, phi_hat)
            unit_x, _ = gen_ma_cfr(
                PathSet([PathComponent(1.0 + 0j, direction, tau_hat)]),
                rx.geometry, freqs, narrowband_phase=rx.narrowband_phase,
                ref_freq_hz=rx.ref_freq_hz)
            gate = build_label_vector(cfr_to_cir(unit_x.values, freqs, pad),
                                      gate_db)
            ext_x = rx.with_values(cir_to_cfr(extract_path_cir(cir_x, gate),
                                              freqs, pad))
            ext_y = ry.with_values(cir_to_cfr(extract_path_cir(cir_y, gate),
                                              freqs, pad))
            tau_hat = refine_delay(ext_x, ext_y, direction.theta_deg, phi_hat,
                                   tau_hat, pad)
            try:
                alpha = estimate_power(ext_x, ext_y, direction.theta_deg,
                                       phi_hat, tau_hat, pad)
            except NoPeakError:
                alpha = None
            if (alpha is not None and 20.0 * math.log10(abs(alpha))
                    >= level[r, c] - CONSISTENCY_MARGIN_DB):
                found = (direction, phi_hat, tau_hat, alpha, gate, ext_x)
                break
            # Cross-product artifact: strong in the product profile, but no
            # single-axis support at the halved delay. Hide it and move on;
            # it disappears once its parent paths are subtracted.
            skipped += 1
            r0, r1 = max(r - 2 * pad, 0), r + 2 * pad + 1
            c0, c1 = max(c - 3, 0), c + 4
            work[r0:r1, c0:c1] = -np.inf
        if found is None:
            stop_reason = "dynamic-range"
            break
        direction, phi_hat, tau_hat, alpha, gate, ext_x = found
        magnitude = abs(alpha)
        if alpha_max is None:
            alpha_max = magnitude
        gate_bins, gate_span = _gate_diag(gate, delays)
        accepted = magnitude > alpha_max * 10.0 ** (-config.epsilon_db / 20.0) or q == 0
        diags.append(IterationDiagnostics(
            iteration=q + 1,
            beam_peak_db=float(beam.level_db().max()),
            padp_peak_db=float(padp.level_db().max()),
            amplitude_db=20.0 * math.log10(max(magnitude, 1e-30)),
            gate_bins=gate_bins,
            gate_span_s=gate_span,
            joint_capture=_joint_capture(ext_x, direction.theta_deg, phi_hat,
                                         pad, freqs),
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
