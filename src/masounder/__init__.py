"""Wideband spatial channel sounding with multiplicative antenna arrays."""

from .beamform import (BeamPattern, NoPeakError, Padp, Peak, UvBeam, cbf_ma,
                       cbf_ma_uv, cbf_ura, cfr_to_cir, cir_to_cfr,
                       descending_cells, find_peaks, line_spectrum, padp_ma,
                       padp_ura)
from .channel import CfrSet, add_noise, gen_ma_cfr, gen_ura_cfr
from .cfrfile import CfrFormatError, read_cfr, write_cfr
from .compare import ComparisonRow, compare_arrays
from .geometry import (Direction, FrequencyGrid, MaGeometry, PathComponent,
                       ScanGrid, UraGeometry, UvPoint, delay_axis, uv_map,
                       uv_unmap)
from .patterns import (PowerPattern, auto_convolve, check_conjugate_symmetry,
                       chebyshev_taper, ma_power_pattern, steer,
                       ura_power_pattern, uv_lattice)
from .scenario import Scenario, ScenarioError, parse_scenario
from .sic import (EstimatedPath, EstimationReport, EstimatorConfig, run_sic,
                  subtract_path)

__all__ = [name for name in dir() if not name.startswith("_")]
