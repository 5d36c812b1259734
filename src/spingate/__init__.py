"""Two-spin Ising controlled-NOT gate simulator and calibration toolkit.

The package simulates the rotating-frame amplitude dynamics of two Ising
coupled spins under a resonant rectangular pulse, reconstructs the two
qubit gate the pulse implements, extracts the per-state phase shifts of
the resulting phased controlled-NOT, and searches pulse and system
parameters for the phase-aligned ("pure") controlled-NOT point.
"""

from .core import (
    BASIS_INDEX,
    BASIS_LABELS,
    CalibrationError,
    GcnPatternError,
    GcnPhases,
    PulseSpec,
    QState,
    ResonanceError,
    SystemParams,
    TimeSeries,
    digital_state,
    superposition_state,
)
from .propagator import (
    Generator,
    build_generator,
    evolve_rk4,
    frame_phase_factors,
    run_timeseries,
)
from .gates import (
    cn_matrix,
    extract_gcn_phases,
    gate_fidelity,
    gcn_matrix,
    tomography,
)
from .calibrate import (
    SearchSpec,
    calibrate_pi_duration,
    pure_cn_objective,
    tune_pure_cn,
)
from .config import (
    EQ21_AMPS,
    PARAMS24_DURATION,
    PRESETS,
    ConfigError,
    RunConfig,
    emit_config,
    initial_state,
    parse_config,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS_INDEX",
    "BASIS_LABELS",
    "CalibrationError",
    "ConfigError",
    "EQ21_AMPS",
    "GcnPatternError",
    "GcnPhases",
    "Generator",
    "PARAMS24_DURATION",
    "PRESETS",
    "PulseSpec",
    "QState",
    "ResonanceError",
    "RunConfig",
    "SearchSpec",
    "SystemParams",
    "TimeSeries",
    "build_generator",
    "calibrate_pi_duration",
    "cn_matrix",
    "digital_state",
    "emit_config",
    "evolve_rk4",
    "extract_gcn_phases",
    "frame_phase_factors",
    "gate_fidelity",
    "gcn_matrix",
    "initial_state",
    "parse_config",
    "pure_cn_objective",
    "run_timeseries",
    "superposition_state",
    "tomography",
    "tune_pure_cn",
]
