"""The public surface is pinned: a new export or setting comes with an edit here."""

import inspect

import spingate
from spingate import SearchSpec, calibrate_pi_duration, extract_gcn_phases


def _parameters(obj) -> list[tuple[str, object]]:
    return [(p.name, p.default) for p in inspect.signature(obj).parameters.values()]


def test_public_surface_is_pinned():
    assert sorted(spingate.__all__) == [
        "BASIS_INDEX", "BASIS_LABELS", "CalibrationError", "ConfigError", "EQ21_AMPS",
        "GCN_PATTERN", "GateMatrix", "GcnPatternError", "GcnPhases", "Generator",
        "PARAMS24_DURATION", "PRESETS", "PulseSpec", "QState", "ResonanceError",
        "RunConfig", "SearchSpec", "SystemParams", "TimeSeries", "TuneResult",
        "build_generator", "calibrate_pi_duration", "cn_matrix", "digital_state",
        "emit_config", "evolve_exact", "evolve_rk4", "extract_gcn_phases",
        "frame_phase_factors", "gate_fidelity", "gcn_matrix", "initial_state",
        "parse_config", "pure_cn_objective", "run_timeseries", "superposition_state",
        "to_primed", "tomography", "tune_pure_cn", "wrap_angle",
    ]
    empty = inspect.Parameter.empty
    assert _parameters(calibrate_pi_duration) == [("params", empty), ("pulse_template", empty)]
    assert _parameters(extract_gcn_phases) == [("gate", empty)]
    assert _parameters(SearchSpec) == [
        ("free", empty),
        ("rel_window", 0.005),
        ("tie_a1", False),
        ("recalibrate_duration", False),
        ("max_evaluations", 2000),
        ("objective_tol", 1e-6),
    ]
