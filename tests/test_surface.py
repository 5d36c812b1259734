"""The public surface is pinned: a new export or setting comes with an edit here."""

import ast
import inspect
from pathlib import Path

import spingate
import spingate.cli
import spingate.config
import spingate.propagator
from spingate import Generator, SearchSpec, TimeSeries, calibrate_pi_duration, extract_gcn_phases


def _parameters(obj) -> list[tuple[str, object]]:
    return [(p.name, p.default) for p in inspect.signature(obj).parameters.values()]


def test_public_surface_is_pinned():
    assert sorted(spingate.__all__) == [
        "BASIS_INDEX", "BASIS_LABELS", "CalibrationError", "ConfigError", "EQ21_AMPS",
        "GCN_PATTERN", "GateMatrix", "GcnPatternError", "GcnPhases", "Generator",
        "PARAMS24_DURATION", "PRESETS", "PulseSpec", "QState", "ResonanceError",
        "RunConfig", "SearchSpec", "SystemParams", "TimeSeries", "TuneResult",
        "build_generator", "calibrate_pi_duration", "cn_matrix", "digital_state",
        "emit_config", "evolve_rk4", "extract_gcn_phases",
        "frame_phase_factors", "gate_fidelity", "gcn_matrix", "initial_state",
        "parse_config", "pure_cn_objective", "run_timeseries", "superposition_state",
        "tomography", "tune_pure_cn", "wrap_angle",
    ]
    empty = inspect.Parameter.empty
    assert _parameters(calibrate_pi_duration) == [("params", empty), ("pulse_template", empty)]
    assert _parameters(extract_gcn_phases) == [("gate", empty)]
    assert _parameters(Generator) == [
        ("omega1", empty), ("omega2", empty), ("coupling_j", empty), ("a1", empty), ("a2", empty),
    ]
    # norm is derived from amps, not passed in
    assert _parameters(TimeSeries) == [("t", empty), ("amps", empty), ("frame", empty)]
    assert _parameters(SearchSpec) == [
        ("free", empty),
        ("rel_window", 0.005),
        ("tie_a1", False),
        ("recalibrate_duration", False),
        ("max_evaluations", 2000),
        ("objective_tol", 1e-6),
    ]


def test_module_surfaces_are_pinned():
    assert sorted(spingate.cli.__all__) == ["CSV_HEADER", "main", "write_timeseries_csv"]
    assert sorted(spingate.config.__all__) == [
        "ConfigError", "EQ21_AMPS", "PARAMS24_DURATION", "PRESETS", "RunConfig",
        "build_run_config", "emit_config", "initial_state", "load_config", "parse_config",
    ]
    assert sorted(spingate.propagator.__all__) == [
        "Generator", "build_generator", "evolve_rk4", "frame_phase_factors", "run_timeseries",
    ]


def test_no_private_name_crosses_modules():
    crossing = []
    for path in sorted(Path(spingate.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                crossing += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert crossing == []
