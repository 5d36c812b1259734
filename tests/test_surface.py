"""The public surface is pinned: a new export or setting comes with an edit here."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import spingate
import spingate.cli
import spingate.config
import spingate.propagator
from spingate import (
    Generator,
    RunConfig,
    SearchSpec,
    TimeSeries,
    calibrate_pi_duration,
    extract_gcn_phases,
)


def _parameters(obj) -> list[tuple[str, object]]:
    return [(p.name, p.default) for p in inspect.signature(obj).parameters.values()]


def test_public_surface_is_pinned():
    assert sorted(spingate.__all__) == [
        "BASIS_INDEX", "BASIS_LABELS", "CalibrationError", "ConfigError", "EQ21_AMPS",
        "GcnPatternError", "GcnPhases", "Generator",
        "PARAMS24_DURATION", "PRESETS", "PulseSpec", "QState", "ResonanceError",
        "RunConfig", "SearchSpec", "SystemParams", "TimeSeries",
        "build_generator", "calibrate_pi_duration", "cn_matrix", "digital_state",
        "emit_config", "evolve_rk4", "extract_gcn_phases",
        "frame_phase_factors", "gate_fidelity", "gcn_matrix", "initial_state",
        "parse_config", "pure_cn_objective", "run_timeseries", "superposition_state",
        "tomography", "tune_pure_cn",
    ]
    empty = inspect.Parameter.empty
    assert _parameters(calibrate_pi_duration) == [("params", empty), ("pulse_template", empty)]
    assert _parameters(extract_gcn_phases) == [("gate", empty)]
    assert _parameters(Generator) == [
        ("omega1", empty), ("omega2", empty), ("coupling_j", empty), ("a1", empty), ("a2", empty),
    ]
    # norm is derived from amps, not passed in
    assert _parameters(TimeSeries) == [("t", empty), ("amps", empty), ("frame", empty)]
    # one field per config key, in the order emit_config writes them
    assert _parameters(RunConfig) == [
        ("omega1", empty), ("omega2", empty), ("coupling_j", empty), ("carrier", empty),
        ("a1", empty), ("a2", empty), ("duration", None), ("initial", None),
        ("frame", "primed"), ("sample_dt", None), ("out", None),
    ]
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
        "emit_config", "initial_state", "load_config", "parse_config",
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


def test_range_rules_are_stated_only_in_core():
    names = ("omega1", "omega2", "coupling_j", "carrier", "a1", "a2", "duration", "sample_dt",
             "frame")
    pattern = re.compile(rf"\b({'|'.join(names)}) must be")
    stated = [
        f"{path.name}: {match.group(0)}"
        for path in sorted(Path(spingate.__file__).parent.glob("*.py"))
        if path.name != "core.py"
        for match in pattern.finditer(path.read_text(encoding="utf-8"))
    ]
    assert stated == []


def test_cli_import_loads_no_test_or_oracle_dependency():
    # a fresh interpreter, since this suite itself imports scipy and hypothesis
    code = (
        "import sys, spingate.cli; "
        "print(sorted({m.partition('.')[0] for m in sys.modules}"
        " & {'scipy', 'mpmath', 'sympy', 'hypothesis'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(spingate.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"
