"""The public surface is pinned: a new export or setting comes with an edit here."""

import ast
import dataclasses
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
from spingate import Generator, QState, SearchSpec, calibrate_pi_duration, extract_gcn_phases
from spingate.config import RunConfig
from spingate.core import TimeSeries

ROOT = Path(__file__).resolve().parents[1]

# exported only for bench/workloads.py; ROADMAP items 1 and 8 move the bench off them
_BENCH_HELD = {
    "tomography", "calibrate_pi_duration", "pure_cn_objective", "run_timeseries", "parse_config",
}


def _parameters(obj) -> list[tuple[str, object]]:
    return [(p.name, p.default) for p in inspect.signature(obj).parameters.values()]


def test_public_surface_is_pinned():
    assert sorted(spingate.__all__) == [
        "BASIS_INDEX", "CalibrationError", "ConfigError",
        "GcnPatternError", "GcnPhases", "Generator",
        "PulseSpec", "QState", "SearchSpec", "SystemParams",
        "build_generator", "calibrate_pi_duration", "cn_matrix", "digital_state",
        "evolve_rk4", "extract_gcn_phases",
        "frame_phase_factors", "gate_fidelity", "gcn_matrix",
        "parse_config", "pure_cn_objective", "run_timeseries", "superposition_state",
        "tomography", "tune_pure_cn",
    ]
    empty = inspect.Parameter.empty
    assert _parameters(calibrate_pi_duration) == [("params", empty), ("pulse_template", empty)]
    assert _parameters(extract_gcn_phases) == [("gate", empty)]
    assert _parameters(Generator) == [
        ("omega1", empty), ("omega2", empty), ("coupling_j", empty), ("carrier", empty),
        ("a1", empty), ("a2", empty),
    ]
    # a point keeps its eigensystem and B, not the inputs B was built from
    assert Generator.__slots__ == ("matrix_b", "lam", "v")
    # one norm tolerance for every state, so a state carries nothing but its amplitudes
    assert [f.name for f in dataclasses.fields(QState)] == ["amps"]
    # norm is derived from amps, not passed in
    assert _parameters(TimeSeries) == [("t", empty), ("amps", empty)]
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


def test_every_export_has_a_caller():
    # a caller is the README, a demo, or the bench (named in _BENCH_HELD, not read here);
    # exception types are exported so that callers can catch them
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
    )
    exceptions = {
        name for name, obj in vars(spingate).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    uncalled = [
        name for name in spingate.__all__
        if name not in exceptions | _BENCH_HELD and not re.search(rf"\b{name}\b", text)
    ]
    assert uncalled == []
    # each bench-held name is still exported, so the set holds no stale entry
    assert _BENCH_HELD <= set(spingate.__all__)


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


def _package_sources() -> dict[str, str]:
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(Path(spingate.__file__).parent.glob("*.py"))
    }


def test_range_rules_are_stated_only_in_core():
    names = ("omega1", "omega2", "coupling_j", "carrier", "a1", "a2", "duration", "sample_dt",
             "frame", "max_evaluations", "objective_tol")
    pattern = re.compile(rf"\b({'|'.join(names)}) must be")
    stated = [
        f"{name}: {match.group(0)}"
        for name, text in _package_sources().items()
        if name != "core.py"
        for match in pattern.finditer(text)
    ]
    assert stated == []


def test_config_imports_only_from_core():
    tree = ast.parse(_package_sources()["config.py"])
    package_imports = [
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert package_imports == ["core"]
    assert not [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.startswith("spingate")
    ]


def test_each_remaining_rule_is_stated_once():
    sources = _package_sources()
    # RunConfig alone names the missing required keys
    assert sum(text.count("missing required key(s)") for text in sources.values()) == 1
    # extract_gcn_phases has one pattern check
    assert sources["gates.py"].count("raise GcnPatternError(") == 1


def test_cli_search_defaults_are_search_spec_defaults():
    defaults = {f.name: f.default for f in dataclasses.fields(SearchSpec)}
    expected = (defaults["rel_window"], defaults["max_evaluations"], defaults["objective_tol"])
    args = spingate.cli.build_parser().parse_args(["calibrate", "--pure-cn"])
    assert (args.window, args.max_evals, args.tol) == expected
    # read from SearchSpec, not restated in the CLI's source
    constants = {
        node.value for node in ast.walk(ast.parse(_package_sources()["cli.py"]))
        if isinstance(node, ast.Constant) and type(node.value) in (int, float)
    }
    assert not constants & set(expected)


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
