"""The in-package Nelder-Mead against scipy's, evaluation for evaluation.

`spingate.calibrate._nelder_mead` reproduces
`scipy.optimize.minimize(method="Nelder-Mead")` given the same initial
simplex and `xatol=1e-12, fatol=1e-15`, with the budget spent by an
objective that raises where scipy's `maxfev` stops.  scipy is the oracle
here only; the package itself must not import it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from spingate import PulseSpec, SystemParams, pure_cn_objective
from spingate.calibrate import _BudgetSpent, _nelder_mead

ROOT = Path(__file__).resolve().parents[1]

UNLIMITED = 10**6


class Recorder:
    """Objective wrapper that keeps every evaluated point and the best value.

    Like `tune_pure_cn`'s objective, it raises `_BudgetSpent` in place of
    any evaluation past `budget`.
    """

    def __init__(self, f, budget=UNLIMITED):
        self.f = f
        self.budget = budget
        self.points = []
        self.best = np.inf

    def __call__(self, x):
        if len(self.points) == self.budget:
            raise _BudgetSpent
        self.points.append(np.array(x, copy=True))
        value = float(self.f(x))
        self.best = min(self.best, value)
        return value


def rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def rosenbrock_steps(x):
    """Rosenbrock rounded down to an integer.

    Ties exercise every strict and non-strict comparison; from the start
    below the simplex stalls on the 4.0 plateau.
    """
    return np.floor(rosenbrock(x))


_QUAD_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -0.2], [0.5, -0.2, 2.0]])
_QUAD_M = np.array([0.3, -0.7, 1.1])


def quadratic(x):
    d = x - _QUAD_M
    return float(d @ _QUAD_A @ d)


def _pure_cn_point(z):
    """Raw-frame pure-CN objective over normalized (omega1, a2, duration), a1 tied."""
    z = np.clip(z, -1.0, 1.0)
    omega1 = 500.0 + z[0] * 2.5
    a2 = 0.1 + z[1] * 0.0005
    duration = 31.41592653589793 * (1.0 + 0.005 * z[2])
    system = SystemParams(omega1, 100.0, 5.0)
    pulse = PulseSpec(carrier=95.0, a1=a2 * omega1 / 100.0, a2=a2, duration=duration)
    return pure_cn_objective(system, pulse)


OBJECTIVES = {
    "rosenbrock2d": (rosenbrock, np.array([[-1.2, 1.0], [-1.14, 1.0], [-1.2, 1.05]]), 1e-3),
    "rosenbrock2d_steps": (
        rosenbrock_steps, np.array([[-1.2, 1.0], [-1.14, 1.0], [-1.2, 1.05]]), 4.0
    ),
    "quadratic3d": (quadratic, np.vstack([np.zeros(3), 0.25 * np.eye(3)]), 1e-4),
    "pure_cn3d": (_pure_cn_point, np.vstack([np.zeros(3), 0.5 * np.eye(3)]), 1e-6),
}


def _run_both(f, simplex, budget, tol=None):
    ours, theirs = Recorder(f, budget), Recorder(f)
    done = (lambda: ours.best <= tol) if tol is not None else (lambda: False)
    try:
        _nelder_mead(ours, simplex, done)
    except _BudgetSpent:
        pass

    def stop(intermediate_result):
        if tol is not None and theirs.best <= tol:
            raise StopIteration

    minimize(
        theirs,
        simplex[0],
        method="Nelder-Mead",
        callback=stop,
        options={"initial_simplex": simplex, "maxfev": budget, "xatol": 1e-12, "fatol": 1e-15},
    )
    return ours.points, theirs.points


def _assert_same_sequence(ours, theirs):
    for k, (a, b) in enumerate(zip(ours, theirs)):
        assert np.array_equal(a, b), f"first differing evaluation #{k}: {a!r} vs scipy {b!r}"
    assert len(ours) == len(theirs), (
        f"{len(ours)} evaluations vs scipy's {len(theirs)}; "
        f"first point past the common prefix is #{min(len(ours), len(theirs))}"
    )


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 7, 13, UNLIMITED])
def test_budgeted_sequence_matches_scipy(name, budget):
    f, simplex, _ = OBJECTIVES[name]
    ours, theirs = _run_both(f, simplex, budget)
    _assert_same_sequence(ours, theirs)
    if budget == UNLIMITED:
        # stopped by the simplex/value spread test, not by the budget
        assert len(ours) < UNLIMITED
        assert len(ours) > 50
    else:
        assert len(ours) == budget


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_tolerance_stop_matches_scipy(name):
    f, simplex, tol = OBJECTIVES[name]
    ours, theirs = _run_both(f, simplex, UNLIMITED, tol=tol)
    _assert_same_sequence(ours, theirs)
    full, _ = _run_both(f, simplex, UNLIMITED)
    assert len(ours) < len(full)


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_tolerance_checked_only_after_first_iteration(name):
    # a tolerance every value meets still lets one full iteration run
    f, simplex, _ = OBJECTIVES[name]
    ours, theirs = _run_both(f, simplex, UNLIMITED, tol=np.inf)
    _assert_same_sequence(ours, theirs)
    assert len(ours) > len(simplex)


def test_runtime_imports_no_scipy(tmp_path):
    code = (
        "import sys\n"
        "import spingate, spingate.cli\n"
        "from spingate import PulseSpec, SearchSpec, SystemParams, tune_pure_cn\n"
        "system = SystemParams(500.0, 100.0, 5.0)\n"
        "pulse = PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=31.41592653589793)\n"
        "result = tune_pure_cn(system, pulse, SearchSpec(free=('duration',), max_evaluations=20))\n"
        "assert result.evaluations == 20, result\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout
