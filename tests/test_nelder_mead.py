"""The Levenberg-Marquardt search against scipy's Nelder-Mead as an outside oracle.

scipy's derivative-free Nelder-Mead, from the same start, finds each
objective's minimum without reading any Jacobian; the in-package
Levenberg-Marquardt must reach it too, so a wrong model that stalls the
damped steps short of the minimum shows here.  Its budget must cut its own
evaluation sequence and nothing else, and a tolerance must stop it at the
first point that meets it, after no more evaluations than scipy needs to
meet it.  Three objectives run the bare `_levenberg_marquardt` on a residual
given in closed form; pure_cn3d runs `tune_pure_cn` itself (first run, grid,
and a second run unless the grid's best is the start) on the tied
3-parameter box around params12.  scipy is the oracle here only; the
package itself must not import it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from spingate import PulseSpec, SearchSpec, SystemParams, pure_cn_objective, tune_pure_cn
from spingate import calibrate
from spingate.calibrate import _BudgetSpent, _levenberg_marquardt

ROOT = Path(__file__).resolve().parents[1]

UNLIMITED = 10**6
#: evaluations past which a run counts as runaway: every run here ends below 500
RUNAWAY = 5000
#: the smallest tolerance a search accepts: no run is stopped by it before its minimum
NO_TOL = float(np.finfo(float).tiny)


class Recorder:
    """Objective wrapper that keeps every evaluated point and the best value.

    Like `tune_pure_cn`'s objective, it raises `_BudgetSpent` in place of
    any evaluation past `budget`; it fails a run that passes `RUNAWAY`.
    """

    def __init__(self, f, budget=UNLIMITED):
        self.f = f
        self.budget = budget
        self.points = []
        self.values = []

    def __call__(self, x):
        if len(self.points) == self.budget:
            raise _BudgetSpent
        assert len(self.points) < RUNAWAY, f"still searching after {RUNAWAY} evaluations"
        self.points.append(np.array(x, copy=True))
        self.values.append(float(self.f(x)))
        return self.values[-1]

    @property
    def best(self):
        return min(self.values)


def _rosenbrock_residual(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def _rosenbrock_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def rosenbrock(x):
    r = _rosenbrock_residual(x)
    return float(r @ r)


def rosenbrock_steps(x):
    """Rosenbrock rounded down to an integer.

    The steps come from its residual's model, the accept test sees only the
    plateaus: ties exercise the strict comparison, and the run stalls on the
    1.0 plateau where scipy's stalls on the 4.0 one.
    """
    return np.floor(rosenbrock(x))


_QUAD_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -0.2], [0.5, -0.2, 2.0]])
_QUAD_M = np.array([0.3, -0.7, 1.1])
#: quadratic(x) = |L^T (x - m)|^2 with A = L L^T
_QUAD_LT = np.linalg.cholesky(_QUAD_A).T


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


_ROSENBROCK_SIMPLEX = np.array([[-1.2, 1.0], [-1.14, 1.0], [-1.2, 1.05]])

#: objective, its (residual, Jacobian, box centre, box half-width) or None for
#: pure_cn3d, scipy's initial simplex (its first vertex is the start), tolerance
OBJECTIVES = {
    "rosenbrock2d": (
        rosenbrock, (_rosenbrock_residual, _rosenbrock_jacobian, np.array([0.0, 1.0]), 2.0),
        _ROSENBROCK_SIMPLEX, 1e-3,
    ),
    "rosenbrock2d_steps": (
        rosenbrock_steps,
        (_rosenbrock_residual, _rosenbrock_jacobian, np.array([0.0, 1.0]), 2.0),
        _ROSENBROCK_SIMPLEX, 4.0,
    ),
    "quadratic3d": (
        quadratic, (lambda x: _QUAD_LT @ (x - _QUAD_M), lambda x: _QUAD_LT, np.zeros(3), 2.0),
        np.vstack([np.zeros(3), 0.25 * np.eye(3)]), 1e-4,
    ),
    "pure_cn3d": (_pure_cn_point, None, np.vstack([np.zeros(3), 0.5 * np.eye(3)]), 1e-6),
}


def _run_ours(name, budget, tol, monkeypatch):
    """Every point the in-package search scores, in order, and their values."""
    f, model_of, simplex, _ = OBJECTIVES[name]
    if model_of is None:
        scored = Recorder(lambda point: point[-1])

        class Recording(calibrate.Generator):
            def objective(self, tau):
                value = super().objective(tau)
                scored((*self.matrix_b.ravel().tolist(), tau, value))
                return value

        with monkeypatch.context() as patch:
            patch.setattr(calibrate, "Generator", Recording)
            spec = SearchSpec(
                free=("omega1", "a2", "duration"), tie_a1=True,
                max_evaluations=budget, objective_tol=tol,
            )
            system = SystemParams(500.0, 100.0, 5.0)
            pulse = PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=31.41592653589793)
            result = tune_pure_cn(system, pulse, spec)
        assert result.evaluations == len(scored.points)
        assert result.objective == scored.best
        return scored

    residual, jacobian, center, width = model_of
    ours = Recorder(f, budget)

    def evaluate(z):
        x = center + width * np.array(z)
        return ours(x), (x,)

    def model(x):
        jac = jacobian(x) * width
        return jac.T @ jac, jac.T @ residual(x)

    start = tuple(((simplex[0] - center) / width).tolist())
    try:
        _levenberg_marquardt(evaluate, model, start, *evaluate(start), tol)
    except _BudgetSpent:
        pass
    return ours


def _run_scipy(name, tol=None):
    """scipy's Nelder-Mead from the same start, stopped by `tol` or by its own spread test."""
    f, _, simplex, _ = OBJECTIVES[name]
    theirs = Recorder(f)

    def stop(intermediate_result):
        if tol is not None and theirs.best <= tol:
            raise StopIteration

    minimize(
        theirs,
        simplex[0],
        method="Nelder-Mead",
        callback=stop,
        options={"initial_simplex": simplex, "xatol": 1e-12, "fatol": 1e-15},
    )
    return theirs


def _assert_same_sequence(budgeted, full):
    for k, (a, b) in enumerate(zip(budgeted.points, full.points)):
        assert np.array_equal(a, b), f"first differing evaluation #{k}: {a!r} vs {b!r}"


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 7, 13, UNLIMITED])
def test_budgeted_sequence_matches_scipy(name, budget, monkeypatch):
    full = _run_ours(name, UNLIMITED, NO_TOL, monkeypatch)
    # stopped where its model predicts no decrease, not by the budget
    assert len(full.points) < UNLIMITED
    theirs = _run_scipy(name)
    # scipy's minimum, to the 1e-3 by which the pure-CN minimum (3.81e-7) differs in the two
    ceiling = theirs.best * (1.0 + 2e-3) + 1e-24
    assert full.best <= ceiling, f"best {full.best!r} vs scipy's {theirs.best!r}"

    ours = _run_ours(name, budget, NO_TOL, monkeypatch)
    assert len(ours.points) == min(budget, len(full.points))
    _assert_same_sequence(ours, full)


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_tolerance_stop_matches_scipy(name, monkeypatch):
    tol = OBJECTIVES[name][3]
    ours = _run_ours(name, UNLIMITED, tol, monkeypatch)
    theirs = _run_scipy(name, tol=tol)
    # both meet it; ours stops at its first point that does, scipy at the end of that iteration
    assert theirs.best <= tol
    assert ours.values[-1] <= tol < min(ours.values[:-1])
    assert len(ours.points) <= len(theirs.points), (
        f"{len(ours.points)} evaluations vs scipy's {len(theirs.points)}"
    )
    full = _run_ours(name, UNLIMITED, NO_TOL, monkeypatch)
    assert len(ours.points) < len(full.points)
    _assert_same_sequence(ours, full)


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
