"""Pulse and system calibration against gate-level objectives.

Two tasks live here.  The first is operational pi-pulse timing: the
duration maximizing population transfer from |11> to |10>.  The
golden-section search itself is `Generator.pi_duration`, on the one
eigensystem of the point; `calibrate_pi_duration` is its public entry.  The
nominal pi / a2 is only a starting bracket; the operational optimum is what
the gate scenarios use.

The second is the pure controlled-NOT search.  In the raw rotating frame
the free-evolution phases of c00 and c01 wind at hundreds of radians per
unit time, so a pulse that swaps the |10>, |11> amplitudes cleanly still
leaves the gate phases misaligned.  Aligning all four requires small joint
shifts of the system and pulse parameters; `tune_pure_cn` performs that
search with a derivative-free Nelder-Mead simplex, deterministic by
construction (fixed initial simplex, deterministic restarts, no
randomness).  The simplex method is implemented here, move for move as in
`scipy.optimize.minimize(method="Nelder-Mead")`, so the package needs only
numpy at run time.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .core import PulseSpec, SystemParams
from .propagator import Generator, build_generator, check_resonance

__all__ = [
    "calibrate_pi_duration",
    "pure_cn_objective",
    "SearchSpec",
    "TuneResult",
    "tune_pure_cn",
]

_FREE_ORDER = ("omega1", "a2", "duration")


def calibrate_pi_duration(params: SystemParams, pulse_template: PulseSpec) -> float:
    """Duration maximizing |c10(tau)|^2 for initial |11>: `Generator.pi_duration`.

    Golden-section search on [0.8, 1.2] * (pi / a2) on one eigensystem of
    B; the template's own duration is ignored.  Raises `CalibrationError`
    when there is no interior maximum, `ValueError` unless a2 > 0.
    """
    return build_generator(params, pulse_template).pi_duration()


def pure_cn_objective(params: SystemParams, pulse: PulseSpec) -> float:
    """Raw-frame infidelity against i * CN.

    Zero iff the raw-frame gate equals i * CN up to a global phase; the
    i factor is the common phase every amplitude acquires at the end of a
    clean pi-pulse, so this target is the 'pure controlled-NOT up to an
    irrelevant overall phase'.
    """
    return build_generator(params, pulse).objective(pulse.duration)


@dataclass(frozen=True)
class SearchSpec:
    """Configuration of the pure-CN parameter search.

    Parameters
    ----------
    free
        Names of the searched coordinates, a nonempty subset of
        {'omega1', 'a2', 'duration'}.
    rel_window
        Half-width of the search box around each starting value, relative
        to that value; the same for every coordinate.
    tie_a1
        Enforce a1 = a2 * omega1 / omega2 at every evaluation (one drive
        coil, amplitudes proportional to the spin frequencies).
    recalibrate_duration
        When 'duration' is not free, re-run pi-pulse timing calibration at
        every candidate point instead of keeping the starting duration.
    max_evaluations
        Budget of objective evaluations (duration recalibrations not
        counted).  A point the search revisits counts again, though its
        value is looked up, not recomputed.
    objective_tol
        The search is flagged converged once the best objective is at or
        below this value.
    """

    free: tuple[str, ...]
    rel_window: float = 0.005
    tie_a1: bool = False
    recalibrate_duration: bool = False
    max_evaluations: int = 2000
    objective_tol: float = 1e-6

    def __post_init__(self):
        free = tuple(name for name in _FREE_ORDER if name in self.free)
        if len(free) != len(set(self.free)) or set(free) != set(self.free):
            bad = set(self.free) - set(_FREE_ORDER)
            raise ValueError(f"unknown free parameters {sorted(bad)}; choose from {_FREE_ORDER}")
        if not free:
            raise ValueError("at least one free parameter is required")
        object.__setattr__(self, "free", free)
        if not 0.0 < self.rel_window < np.inf:
            raise ValueError(
                f"search window for {', '.join(free)} must be positive and finite, "
                f"got {self.rel_window!r}"
            )
        if not isinstance(self.max_evaluations, (int, np.integer)) or self.max_evaluations < 1:
            # a nan or inf budget would never be spent
            raise ValueError(
                f"max_evaluations must be an integer >= 1, got {self.max_evaluations!r}"
            )
        if not 0.0 < self.objective_tol < np.inf:
            # nan never converges and inf converges at once, whatever the objective
            raise ValueError(
                f"objective_tol must be positive and finite, got {self.objective_tol!r}"
            )

    def window_for(self, name: str) -> float:
        """`rel_window` for any name; kept only until `bench/workloads.py` reads it directly."""
        return float(self.rel_window)


@dataclass(frozen=True)
class TuneResult:
    """Best point found by `tune_pure_cn` and how it was reached."""

    params: SystemParams
    pulse: PulseSpec
    objective: float
    converged: bool
    evaluations: int


def tune_pure_cn(params: SystemParams, pulse: PulseSpec, spec: SearchSpec) -> TuneResult:
    """Nelder-Mead search for parameters minimizing `pure_cn_objective`.

    The search runs in coordinates normalized to the bounds box (each free
    parameter mapped to [-1, 1] over its window) and never evaluates
    outside the box.  The initial simplex is the starting point plus one
    vertex per coordinate displaced by +0.25 percent of that coordinate's
    starting value.  If the simplex converges without reaching
    `objective_tol` and budget remains, the search reseeds
    deterministically: first from the best point of a fixed coarse grid
    over the box, then from progressively tighter simplexes around the best
    point so far.  `max_evaluations` counts every evaluation, restarts and
    grid included.  Exhausting the budget is not an error; the result is
    returned flagged as non-converged.  A point outside the field ranges
    (a window reaching a2 < 0, say) raises the `ValueError` of the
    `Generator` or gate that scores it.  Each distinct point is diagonalized
    once per search: the simplex often comes back to a point it has already
    scored, and then the value kept for it is returned, still counted as an
    evaluation, so the moves and counts are those of rescoring it.
    """
    center = {"omega1": params.omega1, "a2": pulse.a2, "duration": pulse.duration}
    for name in spec.free:
        if center[name] == 0.0:
            raise ValueError(f"cannot search {name!r} from a starting value of 0")
    # carrier, omega2 and J are the same at every point of the search
    check_resonance(params.omega2, params.coupling_j, pulse.carrier)
    windows = [float(spec.rel_window) * abs(center[n]) for n in spec.free]
    centers = [center[n] for n in spec.free]
    omega2, coupling_j = params.omega2, params.coupling_j
    recalibrate = spec.recalibrate_duration and "duration" not in spec.free
    # a point's free coordinates, then the fixed ones: `pick` reads omega1, a2, duration off them
    order = spec.free + tuple(n for n in _FREE_ORDER if n not in spec.free)
    fixed = tuple(center[n] for n in order[len(spec.free):])
    pick = operator.itemgetter(*map(order.index, _FREE_ORDER))
    evaluations, best_val, best_point = 0, np.inf, None
    scored = {}  # clamped free coordinates -> objective value, for this search only

    def objective(z) -> float:
        # scored from plain numbers: no dataclass or dict per point, one Generator, one gate
        nonlocal evaluations, best_val, best_point
        if evaluations == spec.max_evaluations:
            raise _BudgetSpent
        # the free coordinates, clamped to the box: a conditional costs less than min(max())
        point = tuple([
            c + (-w if zi < -1.0 else w if zi > 1.0 else zi * w)
            for zi, c, w in zip(z, centers, windows)
        ])
        value = scored.get(point)
        if value is not None:
            # a revisit counts against the budget, but cannot be a new best
            evaluations += 1
            return value
        omega1, a2, duration = pick(point + fixed)
        a1 = a2 * omega1 / omega2 if spec.tie_a1 else pulse.a1
        gen = Generator(omega1, omega2, coupling_j, a1, a2)
        if recalibrate:
            duration = gen.pi_duration()
        value = scored[point] = gen.objective(duration)
        evaluations += 1
        if value < best_val:
            best_val, best_point = value, dict(omega1=omega1, a1=a1, a2=a2, duration=duration)
        return value

    def done() -> bool:
        return best_val <= spec.objective_tol

    def simplex(z: list[float], steps: list[float]) -> list[list[float]]:
        """z and one vertex per coordinate k, moved by steps[k] along k."""
        return [z] + [
            [zj + (step if j == k else 0.0) for j, zj in enumerate(z)]
            for k, step in enumerate(steps)
        ]

    ndim = len(spec.free)
    axis = np.linspace(-1.0, 1.0, {1: 65, 2: 13, 3: 7}[ndim]).tolist()
    try:
        # fixed initial simplex: start plus +0.25%-of-start per coordinate
        steps = [min(1.0, 0.0025 * abs(c) / w) for c, w in zip(centers, windows)]
        _nelder_mead(objective, simplex([0.0] * ndim, steps), done)
        # deterministic reseeding while the tolerance is unmet
        for stage in range(1, 9):
            if done():
                break
            if stage == 1:
                for z in itertools.product(axis, repeat=ndim):  # a coarse grid over the box
                    objective(z)
            zb = [
                min(max((best_point[n] - c) / w, -1.0), 1.0)
                for n, c, w in zip(spec.free, centers, windows)
            ]
            _nelder_mead(objective, simplex(zb, [0.02 / stage] * ndim), done)
    except _BudgetSpent:
        pass

    return TuneResult(
        params=SystemParams(best_point["omega1"], omega2, coupling_j),
        pulse=PulseSpec(pulse.carrier, best_point["a1"], best_point["a2"], best_point["duration"]),
        objective=best_val,
        converged=done(),
        evaluations=evaluations,
    )


class _BudgetSpent(Exception):
    """Raised in place of an evaluation past the search budget."""


def _nelder_mead(f, simplex, done) -> None:
    """Minimize f from `simplex` (n+1 vertices of length n) by the Nelder-Mead method.

    Standard coefficients: reflection 1, expansion 2, outside and inside
    contraction 1/2, shrink 1/2 (Nelder & Mead, Comput. J. 7, 1965;
    Lagarias et al., SIAM J. Optim. 9, 1998).  The simplex is sorted after
    the initial evaluation and after every iteration.  Before each
    iteration the search stops once the simplex spread is <= 1e-12 and the
    value spread <= 1e-15; after each completed iteration it stops when
    `done()` is true.  f is called with a list of floats; it ends the
    search early by raising.  Every move, tie break and stop matches
    scipy.optimize.minimize(method="Nelder-Mead") given the same simplex
    and xatol/fatol, evaluation for evaluation, except where four values
    tie: the sort here is stable, and numpy's argsort, which scipy uses,
    is not on every machine.

    A simplex here has at most three coordinates, so it is kept in plain
    Python floats: numpy's per-call overhead would outweigh the arithmetic.
    """
    sim = [[float(c) for c in x] for x in simplex]
    n = len(sim) - 1
    fsim = [f(x) for x in sim]
    sim, fsim = _by_value(sim, fsim)
    while not (
        max(abs(a - b) for x in sim[1:] for a, b in zip(x, sim[0])) <= 1e-12
        and max(abs(fsim[0] - fx) for fx in fsim[1:]) <= 1e-15
    ):
        # the centroid is summed left to right, as numpy reduces: not with the
        # built-in sum, which from Python 3.12 compensates and can round differently
        xbar = list(sim[0])
        for x in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, x)]
        xbar = [a / n for a in xbar]
        worst = sim[-1]
        xr = [2 * a - b for a, b in zip(xbar, worst)]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = [3 * a - 2 * b for a, b in zip(xbar, worst)]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, worst)]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = [0.5 * a + 0.5 * b for a, b in zip(xbar, worst)]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (a - b) for a, b in zip(sim[j], sim[0])]
                    fsim[j] = f(sim[j])
        sim, fsim = _by_value(sim, fsim)
        if done():
            return


def _by_value(sim: list, fsim: list[float]) -> tuple[list, list[float]]:
    """Vertices and values sorted by value; the sort is stable, so ties keep vertex order."""
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    return [sim[k] for k in order], [fsim[k] for k in order]
