"""Pulse and system calibration against gate-level objectives.

Two tasks live here.  The first is operational pi-pulse timing: the
duration maximizing population transfer from |11> to |10>, located by
golden-section search.  The nominal pi / a2 is only a starting bracket; the
operational optimum is what the gate scenarios use.

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

from dataclasses import dataclass

import numpy as np

from .core import CalibrationError, PulseSpec, SystemParams
from .gates import cn_matrix, gate_fidelity, tomography
from .propagator import build_generator, pi_transfer

__all__ = [
    "calibrate_pi_duration",
    "pure_cn_objective",
    "SearchSpec",
    "TuneResult",
    "tune_pure_cn",
]

_FREE_ORDER = ("omega1", "a2", "duration")

# a Python float, so the durations it produces print as plain numbers
_INV_PHI = float((np.sqrt(5.0) - 1.0) / 2.0)

#: pi-timing search interval and final bracket width, in units of pi / a2
_PI_BRACKET = (0.8, 1.2)
_PI_REL_TOL = 1e-6

#: the pure controlled-NOT target, i * CN
_ICN = 1j * cn_matrix()
_ICN.setflags(write=False)


def calibrate_pi_duration(params: SystemParams, pulse_template: PulseSpec) -> float:
    """Duration maximizing |c10(tau)|^2 for initial |11>.

    Golden-section search on [0.8, 1.2] * (pi / a2), refined until the
    bracket is narrower than 1e-6 * (pi / a2).  The template's own duration
    is ignored.  B is diagonalized once; every probe is the closed-form
    `pi_transfer` on that eigensystem.

    Raises
    ------
    CalibrationError
        If the search converges onto a bracket endpoint, i.e. there is no
        interior maximum; the endpoint transfer values are reported.
    ValueError
        If a2 is not positive (no resonant drive, no pi condition).
    """
    if pulse_template.a2 <= 0:
        raise ValueError("pi-pulse calibration requires a2 > 0")
    tau_nominal = np.pi / pulse_template.a2
    lo, hi = _PI_BRACKET[0] * tau_nominal, _PI_BRACKET[1] * tau_nominal
    tol = _PI_REL_TOL * tau_nominal

    lam, v = build_generator(params, pulse_template).eigensystem()
    f = lambda tau: pi_transfer(lam, v, tau)
    f_lo, f_hi = f(lo), f(hi)
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    f_c, f_d = f(c), f(d)
    while (b - a) > tol:
        if f_c > f_d:
            b, d, f_d = d, c, f_c
            c = b - _INV_PHI * (b - a)
            f_c = f(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + _INV_PHI * (b - a)
            f_d = f(d)
    tau_star = 0.5 * (a + b)
    f_star = f(tau_star)
    at_edge = tau_star - lo < 2.0 * tol or hi - tau_star < 2.0 * tol
    if at_edge or f_star <= max(f_lo, f_hi):
        raise CalibrationError(
            f"no interior transfer maximum in [{lo!r}, {hi!r}]: "
            f"endpoint transfers are {f_lo!r} and {f_hi!r}, "
            f"best interior value {f_star!r} at {tau_star!r}"
        )
    return float(tau_star)


def pure_cn_objective(params: SystemParams, pulse: PulseSpec) -> float:
    """Raw-frame infidelity against i * CN.

    Zero iff the raw-frame gate equals i * CN up to a global phase; the
    i factor is the common phase every amplitude acquires at the end of a
    clean pi-pulse, so this target is the 'pure controlled-NOT up to an
    irrelevant overall phase'.
    """
    return 1.0 - gate_fidelity(tomography(params, pulse, frame="raw"), _ICN)


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
        counted).
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
        """Relative search window of coordinate `name` (`rel_window` for every one)."""
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
    point so far.  Exhausting the budget is not an error; the result is
    returned flagged as non-converged.
    """
    center = {"omega1": params.omega1, "a2": pulse.a2, "duration": pulse.duration}
    for name in spec.free:
        if center[name] == 0.0:
            raise ValueError(f"cannot search {name!r} from a starting value of 0")
    windows = np.array([spec.window_for(n) * abs(center[n]) for n in spec.free])
    centers = np.array([center[n] for n in spec.free])

    state = {"evals": 0, "best_val": np.inf, "best_point": None}

    def build_point(z: np.ndarray) -> tuple[SystemParams, PulseSpec]:
        x = dict(center)
        for name, zi, ci, wi in zip(spec.free, z, centers, windows):
            x[name] = ci + zi * wi
        cand_params = SystemParams(x["omega1"], params.omega2, params.coupling_j)
        a1 = pulse.a1
        if spec.tie_a1:
            a1 = x["a2"] * x["omega1"] / params.omega2
        duration = x["duration"]
        cand_pulse = PulseSpec(carrier=pulse.carrier, a1=a1, a2=x["a2"], duration=duration)
        if "duration" not in spec.free and spec.recalibrate_duration:
            duration = calibrate_pi_duration(cand_params, cand_pulse)
            cand_pulse = PulseSpec(carrier=pulse.carrier, a1=a1, a2=x["a2"], duration=duration)
        return cand_params, cand_pulse

    def objective(z: np.ndarray) -> float:
        z = np.clip(z, -1.0, 1.0)
        cand_params, cand_pulse = build_point(z)
        value = pure_cn_objective(cand_params, cand_pulse)
        state["evals"] += 1
        if value < state["best_val"]:
            state["best_val"] = value
            state["best_point"] = (cand_params, cand_pulse)
        return value

    def run_simplex(simplex) -> None:
        _nelder_mead(
            objective,
            simplex,
            max_evals=spec.max_evaluations - state["evals"],
            done=lambda: state["best_val"] <= spec.objective_tol,
        )

    ndim = len(spec.free)
    # fixed initial simplex: start plus +0.25%-of-start per coordinate
    z0 = np.zeros(ndim)
    simplex = [z0]
    for k in range(ndim):
        vertex = z0.copy()
        vertex[k] = min(1.0, 0.0025 * abs(centers[k]) / windows[k])
        simplex.append(vertex)
    run_simplex(simplex)

    # deterministic reseeding while budget remains and tolerance is unmet
    grid_points = {1: 65, 2: 13, 3: 7}[ndim]
    stage = 0
    while state["best_val"] > spec.objective_tol and state["evals"] < spec.max_evaluations:
        stage += 1
        if stage == 1:
            axes = [np.linspace(-1.0, 1.0, grid_points)] * ndim
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, ndim)
            for z in mesh:
                if state["evals"] >= spec.max_evaluations:
                    break
                objective(z)
        zb = _normalized(state["best_point"], spec, centers, windows)
        size = 0.02 / stage
        shrunk = [zb] + [zb + size * np.eye(ndim)[k] for k in range(ndim)]
        run_simplex(shrunk)
        if stage >= 8:
            break

    best_params, best_pulse = state["best_point"]
    return TuneResult(
        params=best_params,
        pulse=best_pulse,
        objective=float(state["best_val"]),
        converged=bool(state["best_val"] <= spec.objective_tol),
        evaluations=int(state["evals"]),
    )


class _BudgetSpent(Exception):
    pass


def _nelder_mead(f, simplex, max_evals: int, done) -> None:
    """Minimize f from `simplex` (n+1 vertices of length n) by the Nelder-Mead method.

    Standard coefficients: reflection 1, expansion 2, outside and inside
    contraction 1/2, shrink 1/2 (Nelder & Mead, Comput. J. 7, 1965;
    Lagarias et al., SIAM J. Optim. 9, 1998).  The simplex is sorted after
    the initial evaluation and after every iteration.  Before each
    iteration the search stops once the simplex spread is <= 1e-12 and the
    value spread <= 1e-15; after each completed iteration it stops when
    `done()` is true.  At most `max_evals` evaluations are made: one past
    the budget is not made and its iteration is abandoned.  Every move,
    tie break and stop matches scipy.optimize.minimize(method="Nelder-Mead")
    given the same simplex, maxfev and xatol/fatol, evaluation for
    evaluation.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    evals = 0

    def evaluate(x: np.ndarray) -> float:
        nonlocal evals
        if evals >= max_evals:
            raise _BudgetSpent
        evals += 1
        return f(np.copy(x))

    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        while not (
            np.max(np.abs(sim[1:] - sim[0])) <= 1e-12
            and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-15
        ):
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = evaluate(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = evaluate(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = evaluate(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = evaluate(sim[j])
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
            if done():
                return
    except _BudgetSpent:
        return


def _normalized(point, spec: SearchSpec, centers: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Map a (params, pulse) point back into normalized search coordinates."""
    cand_params, cand_pulse = point
    values = {"omega1": cand_params.omega1, "a2": cand_pulse.a2, "duration": cand_pulse.duration}
    z = np.array([(values[n] - c) / w for n, c, w in zip(spec.free, centers, windows)])
    return np.clip(z, -1.0, 1.0)
