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
search by Levenberg-Marquardt on the gate's exact derivatives, which the one
eigensystem of each point gives in closed form (the propagator-gradient idea
of GRAPE, Khaneja et al., J. Magn. Reson. 172, 296, 2005).  It is
deterministic (fixed start, damping schedule, stop rule and grid, no
randomness), scores no point twice and needs only numpy at run time.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .core import PulseSpec, SystemParams, check_param
from .propagator import Generator, build_generator

__all__ = [
    "calibrate_pi_duration",
    "pure_cn_objective",
    "SearchSpec",
    "TuneResult",
    "tune_pure_cn",
]

_FREE_ORDER = ("omega1", "a2", "duration")

#: dB/d omega1 and the a2 and a1 drive patterns of B, and CN (basis order 00, 01, 10, 11)
_DB_OMEGA1 = np.diag([2.0, 2.0, 0.0, 0.0])
_DB_A2, _DB_A1, _CN = np.eye(4)[[1, 0, 3, 2]], np.eye(4)[[2, 3, 0, 1]], np.eye(4)[[0, 1, 3, 2]]

#: Levenberg-Marquardt damping: start, growth on a rejected step, shrink on an accepted one
_MU_START, _MU_UP, _MU_DOWN = 1e-3, 4.0, 3.0
#: a run ends when its model predicts a relative decrease of at most this
_MIN_REL_DECREASE = 1e-13


def calibrate_pi_duration(params: SystemParams, pulse_template: PulseSpec) -> float:
    """Duration maximizing |c10(tau)|^2 for initial |11>: `Generator.pi_duration`.

    Golden-section search on [0.8, 1.2] * pi / hypot(a2, delta) on one
    eigensystem of B, with delta the carrier's detuning from omega2 - J; the
    template's own duration is ignored.  Raises `CalibrationError`
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
        Re-run pi-pulse timing calibration at every candidate point instead
        of keeping the starting duration.  Needs 'duration' left out of
        `free`: a searched duration cannot also be re-timed.
    max_evaluations
        Budget of objective evaluations (duration recalibrations not
        counted); every scored point counts, and none is scored twice.
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
        if isinstance(self.free, str):  # not its characters
            raise ValueError(f"free must be a tuple of names from {_FREE_ORDER}, got {self.free!r}")
        repeated = sorted({name for name in self.free if list(self.free).count(name) > 1})
        if repeated:
            raise ValueError(f"free parameters {repeated} are named more than once")
        free = tuple(name for name in _FREE_ORDER if name in self.free)
        if set(free) != set(self.free):
            bad = set(self.free) - set(_FREE_ORDER)
            raise ValueError(f"unknown free parameters {sorted(bad)}; choose from {_FREE_ORDER}")
        if not free:
            raise ValueError("at least one free parameter is required")
        if self.recalibrate_duration and "duration" in free:
            raise ValueError("recalibrate_duration needs 'duration' left out of free")
        object.__setattr__(self, "free", free)
        if not 0.0 < self.rel_window <= float_info.max:  # an int above it is no float
            raise ValueError(
                f"search window for {', '.join(free)} must be positive and finite, "
                f"got {self.rel_window}"
            )
        check_param("max_evaluations", self.max_evaluations)
        check_param("objective_tol", self.objective_tol)

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
    """Levenberg-Marquardt search for parameters minimizing `pure_cn_objective`.

    The search runs in coordinates normalized to the bounds box (each free
    parameter mapped to [-1, 1] over its window), clamps every step to the
    box and never evaluates outside it.  Its least-squares residual is
    R = U - c i CN over the 16 complex gate entries, with c = e^{i phi} and
    phi one more coordinate: minimized over phi, |R|^2 is 8 times the
    objective, so a step is accepted when the objective falls.  The Jacobian
    is read off the eigensystem of the point's one `Generator`
    (`_linearize`); it chains through a tied a1 and, approximately,
    through a recalibrated duration.  The damping starts at 1e-3, grows 4x
    on a rejected step and shrinks 3x on an accepted one; a run ends at
    `objective_tol`, or before a clamped step whose decrease the linear model
    predicts to be at most 1e-13 of the objective.  If the first run ends
    above `objective_tol`, a fixed coarse grid over the box (65, 13^2 or 7^3
    points, centred on the start, which is not scored again) is scored, and
    a second run starts from its best point unless that is the start.
    `max_evaluations` counts every scored point; a spent budget is no error,
    the result is flagged non-converged.  A point outside the field ranges (a
    window reaching a2 < 0, say) raises the `ValueError` of the `Generator`
    or gate that scores it.  Consecutive points with the same omega1, a1 and
    a2 share one `Generator`, so a duration-only search diagonalizes once.
    """
    center = {"omega1": params.omega1, "a2": pulse.a2, "duration": pulse.duration}
    for name in spec.free:
        if center[name] == 0.0:
            raise ValueError(f"cannot search {name!r} from a starting value of 0")
    windows = [float(spec.rel_window) * abs(center[n]) for n in spec.free]
    # omega2, J and the carrier are the same at every point of the search
    omega2, coupling_j, carrier = params.omega2, params.coupling_j, pulse.carrier
    # the derivatives of the free coordinates, each per unit of its normalized coordinate, and phi's
    rows, scale = [*map(_FREE_ORDER.index, spec.free), 3], np.array([*windows, 1.0])[:, None, None]
    evaluations, best_val, best_point = 0, np.inf, None
    last = [None, None]  # (omega1, a1, a2) of the last scored point, and its Generator
    # kept beside Generator's own memo, as it skips assembling B: without it a cold 77-point
    # duration-only search took 1.25-1.30 ms, not 1.08-1.13 ms (Xeon, Python 3.11)

    def evaluate(z: tuple) -> tuple:
        """Objective at box point z, and the (Generator, point) the model there reads."""
        nonlocal evaluations, best_val, best_point
        if evaluations == spec.max_evaluations:
            raise _BudgetSpent
        moved = {n: center[n] + zi * w for n, zi, w in zip(spec.free, z, windows)}
        omega1, a2, duration = map({**center, **moved}.__getitem__, _FREE_ORDER)
        a1 = a2 * omega1 / omega2 if spec.tie_a1 else pulse.a1
        if last[0] != (omega1, a1, a2):
            last[:] = (omega1, a1, a2), Generator(omega1, omega2, coupling_j, carrier, a1, a2)
        gen = last[1]
        duration = gen.pi_duration() if spec.recalibrate_duration else duration
        value = gen.objective(duration)
        evaluations += 1
        point = dict(omega1=omega1, a1=a1, a2=a2, duration=duration)
        if value < best_val:
            best_val, best_point = value, point
        return value, (gen, point)

    def model(gen: Generator, point: dict) -> tuple:
        """J^T J and J^T R over (z, phi) at phi's best value, all in the eigenbasis of `gen`."""
        tau, a2 = point["duration"], point["a2"]
        da1 = (a2 / omega2, point["omega1"] / omega2) if spec.tie_a1 else (0.0, 0.0)
        residual, derivatives = _linearize(gen, tau, da1, spec.recalibrate_duration)
        jac = (derivatives[rows] * scale).reshape(len(rows), 16)
        return (jac.conj() @ jac.T).real, (jac.conj() @ residual.ravel()).real

    tol, start = spec.objective_tol, (0.0,) * len(spec.free)
    try:
        value, at = evaluate(start)
        _levenberg_marquardt(evaluate, model, start, value, at, tol)
        if best_val > tol:
            # the grid's centre is the start (exactly 0.0 for 65, 13 and 7 points), not rescored
            axis = np.linspace(-1.0, 1.0, {1: 65, 2: 13, 3: 7}[len(start)]).tolist()
            grid = [(value, at, z) if z == start else (*evaluate(z), z)
                    for z in itertools.product(axis, repeat=len(start))]
            value, at, z = min(grid, key=operator.itemgetter(0))
            if z != start:  # a run from the start would retrace the first one
                _levenberg_marquardt(evaluate, model, z, value, at, tol)
    except _BudgetSpent:
        pass

    return TuneResult(
        params=SystemParams(best_point["omega1"], omega2, coupling_j),
        pulse=PulseSpec(carrier, best_point["a1"], best_point["a2"], best_point["duration"]),
        objective=best_val,
        converged=best_val <= tol,
        evaluations=evaluations,
    )


class _BudgetSpent(Exception):
    """Raised in place of an evaluation past the search budget."""


def _levenberg_marquardt(evaluate, model, z: tuple, value: float, at, tol: float) -> None:
    """Damped Gauss-Newton run in [-1, 1]^n from z, scored `value`: `evaluate(z)` gives
    (objective, at), `model(*at)` gives (J^T J, J^T R) with z's coordinates first.  It ends at
    `tol`, or before a clamped step s whose model decrease -(2 s.J^T R + s.J^T J s) / 8 (|R|^2
    is 8 objectives) is at most _MIN_REL_DECREASE of `value` (Madsen, Nielsen & Tingleff,
    IMM DTU, 2004): a step that does not move predicts none, and each rejection shrinks it."""
    mu = _MU_START
    while value > tol:
        jtj, jtr = model(*at)
        # Marquardt's scaling; a flat coordinate (every one at tau = 0) takes no step
        scaling = np.diag(np.maximum(jtj.diagonal(), 1e-12 * jtj.diagonal().max()))
        while True:
            step = np.linalg.solve(jtj + mu * scaling, -jtr)
            trial = tuple(min(max(zi + si, -1.0), 1.0) for zi, si in zip(z, step.tolist()))
            step[:len(z)] = np.subtract(trial, z)
            if -step @ (2.0 * jtr + jtj @ step) <= 8.0 * _MIN_REL_DECREASE * value:
                return
            trial_value, trial_at = evaluate(trial)
            if trial_value < value:
                break
            mu *= _MU_UP
        z, value, at = trial, trial_value, trial_at
        mu /= _MU_DOWN


def _linearize(
    gen: Generator, tau: float, da1: tuple = (0.0, 0.0), recalibrated: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """R = U - c i CN at the c minimizing |R|, and dR/d omega1, a2, tau, phi (c = e^{i phi}),
    each as V^T . V, from one set of phases e^{i lam tau/2}.

    |R|^2 = 8 - 2 |tr((i CN)^dag U)| = 8 `gen.objective(tau)`: V^T CN V has the objective's
    weights w_k on its diagonal, so the trace is sum_k w_k e^{i lam_k tau/2}.  For a
    coordinate with dB, dU = V (Phi o V^T dB V) V^T (Daleckii-Krein), where
    Phi_kl = 2i e^{i(lam_k+lam_l)tau/4} sin((lam_k-lam_l)tau/4) / (lam_k-lam_l): written
    with sinc, it has no cancellation at a near-degenerate pair and is
    (i tau/2) e^{i lam_k tau/2} on the diagonal.  dU/d tau is diag(i lam/2 e^{i lam tau/2}).
    `da1` is (d a1/d omega1, d a1/d a2), nonzero when a1 is tied to a2 omega1/omega2.
    `recalibrated` adds dU/d tau d tau*/d a2 to dU/d a2, for a pi-timed duration tau*; the
    slope is that of pi / hypot(a2, delta), -tau a2 / (a2^2 + delta^2), so only approximate.
    """
    lam, v = gen.lam, gen.v
    phases = np.exp(0.5j * lam * tau)
    m = v.T @ _CN @ v
    s = m.diagonal() @ phases
    u = s / abs(s) if s else 1.0  # -i c
    phi = (
        0.5j * tau * np.exp(0.25j * tau * np.add.outer(lam, lam))
        * np.sinc(np.subtract.outer(lam, lam) * (0.25 * tau / np.pi))
    )
    d_tau = np.diag(0.5j * lam * phases)
    d_b = np.array([_DB_OMEGA1 + da1[0] * _DB_A1, _DB_A2 + da1[1] * _DB_A1])
    d_omega1, d_a2 = phi * (v.T @ d_b @ v)
    if recalibrated:
        a2, delta = float(gen.matrix_b[0, 1]), 0.5 * float(gen.matrix_b[3, 3])  # B[11,11] = 2 delta
        d_a2 = d_a2 - tau * a2 / (a2 * a2 + delta * delta) * d_tau
    return np.diag(phases) - u * m, np.array([d_omega1, d_a2, d_tau, -1j * u * m])
