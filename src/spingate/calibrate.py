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
randomness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.optimize import minimize

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

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def calibrate_pi_duration(
    params: SystemParams,
    pulse_template: PulseSpec,
    bracket: tuple[float, float] = (0.8, 1.2),
    rel_tol: float = 1e-6,
) -> float:
    """Duration maximizing |c10(tau)|^2 for initial |11>.

    Golden-section search on [bracket[0], bracket[1]] * (pi / a2), refined
    until the bracket is narrower than rel_tol * (pi / a2).  The template's
    own duration is ignored.  B is diagonalized once; every probe is the
    closed-form `pi_transfer` on that eigensystem.

    Raises
    ------
    CalibrationError
        If the search converges onto a bracket endpoint, i.e. there is no
        interior maximum; the endpoint transfer values are reported.
    ValueError
        If a2 is not positive (no resonant drive, no pi condition), the
        bracket is not 0 <= bracket[0] < bracket[1] < inf, or rel_tol is
        not positive.
    """
    if pulse_template.a2 <= 0:
        raise ValueError("pi-pulse calibration requires a2 > 0")
    if not 0.0 <= bracket[0] < bracket[1] < np.inf:
        raise ValueError(
            f"bracket {tuple(bracket)!r} (in units of pi/a2) must satisfy "
            "0 <= bracket[0] < bracket[1] < inf"
        )
    if not rel_tol > 0:
        # the refinement loop would never stop, or (nan) never start
        raise ValueError(f"rel_tol must be positive, got {rel_tol!r}")
    tau_nominal = np.pi / pulse_template.a2
    lo, hi = bracket[0] * tau_nominal, bracket[1] * tau_nominal
    tol = rel_tol * tau_nominal

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
    return 1.0 - gate_fidelity(tomography(params, pulse, frame="raw"), 1j * cn_matrix())


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
        to that value.  A single float applies to every coordinate; a
        mapping gives per-coordinate windows.
    tie_a1
        Enforce a1 = a2 * omega1 / omega2 at every evaluation (one drive
        coil, amplitudes proportional to the spin frequencies).
    recalibrate_duration
        When 'duration' is not free, re-run pi-pulse timing calibration at
        every candidate point instead of keeping the starting duration.
    target
        Gate the objective is scored against; defaults to i * CN.
    max_evaluations
        Budget of objective evaluations (duration recalibrations not
        counted).
    objective_tol
        The search is flagged converged once the best objective is at or
        below this value.
    """

    free: tuple[str, ...]
    rel_window: float | Mapping[str, float] = 0.005
    tie_a1: bool = False
    recalibrate_duration: bool = False
    target: np.ndarray | None = field(default=None, compare=False)
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
        for name in free:
            if self.window_for(name) <= 0:
                raise ValueError(f"search window for {name} must be positive")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        if self.objective_tol <= 0:
            raise ValueError("objective_tol must be positive")

    def window_for(self, name: str) -> float:
        if isinstance(self.rel_window, Mapping):
            return float(self.rel_window[name])
        return float(self.rel_window)


@dataclass(frozen=True)
class TuneResult:
    """Best point found by `tune_pure_cn` and how it was reached."""

    params: SystemParams
    pulse: PulseSpec
    objective: float
    converged: bool
    evaluations: int


class _ToleranceReached(Exception):
    pass


def tune_pure_cn(params: SystemParams, pulse: PulseSpec, spec: SearchSpec) -> TuneResult:
    """Nelder-Mead search for parameters realizing the target gate.

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
    target = spec.target if spec.target is not None else 1j * cn_matrix()

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
        value = 1.0 - gate_fidelity(tomography(cand_params, cand_pulse, frame="raw"), target)
        state["evals"] += 1
        if value < state["best_val"]:
            state["best_val"] = value
            state["best_point"] = (cand_params, cand_pulse)
        return value

    def run_simplex(z0: np.ndarray, simplex: np.ndarray) -> None:
        remaining = spec.max_evaluations - state["evals"]
        if remaining < 1:
            return

        def stop_when_done(_zk):
            if state["best_val"] <= spec.objective_tol:
                raise StopIteration

        try:
            minimize(
                objective,
                z0,
                method="Nelder-Mead",
                callback=stop_when_done,
                options={
                    "initial_simplex": simplex,
                    "maxfev": remaining,
                    "xatol": 1e-12,
                    "fatol": 1e-15,
                },
            )
        except StopIteration:
            pass

    ndim = len(spec.free)
    # fixed initial simplex: start plus +0.25%-of-start per coordinate
    z0 = np.zeros(ndim)
    simplex = [z0]
    for k in range(ndim):
        vertex = z0.copy()
        vertex[k] = min(1.0, 0.0025 * abs(centers[k]) / windows[k])
        simplex.append(vertex)
    run_simplex(z0, np.array(simplex))

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
        run_simplex(zb, np.array(shrunk))
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


def _normalized(point, spec: SearchSpec, centers: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Map a (params, pulse) point back into normalized search coordinates."""
    cand_params, cand_pulse = point
    values = {"omega1": cand_params.omega1, "a2": cand_pulse.a2, "duration": cand_pulse.duration}
    z = np.array([(values[n] - c) / w for n, c, w in zip(spec.free, centers, windows)])
    return np.clip(z, -1.0, 1.0)
