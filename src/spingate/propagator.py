"""Rotating-frame amplitude dynamics under a resonant rectangular pulse.

With the carrier locked to the conditional transition omega2 - J, the
amplitude equations of motion close into a constant-coefficient linear
system

    dc/dt = (i/2) B c,

where B is a real symmetric 4x4 matrix: diagonal entries carry the residual
level detunings, off-diagonal entries the drive amplitudes.  Because B is
constant and symmetric the propagator is the exact matrix exponential
exp(i B t / 2), evaluated here by eigendecomposition.  A classical RK4
integrator of the same system is kept as an independent cross-check; it
never touches the eigendecomposition path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import QState, SystemParams, PulseSpec, TimeSeries, ResonanceError

__all__ = [
    "Generator",
    "build_generator",
    "evolve_exact",
    "pi_transfer",
    "evolve_rk4",
    "to_primed",
    "frame_phase_factors",
    "run_timeseries",
]

#: relative tolerance for the carrier == omega2 - J resonance condition
RESONANCE_RTOL = 1e-12


@dataclass(frozen=True)
class Generator:
    """Constant coefficient matrix B of the rotating-frame equations."""

    matrix_b: np.ndarray

    def __post_init__(self):
        b = np.array(self.matrix_b, dtype=float)
        if b.shape != (4, 4):
            raise ValueError(f"generator must be 4x4, got {b.shape}")
        if not np.array_equal(b, b.T):
            raise ValueError("generator must be exactly symmetric")
        b.setflags(write=False)
        object.__setattr__(self, "matrix_b", b)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and orthonormal eigenvectors of B (columns of V).

        The package's one spectral step: B does not depend on the duration,
        so each parameter point is diagonalized once and every quantity
        (states, gates, transfers) follows in closed form from (lam, V).
        """
        if not np.all(np.isfinite(self.matrix_b)):
            raise ValueError("generator contains non-finite entries")
        # looked up per call, so a wrapper put on numpy.linalg sees every one
        return np.linalg.eigh(self.matrix_b)


def build_generator(params: SystemParams, pulse: PulseSpec) -> Generator:
    """Assemble B for a resonant pulse.

    The constant-coefficient form only holds at the carrier choice
    omega = omega2 - J; any other carrier is rejected.

    Structure (basis order 00, 01, 10, 11):

        B[00,00] = -2 (omega2 - omega1 - 2J)     B[00,01] = B[01,00] = a2
        B[01,01] = -2 (omega2 - omega1)          B[00,10] = B[10,00] = a1
        B[10,10] = B[11,11] = 0                  B[01,11] = B[11,01] = a1
                                                 B[10,11] = B[11,10] = a2
    """
    resonant = params.resonant_carrier
    if abs(pulse.carrier - resonant) > RESONANCE_RTOL * max(1.0, abs(resonant)):
        raise ResonanceError(
            f"carrier {pulse.carrier!r} is off resonance: the constant-coefficient "
            f"rotating-frame equations require omega = omega2 - J = {resonant!r}"
        )
    b = np.zeros((4, 4))
    b[0, 0] = -2.0 * (params.omega2 - params.omega1 - 2.0 * params.coupling_j)
    b[1, 1] = -2.0 * (params.omega2 - params.omega1)
    b[0, 1] = b[1, 0] = pulse.a2
    b[0, 2] = b[2, 0] = pulse.a1
    b[1, 3] = b[3, 1] = pulse.a1
    b[2, 3] = b[3, 2] = pulse.a2
    return Generator(b)


def evolve_exact(state: QState, gen: Generator, t: float) -> QState:
    """Propagate by the exact exponential c(t) = exp(i B t / 2) c(0).

    Exact up to floating point: B is diagonalized once and the eigenphases
    are applied directly, so norm is conserved to ~1e-15 for any t >= 0.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    lam, v = gen.eigensystem()
    evolved = (v * np.exp(0.5j * lam * t)) @ (v.T @ state.amps)
    return QState(evolved)


def pi_transfer(lam: np.ndarray, v: np.ndarray, t: float) -> float:
    """Population |c10(t)|^2 reached from |11>, read off the eigensystem of B.

    Closed form of `evolve_exact` for that one amplitude:
    c10(t) = sum_k V[2,k] V[3,k] exp(i lam_k t / 2), so a duration scan
    needs one eigendecomposition however many durations it tries.
    """
    return float(abs(np.dot(v[2] * v[3], np.exp(0.5j * lam * t))) ** 2)


def evolve_rk4(state: QState, gen: Generator, t: float, dt: float) -> QState:
    """Classical 4th-order Runge-Kutta solution of dc/dt = (i/2) B c.

    Independent cross-check for `evolve_exact`; global error is O(dt^4).
    Accuracy requires dt * rho(B)/2 well below 1, with rho the spectral
    radius; for strongly detuned systems this means a much finer step than
    the pulse timescale suggests.

    The system is linear and autonomous, so one RK4 step is a fixed linear
    map.  The stage matrix is built once (the four stages applied to the
    identity) and raised to the number of steps by binary exponentiation,
    which reproduces the stepped iteration to rounding accuracy.

    `dt` is rounded to the nearest exact subdivision of t.
    """
    if dt <= 0 or dt > t:
        raise ValueError(f"need 0 < dt <= t, got dt={dt}, t={t}")
    n = max(1, int(round(t / dt)))
    h = t / n
    a = 0.5j * gen.matrix_b
    eye = np.eye(4, dtype=complex)
    k1 = a.astype(complex)
    k2 = a @ (eye + 0.5 * h * k1)
    k3 = a @ (eye + 0.5 * h * k2)
    k4 = a @ (eye + h * k3)
    step = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    evolved = np.linalg.matrix_power(step, n) @ state.amps
    # RK4 is not exactly unitary; renormalization would hide integration
    # error, so the raw vector is validated with a loose tolerance instead.
    return QState(evolved, norm_tol=1e-3)


def frame_phase_factors(params: SystemParams, t: float | np.ndarray) -> np.ndarray:
    """Diagonal of the raw -> primed frame transform at time t.

    Drive-free evolution in the rotating frame is pure phases: c00 and c01
    acquire exp[-i (omega2 - omega1 - 2J) t] and exp[-i (omega2 - omega1) t],
    c10 and c11 none.  The primed frame strips them.  A column of times
    (shape (n, 1)) gives one row of factors per time.
    """
    rates = np.array(
        [
            params.omega2 - params.omega1 - 2.0 * params.coupling_j,
            params.omega2 - params.omega1,
            0.0,
            0.0,
        ]
    )
    return np.exp(+1j * rates * t)


def to_primed(state: QState, t: float, params: SystemParams) -> QState:
    """Strip the free-evolution phases accumulated up to time t.

    Moduli are untouched, so a state in the primed frame differs from the
    raw one only in the phases of c00, c01.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return QState(state.amps * frame_phase_factors(params, t))


def _sample_grid(duration: float, sample_dt: float) -> np.ndarray:
    """Times 0, dt, 2dt, ... plus the pulse end, which is always the last row.

    A grid point within rounding of the end (as when `sample_dt` divides
    the duration exactly) is the end, not a separate interior row.  A
    zero-length pulse yields the degenerate two-row grid [0, 0].
    """
    if duration == 0.0:
        return np.array([0.0, 0.0])
    # k * sample_dt carries a relative rounding error of a few ulp, which
    # for many samples exceeds any fixed tolerance in units of sample_dt.
    end_tol = max(1e-12 * sample_dt, 4.0 * np.spacing(duration))
    grid = np.arange(int(np.ceil(duration / sample_dt)) + 1) * sample_dt
    return np.append(grid[grid < duration - end_tol], duration)


def run_timeseries(
    params: SystemParams,
    pulse: PulseSpec,
    initial: QState,
    sample_dt: float,
    frame: str = "primed",
) -> TimeSeries:
    """Sample the pulse-driven evolution of `initial` on a regular grid.

    Every sample is propagated from t = 0 with the exact exponential (the
    generator is diagonalized once).  The final row is at exactly the pulse
    duration even when that is not a multiple of `sample_dt`.
    """
    if not 0.0 < sample_dt < np.inf:
        raise ValueError(f"sample_dt must be positive and finite, got {sample_dt!r}")
    if frame not in ("raw", "primed"):
        raise ValueError(f"frame must be 'raw' or 'primed', got {frame!r}")
    gen = build_generator(params, pulse)
    lam, v = gen.eigensystem()
    ts = _sample_grid(pulse.duration, sample_dt)
    proj = v.T @ initial.amps
    amps = (v @ (np.exp(0.5j * np.outer(lam, ts)) * proj[:, None])).T
    if frame == "primed":
        amps = amps * frame_phase_factors(params, ts[:, None])
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    return TimeSeries(t=ts, amps=amps, norm=norms, frame=frame)
