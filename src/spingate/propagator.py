"""Rotating-frame amplitude dynamics under a rectangular pulse.

The pulse is circularly polarized, so in the frame that rotates with it the
amplitude equations of motion close, at any carrier, into a
constant-coefficient linear system

    dc/dt = (i/2) B c,

where B is a real symmetric 4x4 matrix: diagonal entries carry the residual
level detunings, off-diagonal entries the drive amplitudes.  The carrier
enters B as one term: with delta = carrier - (omega2 - J), its detuning from
the conditional transition, B(delta) = B(0) + diag(-2 delta, 0, 0, +2 delta).
Because B is constant and symmetric the propagator is the exact matrix
exponential exp(i B t / 2), evaluated here by eigendecomposition: a
`Generator` is one parameter point, diagonalized once, whose
`gate(t, frame)` is that propagator.  A classical RK4 integrator of the
same system is kept as an independent cross-check; it reads only B, never
the eigensystem.
"""

from __future__ import annotations

from math import cos, hypot, inf, sin

import numpy as np

from .core import (
    CalibrationError,
    PulseSpec,
    QState,
    SystemParams,
    TimeSeries,
    check_param,
)

__all__ = [
    "Generator",
    "build_generator",
    "evolve_rk4",
    "frame_phase_factors",
    "run_timeseries",
]

#: max-norm unitarity tolerance of every `Generator.gate`: tomography, search and sweep gates
GATE_UNITARITY_TOL = 1e-8

#: pi-timing search interval and final bracket width, in units of pi / hypot(a2, delta)
_PI_BRACKET = (0.8, 1.2)
_PI_REL_TOL = 1e-6

#: least transfer a pi-pulse must reach: it moves at least half the population
_PI_MIN_TRANSFER = 0.5

# a Python float, so the durations it produces print as plain numbers
_INV_PHI = float((np.sqrt(5.0) - 1.0) / 2.0)

_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


class Generator:
    """One parameter point: the coefficient matrix B, diagonalized once.

    Built from plain numbers, so a search pays for no dataclass per point;
    the numbers must meet the `SystemParams` and `PulseSpec` rules, and are
    rejected with their messages.  B is assembled, checked finite (large
    finite inputs can still overflow) and handed to one `eigh`; the duration
    does not enter B, so every quantity of the point (states, time series,
    the gate, the pi-pulse transfer and its timing, the pure-CN objective)
    follows in closed form from the eigenvalues `lam` and the orthonormal
    eigenvectors `v` (columns).  It keeps only `matrix_b`, `lam` and `v`, read-only.

    Structure (basis order 00, 01, 10, 11), with the carrier's detuning
    delta = carrier - (omega2 - J):

        B[00,00] = -2 (omega2 - omega1 - 2J) - 2 delta    B[00,01] = B[01,00] = a2
        B[01,01] = -2 (omega2 - omega1)                   B[00,10] = B[10,00] = a1
        B[10,10] = 0                                      B[01,11] = B[11,01] = a1
        B[11,11] = +2 delta                               B[10,11] = B[11,10] = a2
    """

    __slots__ = ("matrix_b", "lam", "v")

    def __init__(
        self, omega1: float, omega2: float, coupling_j: float, carrier: float, a1: float, a2: float
    ):
        # check_param's rules in one chain: a call per name would cost a search 3-5% of its speed
        if not (
            0.0 < omega1 < inf and 0.0 < omega2 < inf and -inf < coupling_j < inf
            and 0.0 < carrier < inf and 0.0 <= a1 < inf and 0.0 <= a2 < inf
        ):
            names = ("omega1", "omega2", "coupling_j", "carrier", "a1", "a2")
            for name, value in zip(names, (omega1, omega2, coupling_j, carrier, a1, a2)):
                check_param(name, value)
        d3 = 2.0 * (carrier - (omega2 - coupling_j))
        d0 = -2.0 * (omega2 - omega1 - 2.0 * coupling_j) - d3
        d1 = -2.0 * (omega2 - omega1)
        # a1 and a2 are finite by the chain above, and d3 is finite whenever d0 is,
        # so B is finite iff d0 and d1 are
        if not (-inf < d0 < inf and -inf < d1 < inf):
            raise ValueError("generator contains non-finite entries")
        b = np.zeros((4, 4))
        b[0, 0], b[1, 1], b[3, 3] = d0, d1, d3
        b[0, 1] = b[1, 0] = a2
        b[0, 2] = b[2, 0] = a1
        b[1, 3] = b[3, 1] = a1
        b[2, 3] = b[3, 2] = a2
        # looked up per call, so a wrapper put on numpy.linalg sees every one
        lam, v = np.linalg.eigh(b)
        # read-only; the positional form costs a quarter of setflags(write=False)
        b.setflags(False)
        lam.setflags(False)
        v.setflags(False)
        self.matrix_b, self.lam, self.v = b, lam, v

    def gate(self, tau: float, frame: str = "raw") -> np.ndarray:
        """Gate U = exp(i B tau/2) = (V e^{i Lambda tau/2}) V^T, checked unitary to 1e-8.

        The state at time t is `gate(t, frame) @ amps`, so column j is the
        pulse-end state of digital input j; "primed" rephases U's rows.
        """
        if not (0.0 <= tau < inf and (frame == "raw" or frame == "primed")):
            check_param("duration", tau)
            check_param("frame", frame)
        gate = (self.v * np.exp(0.5j * self.lam * tau)) @ self.v.T
        defect = np.abs(gate.conj().T @ gate - _EYE4).max()
        if not defect <= GATE_UNITARITY_TOL:  # also a nan defect, from overflowed phases
            raise RuntimeError(f"gate at tau={tau!r} is not unitary (defect {defect:.3e})")
        if frame == "primed":
            gate = frame_phase_factors(self, tau)[:, None] * gate
        return gate

    def transfer(self, tau: float) -> float:
        """Population |c10(tau)|^2 reached from |11>.

        Closed form of `gate(tau)[2, 3]`, the one amplitude it needs:
        c10(tau) = sum_k V[2,k] V[3,k] exp(i lam_k tau / 2), summed left to
        right in Python floats.  numpy's dot of the same terms accumulates
        with fused multiply-adds, so the two can differ by a few ulp.
        """
        return _transfer_probe(self.lam, self.v)(tau)

    def pi_duration(self) -> float:
        """Duration maximizing `transfer`: the operational pi-pulse.

        The 10 <-> 11 pair turns over at the generalized Rabi rate
        hypot(a2, delta), so the pi-pulse is near tau0 = pi / hypot(a2, delta).
        Golden-section search on [0.8, 1.2] * tau0, refined until the
        bracket is narrower than 1e-6 * tau0; 32 transfer probes.  The
        transfer peaks at a2^2 / (a2^2 + delta^2), so a carrier detuned by
        more than a2 moves less than half the population and is rejected.

        Raises
        ------
        CalibrationError
            If the search converges onto a bracket endpoint, i.e. there is no
            interior maximum; the endpoint transfer values are reported.  Also
            if the interior maximum transfers less than half the population
            (no inversion, as when omega1 = omega2 or |delta| > a2); it is
            reported with its tau.
        ValueError
            If a2 is not positive (no resonant drive, no pi condition).
        """
        a2 = float(self.matrix_b[0, 1])
        if a2 <= 0:
            raise ValueError("pi-pulse calibration requires a2 > 0")
        # B[00,01] = a2 and B[11,11] = 2 delta
        tau_nominal = np.pi / hypot(a2, 0.5 * float(self.matrix_b[3, 3]))
        lo, hi = _PI_BRACKET[0] * tau_nominal, _PI_BRACKET[1] * tau_nominal
        tol = _PI_REL_TOL * tau_nominal

        f = _transfer_probe(self.lam, self.v)
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
        if f_star < _PI_MIN_TRANSFER:
            raise CalibrationError(
                f"no population inversion in [{lo!r}, {hi!r}]: "
                f"best transfer {f_star!r} at {tau_star!r} is below {_PI_MIN_TRANSFER!r}"
            )
        return float(tau_star)

    def objective(self, tau: float) -> float:
        """Raw-frame infidelity against i * CN at duration tau.

        1 - |tr((i CN)^dag U)| / 4, with the trace written out: (i CN)^dag U
        has -i times U[0,0], U[1,1], U[3,2], U[2,3] on its diagonal.  It
        agrees with 1 - `gate_fidelity(U, i CN)` to 1e-15, not to the bit:
        that one sums all sixteen products of the flattened matrices.
        """
        g = self.gate(tau)
        return 1.0 - float(abs((g[0, 0] + g[1, 1]) + (g[3, 2] + g[2, 3])) / 4.0)

    def timeseries(
        self, initial: QState, duration: float, sample_dt: float, frame: str = "primed"
    ) -> TimeSeries:
        """`initial` propagated from t = 0 to t = 0, dt, 2dt, ... and the pulse end."""
        check_param("duration", duration)
        check_param("sample_dt", sample_dt)
        check_param("frame", frame)
        ts = _sample_grid(duration, sample_dt)
        proj = self.v.T @ initial.amps
        amps = (self.v @ (np.exp(0.5j * np.outer(self.lam, ts)) * proj[:, None])).T
        if frame == "primed":
            amps = amps * frame_phase_factors(self, ts[:, None])
        return TimeSeries(t=ts, amps=amps)


def _transfer_probe(lam: np.ndarray, v: np.ndarray):
    """`Generator.transfer` as a function of tau alone, over plain Python floats.

    The weights V[2,k] V[3,k] and the half-eigenvalues are read out once, so
    a probe makes no numpy call: pi timing probes 32 durations per point.
    """
    w0, w1, w2, w3 = (v[2] * v[3]).tolist()
    h0, h1, h2, h3 = (0.5 * lam).tolist()

    def probe(tau: float) -> float:
        re = w0 * cos(h0 * tau) + w1 * cos(h1 * tau) + w2 * cos(h2 * tau) + w3 * cos(h3 * tau)
        im = w0 * sin(h0 * tau) + w1 * sin(h1 * tau) + w2 * sin(h2 * tau) + w3 * sin(h3 * tau)
        return abs(complex(re, im)) ** 2

    return probe


def build_generator(params: SystemParams, pulse: PulseSpec) -> Generator:
    """The `Generator` of a system and a pulse; the pulse duration does not enter B."""
    return Generator(
        params.omega1, params.omega2, params.coupling_j, pulse.carrier, pulse.a1, pulse.a2
    )


def evolve_rk4(state: QState, gen: Generator, t: float, dt: float) -> np.ndarray:
    """Classical 4th-order Runge-Kutta solution of dc/dt = (i/2) B c.

    Independent cross-check for `Generator.gate`; global error is O(dt^4).
    Accuracy requires dt * rho(B)/2 well below 1, with rho the spectral
    radius; for strongly detuned systems this means a much finer step than
    the pulse timescale suggests.

    The system is linear and autonomous, so one RK4 step is a fixed linear
    map.  The stage matrix is built once (the four stages applied to the
    identity) and raised to the number of steps by binary exponentiation,
    which reproduces the stepped iteration to rounding accuracy.

    `dt` is rounded to the nearest exact subdivision of t.  Returns the
    amplitude vector, as `gen.gate(t) @ state.amps` does; raises ValueError
    if its squared norm is off 1 by more than 1e-3 (a step too coarse).
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
    # RK4 is not exactly unitary, and renormalizing would hide integration error
    norm2 = float(np.sum(np.abs(evolved) ** 2))
    if not abs(norm2 - 1.0) <= 1e-3:
        raise ValueError(f"RK4 state norm^2 = {norm2!r} deviates from 1 by more than 0.001")
    return evolved


def frame_phase_factors(gen: Generator, t: float | np.ndarray) -> np.ndarray:
    """Diagonal of the raw -> primed frame transform at time t: exp(-i diag(B) t / 2).

    Drive-free evolution in the rotating frame is the pure phases
    exp(i diag(B) t / 2); the primed frame strips them.  A column of times
    (shape (n, 1)) gives one row of factors per time.
    """
    # as 1j * rate * t with rate = -B_kk / 2: other orders flip the sign of some zero
    # parts of the factors, and a primed CSV row prints that sign
    return np.exp(1j * (-0.5 * gen.matrix_b.diagonal()) * t)


def _sample_grid(duration: float, sample_dt: float) -> np.ndarray:
    """Times 0, dt, 2dt, ... plus the pulse end, which is always the last row.

    A grid point within rounding of the end (as when `sample_dt` divides
    the duration exactly) is the end, not a separate interior row, so a
    zero-length pulse is the one row t = 0.
    """
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
    return build_generator(params, pulse).timeseries(initial, pulse.duration, sample_dt, frame)
