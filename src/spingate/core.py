"""Domain types and basis conventions for the two-spin Ising gate simulator.

The computational basis is ordered (|00>, |01>, |10>, |11>), first digit =
control spin, second digit = target spin.  Every matrix, state vector and
CSV column in this package uses that order.  All frequencies and amplitudes
are dimensionless angular frequencies (hbar = 1); times are their inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, pi, remainder
from typing import Sequence

import numpy as np

__all__ = [
    "BASIS_LABELS",
    "BASIS_INDEX",
    "SystemParams",
    "PulseSpec",
    "QState",
    "GcnPhases",
    "TimeSeries",
    "digital_state",
    "superposition_state",
    "wrap_angle",
    "check_param",
    "GcnPatternError",
    "CalibrationError",
]

BASIS_LABELS = ("00", "01", "10", "11")
BASIS_INDEX = {label: i for i, label in enumerate(BASIS_LABELS)}

#: tolerance on | ||amps||^2 - 1 | for states accepted as physical
NORM_TOL = 1e-9

class CalibrationError(RuntimeError):
    """Raised when a calibration search cannot locate an interior optimum."""


class GcnPatternError(ValueError):
    """A gate matrix does not fit the phased controlled-NOT sparsity pattern.

    Attributes
    ----------
    max_leak : float
        Largest modulus found outside the pattern.
    indices : tuple[int, int]
        Matrix indices of the offending entry.
    """

    def __init__(self, message: str, max_leak: float, indices: tuple[int, int]):
        super().__init__(message)
        self.max_leak = max_leak
        self.indices = indices


def _positive(x) -> bool:
    return 0.0 < x < inf


def _nonnegative(x) -> bool:
    return 0.0 <= x < inf


#: the range rule of each named value: a test and the requirement it states
_RULES = {
    "omega1": (_positive, "must be positive and finite"),
    "omega2": (_positive, "must be positive and finite"),
    "coupling_j": (lambda x: -inf < x < inf, "must be finite"),
    "carrier": (_positive, "must be positive and finite"),
    "a1": (_nonnegative, "must be >= 0"),
    "a2": (_nonnegative, "must be >= 0"),
    "duration": (_nonnegative, "must be finite and >= 0"),
    "sample_dt": (_positive, "must be positive and finite"),
    "frame": (lambda x: x in ("raw", "primed"), "must be 'raw' or 'primed'"),
    # a nan or inf budget is never spent; a nan tolerance is never met, an inf one at once
    "max_evaluations": (lambda x: isinstance(x, (int, np.integer)) and x >= 1,
                        "must be an integer >= 1"),
    "objective_tol": (_positive, "must be positive and finite"),
    # what a config line can hold, so an emitted config reloads the same path
    "out": (
        lambda x: "#" not in x and x.splitlines() == [x] and x == x.strip(),
        "must be one line with no '#' and no surrounding whitespace",
    ),
}


def check_param(name: str, value) -> None:
    """Raise `ValueError` unless `value` meets the range rule of `name`.

    The message reads "<name> <requirement>, got <value>"; text prints with
    repr(), numbers with str(), so a numpy scalar prints as a plain number.
    """
    test, requirement = _RULES[name]
    if not test(value):
        got = repr(value) if isinstance(value, str) else str(value)
        raise ValueError(f"{name} {requirement}, got {got}")


def wrap_angle(phi: float) -> float:
    """Reduce a finite angle to (-pi, pi] by IEEE remainder, which rounds nothing."""
    wrapped = remainder(phi, 2.0 * pi)
    return pi if wrapped == -pi else wrapped


@dataclass(frozen=True)
class SystemParams:
    """Static spin system: resonance frequencies and Ising coupling.

    The four levels sit at the transition frequencies omega_n +/- J.  The
    target-spin transition conditional on the control being |1> is at
    omega2 - J; gate scenarios therefore require a nonzero coupling, or the
    conditional line is not spectrally distinct.
    """

    omega1: float
    omega2: float
    coupling_j: float

    def __post_init__(self):
        for name, value in vars(self).items():
            check_param(name, value)

    @property
    def resonant_carrier(self) -> float:
        """Frequency of the conditional target transition, omega2 - J."""
        return self.omega2 - self.coupling_j


@dataclass(frozen=True)
class PulseSpec:
    """One rectangular, circularly polarized transverse pulse.

    The field is on at full amplitude for t in [0, duration] and absent
    outside; no rise or fall shaping is supported.
    """

    carrier: float
    a1: float
    a2: float
    duration: float

    def __post_init__(self):
        for name, value in vars(self).items():
            check_param(name, value)


@dataclass(frozen=True)
class QState:
    """Four complex amplitudes over the (00, 01, 10, 11) basis.

    Instances are immutable; the amplitude array is copied in and marked
    read-only.  Construction validates normalization to 1e-9.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if amps.shape != (4,):
            raise ValueError(f"need exactly 4 amplitudes, got shape {np.shape(self.amps)}")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {norm2!r} deviates from 1 by more than {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def c00(self) -> complex:
        return complex(self.amps[0])

    @property
    def c01(self) -> complex:
        return complex(self.amps[1])

    @property
    def c10(self) -> complex:
        return complex(self.amps[2])

    @property
    def c11(self) -> complex:
        return complex(self.amps[3])

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def digital_state(label: str) -> QState:
    """Unit basis state |label> with amplitude 1 at the label's index.

    Raises
    ------
    ValueError
        If `label` is not one of '00', '01', '10', '11'.
    """
    if label not in BASIS_INDEX:
        raise ValueError(
            f"invalid basis label {label!r}; valid labels are {', '.join(BASIS_LABELS)}"
        )
    amps = np.zeros(4, dtype=complex)
    amps[BASIS_INDEX[label]] = 1.0
    return QState(amps)


def superposition_state(amps: Sequence[complex], normalize: bool = False) -> QState:
    """Validated superposition over the four basis states.

    With `normalize=True` the amplitudes are divided by their largest part (real
    or imaginary: a modulus can overflow), so squaring neither underflows nor
    overflows, then by their norm; without it, vectors whose squared norm
    deviates from 1 by more than 1e-9 are rejected with the measured norm.
    """
    arr = np.array(amps, dtype=complex).reshape(-1)
    if arr.shape != (4,):
        raise ValueError(f"need exactly 4 amplitudes, got shape {np.shape(amps)}")
    peak = float(np.abs(arr.view(float)).max())
    if peak == 0.0:
        raise ValueError("zero vector is not a valid state")
    if not peak < inf:
        raise ValueError("amplitudes must be finite")
    if normalize:
        arr = arr / peak
        arr = arr / np.sqrt(np.sum(np.abs(arr) ** 2))
    return QState(arr)


@dataclass(frozen=True)
class GcnPhases:
    """Per-basis-state phase shifts of a phased controlled-NOT, in radians.

    Note the index crossing in the gate itself: `dphi11` multiplies the
    |10><11| entry and `dphi10` the |11><10| entry (the phase is named after
    the amplitude it acts on, not the row it lands in).  Normalized
    instances produced by phase extraction have dphi00 == 0 exactly and all
    phases in (-pi, pi].
    """

    dphi00: float
    dphi01: float
    dphi10: float
    dphi11: float


@dataclass(frozen=True)
class TimeSeries:
    """Sampled amplitude trajectory: times, amplitudes, squared norms.

    `norm` is derived: each row's sum of |c|^2, computed here from `amps`.
    """

    t: np.ndarray
    amps: np.ndarray
    norm: np.ndarray = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        amps = np.asarray(self.amps, dtype=complex)
        if t.ndim != 1 or amps.shape != (t.size, 4):
            raise ValueError("inconsistent row shapes")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(amps))):
            raise ValueError("times and amplitudes must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "norm", np.sum(np.abs(amps) ** 2, axis=1))

    def __len__(self) -> int:
        return int(self.t.size)
