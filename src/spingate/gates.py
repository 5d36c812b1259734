"""Gate reconstruction, phase extraction and fidelity scoring.

A controlled-NOT flips the target amplitude pair when the control is |1>:

    CN = |00><00| + |01><01| + |10><11| + |11><10|.

A resonant pulse implements this only up to per-state phase factors.  The
phased gate keeps the same sparsity pattern with a unit-modulus phase on
each nonzero entry:

    GCN(dphi) = e^{i dphi00} |00><00| + e^{i dphi01} |01><01|
              + e^{i dphi11} |10><11| + e^{i dphi10} |11><10|.

The crossing of indices is deliberate: dphi11 is the phase picked up by the
c11 amplitude, which the gate deposits in the c10 slot, and vice versa.
"""

from __future__ import annotations

from math import atan2

import numpy as np

from .core import GcnPhases, GcnPatternError, SystemParams, PulseSpec, wrap_angle
from .propagator import build_generator

__all__ = [
    "cn_matrix",
    "gcn_matrix",
    "tomography",
    "extract_gcn_phases",
    "gate_fidelity",
    "GCN_PATTERN",
]

#: (row, column) indices of the nonzero entries of a phased controlled-NOT
GCN_PATTERN = ((0, 0), (1, 1), (2, 3), (3, 2))
_OFF_PATTERN = tuple(k for k in range(16) if divmod(k, 4) not in GCN_PATTERN)  # row-major

#: largest modulus off the phased-CN pattern a gate may have
GCN_LEAK_TOL = 1e-2


def cn_matrix() -> np.ndarray:
    """The pure controlled-NOT permutation matrix."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = m[2, 3] = m[3, 2] = 1.0
    return m


def gcn_matrix(phases: GcnPhases) -> np.ndarray:
    """Controlled-NOT with per-state phases.

    Entry placement: e^{i dphi00} at (00,00), e^{i dphi01} at (01,01),
    e^{i dphi11} at (10,11) and e^{i dphi10} at (11,10).
    """
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = np.exp(1j * phases.dphi00)
    m[1, 1] = np.exp(1j * phases.dphi01)
    m[2, 3] = np.exp(1j * phases.dphi11)
    m[3, 2] = np.exp(1j * phases.dphi10)
    return m


def tomography(params: SystemParams, pulse: PulseSpec, frame: str = "primed") -> np.ndarray:
    """Reconstruct the gate a pulse implements, one basis state per column.

    Column j is the state at the pulse end for digital input j, optionally
    transformed to the primed frame.  All four columns come from one
    eigendecomposition as U = (V e^{i Lambda tau/2}) V^T, with the primed
    phases applied to its rows.  The result is unitary by construction; the
    raw-frame U is still verified to 1e-8 in max norm.
    """
    return build_generator(params, pulse).gate(pulse.duration, frame)


def extract_gcn_phases(gate: np.ndarray) -> GcnPhases:
    """Read the four phase shifts off a gate in the phased-CN pattern.

    Every entry outside the pattern must have modulus <= GCN_LEAK_TOL,
    otherwise the gate does not implement a conditional NOT and a
    `GcnPatternError` carries the largest off-pattern modulus and its
    indices.  The gate must be unitary to 1e-6, so each patterned entry then
    has modulus above 1 - GCN_LEAK_TOL.  The global phase is fixed by
    subtracting the (00,00) entry's argument, so dphi00 is exactly zero and
    all phases lie in (-pi, pi].
    """
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (4, 4):
        raise ValueError(f"gate must be 4x4, got {gate.shape}")
    defect = np.abs(gate.conj().T @ gate - np.eye(4)).max()
    if not defect <= 1e-6:
        raise ValueError(f"gate is not unitary within 1e-6 (defect {defect:.3e})")

    # read out in Python floats, except np.abs's moduli (abs() lacks its fused multiply-add)
    z = gate.ravel().tolist()
    moduli = np.abs(gate).ravel().tolist()
    # the first largest off-pattern modulus in row-major order, as np.argmax picks it
    k = max(_OFF_PATTERN, key=moduli.__getitem__)
    worst_leak, worst_idx = moduli[k], divmod(k, 4)
    # the one pattern check: a column's norm^2 is >= 1 - 1e-6, so a patterned modulus below
    # 1 - GCN_LEAK_TOL leaves an off-pattern one >= sqrt((1 - 1e-6 - 0.99^2) / 3) ~ 0.081
    if worst_leak > GCN_LEAK_TOL:
        raise GcnPatternError(
            f"entry {worst_idx} has modulus {worst_leak:.3e} outside the phased-CN "
            f"pattern (leak tolerance {GCN_LEAK_TOL:g}); the gate is not a conditional NOT",
            max_leak=worst_leak,
            indices=worst_idx,
        )

    # the argument as np.angle and cmath.phase take it, without importing cmath
    global_phase = atan2(z[0].imag, z[0].real)
    dphi01 = wrap_angle(atan2(z[5].imag, z[5].real) - global_phase)
    dphi11 = wrap_angle(atan2(z[11].imag, z[11].real) - global_phase)
    dphi10 = wrap_angle(atan2(z[14].imag, z[14].real) - global_phase)
    return GcnPhases(dphi00=0.0, dphi01=dphi01, dphi10=dphi10, dphi11=dphi11)


def gate_fidelity(gate: np.ndarray, target: np.ndarray) -> float:
    """Global-phase-invariant overlap |trace(target^dag gate)| / 4.

    Equals 1 iff gate = e^{i alpha} target; symmetric in its arguments and
    unchanged when either is multiplied by any unit-modulus scalar.  The
    trace is np.vdot(target, gate): the conjugated dot product of the entries.
    """
    gate = np.asarray(gate, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if gate.shape != (4, 4) or target.shape != (4, 4):
        raise ValueError("both matrices must be 4x4")
    return float(abs(np.vdot(target, gate)) / 4.0)
