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

import numpy as np

from .core import GateMatrix, GcnPhases, GcnPatternError, SystemParams, PulseSpec, wrap_angle
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

#: largest modulus off the phased-CN pattern (and deficit on it) a gate may have
GCN_LEAK_TOL = 1e-2


def cn_matrix() -> GateMatrix:
    """The pure controlled-NOT permutation matrix."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = m[2, 3] = m[3, 2] = 1.0
    return m


def gcn_matrix(phases: GcnPhases) -> GateMatrix:
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


def tomography(params: SystemParams, pulse: PulseSpec, frame: str = "primed") -> GateMatrix:
    """Reconstruct the gate a pulse implements, one basis state per column.

    Column j is the state at the pulse end for digital input j, optionally
    transformed to the primed frame.  All four columns come from one
    eigendecomposition as U = (V e^{i Lambda tau/2}) V^T, with the primed
    phases applied to its rows.  The result is unitary by construction; the
    raw-frame U is still verified to 1e-8 in max norm.
    """
    return build_generator(params, pulse).gate(pulse.duration, frame)


def extract_gcn_phases(gate: GateMatrix) -> GcnPhases:
    """Read the four phase shifts off a gate in the phased-CN pattern.

    Every entry outside the pattern must have modulus <= GCN_LEAK_TOL and
    every patterned entry modulus >= 1 - GCN_LEAK_TOL, otherwise the gate
    does not implement a conditional NOT and a `GcnPatternError` carries the
    largest offending modulus and its indices.  The global phase is fixed by
    subtracting the (00,00) entry's argument, so dphi00 is exactly zero and
    all phases lie in (-pi, pi].
    """
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (4, 4):
        raise ValueError(f"gate must be 4x4, got {gate.shape}")
    defect = np.abs(gate.conj().T @ gate - np.eye(4)).max()
    if not defect <= 1e-6:
        raise ValueError(f"gate is not unitary within 1e-6 (defect {defect:.3e})")

    moduli = np.abs(gate)
    off = moduli.copy()
    for i, j in GCN_PATTERN:
        off[i, j] = 0.0
    worst_idx = np.unravel_index(np.argmax(off), off.shape)
    worst_leak = float(off[worst_idx])
    if worst_leak > GCN_LEAK_TOL:
        raise GcnPatternError(
            f"entry {worst_idx} has modulus {worst_leak:.3e} outside the phased-CN "
            f"pattern (leak tolerance {GCN_LEAK_TOL:g}); the gate is not a conditional NOT",
            max_leak=worst_leak,
            indices=(int(worst_idx[0]), int(worst_idx[1])),
        )
    for i, j in GCN_PATTERN:
        if moduli[i, j] < 1.0 - GCN_LEAK_TOL:
            raise GcnPatternError(
                f"patterned entry ({i}, {j}) has modulus {moduli[i, j]:.6f} below "
                f"1 - {GCN_LEAK_TOL:g}; the gate is not a conditional NOT",
                max_leak=float(1.0 - moduli[i, j]),
                indices=(i, j),
            )

    global_phase = np.angle(gate[0, 0])
    dphi00 = 0.0
    dphi01 = wrap_angle(np.angle(gate[1, 1]) - global_phase)
    dphi11 = wrap_angle(np.angle(gate[2, 3]) - global_phase)
    dphi10 = wrap_angle(np.angle(gate[3, 2]) - global_phase)
    return GcnPhases(dphi00=dphi00, dphi01=dphi01, dphi10=dphi10, dphi11=dphi11)


def gate_fidelity(gate: GateMatrix, target: GateMatrix) -> float:
    """Global-phase-invariant overlap |trace(target^dag gate)| / 4.

    Equals 1 iff gate = e^{i alpha} target; symmetric in its arguments and
    unchanged when either is multiplied by any unit-modulus scalar.
    """
    gate = np.asarray(gate, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if gate.shape != (4, 4) or target.shape != (4, 4):
        raise ValueError("both matrices must be 4x4")
    return float(abs(np.trace(target.conj().T @ gate)) / 4.0)
