"""Reconstructing the two-qubit gate a pi-pulse implements.

Propagating each digital basis state through the pulse and collecting the
final states as matrix columns reconstructs the gate exactly (the map is
linear).  In the primed frame the benchmark pulse realizes a controlled-NOT
decorated with per-state phases: the swapped amplitudes carry phase pi/2
(the factor i) while the spectator states carry ~0.  Such a phased gate is
not interchangeable with the plain controlled-NOT: its best-case
phase-invariant overlap with it is 1/sqrt(2).

Run from the repository root:  python3 demos/03_gate_tomography.py
"""

import numpy as np

from spingate import GcnPhases, Generator, cn_matrix, extract_gcn_phases, gate_fidelity, gcn_matrix

# one parameter point (omega1=500, omega2=100, J=5, carrier=95, a1=0.5, a2=0.1),
# diagonalized once
gen = Generator(500.0, 100.0, 5.0, 95.0, 0.5, 0.1)
gate = gen.gate(gen.pi_duration(), "primed")
print("primed-frame gate (moduli):")
with np.printoptions(precision=4, suppress=True):
    print(np.abs(gate))

phases = extract_gcn_phases(gate)
print("\nextracted per-state phases (rad):")
print(f"  dphi00 = {phases.dphi00:+.6f}")
print(f"  dphi01 = {phases.dphi01:+.6f}")
print(f"  dphi10 = {phases.dphi10:+.6f}   (pi/2 = {np.pi/2:.6f})")
print(f"  dphi11 = {phases.dphi11:+.6f}")

quarter = gcn_matrix(GcnPhases(0, 0, np.pi / 2, np.pi / 2))
print("\nfidelities (global-phase invariant):")
print(f"  reconstructed vs phased-CN(0, 0, pi/2, pi/2): {gate_fidelity(gate, quarter):.6f}")
print(f"  reconstructed vs plain CN:                    {gate_fidelity(gate, cn_matrix()):.6f}")
print(f"  phased-CN(0, 0, pi/2, pi/2) vs plain CN:      {gate_fidelity(quarter, cn_matrix()):.6f}")
print(f"  (1/sqrt(2) = {1/np.sqrt(2):.6f}: the i-swap phases are physical, not removable)")
