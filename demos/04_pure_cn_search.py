"""Hunting the pure controlled-NOT in the raw rotating frame.

In the raw frame the spectator amplitudes keep their free-evolution
phases, winding at ~410 and ~400 rad per unit time.  A pulse that swaps
the conditional pair cleanly therefore still leaves the four gate phases
misaligned, and no amplitude change alone can fix that: the phases are set
by frequencies and duration.  Aligning all four (up to one overall factor
i) takes small joint shifts of omega1, a2 and the duration.  This script
shows the failure of the amplitude-only search, the success of the
three-parameter search, and the phase-sensitivity of the duration.  Both
searches are Levenberg-Marquardt runs on the gate's exact derivatives, read
off each point's one eigensystem: the three-parameter search lands in 6
evaluations, and the amplitude-only one stops where its model predicts no
further decrease, scans a 65-point grid centred on its start, finds no
better point to restart from and ends after 74.

Run from the repository root:  python3 demos/04_pure_cn_search.py
"""

import numpy as np

from spingate import (
    Generator,
    PulseSpec,
    SearchSpec,
    SystemParams,
    build_generator,
    cn_matrix,
    gate_fidelity,
    tune_pure_cn,
)
from spingate.config import PARAMS24_DURATION, PRESETS, RunConfig

# each parameter point below is one Generator, diagonalized once
system = SystemParams(omega1=500.0, omega2=100.0, coupling_j=5.0)
template = PulseSpec(carrier=system.resonant_carrier, a1=0.5, a2=0.1, duration=0.0)
gen = build_generator(system, template)
tau = gen.pi_duration()
pulse = PulseSpec(carrier=system.resonant_carrier, a1=0.5, a2=0.1, duration=tau)

print(f"starting point: omega1=500, a2=0.1, duration={tau:.6f}")
print(f"raw-frame objective (1 - fidelity vs i*CN): {gen.objective(tau):.4f}")

print("\n[1] amplitude-only search (a2 free, duration fixed)")
amp_only = tune_pure_cn(system, pulse, SearchSpec(free=("a2",)))
print(
    f"    best objective {amp_only.objective:.4f} after {amp_only.evaluations} "
    f"evaluations; converged = {amp_only.converged}"
)
print("    amplitude cannot realign phases: the search saturates far from zero")

print("\n[2] three-parameter search (omega1, a2, duration; a1 tied to a2*omega1/omega2)")
full = tune_pure_cn(
    system, pulse, SearchSpec(free=("omega1", "a2", "duration"), tie_a1=True)
)
print(
    f"    objective {full.objective:.2e} after {full.evaluations} evaluations; "
    f"converged = {full.converged}"
)
print(f"    omega1: 500 -> {full.params.omega1:.7f}")
print(f"    a2:     0.1 -> {full.pulse.a2:.8f}")
print(f"    tau:    {tau:.6f} -> {full.pulse.duration:.6f}")

gate = build_generator(full.params, full.pulse).gate(full.pulse.duration, "raw")
print("    raw-frame gate at the tuned point (entries ~ i on the CN pattern):")
with np.printoptions(precision=3, suppress=True):
    print(np.round(gate, 3))
print(f"    fidelity vs i*CN: {gate_fidelity(gate, 1j * cn_matrix()):.7f}")

print("\n[3] the shipped tuned preset (params24) and its duration sensitivity")
preset = RunConfig(**PRESETS["params24"])
gen24 = Generator(
    preset.omega1, preset.omega2, preset.coupling_j, preset.carrier, preset.a1, preset.a2
)
print(f"    omega1={preset.omega1}, a2={preset.a2}, a1=a2*omega1/omega2={preset.a1:.9f}")
print(f"    stored duration: {PARAMS24_DURATION:.9f}")
print(f"    objective at stored duration:   {gen24.objective(PARAMS24_DURATION):.2e}")
transfer_tau = gen24.pi_duration()
print(
    f"    objective at transfer-max duration {transfer_tau:.6f}: "
    f"{gen24.objective(transfer_tau):.4f}"
)
print(
    "    moving the duration by ~0.05 barely changes the population transfer\n"
    "    but winds the spectator phases by ~20 rad: the pure point is a\n"
    "    needle in duration, which is why it is calibrated against the\n"
    "    gate objective rather than the transfer maximum"
)
