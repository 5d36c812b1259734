"""Conditional population swap under a resonant pi-pulse.

A two-spin Ising system has four transition lines at omega_n +/- J.  A
rectangular pulse at omega2 - J addresses the target spin only when the
control spin is excited: it swaps the |10> and |11> amplitudes while the
|00> and |01> amplitudes merely wobble.  This script calibrates the
pi-pulse duration, runs the two resonant scenarios in the primed frame
(free-evolution phases stripped), and writes the |11> trajectory to CSV
for external plotting.

Run from the repository root:  python3 demos/01_resonant_pi_pulse.py
"""

from pathlib import Path

import numpy as np

from spingate import BASIS_INDEX, Generator, digital_state
from spingate.cli import write_timeseries_csv

OUT_DIR = Path("demo_output")
OUT_DIR.mkdir(exist_ok=True)

# one parameter point: omega1, omega2, J, carrier, a1, a2, diagonalized once
omega1, omega2, coupling_j = 500.0, 100.0, 5.0
gen = Generator(omega1, omega2, coupling_j, 95.0, 0.5, 0.1)
print("system: omega1=500, omega2=100, J=5  ->  conditional line at", omega2 - coupling_j)

tau = gen.pi_duration()
print(f"calibrated pi-pulse duration: {tau:.9f}  (nominal pi/a2 = {np.pi / 0.1:.9f})")

# the gate is the propagator: column j is the state at tau for input j
gate = gen.gate(tau, "primed")
for label, partner in (("11", "10"), ("10", "11")):
    amp = gate[BASIS_INDEX[partner], BASIS_INDEX[label]]
    print(f"|{label}>  ->  c{partner}'(tau) = {amp:.6f}   (expected ~ i)")

for label in ("00", "01"):
    moved = np.abs(gate @ digital_state(label).amps - digital_state(label).amps).max()
    print(f"|{label}>  ->  off-resonant, max amplitude change {moved:.2e} (percent-level wobble)")

series = gen.timeseries(digital_state("11"), tau, sample_dt=tau / 1000, frame="primed")
csv_path = OUT_DIR / "pi_pulse_from_11.csv"
write_timeseries_csv(series, str(csv_path))
re_c11 = series.amps[:, 3].real
im_c10 = series.amps[:, 2].imag
print(
    f"trajectory: Re c'11 falls {re_c11[0]:.3f} -> {re_c11[-1]:.1e} monotonically, "
    f"Im c'10 rises {im_c10[0]:.3f} -> {im_c10[-1]:.6f}"
)
print(f"wrote {len(series)} samples -> {csv_path}")
