"""Pi-pulse action on a four-component superposition.

Linearity makes the digital-state results compose: for any input the pulse
swaps the conditional pair with a 90-degree phase ("i") while leaving the
nonresonant amplitudes close to their initial values.  The benchmark input
here has squared weights 3/10, 1/5, 1/3, 1/6 (an exact decomposition of
unity), so every component is visibly populated.

Run from the repository root:  python3 demos/02_superposition_transfer.py
"""

from pathlib import Path

from spingate import Generator, QState, superposition_state
from spingate.cli import write_timeseries_csv
from spingate.config import EQ21_AMPS

OUT_DIR = Path("demo_output")
OUT_DIR.mkdir(exist_ok=True)

# one parameter point (omega1=500, omega2=100, J=5, carrier=95, a1=0.5, a2=0.1),
# diagonalized once
gen = Generator(500.0, 100.0, 5.0, 95.0, 0.5, 0.1)
tau = gen.pi_duration()

initial = superposition_state(EQ21_AMPS)
print("initial amplitudes (sqrt of 3/10, 1/5, 1/3, 1/6):")
for label, amp in zip(("00", "01", "10", "11"), initial.amps):
    print(f"  c'{label}(0) = {amp:.6f}")

final = QState(gen.gate(tau, "primed") @ initial.amps)

print("\nafter the pi-pulse (primed frame):")
print(f"  c'11(tau) = {final.c11:.6f}   vs i * c'10(0) = {1j * initial.c10:.6f}")
print(f"  c'10(tau) = {final.c10:.6f}   vs i * c'11(0) = {1j * initial.c11:.6f}")
print(f"  c'00(tau) = {final.c00:.6f}   (held near {initial.c00:.6f})")
print(f"  c'01(tau) = {final.c01:.6f}   (held near {initial.c01:.6f})")
print(f"  norm check: {final.norm_squared():.15f}")

series = gen.timeseries(initial, tau, sample_dt=tau / 1000, frame="primed")
csv_path = OUT_DIR / "pi_pulse_superposition.csv"
write_timeseries_csv(series, str(csv_path))
print(f"\nwrote {len(series)} samples -> {csv_path}")
