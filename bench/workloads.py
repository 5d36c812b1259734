"""The four benchmark workloads: seeded inputs, one operation, independent checks.

Each workload turns a seed into a fixed list of inputs (`items`), which the
run replays in order, round-robin.  Preparing an item may call spingate
(for example to calibrate a starting duration); that happens during set-up,
outside every timed region.  `run` is the timed operation.  `check`
verifies its output against the benchmark's own reference, built from the
documented generator formula with `scipy.linalg.expm`, and returns the
counters the traced run reports.

References and checks run in the benchmark's checker process (see
child.py), never in the process that runs the operations, and this module
imports scipy only inside the functions that need it: the workload process
and the set-up probe load no module that spingate itself does not load.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import spingate as sg

from env import ROOT, child_env

#: header of the simulation CSV, as documented in the README
CSV_HEADER = "t,re_c00,im_c00,re_c01,im_c01,re_c10,im_c10,re_c11,im_c11,norm"

#: i * CN, the pure controlled-NOT target, assembled here rather than by spingate
ICN = 1j * np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

CHILD_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------------
# benchmark-side reference physics


def generator_matrix(omega1, omega2, coupling_j, a1, a2) -> np.ndarray:
    """B of dc/dt = (i/2) B c, assembled here from its documented formula."""
    b = np.zeros((4, 4))
    b[0, 0] = -2.0 * (omega2 - omega1 - 2.0 * coupling_j)
    b[1, 1] = -2.0 * (omega2 - omega1)
    b[0, 1] = b[1, 0] = a2
    b[0, 2] = b[2, 0] = a1
    b[1, 3] = b[3, 1] = a1
    b[2, 3] = b[3, 2] = a2
    return b


def point_matrix(params, pulse) -> np.ndarray:
    return generator_matrix(params.omega1, params.omega2, params.coupling_j, pulse.a1, pulse.a2)


def propagator(b: np.ndarray, t: float) -> np.ndarray:
    from scipy.linalg import expm

    return expm(0.5j * t * b)


def primed_factors(omega1, omega2, coupling_j, t) -> np.ndarray:
    rates = np.array([omega2 - omega1 - 2.0 * coupling_j, omega2 - omega1, 0.0, 0.0])
    return np.exp(1j * rates * t)


def icn_infidelity(u: np.ndarray) -> float:
    """1 - |tr((i CN)^dag U)| / 4, the pure-CN objective of a raw-frame gate."""
    return 1.0 - abs(np.trace(ICN.conj().T @ u)) / 4.0


def angle_gap(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


# ----------------------------------------------------------------------------


class Workload:
    name = ""
    #: correct each operation by yardsticks taken right before and after it
    #: (see run.closed_loop), rather than by the run's mean yardstick; fixed
    #: per workload, not chosen from measured times, so that a faster program
    #: is corrected the same way as its parent
    drift_per_op = False

    def __init__(self, seed: int, workdir: Path, limit: int | None = None):
        self.workdir = Path(workdir)
        specs = self.specs(np.random.default_rng(seed))
        self.items = [self.prepare(spec) for spec in specs[:limit]]

    def specs(self, rng) -> list:
        """Plain-number inputs drawn from the seed."""
        raise NotImplementedError

    def prepare(self, spec):
        return spec

    def reference(self, item):
        return None

    def run(self, item):
        raise NotImplementedError

    def check(self, item, ref, output) -> dict:
        raise NotImplementedError

    def warmup(self, item) -> None:
        self.run(item)


class PiCalibration(Workload):
    """Pi-pulse timing, tomography, phase extraction and scoring of one point."""

    name = "pi_calibration"
    n_items = 64
    #: operations of a few ms are shorter than the machine's fast and slow
    #: spells, so one run factor leaves their times bimodal
    drift_per_op = True

    def specs(self, rng):
        out = []
        for _ in range(self.n_items):
            coupling_j = 5.0 * rng.uniform(0.96, 1.04)
            omega1 = 500.0 * rng.uniform(0.98, 1.02)
            omega2 = 100.0 * rng.uniform(0.98, 1.02)
            # a2/J <= 0.02: above that the 00/01 leak exceeds the 1e-2 pattern tolerance
            a2 = coupling_j * rng.uniform(0.012, 0.018)
            a1 = 0.5 * rng.uniform(0.8, 1.2)
            out.append((omega1, omega2, coupling_j, a1, a2))
        return out

    def prepare(self, spec):
        omega1, omega2, coupling_j, a1, a2 = spec
        system = sg.SystemParams(omega1, omega2, coupling_j)
        template = sg.PulseSpec(carrier=system.resonant_carrier, a1=a1, a2=a2, duration=0.0)
        return spec, system, template

    def reference(self, item):
        from scipy.optimize import minimize_scalar

        spec, _, _ = item
        omega1, omega2, coupling_j, a1, a2 = spec
        b = generator_matrix(*spec)
        tau_nominal = math.pi / a2

        def transfer(tau):
            return abs(propagator(b, tau)[2, 3]) ** 2

        best = minimize_scalar(
            lambda tau: -transfer(tau),
            bounds=(0.8 * tau_nominal, 1.2 * tau_nominal),
            method="bounded",
            options={"xatol": 1e-9 * tau_nominal},
        )
        tau = float(best.x)
        return {"b": b, "tau": tau, "transfer": transfer(tau), "tau_nominal": tau_nominal}

    def run(self, item):
        _, system, template = item
        tau = sg.calibrate_pi_duration(system, template)
        pulse = sg.PulseSpec(template.carrier, template.a1, template.a2, tau)
        gate = sg.tomography(system, pulse, frame="primed")
        phases = sg.extract_gcn_phases(gate)
        fidelity = sg.gate_fidelity(gate, sg.cn_matrix())
        objective = sg.pure_cn_objective(system, pulse)
        return tau, gate, phases, fidelity, objective

    def check(self, item, ref, output):
        spec, _, _ = item
        tau, gate, phases, fidelity, objective = output
        # the maximum is flat, so durations agree loosely while transfers agree tightly
        expect(abs(tau - ref["tau"]) <= 1e-4 * ref["tau_nominal"],
               f"tau {tau!r} vs reference {ref['tau']!r}")
        expect(
            abs(gate[2, 3]) ** 2 >= ref["transfer"] - 1e-9,
            f"transfer {abs(gate[2, 3]) ** 2!r} at tau {tau!r} misses the reference "
            f"maximum {ref['transfer']!r}",
        )
        raw = propagator(ref["b"], tau)
        primed = primed_factors(*spec[:3], tau)[:, None] * raw
        gap = float(np.max(np.abs(gate - primed)))
        expect(gap <= 1e-9, f"primed gate differs from expm by {gap:.3e}")
        phase = np.angle(primed[0, 0])
        want = [np.angle(primed[i, j]) - phase for i, j in ((1, 1), (3, 2), (2, 3))]
        got = (phases.dphi01, phases.dphi10, phases.dphi11)
        worst = max(angle_gap(a, b) for a, b in zip(got, want))
        expect(phases.dphi00 == 0.0 and worst <= 1e-8, f"phases {got} vs {want}")
        want_fidelity = abs(np.trace(primed[:, [0, 1, 3, 2]])) / 4.0
        expect(abs(fidelity - want_fidelity) <= 1e-9,
               f"fidelity {fidelity!r} vs expm {want_fidelity!r}")
        want_objective = icn_infidelity(raw)
        expect(abs(objective - want_objective) <= 1e-9,
               f"objective {objective!r} vs expm {want_objective!r}")
        return {}


class PureCnSearch(Workload):
    """One `tune_pure_cn` from a seeded start near params12."""

    name = "pure_cn_search"
    #: every 8th operation is an a2-only search; the rest are 3-parameter searches
    a2_only_every = 8
    #: start offsets (omega1, a2) in units of 1e-4 relative, around params12;
    #: (-1, 0) is left out because the 3-parameter search does not converge there
    tie_offsets = [(d1, d2) for d1 in range(-2, 3) for d2 in range(-2, 3) if (d1, d2) != (-1, 0)]
    a2_only_count = 3
    jitter = 1e-9

    def specs(self, rng):
        # the params12 start comes first, so the warm-up search is the same for every seed
        order = [self.tie_offsets.index((0, 0))] + [
            k for k in rng.permutation(len(self.tie_offsets)) if self.tie_offsets[k] != (0, 0)
        ]
        tie = [("tie_a1", *self.tie_offsets[k]) for k in reversed(order)]
        picks = rng.choice(len(self.tie_offsets), size=self.a2_only_count, replace=False)
        a2_only = [("a2_only", *self.tie_offsets[k]) for k in picks]
        out = []
        while tie or a2_only:
            if len(out) % self.a2_only_every == self.a2_only_every - 1 and a2_only:
                kind, d1, d2 = a2_only.pop()
            else:
                kind, d1, d2 = tie.pop()
            omega1 = 500.0 * (1.0 + 1e-4 * d1 + rng.uniform(-self.jitter, self.jitter))
            a2 = 0.1 * (1.0 + 1e-4 * d2 + rng.uniform(-self.jitter, self.jitter))
            out.append((kind, omega1, a2))
        return out

    def prepare(self, spec):
        kind, omega1, a2 = spec
        system = sg.SystemParams(omega1, 100.0, 5.0)
        a1 = a2 * omega1 / 100.0 if kind == "tie_a1" else 0.5
        template = sg.PulseSpec(carrier=system.resonant_carrier, a1=a1, a2=a2, duration=0.0)
        tau = sg.calibrate_pi_duration(system, template)
        pulse = sg.PulseSpec(template.carrier, a1, a2, tau)
        if kind == "tie_a1":
            search = sg.SearchSpec(free=("omega1", "a2", "duration"), tie_a1=True)
        else:
            search = sg.SearchSpec(free=("a2",))
        return kind, system, pulse, search

    def run(self, item):
        _, system, pulse, search = item
        return sg.tune_pure_cn(system, pulse, search)

    def check(self, item, ref, result):
        kind, system, pulse, search = item
        b = point_matrix(result.params, result.pulse)
        expected = icn_infidelity(propagator(b, result.pulse.duration))
        expect(abs(result.objective - expected) <= 1e-9,
               f"{kind}: objective {result.objective!r} vs expm {expected!r}")
        expect(result.params.omega2 == system.omega2
               and result.params.coupling_j == system.coupling_j
               and result.pulse.carrier == pulse.carrier, f"{kind}: fixed parameters moved")
        start = {"omega1": system.omega1, "a2": pulse.a2, "duration": pulse.duration}
        end = {"omega1": result.params.omega1, "a2": result.pulse.a2,
               "duration": result.pulse.duration}
        for name, x0 in start.items():
            if name in search.free:
                window = search.window_for(name) * abs(x0) * (1.0 + 1e-12)
                expect(abs(end[name] - x0) <= window, f"{kind}: {name} left the search box")
            else:
                expect(end[name] == x0, f"{kind}: {name} moved although not free")
        expect(1 <= result.evaluations <= search.max_evaluations,
               f"{kind}: {result.evaluations} evaluations")
        if kind == "tie_a1":
            expect(result.converged and expected <= search.objective_tol,
                   f"tie_a1: not converged (objective {expected!r})")
            tied = result.pulse.a2 * result.params.omega1 / result.params.omega2
            expect(abs(result.pulse.a1 - tied) <= 1e-12 * tied, "tie_a1: a1 is not tied")
        else:
            # the README's expected outcome: amplitude alone cannot realign the phases
            expect(not result.converged and expected > search.objective_tol,
                   "a2_only: expected a non-converged search")
            expect(result.pulse.a1 == pulse.a1, "a2_only: a1 moved")
        return {
            f"searches.{kind}": 1,
            f"evaluations.{kind}": result.evaluations,
            f"converged.{kind}": int(result.converged),
            "evaluations": result.evaluations,
        }


class TimeseriesCsv(Workload):
    """A long sampled pulse, written to CSV by the CLI's writer."""

    name = "timeseries_csv"
    #: drive amplitudes of the three row-count tiers (about 3.9k, 7.9k, 12.6k rows)
    tiers = (0.08, 0.04, 0.025)
    sample_dt = 0.01
    n_items = 12

    def specs(self, rng):
        out = []
        for k in range(self.n_items):
            a2 = self.tiers[k % len(self.tiers)] * rng.uniform(0.98, 1.02)
            frame = ("raw", "primed")[k % 2]
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            out.append((a2, frame, tuple(amps / np.linalg.norm(amps))))
        return out

    def prepare(self, spec):
        a2, frame, amps = spec
        system = sg.SystemParams(500.0, 100.0, 5.0)
        template = sg.PulseSpec(carrier=system.resonant_carrier, a1=0.5, a2=a2, duration=0.0)
        pulse = sg.PulseSpec(template.carrier, 0.5, a2, sg.calibrate_pi_duration(system, template))
        initial = sg.superposition_state(amps, normalize=True)
        return system, pulse, initial, frame

    def reference(self, item):
        system, pulse, initial, frame = item
        tau = pulse.duration
        final = propagator(point_matrix(system, pulse), tau) @ initial.amps
        if frame == "primed":
            final = primed_factors(system.omega1, system.omega2, system.coupling_j, tau) * final
        return {"final": final, "rows": math.ceil(tau / self.sample_dt) + 1}

    def run(self, item):
        system, pulse, initial, frame = item
        from spingate.cli import write_timeseries_csv

        series = sg.run_timeseries(system, pulse, initial, self.sample_dt, frame=frame)
        write_timeseries_csv(series, str(self.workdir / "series.csv"))
        return series

    def check(self, item, ref, series):
        _, pulse, _, _ = item
        path = self.workdir / "series.csv"
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        expect(lines[0] == CSV_HEADER, f"CSV header {lines[0]!r}")
        expect(len(lines) - 1 == ref["rows"], f"{len(lines) - 1} rows, expected {ref['rows']}")
        last = [float(x) for x in lines[-1].split(",")]
        expect(last[0] == pulse.duration, f"final row at t={last[0]!r}, not {pulse.duration!r}")
        drift = float(np.max(np.abs(series.norm - 1.0)))
        expect(drift <= 1e-10 and abs(last[9] - 1.0) <= 1e-10, f"norm drift {drift:.3e}")
        final = np.array(last[1:9:2]) + 1j * np.array(last[2:9:2])
        gap = float(np.max(np.abs(final - ref["final"])))
        expect(gap <= 1e-9, f"final amplitudes differ from expm by {gap:.3e}")
        return {"rows": len(lines) - 1, "csv_bytes": path.stat().st_size}


# ----------------------------------------------------------------------------
# cli_commands


def _config_text(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    sg.parse_config(text)  # emitted configs must reload
    return text


def _comment(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(f"# {key} = "):
            return line.split(" = ", 1)[1]
    raise CheckFailed(f"no '# {key}' line")


def _check_simulate(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    expect(lines[0] == CSV_HEADER, f"CSV header {lines[0]!r}")
    last = [float(x) for x in lines[-1].split(",")]
    expect(abs(last[9] - 1.0) <= 1e-10, "norm drift")
    transfer = last[5] ** 2 + last[6] ** 2
    expect(transfer >= 0.99, f"|c10|^2 = {transfer!r} after the pi-pulse")
    return {"rows": len(lines) - 1, "csv_bytes": path.stat().st_size}


def _check_tomography12(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    phases = [float(_comment(text, k)) for k in ("dphi00", "dphi01", "dphi10", "dphi11")]
    # the README's headline gate; the exact phases sit about 1.6e-2 rad off it
    target = (0.0, 0.0, math.pi / 2, math.pi / 2)
    expect(all(angle_gap(a, b) <= 5e-2 for a, b in zip(phases, target)), f"phases {phases}")
    fidelity = float(_comment(text, "fidelity_vs_cn"))
    expect(abs(fidelity - 1 / math.sqrt(2)) <= 1e-2, f"fidelity vs CN {fidelity!r}")
    return {}


def _check_tomography24(path: Path) -> dict:
    fidelity = float(_comment(path.read_text(encoding="utf-8"), "fidelity_vs_icn"))
    expect(fidelity >= 0.999, f"params24 raw fidelity {fidelity!r} < 0.999")
    return {}


def _check_pi_duration(path: Path) -> dict:
    text = _config_text(path)
    transfer = float(_comment(text, "transfer_at_pi_duration"))
    expect(transfer >= 0.99, f"transfer {transfer!r}")
    duration = float(_comment(text, "pi_duration"))
    expect(abs(duration - math.pi / 0.1) <= 0.01 * math.pi / 0.1, f"pi duration {duration!r}")
    return {}


def _check_search(kind: str, converged: bool):
    def check(path: Path) -> dict:
        text = _config_text(path)
        expect(_comment(text, "converged") == str(converged).lower(), "converged flag")
        objective = float(_comment(text, "objective"))
        expect((objective <= 1e-6) == converged, f"objective {objective!r}")
        evaluations = int(_comment(text, "evaluations"))
        return {
            f"searches.{kind}": 1,
            f"evaluations.{kind}": evaluations,
            f"converged.{kind}": int(converged),
            "evaluations": evaluations,
        }

    return check


def _check_sweep(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    expect(lines[0] == "index,duration,objective" and len(lines) == 16, "sweep CSV shape")
    expect(all(0.0 <= float(line.split(",")[2]) <= 1.0 for line in lines[1:]), "objective range")
    return {}


#: the seven README commands: argv, expected exit status, output file, check
README_COMMANDS = (
    ("simulate --preset params12 --initial digital:11 --frame primed --sample-dt 0.05 "
     "--out swap.csv", 0, "swap.csv", _check_simulate),
    ("tomography --preset params12 --frame primed --out gate.txt", 0, "gate.txt",
     _check_tomography12),
    ("tomography --preset params24 --frame raw --out gate24.txt", 0, "gate24.txt",
     _check_tomography24),
    ("calibrate --preset params12 --pi-duration --out tuned.cfg", 0, "tuned.cfg",
     _check_pi_duration),
    ("calibrate --preset params12 --pure-cn --tie-a1 --free omega1,a2,duration --out pure.cfg",
     0, "pure.cfg", _check_search("tie_a1", True)),
    ("calibrate --preset params12 --pure-cn --free a2 --out a2only.cfg", 1, "a2only.cfg",
     _check_search("a2_only", False)),
    ("sweep --preset params24 --param duration --min 31.4148 --max 31.4155 --steps 15 "
     "--out sweep.csv", 0, "sweep.csv", _check_sweep),
)


def run_child(cmd: list, cwd: Path) -> tuple[int, int]:
    """Run one child interpreter to completion; returns (exit status, peak RSS in KiB)."""
    with open(cwd / "child.log", "wb") as log:
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=log, stderr=log)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class CliCommands(Workload):
    """One fresh `python -m spingate.cli` process per README command."""

    name = "cli_commands"
    #: when set, operations run through the benchmark's traced driver, which
    #: saves its spans to this file
    spans_file: Path | None = None

    def specs(self, rng):
        # the commands are the README's; a run replays whole passes, so order is immaterial
        return list(README_COMMANDS)

    def run(self, item):
        argv = item[0].split()
        if self.spans_file is None:
            cmd = [sys.executable, "-m", "spingate.cli", *argv]
        else:
            driver = ROOT / "bench" / "child.py"
            cmd = [sys.executable, str(driver), "cli", str(self.spans_file), "--", *argv]
        return run_child(cmd, self.workdir)

    def check(self, item, ref, output):
        command, expected_status, out_name, check_output = item
        status, maxrss_kib = output
        log = (self.workdir / "child.log").read_text(encoding="utf-8", errors="replace")
        expect(status == expected_status,
               f"`{command}` exited {status}, expected {expected_status}: {log[-400:]!r}")
        expect("Traceback" not in log, f"`{command}` printed a traceback")
        path = self.workdir / out_name
        try:
            counters = check_output(path)
        finally:
            path.unlink(missing_ok=True)
        return {**counters, "peak_rss_kib": maxrss_kib}

    def warmup(self, item):
        import spingate.cli

        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                spingate.cli.main(item[0].split())
            (self.workdir / item[2]).unlink(missing_ok=True)
        finally:
            os.chdir(cwd)


WORKLOADS = {cls.name: cls for cls in (PiCalibration, PureCnSearch, TimeseriesCsv, CliCommands)}

