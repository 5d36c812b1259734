"""Command-line scenario runner: simulate, tomography, calibrate, sweep.

Every command reads parameters from a named preset, a config file, or both
(config overrides preset, flags override both), runs pure library
operations, and writes plain-text artifacts: CSV time series for external
plotting, gate reports, and machine-reloadable tuned-parameter configs.
Exit status is 0 only when no operation reported an error or a
non-converged search.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibrate import SearchSpec, tune_pure_cn
from .config import PRESETS, ConfigError, RunConfig, emit_config, initial_state, load_config
from .core import (
    BASIS_LABELS,
    GcnPatternError,
    PulseSpec,
    SystemParams,
    TimeSeries,
)
from .gates import cn_matrix, extract_gcn_phases, gate_fidelity
from .propagator import Generator

__all__ = [
    "main",
    "CSV_HEADER",
    "write_timeseries_csv",
]

CSV_HEADER = "t,re_c00,im_c00,re_c01,im_c01,re_c10,im_c10,re_c11,im_c11,norm"


#: 17 significant digits: full double round-trip
_NUM = "%.16e"

#: rows per `%` call and per write
_BLOCK_ROWS = 256


def write_timeseries_csv(series: TimeSeries, path: str) -> None:
    """Write the series as `CSV_HEADER` rows, formatted in blocks of 256 rows.

    Each block is one `%` over its fields and one write: every field is
    still formatted `%.16e`, and the text held at once is one block's.
    """
    # raw-frame amps are a transposed view; the copy lays each row's re, im pairs out in order
    table = np.column_stack((series.t, np.ascontiguousarray(series.amps).view(float), series.norm))
    row = ",".join([_NUM] * len(CSV_HEADER.split(","))) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(CSV_HEADER + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            f.write(row * len(block) % tuple(block.ravel().tolist()))


def _resolve(config: RunConfig, pi_timed: bool = False) -> tuple[Generator, float]:
    """The config's generator and duration, from one eigh.

    The duration is pi-timed on the same point when the config says 'auto'
    or `pi_timed` asks for it; otherwise it is the configured one.
    """
    # the config checked the carrier's resonance, and the duration does not enter B
    gen = Generator(config.omega1, config.omega2, config.coupling_j, config.a1, config.a2)
    return gen, gen.pi_duration() if pi_timed or config.duration is None else config.duration


def _require(config: RunConfig, field: str):
    value = getattr(config, field)
    if value is None:
        raise ConfigError(f"missing required key {field!r} for this command")
    return value


def cmd_simulate(config: RunConfig) -> int:
    _require(config, "initial")
    sample_dt = _require(config, "sample_dt")
    out = _require(config, "out")
    gen, duration = _resolve(config)
    series = gen.timeseries(initial_state(config), duration, sample_dt, config.frame)
    write_timeseries_csv(series, out)
    print(f"simulate: {len(series)} rows ({config.frame} frame, duration {duration!r}) -> {out}")
    return 0


def _gate_report_lines(gate: np.ndarray) -> list[str]:
    lines = ["row,col,re,im"]
    for i, row in enumerate(BASIS_LABELS):
        for j, col in enumerate(BASIS_LABELS):
            lines.append(f"{row},{col},{_NUM % gate[i, j].real},{_NUM % gate[i, j].imag}")
    return lines


def cmd_tomography(config: RunConfig) -> int:
    out = _require(config, "out")
    gen, duration = _resolve(config)
    gate = gen.gate(duration, config.frame)
    fid_cn = gate_fidelity(gate, cn_matrix())
    fid_icn = gate_fidelity(gate, 1j * cn_matrix())

    lines = [f"# gate reconstruction, frame={config.frame}, duration={duration!r}"]
    lines += _gate_report_lines(gate)
    lines.append(f"# fidelity_vs_cn = {fid_cn!r}")
    lines.append(f"# fidelity_vs_icn = {fid_icn!r}")

    status = 0
    try:
        phases = extract_gcn_phases(gate)
        for name in ("dphi00", "dphi01", "dphi10", "dphi11"):
            lines.append(f"# {name} = {getattr(phases, name)!r}")
        print(
            "tomography: gcn phases (rad) "
            f"dphi00={phases.dphi00:.6f} dphi01={phases.dphi01:.6f} "
            f"dphi10={phases.dphi10:.6f} dphi11={phases.dphi11:.6f}"
        )
    except GcnPatternError as exc:
        lines.append(f"# gcn_pattern_violation = {exc}")
        print(f"tomography: gate is not a conditional NOT: {exc}", file=sys.stderr)
        status = 1
    print(f"tomography: fidelity vs CN = {fid_cn:.6f}, vs i*CN = {fid_icn:.6f}")
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"tomography: report -> {out}")
    return status


def cmd_calibrate(config: RunConfig, args) -> int:
    if not (args.pi_duration or args.pure_cn):
        raise ConfigError("calibrate needs --pi-duration and/or --pure-cn")
    report_comments: list[str] = []
    tuned = config
    status = 0
    # --pi-duration reports the pi timing even when the config sets a duration
    gen, duration = _resolve(config, pi_timed=args.pi_duration)

    if args.pi_duration:
        tuned = replace(tuned, duration=duration)
        report_comments.append(f"# pi_duration = {duration!r}")
        transfer = gen.transfer(duration)
        report_comments.append(f"# transfer_at_pi_duration = {transfer!r}")
        print(f"calibrate: pi-pulse duration = {duration!r} (transfer {transfer:.9f})")

    if args.pure_cn:
        free = tuple(name.strip() for name in args.free.split(",") if name.strip())
        spec = SearchSpec(
            free=free,
            rel_window=args.window,
            tie_a1=args.tie_a1,
            recalibrate_duration=args.recalibrate_duration,
            max_evaluations=args.max_evals,
            objective_tol=args.tol,
        )
        # the one CLI path that builds the library's system and pulse pair
        system = SystemParams(config.omega1, config.omega2, config.coupling_j)
        pulse = PulseSpec(config.carrier, config.a1, config.a2, duration)
        result = tune_pure_cn(system, pulse, spec)
        tuned = replace(tuned, omega1=result.params.omega1, a1=result.pulse.a1,
                        a2=result.pulse.a2, duration=result.pulse.duration)
        report_comments.append(f"# objective = {result.objective!r}")
        report_comments.append(f"# converged = {str(result.converged).lower()}")
        report_comments.append(f"# evaluations = {result.evaluations}")
        print(
            f"calibrate: pure-cn search over {', '.join(free)}: "
            f"objective {result.objective:.3e} after {result.evaluations} evaluations "
            f"({'converged' if result.converged else 'NOT converged'})"
        )
        if not result.converged:
            status = 1

    # one of the two task flags is required, so there is at least one comment
    report = emit_config(tuned) + "\n".join(report_comments) + "\n"
    if config.out is not None:
        Path(config.out).write_text(report, encoding="utf-8")
        print(f"calibrate: tuned parameters -> {config.out}")
    else:
        print(report, end="")
    return status


_SWEEPABLE = ("omega1", "a1", "a2", "duration")


def cmd_sweep(config: RunConfig, args) -> int:
    if args.param not in _SWEEPABLE:
        raise ConfigError(
            f"sweep parameter must be one of {', '.join(_SWEEPABLE)} "
            f"(omega2 and coupling_j would move the resonance itself)"
        )
    for flag, value in (("--min", args.min), ("--max", args.max)):
        if not np.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value!r}")
    if args.steps < 2 or not args.min < args.max:
        raise ConfigError("sweep needs --min < --max and --steps >= 2")
    out = _require(config, "out")
    grid = np.linspace(args.min, args.max, args.steps)
    lines = [f"index,{args.param},objective"]
    for index, value in enumerate(grid):
        gen, duration = _resolve(replace(config, **{args.param: value}))
        objective = gen.objective(duration)
        lines.append(f"{index},{_NUM % value},{_NUM % objective}")
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"sweep: {args.steps} points over {args.param} -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spingate",
        description="Two-spin Ising controlled-NOT pulse simulator and calibrator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="sample amplitude evolution to CSV")
    p_tomo = sub.add_parser("tomography", help="reconstruct the gate and extract phases")
    p_cal = sub.add_parser("calibrate", help="pi-pulse timing and pure-CN parameter search")
    p_sweep = sub.add_parser("sweep", help="grid scan of the pure-CN objective")
    for p in (p_sim, p_tomo, p_cal, p_sweep):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--preset", help=f"named parameter set ({', '.join(sorted(PRESETS))})")
        p.add_argument("--out", help="output path")
    # sweep scores the raw-frame objective whatever the frame, so it takes no --frame
    for p in (p_sim, p_tomo, p_cal):
        p.add_argument("--frame", help="amplitude frame (raw or primed)")

    p_sim.add_argument("--initial", help="digital:<ik>, eq21, or 4 complex amplitudes")
    p_sim.add_argument("--sample-dt", dest="sample_dt", help="sampling step")

    p_cal.add_argument("--pi-duration", action="store_true", help="calibrate pi-pulse duration")
    p_cal.add_argument("--pure-cn", action="store_true", help="run the pure-CN search")
    p_cal.add_argument(
        "--free",
        default="omega1,a2,duration",
        help="comma-separated free parameters (omega1, a2, duration)",
    )
    p_cal.add_argument("--tie-a1", action="store_true", help="tie a1 = a2*omega1/omega2")
    p_cal.add_argument(
        "--recalibrate-duration",
        action="store_true",
        help="re-run pi timing at every candidate; leave duration out of --free",
    )
    p_cal.add_argument("--window", type=float, default=SearchSpec.rel_window,
                       help="relative search window")
    p_cal.add_argument("--max-evals", type=int, default=SearchSpec.max_evaluations,
                       help="objective evaluation budget")
    p_cal.add_argument("--tol", type=float, default=SearchSpec.objective_tol,
                       help="objective convergence tolerance")

    p_sweep.add_argument("--param", required=True, help=f"one of {', '.join(_SWEEPABLE)}")
    p_sweep.add_argument("--min", type=float, required=True)
    p_sweep.add_argument("--max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=21)
    return parser


def _attach_signed_values(argv: list[str]) -> list[str]:
    """`--min -inf` as `--min=-inf`, so the value reaches the checks.

    argparse takes a separate token such as `-inf` or `-0.5,0.5,0.5,0.5`
    for an option (it reads only digit strings like `-1` as negative
    numbers); written with `=` it is the flag's value.  So a token that
    starts with a single `-` (other than `-h`) is attached to the long flag
    before it, when that flag carries no `=` yet.
    """
    joined: list[str] = []
    for token in argv:
        previous = joined[-1] if joined else ""
        signed = token.startswith("-") and token[:2] not in ("--", "-h")
        if signed and previous.startswith("--") and "=" not in previous:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        flags = {key: getattr(args, key, None) for key in ("initial", "frame", "out", "sample_dt")}
        config = load_config(args.preset, args.config, flags)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "tomography":
            return cmd_tomography(config)
        if args.command == "calibrate":
            return cmd_calibrate(config, args)
        return cmd_sweep(config, args)
    # ConfigError is a ValueError, CalibrationError a RuntimeError
    except (ValueError, RuntimeError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
