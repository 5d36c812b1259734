"""End-to-end and per-layer benchmark of spingate.

Run from the root of a checkout:

    # untraced: the end-to-end metrics of every workload, as a table
    python3 bench/run.py --workload all

    # traced: the per-layer metrics of every workload, with tracing overhead
    python3 bench/run.py --workload all --trace 1

    # one workload on its own, with a chosen seed and run length
    python3 bench/run.py --workload pure_cn_search --seed 7 --seconds 20 --trace 0

Workloads: pi_calibration, pure_cn_search, timeseries_csv, cli_commands
(see BENCHMARK.json for why each is in the set).  Each single-workload
run is its own interpreter with one caller in a closed loop, replaying the
seeded inputs round-robin for --seconds seconds and checking every output.
It prints each metric by name with its unit and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The full
record (environment, module line counts, tail percentile, failures) goes
to bench/out/, and the traced run's spans to bench/out/spans-*.npz.

End-to-end metrics (--trace 0):
    throughput_ops_s  completed operations per second of operation time
    latency_p50_ms    median operation time
    latency_tail_ms   the highest percentile with at least ten samples beyond it;
                      the percentile is printed and recorded (a cli_commands run
                      has about twenty samples, so there it sits near p50)
    setup_s           median over fresh interpreters of importing spingate
                      (spingate.cli for timeseries_csv and cli_commands) plus
                      one warm-up operation
    peak_rss_mb       peak resident memory of the run (cli_commands: of the
                      largest command process)
    failed_share      failed over attempted operations (printed; the JSON
                      line carries it as "failed" and "attempted")

Every operation is executed and timed once.  Two effects of the shared
machine are taken out of each time measured in-process: the time the
thread waited for a CPU held by another task (see env.run_queue_wait),
and the machine's speed drift, measured with a benchmark-owned yardstick
(see drift.py): by the run's mean yardstick, or, for pi_calibration's
operations of a few ms, by the yardsticks taken right before and after
each operation.  A cli_commands operation is timed from its parent, so
only the parent's waits are taken out.  The raw wall-clock figures are
printed beside them and kept in the record.  The traced run's
per-operation times and throughputs are drift-corrected the same way, its
import probes are raw.  Outputs are checked by a separate checker process
(see child.py), so the workload process holds only what spingate itself
loads.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

import drift
from env import (IMPORT_TARGET, OUT, ROOT, MissingSource, bootstrap, child_env, environment,
                 run_queue_wait)

WORKLOAD_NAMES = tuple(IMPORT_TARGET)
SETUP_REPEATS = 9
PROBE_REPEATS = 3
TAIL_BEYOND = 10
CHILD = str(ROOT / "bench" / "child.py")


def metric_units(trace: bool) -> dict:
    """Reported metric names and units, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def tail_latency(samples) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with
    TAIL_BEYOND samples above it.  With TAIL_BEYOND or fewer samples no
    percentile qualifies, and the maximum (percentile 100) is returned."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


class Rejected(Exception):
    """An output the checker rejected; the message names the check that failed."""


class Checker:
    """The workload's output checks, served by a child interpreter.

    The child builds the same seeded items and computes their references
    with scipy, so the process that runs the operations loads only what
    spingate loads, and its peak RSS is the program's.  Calls are
    synchronous: the child is idle while an operation runs.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "check", name, str(seed), workdir],
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def ready(self) -> None:
        """Wait until the child has its references."""
        status, _ = pickle.load(self.proc.stdout)
        assert status == "ready", status

    def __call__(self, k: int, output) -> dict:
        pickle.dump((k, output), self.proc.stdin)
        self.proc.stdin.flush()
        status, value = pickle.load(self.proc.stdout)
        if status != "ok":
            raise Rejected(value)
        return value

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Loop:
    """Outcome of one closed loop: a latency per attempted operation."""

    def __init__(self):
        #: wall-clock seconds per operation, and the run-queue wait within each
        self.latencies: list[float] = []
        self.waits: list[float] = []
        #: per-operation drift factors, for workloads corrected operation by operation
        self.factors: list[float] = []
        self.failures: list[str] = []
        self.counters: Counter = Counter()
        self.peak_child_kib = 0

    @property
    def completed(self) -> int:
        return len(self.latencies) - len(self.failures)

    def end_to_end(self, factor: float | None) -> dict:
        """Throughput, median and tail of the operation times less their
        run-queue waits, scaled by the per-operation drift factors where
        taken, else by the run's `factor`; raw wall-clock times for None."""
        if factor is None:
            times = self.latencies
        else:
            net = [lat - wait for lat, wait in zip(self.latencies, self.waits)]
            scale = self.factors or [factor] * len(net)
            times = [t * f for t, f in zip(net, scale)]
        tail, percentile = tail_latency(times)
        return {
            "throughput_ops_s": self.completed / sum(times),
            "latency_p50_ms": statistics.median(times) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "tail_percentile": percentile,
        }


def closed_loop(wl, check, seconds: float, before=None, after=None, meter=None):
    """Replay the workload's items round-robin, one at a time, in whole passes.

    The loop ends on the pass boundary nearest to `seconds` (after one pass
    at least), so every run of a workload executes the same mix of items
    and per-operation counts repeat exactly for one seed.  Only `wl.run`
    is timed; `check(k, output)` verifies each output between operations,
    where a `meter` also samples the yardstick.  For a workload with
    `drift_per_op`, the meter also samples it right before and right after
    each operation, which gives that operation its own drift factor.
    """
    loop = Loop()
    per_op = meter is not None and wl.drift_per_op
    n = len(wl.items)
    started = perf_counter()
    i = 0
    while True:
        k = i % n
        if before is not None:
            before(i)
        if per_op:
            y0 = drift.yardstick()
        w0 = run_queue_wait()
        t0 = perf_counter()
        try:
            output = wl.run(wl.items[k])
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        loop.latencies.append(perf_counter() - t0)
        loop.waits.append(run_queue_wait() - w0)
        if per_op:
            y1 = drift.yardstick()
            meter.samples += (y0, y1)
            loop.factors.append(2.0 * drift.REFERENCE_S / (y0 + y1))
        if after is not None:
            after(i)
        if error is None:
            try:
                counters = check(k, output)
                loop.peak_child_kib = max(loop.peak_child_kib, counters.pop("peak_rss_kib", 0))
                loop.counters.update(counters)
            except Exception as exc:
                error = exc
        if error is not None:
            loop.failures.append(f"item {k}: {type(error).__name__}: {error}")
        if meter is not None:
            meter.tick()
        i += 1
        if i % n == 0:
            elapsed = perf_counter() - started
            if elapsed + elapsed / (i // n) / 2 >= seconds:
                return loop


def run_child_json(cmd: list) -> dict:
    done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_setup(name: str, seed: int, workdir: str, meter) -> list[dict]:
    """Set-up probes of SETUP_REPEATS fresh interpreters, with yardstick samples between."""
    cmd = [sys.executable, CHILD, "setup", name, str(seed), workdir]
    runs = []
    for _ in range(SETUP_REPEATS):
        meter.sample()
        runs.append(run_child_json(cmd))
    return runs


def _importtime(module: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        env=child_env(), capture_output=True, text=True, timeout=170,
    )
    cumulative = {}
    for line in done.stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e3  # microseconds -> ms
    return cumulative


def measure_cli_imports() -> dict:
    """Import-time probes of fresh interpreters, medians of PROBE_REPEATS each."""
    interpreter, imports, numpy_ms, scipy_ms, spingate_ms = [], [], [], [], []
    timed_import = (
        "import time; t = time.perf_counter(); import spingate.cli; "
        "print((time.perf_counter() - t) * 1e3)"
    )
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True, timeout=60)
        interpreter.append((perf_counter() - t0) * 1e3)
        done = subprocess.run([sys.executable, "-c", timed_import], env=child_env(),
                              capture_output=True, text=True, check=True, timeout=170)
        imports.append(float(done.stdout.strip()))
        cumulative = _importtime("spingate.cli")
        numpy_ms.append(cumulative["numpy"])
        scipy_ms.append(cumulative.get("scipy.optimize", 0.0))  # 0 once imported lazily
        spingate_ms.append(cumulative["spingate"])
    return {
        "cli.import_ms": statistics.median(imports),
        "cli.import.numpy_ms": statistics.median(numpy_ms),
        "cli.import.scipy_ms": statistics.median(scipy_ms),
        "cli.import.spingate_ms": statistics.median(spingate_ms),
        "cli.interpreter_ms": statistics.median(interpreter),
    }


# ----------------------------------------------------------------------------
# per-layer metrics from spans

#: spans reported as <span>.calls_per_op, and (with _SELF) as <span>.self_ms_per_op
_CALLS = ("core.QState", "propagator.eigh", "propagator.build_generator",
          "propagator.evolve_exact", "gates.tomography", "calibrate.calibrate_pi_duration")
_SELF = _CALLS + ("core.TimeSeries", "propagator.to_primed", "propagator.run_timeseries",
                  "gates.extract_gcn_phases", "gates.gate_fidelity", "calibrate.tune_pure_cn",
                  "cli.main", "cli.write_timeseries_csv")
_CONFIG_LOAD = ("config.parse_config_lines", "config.build_run_config", "config.initial_state")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, n_ops: int, counters: Counter) -> dict:
    import spans

    self_s = spans.self_times(recorder.start, recorder.end, recorder.parent)
    names = recorder.names
    calls: Counter = Counter()
    own: Counter = Counter()
    for nid, s in zip(recorder.name_id, self_s):
        calls[names[nid]] += 1
        own[names[nid]] += s
    ids = {name: i for i, name in enumerate(names)}
    pi_id = ids.get("calibrate.calibrate_pi_duration", -2)
    evolve_id = ids.get("propagator.evolve_exact", -2)
    tune_id = ids.get("calibrate.tune_pure_cn", -2)
    eigh_id = ids.get(spans.EIGH, -2)
    transfer_evals = sum(
        1 for nid, p in zip(recorder.name_id, recorder.parent)
        if nid == evolve_id and p >= 0 and recorder.name_id[p] == pi_id
    )
    eigh_in_search = sum(
        1 for i, nid in enumerate(recorder.name_id)
        if nid == eigh_id and spans.has_ancestor(recorder.parent, recorder.name_id, i, tune_id)
    )
    metrics = {}
    for name in _CALLS:
        metrics[f"{name}.calls_per_op"] = calls[name] / n_ops
    for name in _SELF:
        metrics[f"{name}.self_ms_per_op"] = own[name] * 1e3 / n_ops
    metrics["propagator.run_timeseries.rows_per_op"] = counters["rows"] / n_ops
    metrics["calibrate.calibrate_pi_duration.transfer_evals_per_call"] = _ratio(
        transfer_evals, calls["calibrate.calibrate_pi_duration"])
    for kind in ("tie_a1", "a2_only"):
        metrics[f"calibrate.tune_pure_cn.evaluations_per_search.{kind}"] = _ratio(
            counters[f"evaluations.{kind}"], counters[f"searches.{kind}"])
    metrics["calibrate.tune_pure_cn.converged_share"] = _ratio(
        counters["converged.tie_a1"], counters["searches.tie_a1"])
    metrics["calibrate.eigh_per_evaluation"] = _ratio(eigh_in_search, counters["evaluations"])
    metrics["config.load.self_ms_per_op"] = sum(own[n] for n in _CONFIG_LOAD) * 1e3 / n_ops
    metrics["cli.write_timeseries_csv.bytes_per_op"] = counters["csv_bytes"] / n_ops
    return metrics


# ----------------------------------------------------------------------------


def traced_loop(wl, check, seconds: float, tag: str, meter):
    """Closed loop over whole passes with every spingate layer wrapped."""
    import spans

    recorder = spans.Recorder()
    driver_import_ms = []
    if wl.name == "cli_commands":
        # each operation is its own process: the benchmark's driver records there
        wl.spans_file = wl.workdir / "spans.npz"

        def after(i):
            if wl.spans_file.exists():  # a driver that crashed fails its check instead
                data = spans.load(wl.spans_file)
                recorder.extend(data, op=i)
                driver_import_ms.append(data["import_ms"])
                wl.spans_file.unlink()

        try:
            loop = closed_loop(wl, check, seconds, after=after, meter=meter)
        finally:
            wl.spans_file = None
    else:
        def before(i):
            recorder.current_op = i

        def after(i):
            recorder.current_op = None

        undo = spans.install(recorder)
        try:
            loop = closed_loop(wl, check, seconds, before=before, after=after, meter=meter)
        finally:
            spans.uninstall(undo)
    recorder.save(OUT / f"spans-{tag}.npz")
    return loop, recorder, driver_import_ms


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment()}
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if trace:
            probes = measure_cli_imports()
        else:
            meter = drift.DriftMeter()
            setup = measure_setup(name, seed, workdir, meter)
        check = Checker(name, seed, workdir)
        try:
            wl = WORKLOADS[name](seed, workdir)
            check.ready()
            wl.warmup(wl.items[0])
            if not trace:
                meter.sample()
                loop = closed_loop(wl, check, seconds, meter=meter)
            else:
                plain_meter, traced_meter = drift.DriftMeter(), drift.DriftMeter()
                plain = closed_loop(wl, check, seconds / 2, meter=plain_meter)
                loop, recorder, driver_import_ms = traced_loop(
                    wl, check, seconds / 2, tag, traced_meter)
        finally:
            check.close()
        if not trace:
            factor = meter.factor()
            metrics = loop.end_to_end(factor)
            raw = loop.end_to_end(None)
            peak_kib = loop.peak_child_kib if name == "cli_commands" else (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            metrics.update(
                setup_s=statistics.median(run["setup_s"] for run in setup) * factor,
                peak_rss_mb=peak_kib / 1024.0,
            )
            raw.update(setup_s=statistics.median(run["wall_s"] for run in setup))
            record.update(raw=raw, tail_percentile=metrics.pop("tail_percentile"),
                          drift_factor=factor, setup_runs=setup,
                          op_latencies_s=loop.latencies, op_waits_s=loop.waits,
                          op_drift_factors=loop.factors,
                          yardstick_s=meter.samples)
            attempted, failures = len(loop.latencies), loop.failures
        else:
            n_ops = len(loop.latencies)
            factor = traced_meter.factor()
            metrics = layer_metrics(recorder, n_ops, loop.counters)
            metrics = {k: v * factor if k.endswith("_ms_per_op") else v for k, v in metrics.items()}
            untraced = plain.end_to_end(plain_meter.factor())["throughput_ops_s"]
            traced = loop.end_to_end(factor)["throughput_ops_s"]
            metrics.update(
                probes,
                **{m: v for m, v in record["env"].items() if m.endswith(".lines")},
                **{"trace.untraced_ops_s": untraced, "trace.traced_ops_s": traced,
                   "trace.overhead_ops_s": traced - untraced},
            )
            record.update(traced_ops=n_ops, spans=len(recorder),
                          cli_driver_import_ms=driver_import_ms)
            attempted = len(plain.latencies) + n_ops
            failures = plain.failures + loop.failures
    record.update(
        attempted=attempted,
        failed=len(failures),
        failures=list(dict.fromkeys(failures))[:20],
        metrics={
            key: {"value": metrics[key], "unit": unit} for key, unit in metric_units(trace).items()
        },
    )
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['attempted']} operations in {record['seconds']} s "
          f"({'traced' if record['trace'] else 'untraced'})")
    raw = record.get("raw", {})
    for key, metric in record["metrics"].items():
        note = f"  (raw {raw[key]:.6g})" if key in raw else ""
        if key == "latency_tail_ms":
            note += f"  (p{record['tail_percentile']:.2f} of {record['attempted']} samples)"
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  failed_share = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']})")
    for failure in record["failures"]:
        print(f"  failure: {failure}")
    print("  env: " + json.dumps(record["env"]))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def run_all(args) -> int:
    """Each workload in its own interpreter, then one table of every metric."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows[name] = result
    print()
    for name, result in rows.items():
        print(f"{name}:")
        for key, metric in result["metrics"].items():
            print(f"  {key:<58} {metric['value']:>14.6g} {metric['unit']}")
        print(f"  {'failed_share':<58} {result['failed'] / result['attempted']:>14.6g} share")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap()
    except MissingSource as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
