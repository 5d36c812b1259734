"""Tests of the benchmark itself: run with `python3 -m pytest bench -q`."""

import json

import numpy as np
import pytest

import env

env.bootstrap()

import drift  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spingate as sg  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 57, 100, 1000, 2801])
def test_tail_has_exactly_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n) * 0.5)
    value, percentile = run.tail_latency(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_is_the_highest_with_ten_beyond():
    samples = list(range(1, 101))
    value, percentile = run.tail_latency(samples)
    assert (value, percentile) == (90, 90.0)
    # the next rank up leaves only nine samples beyond it
    assert sum(s > 91 for s in samples) == 9


def test_tail_with_ten_samples_or_fewer_is_the_maximum():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail_latency(list(range(10))) == (9, 100.0)


def test_self_time_subtracts_child_coverage_once():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] outlives the parent;
    # a grandchild [1.5, 2.5] counts against its own parent only
    start = [0.0, 1.0, 1.5, 2.0, 8.0]
    end = [10.0, 3.0, 2.5, 5.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([4.0, 1.0, 1.0, 3.0, 4.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert spans.self_times([2.0], [7.5], [-1]) == [5.5]


def test_drift_factor_is_reference_over_the_trimmed_mean_sample():
    meter = drift.DriftMeter()
    meter.sample()
    meter.tick()  # too soon after the last sample: no new sample
    assert len(meter.samples) == drift.BURST
    # twenty samples: the lowest and the highest are trimmed, the rest average 2e-3
    meter.samples = [1e-9, 1.0] + [1e-3, 3e-3] * 9
    assert meter.factor() == pytest.approx(drift.REFERENCE_S / 2e-3)


def test_end_to_end_takes_out_waits_then_scales_by_drift():
    loop = run.Loop()
    loop.latencies, loop.waits = [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]
    assert loop.end_to_end(None)["latency_p50_ms"] == pytest.approx(4000.0)  # raw wall clock
    run_scaled = loop.end_to_end(0.5)  # net 2, 3, 6 s, times the run's factor
    assert run_scaled["latency_p50_ms"] == pytest.approx(1500.0)
    assert run_scaled["throughput_ops_s"] == pytest.approx(3 / 5.5)
    loop.factors = [1.0, 2.0, 1.0]  # per-operation factors replace the run's
    assert loop.end_to_end(0.5)["latency_p50_ms"] == pytest.approx(6000.0)


class _Counting:
    """Stand-in workload: three items, instant operations, one counter each."""

    items = ["a", "b", "c"]

    def __init__(self):
        self.calls = 0

    def run(self, item):
        self.calls += 1
        return item


def test_closed_loop_ends_on_a_whole_pass_and_times_each_operation_once():
    wl = _Counting()
    checked = []

    def check(k, output):
        checked.append((k, output))
        return {"checked": 1}

    loop = run.closed_loop(wl, check, seconds=0.0)
    assert len(loop.latencies) == 3 and wl.calls == 3
    assert checked == [(0, "a"), (1, "b"), (2, "c")]
    assert loop.counters["checked"] == 3 and not loop.failures


def test_checker_process_passes_good_outputs_and_rejects_bad_ones(tmp_path):
    wl = workloads.TimeseriesCsv(5, tmp_path, limit=1)
    check = run.Checker("timeseries_csv", 5, str(tmp_path))
    try:
        check.ready()
        series = wl.run(wl.items[0])
        assert check(0, series)["rows"] == len(series.t)
        (tmp_path / "series.csv").write_text("t\n", encoding="utf-8")
        with pytest.raises(run.Rejected, match="CSV header"):
            check(0, series)
    finally:
        check.close()
    assert check.proc.returncode == 0


def test_recorder_catches_internal_calls_and_uninstalls():
    system = sg.SystemParams(500.0, 100.0, 5.0)
    pulse = sg.PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=31.4)
    original = sg.tomography
    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        sg.tomography(system, pulse, frame="primed")  # outside an operation: not recorded
        assert len(recorder) == 0
        recorder.current_op = 0
        sg.tomography(system, pulse, frame="primed")
        recorder.current_op = None
    finally:
        spans.uninstall(undo)
    assert sg.tomography is original and sg.gates.build_generator is sg.propagator.build_generator
    names = [recorder.names[i] for i in recorder.name_id]
    assert names.count("gates.tomography") == 1
    assert names.count("propagator.build_generator") == 1
    assert names.count(spans.EIGH) == 4
    assert names.count("core.QState") == 12  # digital input, evolved, primed per column
    assert all(recorder.end[i] >= recorder.start[i] for i in range(len(recorder)))
    assert recorder.parent[0] == -1 and all(p < i for i, p in enumerate(recorder.parent))


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_same_seed_gives_same_inputs(cls):
    wl = object.__new__(cls)
    first = wl.specs(np.random.default_rng(42))
    again = wl.specs(np.random.default_rng(42))
    assert repr(first) == repr(again)
    if cls is not workloads.CliCommands:  # the seven README commands take no seed
        assert repr(first) != repr(wl.specs(np.random.default_rng(43)))


@pytest.mark.parametrize("seed", range(20))
def test_pi_calibration_stays_below_the_pattern_limit(seed):
    wl = object.__new__(workloads.PiCalibration)
    for omega1, omega2, coupling_j, a1, a2 in wl.specs(np.random.default_rng(seed)):
        assert a2 / coupling_j <= 0.02


def test_pure_cn_interleave_puts_every_eighth_search_in_the_a2_only_kind():
    wl = object.__new__(workloads.PureCnSearch)
    kinds = [spec[0] for spec in wl.specs(np.random.default_rng(3))]
    assert [i for i, kind in enumerate(kinds) if kind == "a2_only"] == [7, 15, 23]
    assert kinds.count("tie_a1") == len(wl.tie_offsets)
    # every seed warms up with the search from the params12 start
    for seed in (3, 4):
        _, omega1, a2 = wl.specs(np.random.default_rng(seed))[0]
        assert omega1 == pytest.approx(500.0, rel=1e-8) and a2 == pytest.approx(0.1, rel=1e-8)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in spec["per_layer"]}
    from_spans = set(run.layer_metrics(spans.Recorder(), 1, run.Counter()))
    from_probes = {"cli.import_ms", "cli.import.numpy_ms", "cli.import.scipy_ms",
                   "cli.import.spingate_ms", "cli.interpreter_ms"}
    from_env = {f"{m}.lines" for m in env.MODULES}
    from_trace = {"trace.untraced_ops_s", "trace.traced_ops_s", "trace.overhead_ops_s"}
    assert from_spans | from_probes | from_env | from_trace == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
