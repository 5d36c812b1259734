"""Fresh-interpreter children of the benchmark.

    python3 bench/child.py setup WORKLOAD SEED WORKDIR
        Time a fresh import of the workload's spingate module plus one
        warm-up operation, less the run-queue wait (see env.run_queue_wait);
        print {"setup_s": ...} as the last line.  Input generation and
        preparation in between are not timed.

    python3 bench/child.py check WORKLOAD SEED WORKDIR
        The checker: build the workload's seeded items and their references,
        then answer each pickled (item index, output) request on stdin with
        a pickled ("ok", counters) or ("failed", message) on stdout, until
        stdin closes.  It first sends ("ready", number of items).

    python3 bench/child.py cli SPANS_PATH -- ARGV...
        The traced CLI driver: time `import spingate.cli`, install the span
        recorder, call `spingate.cli.main(ARGV)` and save the spans (and the
        import time) to SPANS_PATH.  Exits with main's status.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import sys
from time import perf_counter

from env import IMPORT_TARGET, bootstrap, run_queue_wait


def setup_probe(workload: str, seed: int, workdir: str) -> None:
    w0 = run_queue_wait()
    t0 = perf_counter()
    importlib.import_module(IMPORT_TARGET[workload])
    imported = perf_counter() - t0
    imported_wait = run_queue_wait() - w0
    from workloads import WORKLOADS  # imports spingate, so only after the timed import

    wl = WORKLOADS[workload](seed, workdir, limit=1)
    w1 = run_queue_wait()
    t1 = perf_counter()
    wl.warmup(wl.items[0])
    warm = perf_counter() - t1
    wait = imported_wait + run_queue_wait() - w1
    print(json.dumps({"setup_s": imported + warm - wait, "wall_s": imported + warm,
                      "import_s": imported, "warmup_s": warm, "wait_s": wait}))


def checker(workload: str, seed: int, workdir: str) -> None:
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # anything the checks print goes to stderr, not among the replies
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir)
    refs = [wl.reference(item) for item in wl.items]
    reply = ("ready", len(wl.items))
    while True:
        pickle.dump(reply, replies)
        replies.flush()
        try:
            k, output = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        try:
            reply = ("ok", wl.check(wl.items[k], refs[k], output))
        except Exception as exc:  # a failed check is an answer, not a crash
            reply = ("failed", f"{type(exc).__name__}: {exc}")


def cli_driver(spans_path: str, argv: list) -> int:
    t0 = perf_counter()
    cli = importlib.import_module("spingate.cli")
    import_ms = (perf_counter() - t0) * 1e3
    import spans

    recorder = spans.Recorder()
    undo = spans.install(recorder)
    recorder.current_op = 0
    try:
        return cli.main(argv)
    finally:
        recorder.current_op = None
        spans.uninstall(undo)
        recorder.save(spans_path, import_ms=import_ms)


def main(argv: list) -> int:
    bootstrap()
    if argv[:1] == ["setup"] and len(argv) == 4:
        setup_probe(argv[1], int(argv[2]), argv[3])
        return 0
    if argv[:1] == ["check"] and len(argv) == 4:
        checker(argv[1], int(argv[2]), argv[3])
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 3 and argv[2] == "--":
        return cli_driver(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
