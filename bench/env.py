"""Paths, process environment and the environment record of a benchmark run.

Every benchmark process calls `bootstrap()` before numpy is imported: it
pins BLAS to one thread and puts the checkout's ``src/`` first on the
import path, so the benchmark always measures the spingate source next to
it and never an installed copy.
"""

from __future__ import annotations

import os
import platform
from importlib import metadata
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
MODULES = ("core", "propagator", "gates", "calibrate", "config", "cli")

#: module whose fresh import `setup_s` times, per workload: the timeseries
#: operation calls the CLI's CSV writer, so it pays for `spingate.cli` too
IMPORT_TARGET = {
    "pi_calibration": "spingate",
    "pure_cn_search": "spingate",
    "timeseries_csv": "spingate.cli",
    "cli_commands": "spingate.cli",
}

#: one caller, one BLAS thread (at most nproc): the operations are 4x4
#: problems, where extra BLAS threads only add scheduling noise
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(SystemExit):
    pass


def bootstrap() -> None:
    """Pin BLAS threads and import spingate from this checkout's src/."""
    if not (SRC / "spingate" / "__init__.py").is_file():
        raise MissingSource(f"error: no spingate sources under {SRC}; run from a full checkout")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)


def run_queue_wait() -> float:
    """Seconds this thread has spent runnable but waiting for a CPU held by
    another task, as the kernel's schedstat counts it (0 where not reported).

    With one caller and one BLAS thread, that time belongs to the machine's
    other tenants and not to the code under test, so the benchmark takes it
    out of every time it measures in-process.
    """
    try:
        with open("/proc/thread-self/schedstat", "rb") as fh:
            return int(fh.read().split()[1]) * 1e-9
    except (OSError, IndexError, ValueError):
        return 0.0


def child_env() -> dict:
    """Environment for child interpreters: same BLAS pinning, spingate from src/."""
    env = dict(os.environ)
    # children import from cached bytecode, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in _BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def module_lines() -> dict:
    """Static line counts of the six spingate modules."""
    counts = {}
    for name in MODULES:
        with open(SRC / "spingate" / f"{name}.py", encoding="utf-8") as fh:
            counts[f"{name}.lines"] = sum(1 for _ in fh)
    return counts


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),  # from metadata: importing scipy costs memory
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        **module_lines(),
    }
