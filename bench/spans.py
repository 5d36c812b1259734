"""Outside-in span recorder for the traced benchmark run.

The recorder wraps spingate's public functions from the outside: each name
is replaced in every ``spingate`` module namespace that holds it, so calls
between spingate's own modules are caught as well as calls from the
benchmark.  It also wraps ``Generator.eigensystem``, the ``QState`` and
``TimeSeries`` constructors, and ``numpy.linalg.eigh``.  ``src/`` is never
edited; ``uninstall`` puts every original back.

A span records its name, start, end, parent span and operation id.  Spans
are kept in flat typed arrays (28 bytes each) and written out once, when
the run ends.  Only calls made while an operation is open are recorded.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

#: span name -> (defining module, attribute) of the wrapped public functions
FUNCTIONS = {
    "propagator.build_generator": ("spingate.propagator", "build_generator"),
    "propagator.evolve_exact": ("spingate.propagator", "evolve_exact"),
    "propagator.to_primed": ("spingate.propagator", "to_primed"),
    "propagator.run_timeseries": ("spingate.propagator", "run_timeseries"),
    "gates.tomography": ("spingate.gates", "tomography"),
    "gates.extract_gcn_phases": ("spingate.gates", "extract_gcn_phases"),
    "gates.gate_fidelity": ("spingate.gates", "gate_fidelity"),
    "calibrate.calibrate_pi_duration": ("spingate.calibrate", "calibrate_pi_duration"),
    "calibrate.pure_cn_objective": ("spingate.calibrate", "pure_cn_objective"),
    "calibrate.tune_pure_cn": ("spingate.calibrate", "tune_pure_cn"),
    "config.parse_config_lines": ("spingate.config", "parse_config_lines"),
    "config.build_run_config": ("spingate.config", "build_run_config"),
    "config.initial_state": ("spingate.config", "initial_state"),
    "cli.main": ("spingate.cli", "main"),
    "cli.write_timeseries_csv": ("spingate.cli", "write_timeseries_csv"),
}

#: span name -> (defining module, class, attribute) of the wrapped methods
METHODS = {
    "core.QState": ("spingate.core", "QState", "__init__"),
    "core.TimeSeries": ("spingate.core", "TimeSeries", "__init__"),
    "propagator.Generator.eigensystem": ("spingate.propagator", "Generator", "eigensystem"),
}

EIGH = "propagator.eigh"


class Recorder:
    """Spans of one process, in the order they were opened."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op: int | None = None
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if self.current_op is None:
                return fn(*args, **kwargs)
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return spanned

    def extend(self, other: dict, op: int) -> None:
        """Append spans loaded from another process, renumbered as operation `op`."""
        base = len(self.name_id)
        for nid, start, end, parent in zip(
            other["name_id"], other["start"], other["end"], other["parent"]
        ):
            self.name_id.append(self._id(other["names"][nid]))
            self.start.append(float(start))
            self.end.append(float(end))
            self.parent.append(int(parent) + base if parent >= 0 else -1)
            self.op.append(op)

    def save(self, path, **extra) -> None:
        np.savez(
            path,
            **extra,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def load(path) -> dict:
    with np.load(path) as data:
        return {key: data[key].tolist() for key in data.files}


def install(recorder: Recorder) -> list:
    """Wrap every traced name; returns the undo list for `uninstall`."""
    undo = []
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "spingate" or name.startswith("spingate."))
    ]
    # a name that a later version of spingate no longer has is skipped: its spans read 0
    for span, (module, attr) in FUNCTIONS.items():
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            continue
        wrapped = recorder.wrap(span, original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)
    for span, (module, cls_name, attr) in METHODS.items():
        cls = getattr(sys.modules.get(module), cls_name, None)
        if cls is None or attr not in cls.__dict__:
            continue
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, recorder.wrap(span, original))
    undo.append((np.linalg, "eigh", np.linalg.eigh))
    np.linalg.eigh = recorder.wrap(EIGH, np.linalg.eigh)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Spans must be listed in the order they were opened, so the children of
    one parent arrive sorted by start; overlapping children and children
    that outlive their parent are counted once and clipped to the parent.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)  # end of the child coverage merged so far, per parent
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], end[i])
    return [end[i] - start[i] - covered[i] for i in range(n)]


def has_ancestor(parent, name_id, i: int, target: int) -> bool:
    p = parent[i]
    while p >= 0:
        if name_id[p] == target:
            return True
        p = parent[p]
    return False
