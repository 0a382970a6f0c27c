"""Span recording, self time, tail percentiles and GC/RSS probes.

Everything here observes the program from outside:
:meth:`SpanRecorder.install` replaces public functions and methods of
``repro`` with wrappers that record one span per call, and hooks a
:class:`GcMonitor` into ``gc.callbacks``.  Nothing under ``src/`` is changed, and nothing here
calls ``gc.collect``, ``gc.freeze`` or ``gc.disable``.

Timestamps come from ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux),
which is shared by every process on the machine, so spans recorded in
the server process can be matched against the client's op windows.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import math
import resource
import statistics
import threading
import time

#: Layer span name -> (module, attribute path) of the public call timed.
PATCHES = {
    "graphs.range": ("repro.graphs.transmission", "max_range_for_connectivity"),
    "graphs.gstar": ("repro.graphs.transmission", "transmission_graph"),
    "core.theta": ("repro.core.theta", "theta_algorithm"),
    "interference.conflict": ("repro.interference.conflict", "interference_sets"),
    "dynamic.theta_init": ("repro.dynamic.incremental", "IncrementalTheta.__init__"),
    "dynamic.conflict_init": ("repro.dynamic.interference", "DynamicInterference.__init__"),
    "dynamic.theta_repair": ("repro.dynamic.incremental", "IncrementalTheta.apply"),
    "dynamic.conflict_repair": ("repro.dynamic.interference", "DynamicInterference.update_event"),
    "dynamic.topology_step": ("repro.dynamic.incremental", "DynamicTopology.step"),
    "dynamic.mac_activate": ("repro.dynamic.interference", "DynamicMAC.active_edges"),
    "dynamic.mac_resolve": ("repro.dynamic.interference", "DynamicMAC.success_mask"),
    "dynamic.filter_injections": ("repro.dynamic.faults", "filter_injections"),
    "core.router": ("repro.core.balancing", "BalancingRouter.run_step"),
    "sim.step": ("repro.sim.engine", "SimulationEngine.step"),
    "service.advance": ("repro.service.session", "Session.advance"),
    "service.inject": ("repro.service.session", "Session.inject"),
}


class SpanRecorder:
    """In-memory spans ``{id, parent, op, name, start, end}``.

    Parents are tracked per thread, because the server runs step
    batches in an executor thread and event injection on the loop
    thread.  ``op`` is whatever the caller last assigned to
    :attr:`op` (``None`` outside timed ops).  :attr:`gc` records every
    collector pass while the recorder is installed.
    """

    def __init__(self) -> None:
        self.spans: "list[dict]" = []
        self.op: "int | None" = None
        self.gc = GcMonitor()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: "list[tuple[object, str, object]]" = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            op = self.op
            stack.append(sid)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans.append(
                    {"id": sid, "parent": parent, "op": op, "name": name, "start": start, "end": end}
                )

        return wrapper

    def install(self, patches: "dict[str, tuple[str, str]]" = PATCHES) -> None:
        """Hook the GC monitor and replace every patched call with a wrapper."""
        gc.callbacks.append(self.gc)
        for name, (module, path) in patches.items():
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        gc.callbacks.remove(self.gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "gc": self.gc.passes}, fh)


def self_times(spans: "list[dict]") -> "dict[int, float]":
    """Span id -> duration minus the part of it covered by child spans.

    Children are clipped to their parent's interval and overlapping
    children are merged, so time is never subtracted twice.
    """
    children: "dict[int, list[tuple[float, float]]]" = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def tail(values, beyond: int = 10) -> "tuple[float, float]":
    """The highest order statistic with at least ``beyond`` values above it.

    Returns ``(value, percentile)``; with ``n`` values that is the
    ``(n - beyond)``-th smallest, at percentile ``100 * (n - beyond) / n``.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} values for a tail, got {n}")
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n


def median(values) -> float:
    """Median, or 0 for an empty sample (a layer the workload never reached)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (0 for an empty sample)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[min(len(xs), max(1, math.ceil(q * len(xs)))) - 1]


class GcMonitor:
    """Every collector pass as ``(generation, start, end, collected)``."""

    def __init__(self) -> None:
        self.passes: "list[tuple[int, float, float, int]]" = []
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.monotonic()
        else:
            self.passes.append(
                (info["generation"], self._start, time.monotonic(), info["collected"])
            )


def gc_summary(passes, setup_end: float, timed_end: float) -> dict:
    """Split GC passes into the set-up phase and the timed phase."""
    setup = [p for p in passes if p[2] <= setup_end]
    timed = [p for p in passes if setup_end < p[2] <= timed_end]
    return {
        "runtime.setup_gc_s": sum(p[2] - p[1] for p in setup),
        "runtime.setup_gc_gen2": sum(1 for p in setup if p[0] == 2),
        "runtime.gc_ms": 1e3 * sum(p[2] - p[1] for p in timed),
        "runtime.gc_max_ms": 1e3 * max((p[2] - p[1] for p in timed), default=0.0),
        "runtime.gc_gen2": sum(1 for p in timed if p[0] == 2),
    }


def proc_status_mb(pid: "int | str", field: str) -> float:
    """``VmRSS`` / ``VmHWM`` of a process from ``/proc/<pid>/status``, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(f"{field} not in /proc/{pid}/status")


def peak_rss_mb() -> float:
    """This process's peak RSS so far (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
