"""Host-speed reference: a fixed task of benchmark-owned work, timed between ops.

On a shared host the speed of a core drifts by tens of percent over
minutes (see NOTES.md), and every wall time of a run moves with it.
Each run therefore starts one reference process on the core that does
the work; between ops the workload process asks it to time
:func:`Reference.task` and waits for the answer, so the task runs on
the same core under the same contention, but its memory is not the
workload's (``peak_rss_mb`` stays the program's own).  The workload
scales each op's time by the nominal task time over the median of the
tasks timed around that op (:meth:`SpeedProbe.op_factors`): a run on a
host that is momentarily 20 % slower reads the same, while a program
that does 20 % more work still reads 20 % slower.

The task has three parts, after what the program's time is made of:
``compute``, interpreted loops over dict and set with float math and a
numpy sort (as in ΘALG construction and the router); ``cache``, a chain
of dependent reads scattered over 32 MB, which the shared last-level
cache holds only while the other tenants leave it room (the working
sets of ``build`` and ``serve``); and ``memory``, the same over 256 MB,
more than that cache (main-memory latency, as in churn repair over a
large heap of dict-of-set state).  It uses nothing from ``repro``, so
no change to the program can move it.

Run it on its own to see the host's speed now::

    python3 perfbench/hostspeed.py
"""

from __future__ import annotations

import array
import math
import os
import statistics
import struct
import sys
import time

#: Median time of each part of the task on the 2-core box the benchmark
#: was tuned on, at its usual speed; scaled times read as wall times there.
NOMINAL_S = {"compute": 0.0090, "cache": 0.0055, "memory": 0.0075}

_LOOP = 6000
_SORTED = 40_000
_CACHE_SLOTS = 1 << 23  # int32: 32 MB, between the per-core L2 and the shared L3
_MEMORY_SLOTS = 1 << 26  # int32: 256 MB, more than the L3
_CHASE_STEPS = 12_000
_FMT = "ddd"


class Reference:
    """The reference task and the state it needs (288 MB of chase tables)."""

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.floats = np.random.default_rng(12345).random(_SORTED)
        # Written, so every page is backed by its own memory; allocated by
        # Python rather than numpy, so it gets no huge pages (numpy asks for
        # them, and whether it gets them varies from run to run) and sees
        # the TLB the way the program's own heap does.
        self.tables = {
            "cache": array.array("i", [1]) * _CACHE_SLOTS,
            "memory": array.array("i", [1]) * _MEMORY_SLOTS,
        }
        self.at = {"cache": 1, "memory": 1}

    def chase(self, name: str) -> float:
        """Time a chain of dependent reads scattered over table ``name``.

        Each read's address depends on the value read before it, so the
        reads cannot overlap; the walk continues across calls.
        """
        t = time.perf_counter()
        table, at = self.tables[name], self.at[name]
        mask = len(table) - 1
        for _ in range(_CHASE_STEPS):
            at = (at * 1103515245 + 12345 + table[at]) & mask
        self.at[name] = at
        return time.perf_counter() - t

    def task(self) -> "tuple[float, float, float]":
        """Run the reference work once; return the wall time of each part in seconds."""
        t0 = time.perf_counter()
        counts: "dict[int, int]" = {}
        seen: "set[int]" = set()
        acc = 0.0
        for i in range(_LOOP):
            k = (i * 7919) % 4099
            counts[k] = counts.get(k, 0) + 1
            seen.add(k ^ 0x55)
            acc += math.sqrt(i + 1.0)
        order = self.np.argsort(self.floats, kind="stable")
        acc += float(self.np.cumsum(self.floats[order])[-1])
        compute = time.perf_counter() - t0
        return compute, self.chase("cache"), self.chase("memory")


def cores() -> "tuple[int | None, int | None]":
    """(client core, work core); ``None`` when there is one core.

    The work, and with it the reference process, goes to the first core:
    when this was chosen on a 2-core box, a CPU-bound loop there ran within
    4 % of its mean across processes, while on the second core it swung
    between 0.55× and 1.05× (see NOTES.md).
    """
    avail = sorted(os.sched_getaffinity(0))
    if len(avail) < 2:
        return None, None
    return avail[-1], avail[0]


def pin(cpu: "int | None") -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def serve(fd_in: int, fd_out: int) -> None:
    """Reference-process loop: one byte in, one task's part times out, until EOF."""
    ref = Reference()
    os.write(fd_out, b"R")
    while os.read(fd_in, 1):
        os.write(fd_out, struct.pack(_FMT, *ref.task()))


class SpeedProbe:
    """Client of a reference process; keeps the part times of every task."""

    def __init__(self, fd_out: int, fd_in: int) -> None:
        self._out, self._in = fd_out, fd_in
        self.samples: "list[dict[str, float]]" = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            os.write(self._out, b"T")
            parts = struct.unpack(_FMT, _read_exactly(self._in, struct.calcsize(_FMT)))
            self.samples.append(dict(zip(NOMINAL_S, parts)))

    def medians_ms(self) -> "dict[str, float]":
        return {k: 1e3 * statistics.median(s[k] for s in self.samples) for k in NOMINAL_S}

    def factor(self, samples=None) -> float:
        """Nominal task time over the median time of ``samples`` (default: all).

        Multiply a measured time by it to scale it to the nominal host speed.
        """
        return _factor([sum(s.values()) for s in (self.samples if samples is None else samples)])

    def op_factors(self, n_ops: int, every: int, first: int, half: int = 2) -> "list[float]":
        """One factor per op, from the ``2 * half + 1`` tasks timed around it.

        Tasks from index ``first`` on were timed after every ``every``-th op,
        so op ``i`` is followed by task ``first + i // every``.  The host's
        speed changes within seconds, so a nearby median tracks it better
        than the run's; with no task after ``first``, all tasks are used.
        """
        timed = [sum(s.values()) for s in self.samples[first:]]
        if not timed:
            return [self.factor()] * n_ops
        out = []
        for i in range(n_ops):
            j = min(i // every, len(timed) - 1)
            out.append(_factor(timed[max(0, j - half) : j + half + 1]))
        return out


def _factor(task_times: "list[float]") -> float:
    return sum(NOMINAL_S.values()) / statistics.median(task_times)


def _read_exactly(fd: int, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            raise EOFError("reference process went away")
        buf += chunk
    return buf


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve(sys.stdin.fileno(), sys.stdout.fileno())
    else:
        ref = Reference()
        parts = [ref.task() for _ in range(200)]
        for k, xs in zip(NOMINAL_S, zip(*parts)):
            xs = sorted(xs)
            print(
                f"{k}: median {1e3 * statistics.median(xs):.3f} ms, p10 {1e3 * xs[len(xs) // 10]:.3f} ms, "
                f"p90 {1e3 * xs[9 * len(xs) // 10]:.3f} ms (nominal {1e3 * NOMINAL_S[k]:.1f} ms)"
            )
