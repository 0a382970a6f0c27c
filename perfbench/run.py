"""perfbench — the repository benchmark over the ΘALG pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

* ``build`` — one op builds one n=2000 network from scratch:
  range → G* → ΘALG → §2.4 conflict rows, checked against recorded digests;
* ``churn`` — one op applies one churn event to an n=10⁴
  ``IncrementalTheta`` + ``DynamicInterference`` pair;
* ``serve`` — one op is one ``POST …/step?steps=8`` against a
  ``python -m repro serve`` process, with an SSE subscriber attached.

Each run is a fixed number of ops, ``--seconds`` times a per-workload
rate calibrated on a 2-core box, so the tail percentile is the same in
every run.  ``--trace 0`` prints the end-to-end metrics, with
``setup_s`` the median of several fresh-process set-ups; ``--trace 1``
runs the workload once untraced and once with layer spans recorded and
prints the per-layer metrics.  End-to-end times are scaled to a nominal
host speed by a reference task timed between ops on the same core
(``hostspeed.py``); the unscaled wall-clock figures are printed on the
line before the result.  The last line of standard output is the
JSON result.  This file imports only the standard library: every
workload process is a fresh ``worker.py`` so that set-up includes the
imports users pay for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402  (stdlib-only at import time)

#: ops per second of ``--seconds`` (sets the fixed op count), warm-up ops,
#: and timed ops between two host-speed reference tasks (about 4 a second).
WORKLOADS = {
    "build": {"rate": 2.2, "warmup": 2, "probe_every": 1},
    "churn": {"rate": 56.0, "warmup": 20, "probe_every": 16},
    "serve": {"rate": 26.0, "warmup": 10, "probe_every": 8},
}
#: fresh processes whose set-up time is measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: every op sequence keeps at least this many ops beyond its tail percentile.
MIN_OPS = 20
#: wall-clock budget for all worker processes of one run.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphs.range_ms": "ms",
    "graphs.gstar_ms": "ms",
    "core.theta_ms": "ms",
    "interference.conflict_ms": "ms",
    "core.theta_edges": "count",
    "interference.conflict_entries": "count",
    "interference.conflict_mb": "MB",
    "dynamic.theta_init_s": "s",
    "dynamic.conflict_init_s": "s",
    "dynamic.theta_repair_p50_ms": "ms",
    "dynamic.theta_repair_p99_ms": "ms",
    "dynamic.conflict_repair_p50_ms": "ms",
    "dynamic.conflict_repair_p99_ms": "ms",
    "dynamic.nodes_touched": "count",
    "dynamic.edges_flipped": "count",
    "dynamic.rows_recomputed": "count",
    "dynamic.entries_changed": "count",
    "dynamic.entries_per_row": "ratio",
    "runtime.setup_gc_s": "s",
    "runtime.setup_gc_gen2": "count",
    "runtime.gc_ms": "ms",
    "runtime.gc_max_ms": "ms",
    "runtime.gc_gen2": "count",
    "runtime.rss_setup_mb": "MB",
    "service.create_s": "s",
    "service.advance_p50_ms": "ms",
    "service.advance_p99_ms": "ms",
    "service.rtt_overhead_ms": "ms",
    "service.inject_ms": "ms",
    "service.inject_server_ms": "ms",
    "service.sse_frames": "count",
    "service.sse_kb": "KB",
    "sim.step_self_ms": "ms",
    "core.router_ms": "ms",
    "dynamic.mac_ms": "ms",
    "dynamic.filter_injections_ms": "ms",
    "dynamic.topology_step_ms": "ms",
    "dynamic.mac_attempts": "count",
    "dynamic.mac_success_ratio": "ratio",
    "core.accepted": "count",
    "core.delivered_ratio": "ratio",
    "trace.overhead_pct": "%",
    "host.compute_ms": "ms",
    "host.cache_ms": "ms",
    "host.memory_ms": "ms",
}


class WorkerFailed(Exception):
    pass


class Reference:
    """The run's host-speed reference process (``hostspeed.py --serve``), on the work core."""

    def __init__(self, deadline: float) -> None:
        to_ref, self.to_fd = os.pipe()
        self.from_fd, from_ref = os.pipe()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostspeed.py"), "--serve"],
            stdin=to_ref, stdout=from_ref,
            preexec_fn=lambda: hostspeed.pin(hostspeed.cores()[1]),
        )
        os.close(to_ref)
        os.close(from_ref)
        ready, _, _ = select.select([self.from_fd], [], [], max(1.0, deadline - time.monotonic()))
        if not ready or os.read(self.from_fd, 1) != b"R":
            self.close()
            raise WorkerFailed("host-speed reference process did not start")

    def close(self) -> None:
        # EOF on its input ends the reference loop.
        os.close(self.to_fd)
        os.close(self.from_fd)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def spawn(args, ref: Reference, *, ops: int, trace: int, setup_only: bool, deadline: float) -> dict:
    """Run one fresh worker process and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    spec = WORKLOADS[args.workload]
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--ops", str(ops),
        "--warmup", str(spec["warmup"]), "--probe-every", str(spec["probe_every"]),
        "--reference-fds", f"{ref.to_fd},{ref.from_fd}", "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else [])
    spawn_t = time.monotonic()
    # Own session, so a timeout also stops the server a serve worker started.
    proc = subprocess.Popen(
        cmd + ["--spawn-t", repr(spawn_t)], stdout=subprocess.PIPE, env=env,
        start_new_session=True, pass_fds=(ref.to_fd, ref.from_fd),
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawn_t))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"worker timed out: {' '.join(cmd)}") from None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def fingerprint() -> str:
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')}"
    )


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="perfbench: the repository benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    ops = max(MIN_OPS, round(args.seconds * WORKLOADS[args.workload]["rate"]))
    deadline = time.monotonic() + RUN_BUDGET_S
    ref = None
    try:
        ref = Reference(deadline)
        if args.trace:
            plain = spawn(args, ref, ops=ops, trace=0, setup_only=False, deadline=deadline)
            traced = spawn(args, ref, ops=ops, trace=1, setup_only=False, deadline=deadline)
            runs = [plain, traced]
            layers = dict.fromkeys(PER_LAYER, 0)
            layers.update(traced["layers"])
            layers.update({k: v for k, v in traced.items() if k.startswith("host.")})
            layers["trace.overhead_pct"] = 100.0 * (traced["op_p50_ms"] / plain["op_p50_ms"] - 1.0)
            metrics = {name: metric(layers[name], unit) for name, unit in PER_LAYER.items()}
        else:
            setups = [
                spawn(args, ref, ops=ops, trace=0, setup_only=True, deadline=deadline)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            main_run = spawn(args, ref, ops=ops, trace=0, setup_only=False, deadline=deadline)
            runs = [main_run]
            setups.append(main_run)
            main_run["setup_s"] = statistics.median(r["setup_s"] for r in setups)
            main_run["wall"]["setup_s"] = statistics.median(r["wall"]["setup_s"] for r in setups)
            metrics = {name: metric(main_run[name], unit) for name, unit in END_TO_END.items()}
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if ref is not None:
            ref.close()
    print(
        f"perfbench: workload={args.workload} seed={args.seed} ops={ops} "
        f"tail=p{runs[-1]['tail_percentile']:.1f} {fingerprint()}"
    )
    host = {k: v for k, v in runs[0].items() if k.startswith("host.")}
    print(
        "perfbench: unscaled wall "
        + " ".join(f"{k}={v:.6g}" for k, v in {**runs[0]["wall"], **host}.items())
    )
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["ops"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
