"""Tests for the host-speed scaling and the ``serve`` event batches.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402


def probe_with(samples):
    probe = hostspeed.SpeedProbe(-1, -1)
    probe.samples = [dict(zip(hostspeed.NOMINAL_S, s)) for s in samples]
    return probe


def test_factor_is_one_at_nominal_speed():
    nominal = tuple(hostspeed.NOMINAL_S.values())
    assert probe_with([nominal] * 3).factor() == pytest.approx(1.0)


def test_factor_follows_median_of_whole_tasks():
    nominal = tuple(hostspeed.NOMINAL_S.values())
    slow = tuple(1.25 * x for x in nominal)
    # One wild sample does not move the median.
    wild = tuple(10 * x for x in nominal)
    assert probe_with([slow, slow, wild]).factor() == pytest.approx(0.8)


def test_factor_of_given_samples():
    nominal = tuple(hostspeed.NOMINAL_S.values())
    probe = probe_with([tuple(2 * x for x in nominal), nominal, nominal])
    assert probe.factor(probe.samples[:1]) == pytest.approx(0.5)
    assert probe.factor() == pytest.approx(1.0)


def test_op_factors_follow_nearby_tasks():
    nominal = tuple(hostspeed.NOMINAL_S.values())
    slow = tuple(2 * x for x in nominal)
    # Two set-up tasks, then one task after every 4th op: the host is slow
    # around the last three tasks only.
    probe = probe_with([nominal] * 2 + [nominal] * 4 + [slow] * 3)
    got = probe.op_factors(28, every=4, first=2, half=1)
    assert got[:16] == pytest.approx([1.0] * 16)  # tasks 0-3 and their neighbours
    assert got[-4:] == pytest.approx([0.5] * 4)  # past the last task: tasks 5-6
    assert len(got) == 28


def test_op_factors_without_timed_tasks_use_all():
    nominal = tuple(hostspeed.NOMINAL_S.values())
    probe = probe_with([tuple(2 * x for x in nominal)] * 3)
    assert probe.op_factors(5, every=16, first=3) == pytest.approx([0.5] * 5)


def test_medians_ms_per_part():
    probe = probe_with([(0.001, 0.002, 0.003), (0.003, 0.004, 0.005), (0.002, 0.003, 0.004)])
    assert probe.medians_ms() == pytest.approx(
        dict(zip(hostspeed.NOMINAL_S, (2.0, 3.0, 4.0)))
    )


def test_reference_process_answers_over_pipes():
    to_ref_r, to_ref_w = os.pipe()
    from_ref_r, from_ref_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        os.close(to_ref_w)
        os.close(from_ref_r)
        hostspeed._CHASE_STEPS = 100
        hostspeed._MEMORY_SLOTS = 1 << 16
        hostspeed.serve(to_ref_r, from_ref_w)
        os._exit(0)
    os.close(to_ref_r)
    os.close(from_ref_w)
    try:
        assert os.read(from_ref_r, 1) == b"R"
        probe = hostspeed.SpeedProbe(to_ref_w, from_ref_r)
        probe.sample(2)
        assert len(probe.samples) == 2
        assert all(v > 0 for s in probe.samples for v in s.values())
    finally:
        os.close(to_ref_w)
        _, status = os.waitpid(pid, 0)
        os.close(from_ref_r)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@pytest.mark.parametrize("seed", [2, 20])
def test_serve_batches_are_valid_and_remove_a_node_once(seed):
    # Seed 2 fails, recovers and leaves node 191 in one batch of the raw trace;
    # seed 20 then recovers a node whose second fail was left out.
    import worker

    batches = worker.serve_events(seed, 12)
    assert [len(b) for b in batches] == [worker.SERVE_EVENT_BATCH] * 12
    alive, failed = set(range(worker.SERVE_N)), set()
    for batch in batches:
        removed = set()
        for r in batch:
            kind, node = r["kind"], r["node"]
            if kind in ("leave", "fail"):
                assert node in alive and node not in removed
                assert node not in worker.SERVE_DESTS
                removed.add(node)
                alive.discard(node)
                if kind == "fail":
                    failed.add(node)
            elif kind == "recover":
                assert node in failed
                failed.discard(node)
                alive.add(node)
            elif kind == "join":
                assert node not in alive and node not in failed
                alive.add(node)
            else:
                assert node in alive or node in failed
