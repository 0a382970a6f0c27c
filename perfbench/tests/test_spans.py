"""Tests for the benchmark's span, self-time and tail helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def span(sid, parent, start, end, name="x", op=None):
    return {"id": sid, "parent": parent, "op": op, "name": name, "start": start, "end": end}


def test_self_time_subtracts_children():
    s = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 3.0), span(3, 1, 5.0, 9.0), span(4, 3, 6.0, 7.0)]
    got = spans.self_times(s)
    assert got == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0})


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # Children from two threads may overlap each other and spill past the parent.
    s = [span(1, None, 0.0, 10.0), span(2, 1, 2.0, 6.0), span(3, 1, 4.0, 8.0), span(4, 1, 9.0, 12.0)]
    assert spans.self_times(s)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_without_children_is_duration():
    assert spans.self_times([span(7, None, 1.5, 4.0)]) == {7: 2.5}


def test_tail_keeps_ten_values_beyond():
    values = list(range(40, 0, -1))  # unsorted on purpose
    value, pct = spans.tail(values)
    assert value == 30
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(75.0)


def test_tail_percentile_grows_with_sample():
    assert spans.tail(range(1000))[1] == pytest.approx(99.0)
    assert spans.tail(range(1000))[0] == 989


def test_tail_needs_more_than_ten_values():
    with pytest.raises(ValueError):
        spans.tail(range(10))
    assert spans.tail(range(11)) == (0, pytest.approx(100.0 / 11))


def test_median_and_quantile():
    assert spans.median([3, 1, 2]) == 2
    assert spans.median([4, 1, 3, 2]) == 2.5
    assert spans.median([]) == 0.0
    assert spans.quantile(range(1, 101), 0.99) == 99
    assert spans.quantile(range(1, 101), 0.5) == 50
    assert spans.quantile([], 0.99) == 0.0


def test_recorder_links_parents_and_ops():
    rec = spans.SpanRecorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    rec.op = 5
    assert outer(1) == 4
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert {s["op"] for s in rec.spans} == {5}


def test_recorder_install_and_uninstall_restore_methods():
    class Thing:
        def work(self):
            return 42

    module = type(sys)("perfbench_fake_module")
    module.Thing = Thing
    sys.modules[module.__name__] = module
    try:
        rec = spans.SpanRecorder()
        rec.install({"fake.work": (module.__name__, "Thing.work")})
        assert Thing().work() == 42
        assert [s["name"] for s in rec.spans] == ["fake.work"]
        assert rec.gc in gc.callbacks
        rec.uninstall()
        Thing().work()
        assert len(rec.spans) == 1
        assert rec.gc not in gc.callbacks
    finally:
        del sys.modules[module.__name__]


def test_gc_summary_splits_phases():
    passes = [(0, 0.0, 0.1, 5), (2, 0.5, 1.5, 0), (2, 2.0, 2.25, 0), (1, 3.0, 3.5, 1), (2, 9.0, 9.5, 0)]
    got = spans.gc_summary(passes, setup_end=1.5, timed_end=4.0)
    assert got["runtime.setup_gc_s"] == pytest.approx(1.1)
    assert got["runtime.setup_gc_gen2"] == 1
    assert got["runtime.gc_ms"] == pytest.approx(750.0)
    assert got["runtime.gc_max_ms"] == pytest.approx(500.0)
    assert got["runtime.gc_gen2"] == 1
