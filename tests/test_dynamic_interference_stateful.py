"""Stateful differential test of the incremental conflict-row store.

Hypothesis interleaves join, leave, move, fail and recover events on
small worlds, applied one at a time through
:meth:`DynamicInterference.update_event` or as batches through
``apply_events_parallel(backend="serial")``.  A clustered-join rule
piles nodes onto one spot, so rows outgrow their slack and the store
has to relocate them and grow its arena.  After every step the
maintained rows must equal a from-scratch ``interference_sets`` build,
and the MAC's degree fast path must agree with the materialized CSR.
Failures shrink to a minimal event sequence.
"""

import math

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import (
    DynamicInterference,
    IncrementalTheta,
    max_range_for_connectivity,
    uniform_points,
)
from repro.dynamic.batching import apply_events_parallel
from repro.dynamic.events import FailStop, NodeJoin, NodeLeave, NodeMove, Recover

THETA = math.pi / 9
DELTA = 0.5

coord = st.floats(0.0, 1.0, allow_nan=False)
KINDS = ("join", "leave", "move", "fail", "recover")


class ConflictStoreMachine(RuleBasedStateMachine):
    @initialize(n=st.integers(4, 24), seed=st.integers(0, 2**16))
    def build(self, n, seed):
        pts = uniform_points(n, rng=seed)
        self.d0 = max_range_for_connectivity(pts, slack=1.5)
        self.inc = IncrementalTheta(pts, THETA, self.d0)
        self.di = DynamicInterference(self.inc, DELTA)
        self.alive = set(range(n))
        self.failed: "set[int]" = set()
        self.next_id = n

    # -- event construction against the model's view ---------------------
    def _event(self, kind, pick, x, y):
        """An event of ``kind`` valid now (updating the view), or None."""
        if kind == "join":
            node, self.next_id = self.next_id, self.next_id + 1
            self.alive.add(node)
            return NodeJoin(node=node, x=x, y=y)
        if kind == "recover":
            if not self.failed:
                return None
            node = sorted(self.failed)[pick % len(self.failed)]
            self.failed.discard(node)
            self.alive.add(node)
            return Recover(node)
        if kind == "move":
            movable = sorted(self.alive | self.failed)
            if not movable:
                return None
            return NodeMove(node=movable[pick % len(movable)], x=x, y=y)
        if len(self.alive) <= 2:
            return None
        node = sorted(self.alive)[pick % len(self.alive)]
        self.alive.discard(node)
        if kind == "fail":
            self.failed.add(node)
            return FailStop(node)
        return NodeLeave(node)

    def _apply_one(self, ev) -> None:
        if ev is not None:
            self.di.update_event(self.inc.apply(ev))

    # -- rules -------------------------------------------------------------
    @rule(kind=st.sampled_from(KINDS), pick=st.integers(0, 2**16), x=coord, y=coord)
    def single_event(self, kind, pick, x, y):
        self._apply_one(self._event(kind, pick, x, y))

    @rule(
        ops=st.lists(
            st.tuples(st.sampled_from(KINDS), st.integers(0, 2**16), coord, coord),
            min_size=2,
            max_size=8,
        )
    )
    def serial_batch(self, ops):
        events = [ev for ev in (self._event(*op) for op in ops) if ev is not None]
        if events:
            apply_events_parallel(self.inc, events, interference=self.di, backend="serial")

    @rule(cx=coord, cy=coord, k=st.integers(3, 8), batched=st.booleans())
    def clustered_join(self, cx, cy, k, batched):
        # Nodes a hair apart: every row whose guard zone covers the spot
        # gains entries for all of their edges at once.
        gen = np.random.default_rng(k)
        offsets = gen.uniform(-0.05, 0.05, size=(k, 2)) * self.d0
        events = [self._event("join", 0, cx + dx, cy + dy) for dx, dy in offsets]
        if batched:
            apply_events_parallel(self.inc, events, interference=self.di, backend="serial")
        else:
            for ev in events:
                self._apply_one(ev)

    # -- invariants ----------------------------------------------------------
    @invariant()
    def rows_match_rebuild(self):
        if not hasattr(self, "di"):
            return
        assert self.di.check_full_equivalence() == 0
        np.testing.assert_array_equal(
            self.di.degree_array(), self.di.interference_sets().degrees
        )
        assert self.di.n_edges == len(self.inc.edge_array())


ConflictStoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestConflictStore = ConflictStoreMachine.TestCase
