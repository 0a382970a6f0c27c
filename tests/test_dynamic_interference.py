"""Incremental interference-set maintenance: bit-identical to rebuilds.

The load-bearing guarantee of :mod:`repro.dynamic.interference` is that
after *every* event the maintained conflict rows equal
:func:`repro.interference.conflict.interference_sets` recomputed from
scratch on the maintained topology, row for row.  Asserted over 20
seeded random traces, the degenerate geometries reused from
``tests/test_kernel_equivalence.py``, and a 1000-event acceptance
trace, plus the MAC fast path, the staleness guard, and the
topology-version keying of ``cached_interference_sets``.
"""

import math

import numpy as np
import pytest

from repro import (
    DynamicInterference,
    DynamicMAC,
    IncrementalTheta,
    NodeJoin,
    NodeMove,
    interference_sets,
    max_range_for_connectivity,
    random_event_trace,
    uniform_points,
)
from repro.harness import cache as cache_mod

THETA = math.pi / 9
DELTA = 0.5
SEEDS = list(range(20))

DEGENERATE_POINTS = {
    "collinear": np.column_stack([np.arange(12.0), np.zeros(12)]),
    "lattice": np.stack(
        np.meshgrid(np.arange(5.0), np.arange(5.0)), axis=-1
    ).reshape(-1, 2),
    "coincident": np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
    "two_points": np.array([[0.0, 0.0], [0.7, 0.2]]),
}


def _pair(n, seed, *, slack=1.5, delta=DELTA):
    pts = uniform_points(n, rng=seed)
    d0 = max_range_for_connectivity(pts, slack=slack)
    inc = IncrementalTheta(pts, THETA, d0)
    return pts, d0, inc, DynamicInterference(inc, delta)


class TestSeedEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_trace_stays_identical(self, seed):
        pts, d0, inc, di = _pair(60, seed)
        trace = random_event_trace(
            pts, 40, move_sigma=d0 / 2.0, rng=np.random.default_rng(1000 + seed)
        )
        for ev in trace.events():
            di.update_event(inc.apply(ev))
            assert di.check_full_equivalence() == 0

    @pytest.mark.parametrize("name", sorted(DEGENERATE_POINTS))
    def test_degenerate_geometries(self, name):
        pts = DEGENERATE_POINTS[name]
        d0 = 1.5
        inc = IncrementalTheta(pts, THETA, d0)
        di = DynamicInterference(inc, DELTA)
        assert di.check_full_equivalence() == 0
        # Churn the degenerate configuration: move every node onto /
        # off coincident spots, then add one more coincident node.
        gen = np.random.default_rng(7)
        for node in range(len(pts)):
            target = pts[(node + 1) % len(pts)] + gen.normal(0, 0.05, 2)
            di.update_event(inc.apply(NodeMove(node=node, x=target[0], y=target[1])))
            assert di.check_full_equivalence() == 0
        join = NodeJoin(node=len(pts), x=float(pts[0][0]), y=float(pts[0][1]))
        di.update_event(inc.apply(join))
        assert di.check_full_equivalence() == 0


class TestAcceptanceTrace:
    def test_1000_events_bit_identical_after_every_event(self):
        pts, d0, inc, di = _pair(60, 23)
        trace = random_event_trace(
            pts, 1000, move_sigma=d0 / 2.0, rng=np.random.default_rng(2023)
        )
        for ev in trace.events():
            stats = inc.apply(ev)
            di.update_event(stats)
            assert di.check_full_equivalence() == 0


class TestStalenessGuard:
    def test_out_of_sync_raises(self):
        pts, d0, inc, di = _pair(40, 5)
        inc.apply(NodeJoin(node=inc.size, x=0.5, y=0.5))
        with pytest.raises(RuntimeError, match="out of sync"):
            di.interference_sets()
        with pytest.raises(RuntimeError, match="out of sync"):
            di.degree_array()

    def test_update_resyncs(self):
        pts, d0, inc, di = _pair(40, 5)
        stats = inc.apply(NodeJoin(node=inc.size, x=0.5, y=0.5))
        di.update_event(stats)
        assert di.check_full_equivalence() == 0


class TestDynamicMAC:
    def test_bounds_match_static_mac(self):
        from repro.core.interference_mac import RandomActivationMAC

        pts, d0, inc, di = _pair(60, 11)
        mac = DynamicMAC(di, rng=0)
        mac._refresh()
        static = RandomActivationMAC(inc.snapshot_graph(), DELTA, rng=0)
        np.testing.assert_allclose(mac._probs, static.activation_probs)
        assert mac.interference_number == static.interference_number

    @pytest.mark.parametrize("bound_mode", ["own", "neighborhood"])
    def test_bounds_match_static_mac_per_mode(self, bound_mode):
        # Both bound modes, before and after churn: the maintained view
        # derives the same probabilities as a static MAC on the snapshot.
        from repro.core.interference_mac import RandomActivationMAC

        pts, d0, inc, di = _pair(60, 11)
        mac = DynamicMAC(di, rng=0, bound_mode=bound_mode)
        for events in ([], list(random_event_trace(pts, 10, move_sigma=d0 / 2.0, rng=4).events())):
            for ev in events:
                di.update_event(inc.apply(ev))
            mac._refresh()
            static = RandomActivationMAC(
                inc.snapshot_graph(), DELTA, rng=0, bound_mode=bound_mode
            )
            np.testing.assert_array_equal(mac._probs, static.activation_probs)

    def test_invalid_bound_mode_rejected_at_construction(self):
        pts, d0, inc, di = _pair(30, 11)
        with pytest.raises(ValueError, match="mode must be"):
            DynamicMAC(di, bound_mode="bad")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_rounds_match_static_mac(self, seed):
        # On an unchurned topology the maintained MAC is a thin view of
        # the static one: same draws, same edges and costs, same verdicts.
        from repro.core.interference_mac import RandomActivationMAC
        from repro.sim.packets import Transmission

        pts, d0, inc, di = _pair(200, 20 + seed)
        mac = DynamicMAC(di, rng=seed)
        static = RandomActivationMAC(inc.snapshot_graph(), DELTA, rng=seed)
        for _ in range(30):
            edges, costs = mac.active_edges()
            s_edges, s_costs = static.active_edges()
            assert np.array_equal(edges, s_edges)
            assert np.array_equal(costs, s_costs)
            tx = [
                Transmission(src=int(a), dst=int(b), dest=int(b), cost=float(c))
                for (a, b), c in zip(edges.tolist(), costs.tolist())
            ]
            assert np.array_equal(mac.success_mask(tx), static.success_mask(tx))

    def test_active_edges_refresh_after_churn(self):
        pts, d0, inc, di = _pair(60, 12)
        mac = DynamicMAC(di, rng=1)
        edges, costs = mac.active_edges()
        assert edges.shape[1] == 2 and len(edges) == len(costs)
        trace = random_event_trace(pts, 10, move_sigma=d0 / 2.0, rng=3)
        for ev in trace.events():
            di.update_event(inc.apply(ev))
        edges, costs = mac.active_edges()  # re-derives from new version
        assert mac._cache_version == inc.topology_version
        # Every sampled edge is a current topology edge.
        edge_set = inc.edge_set()
        for a, b in edges.tolist():
            assert (min(a, b), max(a, b)) in edge_set

    def test_success_mask_resolves_on_live_positions(self):
        from repro.sim.packets import Transmission

        pts, d0, inc, di = _pair(60, 13)
        mac = DynamicMAC(di, rng=2)
        edges = inc.edge_array()
        tx = [
            Transmission(src=int(a), dst=int(b), dest=int(b), cost=1.0)
            for a, b in edges[:4].tolist()
        ]
        ok = mac.success_mask(tx)
        assert ok.shape == (len(tx),) and ok.dtype == bool


class TestCachedInterferenceSetsVersioning:
    class _StubGraph:
        """Minimal graph with a mutable topology_version (id stays fixed)."""

        def __init__(self, pts, edges):
            from repro.graphs.base import GeometricGraph

            self._g = GeometricGraph(pts, edges)
            self.topology_version = 0

        def __getattr__(self, name):
            return getattr(self._g, name)

    def test_version_bump_invalidates(self):
        cache_mod.clear_cache()
        pts = uniform_points(30, rng=0)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        g = self._StubGraph(inc.all_positions().copy(), inc.edge_array())
        s1 = cache_mod.cached_interference_sets(g, DELTA)
        s2 = cache_mod.cached_interference_sets(g, DELTA)
        assert s1 is s2  # same id + version → cache hit
        # Churn: same object identity, new version → fresh sets.
        inc.apply(NodeJoin(node=inc.size, x=0.5, y=0.5))
        g2 = self._StubGraph(inc.all_positions().copy(), inc.edge_array())
        g2.topology_version = 1
        s3 = cache_mod.cached_interference_sets(g2, DELTA)
        assert s3 == interference_sets(g2._g, DELTA)

    def test_snapshot_graph_carries_version_and_caches(self):
        cache_mod.clear_cache()
        pts = uniform_points(30, rng=1)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        g = inc.snapshot_graph()
        assert g.topology_version == inc.topology_version
        s1 = cache_mod.cached_interference_sets(g, DELTA)
        s2 = cache_mod.cached_interference_sets(inc.snapshot_graph(), DELTA)
        assert s1 is s2  # unchanged version → same snapshot → hit
        inc.apply(NodeJoin(node=inc.size, x=0.25, y=0.25))
        g3 = inc.snapshot_graph()
        assert g3.topology_version != g.topology_version
        s3 = cache_mod.cached_interference_sets(g3, DELTA)
        assert s3 == interference_sets(g3, DELTA)
        assert len(s3) != len(s1) or s3 != s1  # stale structure not served
