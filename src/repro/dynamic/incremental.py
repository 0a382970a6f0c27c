"""Incremental ΘALG maintenance under topology events.

The locality claim made concrete (E23): because every ΘALG decision of
a node depends only on nodes within transmission range D, a topology
event at position *p* can only change

* phase-1 (Yao) choices of live nodes within D of *p* — the **dirty
  set** A; and
* phase-2 (in-degree pruning) outcomes at receivers whose incoming
  Yao-edge multiset changed, or whose distance to an in-neighbor
  changed — every such receiver is a (current or former) Yao target of
  some node in A, hence within 2D of *p*.

:class:`IncrementalTheta` maintains the exact ΘALG output under
:mod:`repro.dynamic.events` streams by re-running both phases on that
bounded region only.  It replicates the vectorized kernels'
arithmetic bit-for-bit — same subtraction orientation, same
``np.hypot``/``np.arctan2`` expressions, same in-range epsilon
(``d² ≤ D² + 1e-12``), same (distance, node-id) tie-breaking — so the
maintained topology is **edge-for-edge identical** to
:func:`repro.core.theta.theta_algorithm` recomputed from scratch on
the live node set after every event (asserted by
:meth:`IncrementalTheta.check_full_equivalence` and the property tests
in ``tests/test_dynamic_incremental.py``).

:class:`DynamicTopology` packages a maintainer with an
:class:`~repro.dynamic.events.EventTrace` for consumption by
:class:`repro.sim.engine.SimulationEngine`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.theta import theta_algorithm
from repro.dynamic.events import (
    Event,
    EventTrace,
    FailStop,
    NodeJoin,
    NodeLeave,
    NodeMove,
    Recover,
    event_kind,
)
from repro.geometry.primitives import TWO_PI, as_points
from repro.geometry.sectors import SectorPartition
from repro.geometry.spatialindex import DynamicGridIndex
from repro.obs import trace
from repro.utils.arrays import run_starts

__all__ = ["RepairStats", "IncrementalTheta", "DynamicTopology", "StepChurn"]


@dataclass(frozen=True)
class RepairStats:
    """Per-event repair accounting (the E23 measurands).

    Attributes
    ----------
    kind:
        Event kind tag (``join``/``leave``/``move``/``fail``/``recover``,
        or ``batch`` for a merged-region batch repair).
    node:
        The event's node id (-1 for a batch).
    update_radius:
        Largest distance from an event anchor to any touched node
        (0 when nothing was touched).  Bounded by 2D by construction.
    nodes_touched:
        Number of distinct nodes whose phase-1 or phase-2 state was
        recomputed (the dirty set plus re-pruned receivers).
    edges_flipped:
        Undirected topology edges added plus removed by this event,
        counting transient flips (an edge dropped and re-added during
        one repair counts twice).
    wall_time:
        Repair wall-clock seconds (``time.perf_counter`` based).
    edges_added / edges_removed:
        The *net* changelog: undirected global-id edges present after
        the repair but not before (and vice versa), sorted.  Transient
        flips cancel out.  This is what
        :class:`repro.dynamic.interference.DynamicInterference` consumes
        to repair conflict rows.
    """

    kind: str
    node: int
    update_radius: float
    nodes_touched: int
    edges_flipped: int
    wall_time: float
    edges_added: "tuple[tuple[int, int], ...]" = ()
    edges_removed: "tuple[tuple[int, int], ...]" = ()


class IncrementalTheta:
    """Maintain the exact ΘALG topology under join/leave/move/fail events.

    Parameters mirror :func:`repro.core.theta.theta_algorithm`; the
    initial state is seeded from one full vectorized run.  Node ids are
    *global and stable*: survivors keep their id across events, joins
    take fresh ids (or re-populate a departed slot), and all reported
    edges are in global-id space.

    State kept per live node ``u``:

    * ``_out[u]``: ``{sector → target}`` — u's phase-1 Yao choices;
    * ``_in[x]``: ``{sources w with x ∈ N(w)}`` — reverse index;
    * ``_admit[x]``: ``{sector → admitted source}`` — phase-2 result;
    * ``_edge_dirs[(lo, hi)]``: 1 or 2 — how many of the two directed
      choices of undirected edge ``{lo, hi}`` survived pruning.
    """

    def __init__(
        self,
        points: np.ndarray,
        theta: float,
        max_range: float,
        *,
        kappa: float = 2.0,
        offset: float = 0.0,
    ) -> None:
        pts = as_points(points)
        self.theta = float(theta)
        self.max_range = float(max_range)
        self.kappa = float(kappa)
        self.offset = float(offset)
        self._part = SectorPartition(self.theta, self.offset)
        self._index = DynamicGridIndex(pts, cell=self.max_range)
        self._failed: "set[int]" = set()
        #: Bumped after every state-changing event (or batch); lets
        #: consumers (snapshot cache, DynamicInterference, the harness
        #: substrate cache) key derived structures by topology state.
        self.topology_version = 0
        self._snapshot: "object | None" = None
        self._snapshot_version = -1

        topo = theta_algorithm(pts, self.theta, self.max_range, kappa=self.kappa, offset=self.offset)
        self._out: "dict[int, dict[int, int]]" = {}
        self._in: "dict[int, set[int]]" = {}
        for (u, sec), v in topo.yao_nearest.items():
            self._out.setdefault(u, {})[sec] = v
            self._in.setdefault(v, set()).add(u)
        self._admit: "dict[int, dict[int, int]]" = {}
        self._edge_dirs: "dict[tuple[int, int], int]" = {}
        for (x, sec), w in topo.admitted.items():
            self._admit.setdefault(x, {})[sec] = w
            key = (w, x) if w < x else (x, w)
            self._edge_dirs[key] = self._edge_dirs.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_alive(self) -> int:
        return len(self._index)

    @property
    def size(self) -> int:
        """One past the highest node id ever seen (live or not)."""
        return self._index.size

    def alive_ids(self) -> np.ndarray:
        """Sorted global ids of live nodes."""
        return self._index.alive_ids()

    def failed_ids(self) -> "set[int]":
        """Ids currently down due to :class:`FailStop` (may recover)."""
        return set(self._failed)

    def live_points(self) -> np.ndarray:
        """Live node positions in :meth:`alive_ids` order."""
        return self._index.live_points()

    def position(self, node: int) -> np.ndarray:
        return self._index.position(node)

    def position_array(self, ids: np.ndarray) -> np.ndarray:
        """Positions for an array of global ids (vectorized)."""
        return self._index.positions_of(ids)

    def edge_set(self) -> "set[tuple[int, int]]":
        """The maintained topology N as undirected global-id pairs."""
        return set(self._edge_dirs)

    def edge_array(self) -> np.ndarray:
        """``(m, 2)`` sorted intp array of the undirected edges."""
        if not self._edge_dirs:
            return np.empty((0, 2), dtype=np.intp)
        edges = np.array(sorted(self._edge_dirs), dtype=np.intp)
        return edges

    def all_positions(self) -> np.ndarray:
        """Positions of every id ever seen (read-only view, mutates)."""
        return self._index.all_positions()

    def snapshot_graph(self):
        """The maintained topology as an immutable :class:`GeometricGraph`.

        Node ids are global (dead slots keep their retained position and
        simply have no incident edges), so edge indices of derived
        structures — e.g. ``interference_sets`` rows — line up with
        :meth:`edge_array`.  The snapshot is cached per
        :attr:`topology_version` and carries that version as a
        ``topology_version`` attribute, which
        :func:`repro.harness.cache.cached_interference_sets` uses to key
        conflict structures without re-digesting the coordinates.
        """
        from repro.graphs.base import GeometricGraph

        v = self.topology_version
        if self._snapshot is not None and self._snapshot_version == v:
            return self._snapshot
        g = GeometricGraph(
            self._index.all_positions().copy(), self.edge_array(), kappa=self.kappa
        )
        g.topology_version = v
        self._snapshot, self._snapshot_version = g, v
        return g

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: Event) -> RepairStats:
        """Apply one event and locally repair the topology."""
        kind = event_kind(event)
        with trace.span("dynamic.apply_event", kind=kind, node=event.node):
            t0 = time.perf_counter()
            node = int(event.node)
            ctx = self._mutate(event)
            if ctx is None:
                # Dead-slot move: position bookkeeping only, no repair.
                return RepairStats(
                    kind=kind,
                    node=node,
                    update_radius=0.0,
                    nodes_touched=0,
                    edges_flipped=0,
                    wall_time=time.perf_counter() - t0,
                )
            stats = self._repair_batch([ctx], kind=kind, node=node)
            self.topology_version += 1
            return RepairStats(
                kind=stats.kind,
                node=stats.node,
                update_radius=stats.update_radius,
                nodes_touched=stats.nodes_touched,
                edges_flipped=stats.edges_flipped,
                wall_time=time.perf_counter() - t0,
                edges_added=stats.edges_added,
                edges_removed=stats.edges_removed,
            )

    def apply_trace(self, events: "EventTrace | list[Event]") -> "list[RepairStats]":
        """Apply a whole trace (or event list) in order."""
        seq = events.events() if isinstance(events, EventTrace) else list(events)
        return [self.apply(ev) for ev in seq]

    def apply_batch(self, events: "list[Event]") -> RepairStats:
        """Apply several events as *one* merged-region repair.

        Index mutations run serially in trace order; both ΘALG phases
        then run once over the union of the events' dirty regions, so
        nodes inside overlapping dirty disks are recomputed once instead
        of once per event.  The final topology is identical to serial
        :meth:`apply` of the same events (the repair re-establishes the
        exact ΘALG of the final live positions; property-tested in
        ``tests/test_dynamic_batching.py``).

        For grouping a step's events into *independent* batches and
        applying them concurrently, see
        :func:`repro.dynamic.batching.apply_events_parallel`.
        """
        t0 = time.perf_counter()
        contexts = [self._mutate(ev) for ev in events]
        contexts = [c for c in contexts if c is not None]
        if not contexts:
            return RepairStats(
                kind="batch",
                node=-1,
                update_radius=0.0,
                nodes_touched=0,
                edges_flipped=0,
                wall_time=time.perf_counter() - t0,
            )
        stats = self._repair_batch(contexts, kind="batch", node=-1)
        self.topology_version += 1
        return RepairStats(
            kind=stats.kind,
            node=stats.node,
            update_radius=stats.update_radius,
            nodes_touched=stats.nodes_touched,
            edges_flipped=stats.edges_flipped,
            wall_time=time.perf_counter() - t0,
            edges_added=stats.edges_added,
            edges_removed=stats.edges_removed,
        )

    # ------------------------------------------------------------------
    # Repair machinery
    # ------------------------------------------------------------------
    def _mutate(self, event: Event) -> "tuple[str, int, list[np.ndarray]] | None":
        """Apply ``event``'s index/bookkeeping mutation, *without* repair.

        Returns the repair context ``(kind, node, anchors)``, or ``None``
        for a move of a failed node (position bookkeeping only).  The
        batching layer applies every mutation of a step serially in
        trace order — join ids must appear in order and the grid index
        is not safe for concurrent mutation — before repairing groups.
        """
        kind = event_kind(event)
        node = int(event.node)
        if isinstance(event, NodeJoin):
            if node in self._failed:
                raise ValueError(f"node {node} is failed; use Recover, not NodeJoin")
            p = np.array([event.x, event.y], dtype=np.float64)
            self._index.insert(node, p)
            return kind, node, [p]
        if isinstance(event, NodeMove):
            if node in self._failed:
                # A crashed device still moves physically: update the
                # retained position (where Recover brings it back up)
                # without touching the topology.
                p = np.array([event.x, event.y], dtype=np.float64)
                self._index.set_dead_position(node, p)
                return None
            if not self._index.is_alive(node):
                raise ValueError(f"cannot move node {node}: not alive")
            old_p = self._index.position(node)
            p = np.array([event.x, event.y], dtype=np.float64)
            self._index.move(node, p)
            return kind, node, [old_p, p]
        if isinstance(event, (NodeLeave, FailStop)):
            if not self._index.is_alive(node):
                raise ValueError(f"cannot remove node {node}: not alive")
            p = self._index.position(node)
            self._index.remove(node)
            if isinstance(event, FailStop):
                self._failed.add(node)
            return kind, node, [p]
        if isinstance(event, Recover):
            if node not in self._failed:
                raise ValueError(f"cannot recover node {node}: not failed")
            self._failed.discard(node)
            p = self._index.position(node)
            self._index.insert(node, p)
            return kind, node, [p]
        raise TypeError(f"unsupported event: {event!r}")  # pragma: no cover

    def _repair_batch(
        self,
        contexts: "list[tuple[str, int, list[np.ndarray]]]",
        *,
        kind: str,
        node: int,
        collect_diff: bool = False,
    ):
        """Re-run both ΘALG phases on the union of dirty regions.

        ``contexts`` are the ``(kind, node, anchors)`` tuples of already
        *mutated* events.  With a single context this reproduces the
        serial per-event repair exactly; with several it repairs the
        merged region once.  Correctness rests on the repair invariant:
        afterwards the maintained state equals the from-scratch ΘALG of
        the current live positions on the touched region, whatever
        sequence of mutations produced those positions.

        With ``collect_diff=True`` returns ``(stats, diff)`` where
        ``diff`` is a compact state delta replayable on an in-sync
        replica via :meth:`apply_repair_diff`.  Diff entries are
        recorded in repair order (dict insertion order survives pickling),
        so a replay produces the exact same transition sequence.
        """
        with trace.span("dynamic.repair", kind=kind, node=node):
            D = self.max_range
            anchors: "list[np.ndarray]" = []
            event_nodes: "list[int]" = []
            seen: "set[int]" = set()
            for _, nd, anchs in contexts:
                anchors.extend(anchs)
                if nd not in seen:
                    seen.add(nd)
                    event_nodes.append(nd)

            # Phase-1 dirty set A: live nodes whose candidate neighborhood
            # intersects a disk of radius D around an anchor.
            dirty: "set[int]" = set()
            for p in anchors:
                dirty.update(self._index.query_radius(p, D).tolist())
            alive_nodes = [nd for nd in event_nodes if self._index.is_alive(nd)]
            dead_nodes = [nd for nd in event_nodes if not self._index.is_alive(nd)]
            dirty.update(alive_nodes)

            receivers: "set[int]" = set()
            flipped = 0
            log: "dict[tuple[int, int], int]" = {}
            out_diff: "dict[int, dict[int, int] | None]" = {}
            admit_diff: "dict[int, dict[int, int] | None]" = {}
            # Targets of surviving event nodes *before* any recompute:
            # their distances to even unchanged targets may have shifted
            # (moves — including a leave/re-join at a new position inside
            # one batch), so every old/new target must re-prune.
            pre_targets = {nd: set(self._out.get(nd, {}).values()) for nd in alive_nodes}
            receivers.update(alive_nodes)
            for nd in dead_nodes:
                if nd in self._out:
                    # Departed node: retract its Yao choices; each former
                    # target loses an in-edge and must re-prune.
                    out_diff[nd] = None
                    for v in self._out.pop(nd).values():
                        self._in[v].discard(nd)
                        receivers.add(v)

            for u in sorted(dirty):
                new_choices = self._yao_choices(u)
                old_choices = self._out.get(u, {})
                if new_choices != old_choices:
                    # Diff by *target set*, not per sector: a target that
                    # merely switched cones of u (possible only when u or
                    # the target moved) keeps its in-edge, and the mover
                    # is already in ``receivers``.
                    if collect_diff:
                        out_diff[u] = new_choices if new_choices else None
                    old_targets = set(old_choices.values())
                    new_targets = set(new_choices.values())
                    for v in old_targets - new_targets:
                        if v in self._in:
                            self._in[v].discard(u)
                        receivers.add(v)
                    for v in new_targets - old_targets:
                        self._in.setdefault(v, set()).add(u)
                        receivers.add(v)
                if new_choices:
                    self._out[u] = new_choices
                else:
                    self._out.pop(u, None)

            for nd in alive_nodes:
                receivers.update(pre_targets[nd])
                receivers.update(self._out.get(nd, {}).values())

            for nd in dead_nodes:
                # Retract the departed node's own admissions and in-set.
                old_admit = self._admit.pop(nd, None)
                if old_admit:
                    admit_diff[nd] = None
                    for w in old_admit.values():
                        flipped += self._drop_dir(w, nd, log)
                self._in.pop(nd, None)
                receivers.discard(nd)

            for x in sorted(receivers):
                if self._index.is_alive(x):
                    before = self._admit.get(x) if collect_diff else None
                    flipped += self._readmit(x, log)
                    if collect_diff:
                        after = self._admit.get(x)
                        if after != before:
                            admit_diff[x] = after

            touched = dirty | receivers | set(dead_nodes)
            radius = self._touched_radius(touched, anchors)
            stats = RepairStats(
                kind=kind,
                node=node,
                update_radius=radius,
                nodes_touched=len(touched),
                edges_flipped=flipped,
                wall_time=0.0,
                edges_added=tuple(k for k in sorted(log) if log[k] > 0),
                edges_removed=tuple(k for k in sorted(log) if log[k] < 0),
            )
            if collect_diff:
                return stats, {"out": out_diff, "admit": admit_diff, "dead": list(dead_nodes)}
            return stats

    def apply_repair_diff(self, diff: dict) -> None:
        """Splice a :meth:`_repair_batch` diff into an in-sync replica.

        The replica must hold the exact pre-repair state (same ``_out``,
        ``_admit``, ``_edge_dirs``) with the batch's index mutations
        already applied.  Replays the recorded transitions — deriving
        ``_in`` edits from out-diff target-set changes and
        ``_edge_dirs`` counts from admit-diff sector changes — without
        any geometry queries, so splicing a group's diff is O(diff), not
        O(dirty region).  Does *not* bump ``topology_version``; the
        caller bumps once per batch after splicing every group.
        """
        for u, new_choices in diff["out"].items():
            old_targets = set(self._out.get(u, {}).values())
            new_targets = set(new_choices.values()) if new_choices else set()
            for v in old_targets - new_targets:
                if v in self._in:
                    self._in[v].discard(u)
            for v in new_targets - old_targets:
                self._in.setdefault(v, set()).add(u)
            if new_choices:
                self._out[u] = dict(new_choices)
            else:
                self._out.pop(u, None)
        for x, new_admit in diff["admit"].items():
            old_admit = self._admit.get(x) or {}
            new = new_admit or {}
            for sec in set(old_admit) | set(new):
                ow, nw = old_admit.get(sec), new.get(sec)
                if ow == nw:
                    continue
                if ow is not None:
                    self._drop_dir(ow, x)
                if nw is not None:
                    self._add_dir(nw, x)
            if new:
                self._admit[x] = dict(new)
            else:
                self._admit.pop(x, None)
        for nd in diff["dead"]:
            self._in.pop(int(nd), None)

    def _touched_radius(self, touched: "set[int]", anchors: "list[np.ndarray]") -> float:
        """Max over touched nodes of the distance to the *nearest* anchor.

        Chunked and vectorized: merged batches can touch thousands of
        nodes against hundreds of anchors, where a per-node Python loop
        would dominate the repair itself.
        """
        if not touched or not anchors:
            return 0.0
        tarr = np.fromiter(touched, dtype=np.intp, count=len(touched))
        tpos = self._index.positions_of(tarr)
        aarr = np.asarray(anchors, dtype=np.float64)
        radius = 0.0
        for lo in range(0, len(tarr), 1024):
            blk = tpos[lo : lo + 1024]
            d = blk[:, None, :] - aarr[None, :, :]
            nearest = np.hypot(d[..., 0], d[..., 1]).min(axis=1)
            radius = max(radius, float(nearest.max()))
        return radius

    def _yao_choices(self, u: int) -> "dict[int, int]":
        """Phase 1 for one node: nearest in-range neighbor per cone.

        Bit-for-bit the arithmetic of :func:`repro.graphs.yao.yao_out_edges`
        restricted to source ``u``: ``d = pts[v] - pts[u]``,
        ``dist = np.hypot``, sector from ``arctan2`` mod 2π, candidates
        within ``D`` under the shared ``+1e-12`` epsilon, ties broken by
        (distance, target id) via the same lexsort.
        """
        if not self._index.is_alive(u):
            return {}
        pu = self._index.position(u)
        nbrs = self._index.query_radius(pu, self.max_range, exclude=u)
        if len(nbrs) == 0:
            return {}
        d = self._index.positions_of(nbrs) - pu
        dist = np.hypot(d[:, 0], d[:, 1])
        ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), TWO_PI)
        sec = np.atleast_1d(self._part.index_of_angle(ang))
        order = np.lexsort((nbrs, dist, sec))
        sel = order[run_starts(sec[order])]
        return dict(zip(sec[sel].tolist(), nbrs[sel].tolist()))

    def _readmit(self, x: int, log: "dict[tuple[int, int], int] | None" = None) -> int:
        """Phase 2 for one receiver: re-prune its incoming Yao edges.

        Mirrors the phase-2 lexsort of :func:`theta_algorithm`: group
        in-neighbors by the cone of ``x`` containing them
        (``d = pts[w] - pts[x]``), admit the (distance, source id)
        minimum per cone.  Returns the number of undirected edges
        flipped (added + removed); net creations/deletions are counted
        into ``log`` when given (+1 created, -1 deleted, transients
        cancel).
        """
        sources = self._in.get(x)
        old = self._admit.get(x, {})
        if not sources:
            new: "dict[int, int]" = {}
        else:
            src = np.fromiter(sources, dtype=np.intp, count=len(sources))
            px = self._index.position(x)
            d = self._index.positions_of(src) - px
            ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), TWO_PI)
            sec_in = np.atleast_1d(self._part.index_of_angle(ang))
            dist = np.hypot(d[:, 0], d[:, 1])
            order = np.lexsort((src, dist, sec_in))
            sel = order[run_starts(sec_in[order])]
            new = dict(zip(sec_in[sel].tolist(), src[sel].tolist()))
        if new == old:
            return 0
        flipped = 0
        for sec in set(old) | set(new):
            ow, nw = old.get(sec), new.get(sec)
            if ow == nw:
                continue
            if ow is not None:
                flipped += self._drop_dir(ow, x, log)
            if nw is not None:
                flipped += self._add_dir(nw, x, log)
        if new:
            self._admit[x] = new
        else:
            self._admit.pop(x, None)
        return flipped

    def _add_dir(self, w: int, x: int, log: "dict[tuple[int, int], int] | None" = None) -> int:
        """Record that the directed choice w→x is admitted; 1 if the
        undirected edge {w, x} was created."""
        key = (w, x) if w < x else (x, w)
        c = self._edge_dirs.get(key, 0)
        self._edge_dirs[key] = c + 1
        if c == 0:
            if log is not None:
                bal = log.get(key, 0) + 1
                if bal:
                    log[key] = bal
                else:
                    del log[key]
            return 1
        return 0

    def _drop_dir(self, w: int, x: int, log: "dict[tuple[int, int], int] | None" = None) -> int:
        """Retract the admitted direction w→x; 1 if the undirected edge
        {w, x} disappeared."""
        key = (w, x) if w < x else (x, w)
        c = self._edge_dirs[key]
        if c == 1:
            del self._edge_dirs[key]
            if log is not None:
                bal = log.get(key, 0) - 1
                if bal:
                    log[key] = bal
                else:
                    del log[key]
            return 1
        self._edge_dirs[key] = c - 1
        return 0

    # ------------------------------------------------------------------
    # Correctness backstop
    # ------------------------------------------------------------------
    def check_full_equivalence(self) -> "set[tuple[int, int]]":
        """Symmetric difference vs. a from-scratch ΘALG on live nodes.

        Returns the empty set when the maintained topology is
        edge-for-edge identical to :func:`theta_algorithm` recomputed on
        the live node set (edges mapped back to global ids).  This is
        the E23 correctness backstop; tests assert it is empty after
        every event.
        """
        ids = self.alive_ids()
        if len(ids) < 2:
            return self.edge_set()
        topo = theta_algorithm(
            self.live_points(), self.theta, self.max_range, kappa=self.kappa, offset=self.offset
        )
        scratch = {
            (int(ids[a]), int(ids[b])) if ids[a] < ids[b] else (int(ids[b]), int(ids[a]))
            for a, b in topo.graph.edges
        }
        return scratch ^ self.edge_set()


@dataclass
class StepChurn:
    """What one engine step's worth of events did to the network."""

    events_applied: int = 0
    nodes_touched: int = 0
    edges_flipped: int = 0
    #: Distinct nodes failed / removed (failed or left) this step, in
    #: first-event order.
    failed_nodes: "list[int]" = field(default_factory=list)
    removed_nodes: "list[int]" = field(default_factory=list)
    joined_nodes: "list[int]" = field(default_factory=list)
    repairs: "list[RepairStats]" = field(default_factory=list)
    #: Conflict rows recomputed / CSR entries spliced this step (0 when
    #: no DynamicInterference is attached).
    conflict_rows_touched: int = 0
    conflict_entries_changed: int = 0
    conflict_repairs: "list" = field(default_factory=list)
    #: Independent event groups this step's batch split into (0 when
    #: events were applied serially per event).
    batch_groups: int = 0
    #: State entries exchanged across process boundaries (process
    #: backend only; 0 in-process).
    halo_nodes: int = 0


class DynamicTopology:
    """An :class:`IncrementalTheta` driven by an event trace, for the engine.

    :meth:`step` applies every event scheduled at step ``t`` and reports
    a :class:`StepChurn` so :class:`repro.sim.engine.SimulationEngine`
    can drop buffers at failed nodes and account churn counters;
    :meth:`active_edges` exposes the maintained topology in global-id
    space (stable across events), matching a router sized to
    :attr:`capacity`.

    Parameters
    ----------
    interference:
        Optional :class:`repro.dynamic.interference.DynamicInterference`
        kept in lockstep with the topology: its conflict rows are
        repaired after every event (or batch) from the repair's net edge
        changelog.
    parallel / backend / workers:
        When ``parallel`` is true, each step's events are grouped by
        dirty-region overlap (:func:`repro.dynamic.batching.apply_events_parallel`)
        and independent groups are applied as merged-region batches.
        ``backend`` selects where the groups are repaired: ``None`` or
        ``"serial"`` in this process, one after another; ``"process"``
        in a lazily built :class:`~repro.parallel.pool.TileWorkerPool`
        of ``workers`` processes sized to :attr:`capacity` (call
        :meth:`close`, or use as a context manager, to stop it).
    capacity:
        Optional explicit node-id capacity (router sizing).  Defaults
        to the largest id mentioned by ``incremental`` or ``events`` —
        but a *live* schedule (:class:`repro.dynamic.events.LiveEventSchedule`)
        is empty at construction time, so sessions that accept joins
        while running pass the headroom they provisioned up front.
    """

    def __init__(
        self,
        incremental: IncrementalTheta,
        events: EventTrace,
        *,
        interference=None,
        parallel: bool = False,
        backend: "str | None" = None,
        workers: "int | None" = None,
        capacity: "int | None" = None,
    ) -> None:
        self.incremental = incremental
        self.events = events
        self.interference = interference
        self.parallel = bool(parallel)
        self.backend = backend
        self.workers = workers
        self.events_applied = 0
        self.nodes_touched_total = 0
        self.edges_flipped_total = 0
        self.conflict_rows_total = 0
        self.conflict_entries_total = 0
        self.batch_groups_total = 0
        self.halo_nodes_total = 0
        self.repairs: "list[RepairStats]" = []
        self._pool = None
        max_id = incremental.size - 1
        for _, ev in events:
            max_id = max(max_id, ev.node)
        #: Upper bound on node ids over the whole trace (router sizing).
        self.capacity = max_id + 1 if capacity is None else int(capacity)
        if self.capacity <= max_id:
            raise ValueError(
                f"capacity {self.capacity} cannot cover node id {max_id}"
            )

    def _process_pool(self):
        """The lazily-built TileWorkerPool of the process backend."""
        if self._pool is None:
            from repro.parallel.pool import TileWorkerPool

            self._pool = TileWorkerPool(
                self.incremental,
                self.interference,
                workers=self.workers,
                capacity=max(self.capacity, self.incremental.size) + 16,
            )
        return self._pool

    def close(self) -> None:
        """Stop the process pool, if one was started (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "DynamicTopology":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def step(self, t: int) -> StepChurn:
        """Apply the events scheduled for step ``t``."""
        churn = StepChurn()
        evs = list(self.events.at(t))
        if self.parallel and len(evs) > 1:
            from repro.dynamic.batching import apply_events_parallel

            pool = self._process_pool() if self.backend == "process" else None
            batch = apply_events_parallel(
                self.incremental,
                evs,
                interference=self.interference,
                backend=self.backend,
                pool=pool,
            )
            churn.events_applied = len(evs)
            churn.nodes_touched = batch.nodes_touched
            churn.edges_flipped = batch.edges_flipped
            churn.batch_groups = batch.groups
            churn.halo_nodes = batch.halo_nodes
            churn.repairs.extend(batch.repairs)
            churn.conflict_repairs.extend(batch.conflict_repairs)
            for cs in batch.conflict_repairs:
                churn.conflict_rows_touched += cs.rows_recomputed
                churn.conflict_entries_changed += cs.entries_changed
        else:
            for ev in evs:
                stats = self.incremental.apply(ev)
                churn.events_applied += 1
                churn.nodes_touched += stats.nodes_touched
                churn.edges_flipped += stats.edges_flipped
                churn.repairs.append(stats)
                if self.interference is not None:
                    cs = self.interference.update_event(stats)
                    churn.conflict_repairs.append(cs)
                    churn.conflict_rows_touched += cs.rows_recomputed
                    churn.conflict_entries_changed += cs.entries_changed
        # Failed / removed nodes once each: a step may fail, recover and
        # remove the same node, and its buffer must be charged only once.
        failed: "dict[int, None]" = {}
        removed: "dict[int, None]" = {}
        for ev in evs:
            if isinstance(ev, FailStop):
                failed[ev.node] = removed[ev.node] = None
            elif isinstance(ev, NodeLeave):
                removed[ev.node] = None
            elif isinstance(ev, (NodeJoin, Recover)):
                churn.joined_nodes.append(ev.node)
        churn.failed_nodes.extend(failed)
        churn.removed_nodes.extend(removed)
        self.events_applied += churn.events_applied
        self.nodes_touched_total += churn.nodes_touched
        self.edges_flipped_total += churn.edges_flipped
        self.conflict_rows_total += churn.conflict_rows_touched
        self.conflict_entries_total += churn.conflict_entries_changed
        self.batch_groups_total += churn.batch_groups
        self.halo_nodes_total += churn.halo_nodes
        self.repairs.extend(churn.repairs)
        return churn

    def active_edges(self) -> np.ndarray:
        """Current topology edges in global-id space."""
        return self.incremental.edge_array()

    def alive_ids(self) -> np.ndarray:
        return self.incremental.alive_ids()
