"""Incremental interference-set maintenance under churn (§2.4 made local).

:class:`repro.dynamic.incremental.IncrementalTheta` repairs the ΘALG
topology on a ≤2D dirty disk per event, but a routing step under the
guard-zone MAC still had to rebuild the CSR ``interference_sets`` from
scratch — ~10 s at n=30k, which made churned MAC experiments
rebuild-bound.  This module makes the conflict structure as local as
the topology repair:

* a conflict *row* I(e) only changes when an edge inside it flips or an
  endpoint inside its guard neighborhood moves.  Because the relation
  is symmetric (``e' ∈ I(e) ⟺ e ∈ I(e')``), recomputing the rows of
  exactly the *changed* edges — net added edges, net removed edges, and
  edges incident to a moved node — and splicing the diffs into their
  neighbors' rows repairs every affected row;
* each row recompute is a pair of grid queries
  (:class:`~repro.geometry.spatialindex.DynamicGridIndex`) at the
  maximum possible guard reach, filtered by the *bit-identical*
  predicate of the vectorized kernel
  (:func:`repro.interference.conflict.interference_sets`): squared hit
  distance ``≤`` squared shrunk guard radius
  ``((1+Δ)·len·(1−1e-12))²``, inclusive at ties.

The rows live in numpy arrays, not Python sets: each edge owns an int32
slot, and rows are slot lists in one slack arena whose entries carry a
pointer to their mirror entry, so a repair is a handful of vectorized
gathers and scatters and the whole structure is a few arrays the
cyclic GC never walks (:class:`_SlackRows`).

The maintained rows materialize on demand into a CSR
:class:`~repro.interference.conflict.InterferenceSets` aligned with
``IncrementalTheta.edge_array()`` and **edge-for-edge identical** to a
from-scratch rebuild on the live topology — asserted after every event
of the acceptance traces in ``tests/test_dynamic_interference.py`` and
re-checked by claim E24.

:class:`DynamicMAC` closes the loop for the engine: §3.3 random edge
activation with probabilities ``1/(2·I_e)`` sampled from the
*maintained* conflict degrees, so a churned MAC step costs a local
repair instead of a global rebuild.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.interference_mac import (
    activate,
    activation_probs,
    draw_active,
    estimate_edge_interference,
    resolve,
)
from repro.interference.conflict import InterferenceSets, interference_sets
from repro.interference.model import InterferenceModel, interference_radius
from repro.obs import metrics, trace
from repro.utils.arrays import ragged_arange, run_starts
from repro.utils.rng import as_rng

__all__ = [
    "ConflictRepairStats",
    "DynamicInterference",
    "DynamicMAC",
    "MacStep",
    "edge_uniforms",
]

_MASK = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _codes(pairs) -> np.ndarray:
    """One int64 key ``(lo << 32) | hi`` per undirected edge, lex-order preserving."""
    arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    return (arr[:, 0] << 32) | arr[:, 1]


def edge_uniforms(codes: np.ndarray, seed: int, step: int) -> np.ndarray:
    """Deterministic per-edge uniforms in ``[0, 1)`` for MAC activation.

    A SplitMix64-style integer finalizer over ``(edge code, seed, step)``.
    Unlike a sequential generator the draw is *order-independent*: any
    process can evaluate any edge subset in any order and agree
    bit-for-bit on every edge's uniform — which is what lets the tile
    worker pool activate edges per tile interior while staying identical
    to :meth:`DynamicMAC.deterministic_step` in the parent.
    """
    salt = (
        ((int(seed) + 1) * 0x9E3779B97F4A7C15) ^ (int(step) * 0xD1B54A32D192ED03)
    ) & _MASK64
    z = np.asarray(codes, dtype=np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ np.uint64(salt)) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    # Top 53 bits → the double-precision lattice of [0, 1).
    return (z >> np.uint64(11)).astype(np.float64) * float(2.0**-53)


@dataclass(frozen=True)
class MacStep:
    """One resolved deterministic MAC step (§3.3 activate + resolve).

    ``edges`` are the activated undirected pairs sorted by packed code,
    ``ok`` marks the ones whose guard zones admit them (both endpoints
    clear of every other activated transmission), ``costs`` their
    ``length**kappa`` energy costs.  Pool-side and serial evaluation
    produce identical instances.
    """

    edges: np.ndarray
    costs: np.ndarray
    ok: np.ndarray

    @property
    def activated(self) -> int:
        return int(len(self.edges))

    @property
    def succeeded(self) -> int:
        return int(np.count_nonzero(self.ok))


@dataclass(frozen=True)
class ConflictRepairStats:
    """Per-event (or per-batch) conflict-repair accounting (E24 measurands).

    Attributes
    ----------
    rows_recomputed:
        Conflict rows rebuilt from geometry (added edges plus persisting
        edges incident to a moved node).
    entries_changed:
        Row entries spliced in or out across the whole structure,
        counting both sides of each symmetric pair.
    edges_added / edges_removed:
        Net topology edges this repair reacted to.
    wall_time:
        Conflict-repair wall-clock seconds.
    """

    rows_recomputed: int
    entries_changed: int
    edges_added: int
    edges_removed: int
    wall_time: float


#: Ragged copies move at most about this many entries per vectorized
#: pass, so seeding, packing and materialization hold a few MB of index
#: arrays at a time instead of several int64 copies of the whole arena.
_CHUNK = 1 << 20


def _with_slack(n):
    """Capacity for ``n`` entries: a quarter spare, at least 4."""
    return n + np.maximum(n // 4, 4)


def _pos_dtype(size: int):
    """Narrowest dtype addressing an arena of ``size`` entries."""
    return np.int32 if size < 2**31 else np.int64


def _chunks(lens: np.ndarray):
    """Consecutive row ranges ``[i, j)`` of about ``_CHUNK`` entries each."""
    ends = np.cumsum(lens)
    i, n = 0, len(lens)
    while i < n:
        base = int(ends[i - 1]) if i else 0
        j = max(int(np.searchsorted(ends, base + _CHUNK, side="right")), i + 1)
        yield i, j
        i = j


def _find(sorted_keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of each ``x`` in ``sorted_keys``; -1 where absent."""
    if len(sorted_keys) == 0:
        return np.full(len(x), -1, dtype=np.intp)
    j = np.searchsorted(sorted_keys, x)
    j[j == len(sorted_keys)] = 0
    return np.where(sorted_keys[j] == x, j, -1)


def _unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct ``keys``."""
    keys = np.sort(keys)
    return keys[run_starts(keys)]


def _runs(keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """First index and length of each equal-key run of sorted ``keys``."""
    first = np.flatnonzero(run_starts(keys))
    return first, np.diff(np.append(first, len(keys)))


class _SlackRows:
    """Rows of int32 entries sharing one arena, each with spare capacity.

    Row ``r`` owns ``arena[start[r] : start[r] + cap[r]]``; its first
    ``length[r]`` entries are live, in no particular order.  Deleting
    entries refills the holes from the row's own tail, so a row stays
    one contiguous run.  A row that outgrows its block is relocated to
    the arena's top with fresh slack and its old block becomes garbage.
    Garbage is reclaimed only when the top runs out: the copy that
    grows the arena packs the rows and drops it, so there is no
    separate compaction pass.

    With ``twins`` the rows hold a symmetric relation: ``twin[p]`` is
    the arena position of the mirror of the entry at ``p`` (entry ``b``
    of row ``a`` ↔ entry ``a`` of row ``b``), so a pair is unlinked from
    both rows without searching either, and every move keeps the
    pointers exact.
    """

    def __init__(self, lengths, entries, twins=None) -> None:
        lengths = np.asarray(lengths, dtype=np.int64)
        self.length = lengths.copy()
        self.cap = _with_slack(lengths)
        self.start = np.cumsum(self.cap) - self.cap
        self.top = int(self.cap.sum())
        size = int(_with_slack(self.top))
        self.arena = np.empty(size, dtype=np.int32)
        self.twin = None if twins is None else np.empty(size, dtype=_pos_dtype(size))
        # Seed from CSR (entries/twins indexed by CSR position).
        src_start = np.cumsum(lengths) - lengths
        for i, j in _chunks(lengths):
            src = ragged_arange(src_start[i:j], lengths[i:j])
            dst = ragged_arange(self.start[i:j], lengths[i:j])
            vals = entries[src]
            self.arena[dst] = vals
            if twins is not None:
                self.twin[dst] = self.start[vals] + (twins[src] - src_start[vals])

    def ensure_rows(self, n: int) -> None:
        """Make rows ``0 .. n-1`` addressable (new rows are empty)."""
        have = len(self.length)
        if n > have:
            pad = np.zeros(max(n, 2 * have) - have, dtype=np.int64)
            self.length = np.concatenate([self.length, pad])
            self.cap = np.concatenate([self.cap, pad])
            self.start = np.concatenate([self.start, pad])

    def gather(self, rows: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Live entries of ``rows``, their arena positions, and the index
        into ``rows`` each one came from."""
        lens = self.length[rows]
        pos = ragged_arange(self.start[rows], lens)
        return self.arena[pos], pos, np.repeat(np.arange(len(rows)), lens)

    def append(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Append ``values[i]`` to row ``rows[i]`` (rows may repeat);
        returns the arena position of each appended entry."""
        if len(rows) == 0:
            return np.empty(0, dtype=np.intp)
        order = np.argsort(rows, kind="stable")
        r = rows[order]
        first, counts = _runs(r)
        uniq = r[first]
        need = self.length[uniq] + counts
        over = need > self.cap[uniq]
        if over.any():
            self._relocate(uniq[over], need[over])
        pos = np.empty(len(r), dtype=np.intp)
        pos[order] = self.start[r] + self.length[r] + np.arange(len(r)) - np.repeat(first, counts)
        self.arena[pos] = values
        self.length[uniq] += counts
        return pos

    def link(self, a: np.ndarray, b: np.ndarray) -> None:
        """Add the pairs ``(a[i], b[i])`` to both rows, twinned."""
        pos = self.append(np.concatenate([a, b]), np.concatenate([b, a]))
        k = len(a)
        self.twin[pos[:k]] = pos[k:]
        self.twin[pos[k:]] = pos[:k]

    def unlink(self, pos, owners, nbs, inner) -> None:
        """Drop the pairs whose entries sit at ``pos`` (rows ``owners``,
        values ``nbs``) from both rows.  ``inner`` marks entries whose
        pair is listed from both ends; only the lower-slot end is used."""
        keep = ~inner | (owners < nbs)
        pos = pos[keep]
        self.delete(
            np.concatenate([pos, self.twin[pos]]),
            np.concatenate([owners[keep], nbs[keep]]),
        )

    def delete(self, pos: np.ndarray, rows: np.ndarray) -> None:
        """Drop the entries at the distinct arena positions ``pos``
        (``rows[i]`` owns ``pos[i]``).  Paired rows must drop both
        halves of every pair in the same call."""
        if len(pos) == 0:
            return
        order = np.lexsort((pos, rows))
        pos, rows = pos[order], rows[order]
        first, counts = _runs(rows)
        uniq = rows[first]
        keep = self.length[uniq] - counts
        bound = self.start[uniq] + keep
        # Holes below each row's new end, refilled by the survivors
        # above it; both lists run row by row in position order.
        holes = pos[pos < np.repeat(bound, counts)]
        tail = ragged_arange(bound, counts)
        self._move(tail[_find(np.sort(pos), tail) < 0], holes)
        self.length[uniq] = keep

    def _move(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Move entries from ``src`` to the disjoint positions ``dst``."""
        if len(src) == 0:
            return
        self.arena[dst] = self.arena[src]
        if self.twin is None:
            return
        t = self.twin[src].astype(np.intp)
        # A mirror that moves in the same call lands at its own dst.
        by_src = np.argsort(src)
        k = _find(src[by_src], t)
        moving = k >= 0
        t[moving] = dst[by_src[k[moving]]]
        self.twin[dst] = t
        self.twin[t] = dst

    def _relocate(self, rows: np.ndarray, need: np.ndarray) -> None:
        """Give ``rows`` blocks for ``need`` entries plus slack."""
        cap = _with_slack(need)
        total = int(cap.sum())
        if self.top + total > len(self.arena):
            self.cap[rows] = cap
            self._pack()
            return
        start = self.top + np.cumsum(cap) - cap
        lens = self.length[rows]
        self._move(ragged_arange(self.start[rows], lens), ragged_arange(start, lens))
        self.start[rows] = start
        self.cap[rows] = cap
        self.top += total

    def _pack(self) -> None:
        """Copy every row into a fresh arena with headroom, garbage-free."""
        old_start = self.start
        start = np.cumsum(self.cap) - self.cap
        self.top = int(self.cap.sum())
        size = int(_with_slack(self.top))
        arena = np.empty(size, dtype=np.int32)
        twin = None
        if self.twin is not None:
            twin = np.empty(size, dtype=_pos_dtype(size))
            # Rows holding entries, by old block start: maps an old
            # position to its row (empty rows may share a start).
            full = np.flatnonzero(self.length > 0)
            full = full[np.argsort(old_start[full])]
            full_start = old_start[full]
        for i, j in _chunks(self.length):
            lens = self.length[i:j]
            src = ragged_arange(old_start[i:j], lens)
            dst = ragged_arange(start[i:j], lens)
            arena[dst] = self.arena[src]
            if twin is not None:
                t = self.twin[src]
                r = full[np.searchsorted(full_start, t, side="right") - 1]
                twin[dst] = start[r] + (t - old_start[r])
        self.arena, self.twin, self.start = arena, twin, start


class DynamicInterference:
    """Maintain §2.4 interference sets I(e) over a churned ΘALG topology.

    Parameters
    ----------
    incremental:
        The :class:`~repro.dynamic.incremental.IncrementalTheta` whose
        topology the conflict structure tracks.  The initial rows are
        seeded from one vectorized from-scratch build.
    delta:
        Guard-zone parameter Δ of the interference model.

    Protocol: after every ``incremental.apply(event)`` call
    :meth:`update_event` with the returned
    :class:`~repro.dynamic.incremental.RepairStats` (whose net
    ``edges_added`` / ``edges_removed`` changelog drives the repair).
    :class:`~repro.dynamic.incremental.DynamicTopology` and
    :func:`repro.dynamic.batching.apply_events_parallel` do this
    automatically.  :meth:`interference_sets` raises if the topology
    advanced without a matching update, so a stale conflict structure
    can never be served silently.

    Storage: every live edge owns an int32 *slot*.  Conflict rows are
    slot lists in one twinned slack arena (:class:`_SlackRows`), node
    incidence (node → incident slots) is a second, untwinned one, and
    ``_code`` / ``_rad2`` hold each slot's packed edge key and squared
    guard radius.  The incidence doubles as the code → slot map: an
    edge's slot is the one at its lower endpoint carrying its code.
    The store has a single writer; concurrent callers must serialize
    their updates.
    """

    def __init__(self, incremental, delta: float) -> None:
        self.inc = incremental
        self.delta = float(delta)
        self._index = incremental._index
        D = float(incremental.max_range)
        # Any topology edge satisfies d² ≤ D² + 1e-12 (the kernel's
        # in-range epsilon), so no guard radius exceeds (1+Δ)·√(D²+1e-12):
        # one candidate query radius covers both conflict directions.
        self._r_in = (1.0 + self.delta) * float(np.sqrt(D * D + 1e-12))
        self._csr: "InterferenceSets | None" = None
        self._order: "np.ndarray | None" = None
        self._synced_version = -1
        self._seed_from_scratch()

    # ------------------------------------------------------------------
    # Seeding and introspection
    # ------------------------------------------------------------------
    def _seed_from_scratch(self) -> None:
        """Copy one vectorized full build's CSR into the row store."""
        graph = self.inc.snapshot_graph()
        sets = interference_sets(graph, self.delta)
        edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
        m, nnz = len(edges), len(sets.indices)
        # The kernel's rows are sorted and symmetric, so transposing a
        # matrix whose data are CSR positions puts, at every position,
        # the position of its mirror entry.
        ids = sp.csr_matrix(
            (np.arange(nnz, dtype=_pos_dtype(nnz)), sets.indices, sets.indptr),
            shape=(m, m),
        )
        self._rows = _SlackRows(np.diff(sets.indptr), sets.indices, ids.T.tocsr().data)
        del ids
        ends = edges.ravel()
        self._incident = _SlackRows(
            np.bincount(ends, minlength=self._index.size),
            np.argsort(ends, kind="stable") // 2,
        )
        r = interference_radius(graph.edge_lengths, self.delta) * (1.0 - 1e-12)
        self._code = (edges[:, 0] << 32) | edges[:, 1]
        self._rad2 = r * r
        self._n_slots = self._live = m
        self._free: "list[int]" = []
        self._csr = sets
        self._order = np.arange(m)  # snapshot edges are sorted by code
        self._synced_version = self.inc.topology_version

    @property
    def n_edges(self) -> int:
        return self._live

    def _sorted_slots(self) -> np.ndarray:
        """Live slots in ascending edge-code (``edge_array``) order."""
        if self._order is None:
            live = np.flatnonzero(self._code[: self._n_slots] >= 0)
            self._order = live[np.argsort(self._code[live])]
        return self._order

    def _slots_of(self, codes: np.ndarray) -> np.ndarray:
        """Slot of each packed edge code; -1 where the edge is not tracked."""
        out = np.full(len(codes), -1, dtype=np.int64)
        known = np.flatnonzero((codes >> 32) < len(self._incident.length))
        slots, _, which = self._incident.gather(codes[known] >> 32)
        hit = self._code[slots] == codes[known[which]]
        out[known[which[hit]]] = slots[hit]
        return out

    def degrees_of(self, codes) -> np.ndarray:
        """``|I(e)|`` of the edges with packed ``codes``, in that order.

        Reads the rows as they stand (a tile replica between batches is
        exact only around its tiles).  Raises ``KeyError`` for an edge
        the store does not track.
        """
        codes = np.asarray(codes, dtype=np.int64)
        slots = self._slots_of(codes)
        if (slots < 0).any():
            raise KeyError(f"edge code {int(codes[np.argmax(slots < 0)])} is not tracked")
        return self._rows.length[slots]

    # ------------------------------------------------------------------
    # Incremental repair
    # ------------------------------------------------------------------
    def update_event(self, stats) -> ConflictRepairStats:
        """Repair conflict rows after one serial ``IncrementalTheta.apply``.

        ``stats`` is the event's :class:`RepairStats`; a surviving mover
        additionally forces a recompute of its persisting incident rows
        (their guard radii moved with it).
        """
        moved: "list[int]" = []
        if stats.kind == "move" and self._index.is_alive(stats.node):
            moved.append(int(stats.node))
        return self.update(stats.edges_added, stats.edges_removed, moved)

    def update(
        self,
        added,
        removed,
        moved_nodes,
        *,
        _sync: bool = True,
        collect_diff: bool = False,
    ):
        """Splice a net topology diff into the maintained conflict rows.

        Parameters
        ----------
        added / removed:
            Net undirected global-id edge changes (``(lo, hi)`` pairs).
        moved_nodes:
            Live nodes whose position changed: their persisting incident
            edges get recomputed rows too.
        collect_diff:
            Return ``(stats, row_diff)`` where ``row_diff`` replays the
            same splice on an in-sync replica (:meth:`apply_row_diff`)
            without touching geometry.  Its values are numpy arrays:
            ``removed`` / ``added`` edge codes, the recomputed ``codes``
            (sorted) with their ``rad2``, and their new rows as edge
            codes ``rows[indptr[k]:indptr[k + 1]]``.
        """
        t0 = time.perf_counter()
        with trace.span(
            "dynamic.conflict_repair", added=len(added), removed=len(removed)
        ) as span:
            removed_codes = _codes(removed)
            added_codes = _codes(added)
            self._incident.ensure_rows(self._index.size)
            entries = self._retract(removed_codes)
            fresh = self._register(added_codes)

            # Rows to rebuild from geometry: added edges, plus the
            # persisting edges whose guard zones moved with a mover.
            moved = np.asarray(moved_nodes, dtype=np.int64)
            slots = np.concatenate(
                [self._slots_of(added_codes), self._incident.gather(moved)[0]]
            )
            slots = slots[np.argsort(self._code[slots])]
            slots = slots[run_starts(self._code[slots])]
            codes = self._code[slots]
            self._rad2[slots] = self._edge_rad2(codes)
            owner, nbs = self._recompute_rows(slots)
            entries += self._splice_rows(slots, _find(fresh, slots) >= 0, owner, nbs)

            self._csr = None
            if _sync:
                self._synced_version = self.inc.topology_version
            stats = ConflictRepairStats(
                rows_recomputed=len(slots),
                entries_changed=entries,
                edges_added=len(added_codes),
                edges_removed=len(removed_codes),
                wall_time=time.perf_counter() - t0,
            )
            span.set(rows=stats.rows_recomputed, entries=entries)
        reg = metrics.active()
        if reg is not None:
            reg.counter("dynamic.conflict_repairs").inc()
            reg.counter("dynamic.conflict_rows_recomputed").inc(stats.rows_recomputed)
        if collect_diff:
            diff = {
                "removed": removed_codes,
                "added": added_codes,
                "codes": codes,
                "rad2": self._rad2[slots],
                "indptr": np.append(0, np.cumsum(np.bincount(owner, minlength=len(slots)))),
                "rows": self._code[nbs],
            }
            return stats, diff
        return stats

    def apply_row_diff(self, diff: dict, *, _sync: bool = True) -> ConflictRepairStats:
        """Replay an :meth:`update` ``collect_diff`` delta on a replica.

        The replica must hold the exact pre-update rows around the
        diff's edges.  Performs the identical retract / register /
        splice sequence with the *recorded* recomputed rows instead of
        geometry queries, so the resulting rows — and the returned
        stats, bar ``wall_time`` — match the originating worker's bit
        for bit.  Slot numbers may differ between replicas; diffs speak
        in edge codes.
        """
        t0 = time.perf_counter()
        self._incident.ensure_rows(self._index.size)
        entries = self._retract(diff["removed"])
        fresh = self._register(diff["added"])
        slots = self._slots_of(diff["codes"])
        nbs = self._slots_of(diff["rows"])
        if (slots < 0).any() or (nbs < 0).any():
            raise RuntimeError("row diff names edges this replica does not track")
        self._rad2[slots] = diff["rad2"]
        owner = np.repeat(np.arange(len(slots)), np.diff(diff["indptr"]))
        entries += self._splice_rows(slots, _find(fresh, slots) >= 0, owner, nbs)
        self._csr = None
        if _sync:
            self._synced_version = self.inc.topology_version
        return ConflictRepairStats(
            rows_recomputed=len(slots),
            entries_changed=entries,
            edges_added=len(diff["added"]),
            edges_removed=len(diff["removed"]),
            wall_time=time.perf_counter() - t0,
        )

    def _retract(self, codes: np.ndarray) -> int:
        """Drop removed edges: their rows, their entries in neighbor rows
        (the twins), their incidence, their slots; returns entries
        changed, each dropped pair counting on both sides once."""
        slots = self._slots_of(codes)
        slots = slots[slots >= 0]
        if len(slots) == 0:
            return 0
        rows = self._rows
        nbs, pos, which = rows.gather(slots)
        owners = slots[which]
        retired = np.sort(slots)
        inner = _find(retired, nbs) >= 0
        entries = 2 * (len(nbs) - int(np.count_nonzero(inner)) // 2)
        rows.unlink(pos, owners, nbs, inner)
        gone = self._code[slots]
        nodes = _unique(np.concatenate([gone >> 32, gone & _MASK]))
        held, ipos, iwhich = self._incident.gather(nodes)
        drop = _find(retired, held) >= 0
        self._incident.delete(ipos[drop], nodes[iwhich[drop]])
        self._code[slots] = -1
        self._free.extend(slots.tolist())
        self._live -= len(slots)
        self._order = None
        return entries

    def _register(self, codes: np.ndarray) -> np.ndarray:
        """Give untracked added edges slots and index them at both
        endpoints so row recomputes can see them; returns those slots,
        sorted."""
        codes = _unique(codes[self._slots_of(codes) < 0])
        k = len(codes)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        reuse = min(k, len(self._free))
        recycled = np.asarray(self._free[len(self._free) - reuse :], dtype=np.int64)
        del self._free[len(self._free) - reuse :]
        slots = np.concatenate(
            [recycled, np.arange(self._n_slots, self._n_slots + k - reuse, dtype=np.int64)]
        )
        self._n_slots += k - reuse
        if self._n_slots > len(self._code):
            grow = max(self._n_slots, 2 * len(self._code)) - len(self._code)
            self._code = np.concatenate([self._code, np.full(grow, -1, dtype=np.int64)])
            self._rad2 = np.concatenate([self._rad2, np.zeros(grow)])
            self._rows.ensure_rows(len(self._code))
        self._code[slots] = codes
        ends = np.concatenate([codes >> 32, codes & _MASK])
        self._incident.append(ends, np.concatenate([slots, slots]))
        self._live += k
        self._order = None
        return np.sort(slots)

    def _splice_rows(self, slots, fresh, owner, nbs) -> int:
        """Install the rows ``nbs[owner == k]`` as I(slots[k]).

        The symmetric difference against the current rows becomes one
        batch of twinned unlinks and links.  Returns entries changed,
        counted as splicing the rows one by one in ``slots`` order
        would: a fresh row counts all its entries; an older row counts
        the entries that differ, except pairs with a row spliced
        before it (already mirrored from that side).  Both sides of
        every pair count, so the figure is independent of how rows
        are stored and repeats across backends.
        """
        rows = self._rows
        k = len(slots)
        cur, pos, which = rows.gather(slots)
        span = len(self._code)
        old_key = which * span + cur
        new_key = owner * span + nbs
        gone = _find(np.sort(new_key), old_key) < 0
        came = _find(np.sort(old_key), new_key) < 0

        by_slot = np.argsort(slots)
        sorted_slots = slots[by_slot]

        def rank(s: np.ndarray) -> np.ndarray:
            """Position in ``slots`` (k for slots outside it)."""
            j = _find(sorted_slots, s)
            return np.where(j >= 0, by_slot[j], k)

        d_own = np.concatenate([which[gone], owner[came]])
        d_nb = np.concatenate([cur[gone], nbs[came]])
        rk = rank(d_nb)
        entries = 2 * int(np.count_nonzero(fresh[d_own] | (rk > d_own)))

        inner = rk < k  # pairs inside ``slots`` show up from both ends
        n_gone = int(np.count_nonzero(gone))
        rows.unlink(pos[gone], slots[which[gone]], cur[gone], inner[:n_gone])
        a, b = slots[owner[came]], nbs[came]
        once = ~inner[n_gone:] | (a < b)
        rows.link(a[once], b[once])
        return entries

    def _mark_synced(self) -> None:
        """Batch applier hook: declare the structure current again."""
        self._synced_version = self.inc.topology_version

    def _edge_rad2(self, codes: np.ndarray) -> np.ndarray:
        """Squared shrunk guard radii of edges, kernel arithmetic."""
        pab = self._index.positions_of(np.stack([codes >> 32, codes & _MASK], axis=1))
        length = np.hypot(pab[:, 0, 0] - pab[:, 1, 0], pab[:, 0, 1] - pab[:, 1, 1])
        r = interference_radius(length, self.delta) * (1.0 - 1e-12)
        return r * r

    def _recompute_rows(self, slots: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """I(e) of every slot from current geometry, bit-identical to the kernel.

        Two grid queries per edge (one per endpoint) at the shared
        maximum guard reach produce a candidate superset; the exact
        kernel predicate — squared hit distance ``≤`` squared shrunk
        radius, inclusive at ties — then decides both conflict
        directions for every (candidate node, incident edge) pair:

        * ``d²(u, p) ≤ r²(e)``: every edge at node ``u`` has an
          endpoint inside *e*'s guard zone (out-direction);
        * ``d²(u, p) ≤ r²(k)`` for ``k`` incident to ``u``: *e*'s
          endpoint ``p`` lies inside ``k``'s guard zone (in-direction).

        Returns ``(owner, nbs)``: row ``k`` is ``nbs[owner == k]``,
        sorted by slot.
        """
        idx = self._index
        codes = self._code[slots]
        pab = idx.positions_of(np.stack([codes >> 32, codes & _MASK], axis=1).ravel())
        cands, d2s = [], []
        for p in pab:
            cand = idx.query_radius(p, self._r_in)
            d = idx.positions_of(cand) - p
            cands.append(cand)
            d2s.append(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        per_end = np.fromiter(map(len, cands), dtype=np.int64, count=len(cands))
        end_owner = np.repeat(np.arange(len(slots)) , 2)
        cand = np.concatenate(cands) if cands else np.empty(0, dtype=np.int64)
        d2 = np.concatenate(d2s) if d2s else np.empty(0)
        own = np.repeat(end_owner, per_end)
        nbs, _, which = self._incident.gather(cand)
        d2, own = d2[which], own[which]
        hit = (d2 <= self._rad2[slots][own]) | (d2 <= self._rad2[nbs])
        hit &= nbs != slots[own]
        span = len(self._code)
        key = _unique(own[hit] * span + nbs[hit])
        return key // span, key % span

    # ------------------------------------------------------------------
    # Materialization and backstop
    # ------------------------------------------------------------------
    def _check_synced(self) -> None:
        if self._synced_version != self.inc.topology_version:
            raise RuntimeError(
                "DynamicInterference is out of sync with its topology "
                f"(synced at version {self._synced_version}, topology at "
                f"{self.inc.topology_version}); call update() after every event"
            )

    def degree_array(self) -> np.ndarray:
        """``|I(e)|`` aligned with ``edge_array()``, *without* CSR.

        The MAC hot path only needs conflict degrees for its activation
        bounds; reading row lengths straight off the store skips the
        O(nnz) CSR materialization (nnz is ~10⁷ at n=10⁴).
        """
        self._check_synced()
        return self._rows.length[self._sorted_slots()]

    def interference_sets(self) -> InterferenceSets:
        """The maintained conflict structure as a CSR ``InterferenceSets``.

        Rows align with ``IncrementalTheta.edge_array()`` (sorted
        undirected global-id edges).  Materialization is cached until
        the next :meth:`update`; a topology that advanced without a
        matching update raises instead of serving stale rows.
        """
        self._check_synced()
        if self._csr is None:
            rows = self._rows
            order = self._sorted_slots()
            m = len(order)
            rank = np.full(len(self._code), -1, dtype=_pos_dtype(m))
            rank[order] = np.arange(m)
            lens = rows.length[order]
            indptr = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(lens, out=indptr[1:])
            indices = np.empty(int(indptr[-1]), dtype=rank.dtype)
            for i, j in _chunks(lens):
                src = ragged_arange(rows.start[order[i:j]], lens[i:j])
                indices[indptr[i] : indptr[j]] = rank[rows.arena[src]]
            if len(indices):
                # Per-row ascending order in scipy's in-place C kernel.
                mat = sp.csr_matrix(
                    (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(m, m)
                )
                mat.sort_indices()
                indices = mat.indices
            self._csr = InterferenceSets(indptr, indices)
        return self._csr

    def check_full_equivalence(self) -> int:
        """Rows differing from a from-scratch rebuild (0 = bit-identical).

        The E24 correctness backstop: rebuilds ``interference_sets`` on
        the maintained topology snapshot and compares row-for-row.
        """
        ref = interference_sets(self.inc.snapshot_graph(), self.delta)
        mine = self.interference_sets()
        if mine == ref:
            return 0
        mism = abs(len(ref) - len(mine))
        for k in range(min(len(ref), len(mine))):
            if not np.array_equal(np.asarray(ref[k]), np.asarray(mine[k])):
                mism += 1
        return max(mism, 1)


class DynamicMAC:
    """§3.3 random edge activation over a *maintained* churned topology.

    The static :class:`~repro.core.interference_mac.RandomActivationMAC`
    computes interference sets once per graph; under churn that means a
    full rebuild per step.  This view instead feeds the shared
    :func:`~repro.core.interference_mac.activate` /
    :func:`~repro.core.interference_mac.resolve` round from a
    :class:`DynamicInterference`'s maintained degrees — edges, costs and
    activation probabilities ``1/(2·I_e)`` are refreshed once per
    topology version, so a step after k events costs k local conflict
    repairs.

    The per-step interface matches ``RandomActivationMAC``
    (:meth:`active_edges` / :meth:`success_mask`), so
    :class:`repro.sim.engine.SimulationEngine` drives either through the
    same ``mac=`` hook; :meth:`deterministic_step` is the same round on
    hash-derived draws.
    """

    def __init__(
        self,
        interference: DynamicInterference,
        *,
        rng=None,
        bound_mode: str = "own",
    ) -> None:
        self.interference = interference
        self.inc = interference.inc
        self.delta = interference.delta
        self.bound_mode = bound_mode
        self.rng = as_rng(rng)
        self._model = InterferenceModel(self.delta)
        self._cache_version = -1
        self._refresh()

    def _refresh(self) -> None:
        """Re-derive edges/costs/activation probs once per topology version."""
        v = self.inc.topology_version
        if v == self._cache_version:
            return
        bounds = estimate_edge_interference(
            None, self.delta, mode=self.bound_mode, sets=self.interference
        )
        edges = self.inc.edge_array()
        d = self.inc.position_array(edges[:, 0]) - self.inc.position_array(edges[:, 1])
        self._edges = edges
        self._costs = np.hypot(d[:, 0], d[:, 1]) ** self.inc.kappa
        self._probs = activation_probs(bounds)
        self._cache_version = v

    @property
    def interference_number(self) -> int:
        """``I`` — max interference-set size of the current topology."""
        arr = self.interference.degree_array()
        return int(arr.max()) if len(arr) else 0

    def active_edges(self) -> "tuple[np.ndarray, np.ndarray]":
        """Sample this step's active edges (both orientations + costs)."""
        self._refresh()
        return draw_active(self._edges, self._costs, self._probs, self.rng)

    def success_mask(self, transmissions) -> np.ndarray:
        """Resolve the attempts on the *live* maintained positions (global ids)."""
        pairs = [(t.src, t.dst) for t in transmissions]
        return resolve(self._model, self.inc.all_positions(), pairs)

    def deterministic_step(self, *, seed: int, step: int) -> MacStep:
        """One activate+resolve round with hash-derived randomness.

        The serial reference of the pool-side MAC
        (:meth:`repro.parallel.pool.TileWorkerPool.mac_step`): activation
        draws come from :func:`edge_uniforms` instead of the sequential
        ``rng``, so the same ``(seed, step)`` yields the same step
        whether evaluated here or sharded across tile workers.
        """
        self._refresh()
        edges = np.asarray(self._edges, dtype=np.int64)
        with trace.span("mac.deterministic_step", edges=len(edges), step=step) as sp:
            codes = (edges[:, 0] << 32) | edges[:, 1]
            e, c = activate(edges, self._costs, self._probs, edge_uniforms(codes, seed, step))
            ok = resolve(self._model, self.inc.all_positions(), e)
            sp.set(activated=len(e), succeeded=int(np.count_nonzero(ok)))
        return MacStep(edges=e, costs=c, ok=ok)
