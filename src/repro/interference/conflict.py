"""Interference sets, the interference number, and conflict scheduling.

Following §2.4 (and Meyer auf der Heide et al.), the *interference set*
of an edge e of a topology is

    I(e) = { e' ∈ E : e' interferes with e, or vice versa }

and the *interference number* of the topology is ``max_e |I(e)|``.
Lemma 2.10: for n uniform random nodes in the unit square the
interference number of ΘALG's output N is O(log n) whp — experiment E4.

The *conflict graph* has one vertex per topology edge and connects
mutually interfering edges; any proper colouring yields a TDMA-style
schedule of non-interfering rounds (used by the Theorem 2.8 simulation
and as a baseline MAC).

The construction is fully batched: one ``cKDTree.query_ball_point``
call per endpoint node (at its largest incident guard radius) finds
every guard-disk membership, a sparse matmul against the
node→incident-edge incidence matrix maps the node hits to edge ids
(deduplicating inside scipy's C kernel), and ``F + Fᵀ`` symmetrizes.
The result is a :class:`InterferenceSets` object — CSR
(indptr/indices) storage behind the original list-of-arrays accessor —
so downstream consumers (``interference_degrees``,
``estimate_edge_interference``, ``conflict_graph``) read the shared
arrays instead of re-deriving Python sets.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from typing import Iterator

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from repro.graphs.base import GeometricGraph
from repro.interference.model import InterferenceModel, interference_radius
from repro.utils.arrays import ragged_arange

__all__ = [
    "InterferenceSets",
    "interference_sets",
    "interference_degrees",
    "interference_number",
    "conflict_graph",
    "greedy_interference_schedule",
]


class InterferenceSets(Sequence):
    """CSR-backed interference sets, indexable like a list of arrays.

    ``sets[k]`` is the sorted array of edge ids interfering with edge
    ``k`` (the paper's I(e_k), symmetric closure included), served as a
    zero-copy slice of one shared ``indices`` array.  Equality against
    plain lists of arrays is element-wise, so existing call sites and
    tests that treated the result as ``list[np.ndarray]`` keep working.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        # Keep whatever integer dtype the kernel produced (int32 CSR from
        # scipy at typical sizes) — fancy indexing accepts it and the
        # copy to intp would cost more than it buys.
        self.indptr = np.ascontiguousarray(indptr)
        self.indices = np.ascontiguousarray(indices)
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    # -- sequence protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"edge index {k} out of range for {len(self)} edges")
        return self.indices[self.indptr[k] : self.indptr[k + 1]]

    def __iter__(self) -> "Iterator[np.ndarray]":
        for k in range(len(self)):
            yield self.indices[self.indptr[k] : self.indptr[k + 1]]

    def __eq__(self, other) -> bool:
        if isinstance(other, InterferenceSets):
            return np.array_equal(self.indptr, other.indptr) and np.array_equal(
                self.indices, other.indices
            )
        try:
            if len(other) != len(self):
                return False
            return all(np.array_equal(a, np.asarray(b)) for a, b in zip(self, other))
        except TypeError:
            return NotImplemented

    def __repr__(self) -> str:
        return f"<InterferenceSets m={len(self)} nnz={len(self.indices)}>"

    # -- derived quantities --------------------------------------------
    @property
    def degrees(self) -> np.ndarray:
        """``|I(e)|`` for every edge (shared, read-only)."""
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        """The interference number ``max_e |I(e)|`` (0 if no edges)."""
        deg = self.degrees
        return int(deg.max()) if len(deg) else 0

    def neighborhood_max(self, values: np.ndarray) -> np.ndarray:
        """Per edge e, ``max_{e' ∈ I(e)} values[e']`` (-inf for empty I(e))."""
        values = np.asarray(values, dtype=np.float64)
        out = np.full(len(self), -np.inf)
        deg = self.degrees
        nonempty = deg > 0
        if nonempty.any():
            gathered = values[self.indices]
            out[nonempty] = np.maximum.reduceat(gathered, self.indptr[:-1][nonempty])
        return out


def interference_sets(graph: GeometricGraph, delta: float) -> InterferenceSets:
    """I(e) for every edge of ``graph`` (symmetric closure), output-sensitive.

    For each edge e' with guard radius r' = (1+Δ)·len(e'), the edges it
    interferes with are exactly those having an endpoint within r' of
    either endpoint of e'.  One batched KD-tree ball query per *node*
    (at its largest incident guard radius) plus a merged distance /
    threshold lexsort builds the sparse hit matrix P (edge × node); the
    sparse product ``P @ Inc`` with the node→incident-edge incidence
    matrix expands node hits to edges — the dedup happens inside
    scipy's C matmul accumulator — and ``F + Fᵀ`` symmetrizes.  Every
    pass after the KD-tree query is O(hits + output) C code.

    Returns
    -------
    :class:`InterferenceSets`, indexable (aligned with ``graph.edges``)
    as sorted arrays of edge ids.
    """
    pts = graph.points
    edges = graph.edges
    m = len(edges)
    n = graph.n_nodes
    if m == 0:
        return InterferenceSets(np.zeros(1, dtype=np.intp), np.empty(0, dtype=np.intp))
    tree = cKDTree(pts)

    # Open-disk semantics: shrink the inclusive KD-tree radius by an
    # epsilon relative to r so boundary points are excluded.  A "slot"
    # is one endpoint of one edge: slots 2k and 2k+1 belong to edge k.
    radii = interference_radius(graph.edge_lengths, delta) * (1.0 - 1e-12)
    endpoints = edges.ravel()
    slot_r = np.repeat(radii, 2)

    # One KD-tree ball query per *node* (not per slot) at that node's
    # largest incident guard radius — endpoints shared by many edges
    # are queried once, which shrinks both the query count and the raw
    # hit volume by the average degree.
    uniq, iu = np.unique(endpoints, return_inverse=True)
    rmax = np.zeros(n)
    np.maximum.at(rmax, endpoints, slot_r)
    hits = tree.query_ball_point(pts[uniq], rmax[uniq], return_sorted=False)
    cnts = np.fromiter(map(len, hits), dtype=np.int64, count=len(uniq))
    tot = int(cnts.sum())
    idx_t = np.int32 if max(tot, 2 * m) < np.iinfo(np.int32).max else np.int64
    raw = np.fromiter(itertools.chain.from_iterable(hits), dtype=idx_t, count=tot)
    seg = np.zeros(len(uniq) + 1, dtype=np.int64)
    np.cumsum(cnts, out=seg[1:])

    # Per slot, the hits within its own (smaller) radius are a prefix
    # of the node's hits sorted by squared distance.  One merged
    # lexsort of hit distances and slot thresholds — hits first at
    # ties, matching the KD-tree's inclusive d² ≤ r² — ranks every
    # threshold inside its node segment exactly, with no per-slot loop.
    owner = np.repeat(np.arange(len(uniq), dtype=np.int64), cnts)
    diff = pts[raw] - pts[uniq[owner]]
    d2 = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
    vals = np.concatenate([d2, slot_r * slot_r])
    owners_all = np.concatenate([owner, iu])
    is_thresh = np.zeros(tot + 2 * m, dtype=bool)
    is_thresh[tot:] = True
    order = np.lexsort((is_thresh, vals, owners_all))
    sorted_thresh = is_thresh[order]
    hits_before = np.cumsum(~sorted_thresh)
    tpos = np.nonzero(sorted_thresh)[0]
    slot_ids = order[tpos] - tot
    cnt_slot = np.empty(2 * m, dtype=np.int64)
    cnt_slot[slot_ids] = hits_before[tpos] - seg[iu[slot_ids]]
    raw_sorted = raw[order[~sorted_thresh]]  # grouped by node, ascending d²

    # P[k, u] = #{endpoints of k whose guard disk contains node u} (>0 ⇒ hit):
    # gather each slot's prefix, pairing slots 2k/2k+1 into row k.
    p_cols = raw_sorted[ragged_arange(seg[iu], cnt_slot)]
    p_indptr = np.zeros(m + 1, dtype=idx_t)
    np.cumsum(cnt_slot[0::2] + cnt_slot[1::2], out=p_indptr[1:])
    total = int(p_indptr[-1])
    ones = np.ones(max(total, 2 * m), dtype=np.int32)
    P = _raw_csr(ones[:total], p_cols, p_indptr, (m, n))

    # Inc[u, v] = 1 iff node u is an endpoint of edge v.  The stable
    # argsort of the flat endpoint list groups slots by node; slot s
    # belongs to edge s >> 1.
    endpoints = edges.ravel()
    inc_indices = (np.argsort(endpoints, kind="stable") >> 1).astype(idx_t)
    inc_indptr = np.zeros(n + 1, dtype=idx_t)
    np.cumsum(np.bincount(endpoints, minlength=n), out=inc_indptr[1:])
    Inc = _raw_csr(ones[: 2 * m], inc_indices, inc_indptr, (n, m))

    # F[k, v] > 0 iff v has an endpoint in k's guard zone (directed).
    F = P @ Inc

    # Drop the self-interference diagonal (every row has exactly one
    # diagonal entry: an edge's own endpoints lie in its guard zone),
    # then take the symmetric closure.  ``.T.tocsr()`` is a C counting
    # sort, so Ftr (and its re-transpose) come out with sorted indices
    # and the sum is the canonical CSR layout we hand out.
    rows = np.repeat(np.arange(m, dtype=F.indices.dtype), np.diff(F.indptr))
    off_diag = F.indices != rows
    f_indptr = F.indptr - np.arange(m + 1, dtype=F.indptr.dtype)
    nnz = int(f_indptr[-1])
    Fn = _raw_csr(np.ones(nnz, dtype=np.int32), F.indices[off_diag], f_indptr, (m, m))
    Ftr = Fn.T.tocsr()
    full = Ftr.T.tocsr() + Ftr
    return InterferenceSets(full.indptr, full.indices)


def _raw_csr(data, indices, indptr, shape) -> "sp.csr_matrix":
    """CSR from prebuilt arrays, skipping scipy's per-build validation."""
    out = sp.csr_matrix(shape, dtype=data.dtype)
    out.data, out.indices, out.indptr = data, indices, indptr
    return out


def interference_degrees(graph: GeometricGraph, delta: float) -> np.ndarray:
    """``|I(e)|`` for every edge."""
    return interference_sets(graph, delta).degrees


def interference_number(graph: GeometricGraph, delta: float) -> int:
    """The topology's interference number ``max_e |I(e)|`` (0 if no edges)."""
    return interference_sets(graph, delta).max_degree()


def conflict_graph(graph: GeometricGraph, delta: float):
    """The edge conflict graph as :class:`networkx.Graph`.

    Vertices are edge indices into ``graph.edges``; an edge joins two
    mutually interfering topology edges.
    """
    import networkx as nx

    sets = interference_sets(graph, delta)
    g = nx.Graph()
    g.add_nodes_from(range(len(sets)))
    rows = np.repeat(np.arange(len(sets), dtype=np.intp), sets.degrees)
    cols = sets.indices
    upper = cols > rows
    g.add_edges_from(zip(rows[upper].tolist(), cols[upper].tolist()))
    return g


def greedy_interference_schedule(graph: GeometricGraph, delta: float) -> list[np.ndarray]:
    """Partition the edges into non-interfering rounds by greedy colouring.

    Uses networkx's ``greedy_color`` with largest-first ordering; the
    number of rounds is at most (interference number + 1).  Each round
    is an array of edge indices that can transmit simultaneously under
    the guard-zone model.
    """
    import networkx as nx

    cg = conflict_graph(graph, delta)
    if cg.number_of_nodes() == 0:
        return []
    coloring = nx.greedy_color(cg, strategy="largest_first")
    n_colors = max(coloring.values()) + 1
    rounds: list[list[int]] = [[] for _ in range(n_colors)]
    for edge_id, color in coloring.items():
        rounds[color].append(edge_id)
    out = [np.asarray(sorted(r), dtype=np.intp) for r in rounds]
    # Verification in debug spirit: rounds must be pairwise conflict-free.
    model = InterferenceModel(delta)
    for r in out:
        if len(r) > 1:
            mat = model.interference_matrix(graph.points, graph.edges[r])
            if mat.any():
                raise AssertionError("greedy schedule produced an interfering round")
    return out
