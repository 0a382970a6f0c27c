"""The randomized symmetry-breaking MAC of §3.3 ((T, γ, I)-balancing).

When no MAC protocol is given, the paper makes medium access local and
randomized: every edge ``e`` of the topology independently *activates*
with probability ``1/(2·I_e)``, where ``I_e`` upper-bounds the size of
the interference set of every edge that ``e`` interferes with.  Active
edges are handed to the (T, γ)-balancing algorithm; if two interfering
active edges both transmit, **neither** succeeds (the packets stay put
and the energy is spent).

Lemma 3.2: an active edge interferes with another active edge with
probability at most 1/2, so in expectation at least half the attempted
transmissions go through — the source of the Θ(1/I) factor in
Theorem 3.3.

One round is two functions, :func:`activate` and :func:`resolve`, and
every MAC path is a thin source of their input arrays: the static
:class:`RandomActivationMAC`, the churn-maintained
:class:`repro.dynamic.interference.DynamicMAC` (sequential ``rng`` draws
or hash-derived ``edge_uniforms``), and the tile workers of
:meth:`repro.parallel.pool.TileWorkerPool.mac_step`.  The ``mac.*``
counters move only in :func:`record_mac`.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.base import GeometricGraph
from repro.interference.conflict import InterferenceSets, interference_sets
from repro.interference.model import InterferenceModel
from repro.obs import metrics, trace
from repro.sim.packets import Transmission
from repro.utils.rng import as_rng

__all__ = [
    "RandomActivationMAC",
    "activate",
    "activation_probs",
    "draw_active",
    "estimate_edge_interference",
    "record_mac",
    "resolve",
]


def estimate_edge_interference(
    graph: "GeometricGraph | None",
    delta: float,
    *,
    mode: str = "own",
    sets: "InterferenceSets | None" = None,
) -> np.ndarray:
    """Per-edge activation bounds ``I_e`` (clamped below at 1).

    §3.3 asks each node to know, per incident edge e, an upper bound on
    the interference number of any edge e interferes with.  Two modes:

    * ``"own"`` (default) — ``I_e = |I(e)|``.  The paper notes that in
      the ideal 2-D Euclidean plane a bound on the edge's *own*
      interference number suffices; it activates low-interference edges
      far more often.
    * ``"neighborhood"`` — ``I_e = max(|I(e)|, max_{e' ∈ I(e)} |I(e')|)``,
      the conservative bound needed in spaces with obstacles.

    ``sets`` lets callers that already hold the interference sets (e.g.
    :class:`RandomActivationMAC`) skip recomputing them; with ``sets``
    given, ``graph`` may be ``None``.  ``sets`` may also be an
    incrementally maintained
    :class:`repro.dynamic.interference.DynamicInterference`: its
    ``degree_array()`` serves the ``"own"`` bound without building CSR.
    """
    if sets is None:
        if graph is None:
            raise ValueError("need either a graph or precomputed sets")
        sets = interference_sets(graph, delta)
    maintained = not isinstance(sets, InterferenceSets)
    sizes = (sets.degree_array() if maintained else sets.degrees).astype(np.float64)
    if mode == "own":
        return np.maximum(sizes, 1.0)
    if mode != "neighborhood":
        raise ValueError(f"mode must be 'own' or 'neighborhood', got {mode!r}")
    full = sets.interference_sets() if maintained else sets
    return np.maximum(np.maximum(sizes, full.neighborhood_max(sizes)), 1.0)


def activation_probs(bounds) -> np.ndarray:
    """§3.3 activation probability ``1/(2·I_e)`` of each bound ``I_e`` (clamped below at 1)."""
    return 1.0 / (2.0 * np.maximum(np.asarray(bounds, dtype=np.float64), 1.0))


def record_mac(
    *,
    edges: int = 0,
    activated: int = 0,
    attempts: int = 0,
    succeeded: int = 0,
) -> None:
    """The one writer of the ``mac.*`` counters.

    An activation on a topology of ``edges > 0`` edges counts one
    ``mac.activation_rounds`` — whether or not any edge activated — and
    ``activated`` activated edges; a resolve of ``attempts > 0``
    attempts counts them, all but ``succeeded`` as collision failures.
    """
    reg = metrics.active()
    if reg is None:
        return
    if edges:
        reg.counter("mac.activation_rounds").inc()
        reg.counter("mac.activated_edges").inc(activated)
    if attempts:
        reg.counter("mac.resolved_attempts").inc(attempts)
        reg.counter("mac.collision_failures").inc(attempts - succeeded)


def activate(
    edges: np.ndarray,
    costs: np.ndarray,
    probs: np.ndarray,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """§3.3 activation: edge ``i`` activates iff ``uniforms[i] < probs[i]``.

    Returns the activated rows of ``edges`` and ``costs``.
    """
    with trace.span("mac.activate", edges=len(edges)) as sp:
        mask = uniforms < probs
        e, c = edges[mask], costs[mask]
        sp.set(activated=len(e))
    record_mac(edges=len(edges), activated=len(e))
    return e, c


def draw_active(
    edges: np.ndarray, costs: np.ndarray, probs: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One sequential ``rng`` draw per edge, activated, in both orientations.

    Both directions of an active edge may carry a packet (one
    transmission per direction), so each comes back twice with its cost.
    An edgeless topology draws nothing.
    """
    m = len(edges)
    if m == 0:
        return np.empty((0, 2), dtype=np.intp), np.empty(0)
    e, c = activate(edges, costs, probs, rng.random(m))
    return np.vstack([e, e[:, ::-1]]), np.concatenate([c, c])


def resolve(model: InterferenceModel, points: np.ndarray, pairs) -> np.ndarray:
    """§2.4 success of each attempted transmission in ``pairs``.

    ``pairs`` are ``(src, dst)`` node pairs in either orientation.  Both
    directions of one undirected edge belong to the same bidirectional
    exchange and never kill each other, so the pairs collapse to
    undirected edges and :meth:`InterferenceModel.successful_mask` decides
    them: an edge succeeds iff no other attempted edge's guard zone
    covers one of its endpoints.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    k = len(pairs)
    if k == 0:
        return np.ones(0, dtype=bool)
    with trace.span("mac.resolve", attempts=k) as sp:
        uniq, inverse = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
        ok = model.successful_mask(points, uniq)[inverse.reshape(-1)]
        succeeded = int(np.count_nonzero(ok))
        sp.set(succeeded=succeeded)
    record_mac(attempts=k, succeeded=succeeded)
    return ok


class RandomActivationMAC:
    """Edge activation with probability ``1/(2·I_e)`` + interference check.

    Parameters
    ----------
    graph:
        The topology whose edges contend for the medium.
    delta:
        Guard-zone parameter Δ of the interference model.
    rng:
        Seedable randomness source.
    interference_bounds:
        Optional precomputed ``I_e`` array; defaults to
        :func:`estimate_edge_interference`.

    Usage per step: :meth:`active_edges` → hand to the router's
    ``decide`` → :meth:`success_mask` on the chosen transmissions →
    router ``apply``.
    """

    def __init__(
        self,
        graph: GeometricGraph,
        delta: float,
        *,
        rng=None,
        interference_bounds: np.ndarray | None = None,
        bound_mode: str = "own",
        sets: "InterferenceSets | None" = None,
    ) -> None:
        self.graph = graph
        self.delta = float(delta)
        self.rng = as_rng(rng)
        # ``sets`` lets a caller holding a (possibly incrementally
        # maintained) conflict structure seed the MAC without a rebuild.
        self._sets: "InterferenceSets | None" = sets
        if interference_bounds is None:
            if self._sets is None:
                # Computed once and cached: interference_number reuses it.
                self._sets = interference_sets(graph, delta)
            interference_bounds = estimate_edge_interference(
                graph, delta, mode=bound_mode, sets=self._sets
            )
        bounds = np.asarray(interference_bounds, dtype=np.float64).reshape(-1)
        if len(bounds) != graph.n_edges:
            raise ValueError("interference_bounds length must equal the edge count")
        if (bounds < 1).any():
            raise ValueError("interference bounds must be >= 1")
        self.interference_bounds = bounds
        self.activation_probs = activation_probs(bounds)
        self._model = InterferenceModel(delta)

    @property
    def interference_number(self) -> int:
        """``I`` — the maximum interference-set size over all edges.

        The sets are computed at most once per instance (the constructor
        already builds them when it derives the activation bounds) and
        cached, rather than re-run on every property access.
        """
        if self._sets is None:
            self._sets = interference_sets(self.graph, self.delta)
        return self._sets.max_degree()

    def active_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample this step's active edges.

        Returns
        -------
        ``(directed_edges, costs)``: both orientations of every active
        undirected edge, with per-direction costs (one transmission per
        direction is allowed by the model).
        """
        return draw_active(
            self.graph.edges, self.graph.edge_costs, self.activation_probs, self.rng
        )

    def success_mask(self, transmissions: list[Transmission]) -> np.ndarray:
        """Resolve interference among the attempted transmissions (see :func:`resolve`)."""
        return resolve(self._model, self.graph.points, [(t.src, t.dst) for t in transmissions])
