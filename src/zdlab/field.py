"""Cooperation probabilities induced by a ZD deployment.

Each regular node's log-odds of cooperating decompose into a constant -1
from games with other regular players (defecting always pays exactly one
unit more there) and the reward-minus-punishment gap of the incentive
menu when ZD neighbors are present. The field is static: no fixed-point
iteration is needed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .game import PayoffScale
# not called here; kept so the benchmark can trace field.adjacency_matrix
from .graphs import Graph, adjacency_matrix  # noqa: F401


@dataclass(frozen=True)
class Deployment:
    """A graph with a chosen subset of ZD nodes."""

    graph: Graph
    zd_nodes: frozenset
    scale: PayoffScale

    def __post_init__(self):
        object.__setattr__(self, "zd_nodes", frozenset(self.zd_nodes))
        if any(not 0 <= u < self.graph.n for u in self.zd_nodes):
            raise ValueError("ZD node id out of range")


@dataclass(frozen=True)
class FieldResult:
    """Read-only per-node arrays of length V: the ZD mask, ZD-neighbour
    counts, and a regular node's log-odds ``delta`` and cooperation
    probability ``q`` (NaN and 0.0 on ZD nodes); ``objective`` is
    ``q.sum()``."""

    zd: np.ndarray
    zd_neighbors: np.ndarray
    delta: np.ndarray
    q: np.ndarray
    objective: float
    mean_regular: float


def node_delta(zd_neighbors: int, has_regular_neighbors: bool,
               scale: PayoffScale) -> float:
    """Log-odds of cooperation for a regular node.

    A node with neither regular nor ZD neighbors plays no game at all and
    gets delta 0 (cooperation probability one half).
    """
    if zd_neighbors < 0:
        raise ValueError("neighbor count cannot be negative")
    delta = -1.0 if has_regular_neighbors else 0.0
    if zd_neighbors > 0:
        n = zd_neighbors + 1
        r = scale(n)
        delta += r * (zd_neighbors - 1) / n + 1.0
    return delta


def coop_probability(delta: float) -> float:
    return 1.0 / (1.0 + math.exp(-delta))


def evaluate(dep: Deployment) -> FieldResult:
    """Per-node cooperation probabilities and the placement objective
    (sum of regular nodes' probabilities; ZD nodes are excluded), in
    O(V + E) from the CSR arcs. The values and their summation order are
    those of :func:`objective_from_mask`, so the objectives are equal."""
    g = dep.graph
    zd = np.zeros(g.n, dtype=bool)
    zd[list(dep.zd_nodes)] = True
    degrees = g.degrees
    arc_source = np.repeat(np.arange(g.n), degrees)
    zd_neighbors = np.bincount(arc_source[zd[g.indices]], minlength=g.n)
    has_regular = (zd_neighbors < degrees).astype(np.intp)
    delta, q = _coop_table(dep.scale, int(degrees.max()))
    delta = np.where(zd, np.nan, delta[has_regular, zd_neighbors])
    q = np.where(zd, 0.0, q[has_regular, zd_neighbors])
    for values in (zd, zd_neighbors, delta, q):
        values.flags.writeable = False
    objective = float(q.sum())
    regular = g.n - len(dep.zd_nodes)
    mean = objective / regular if regular else math.nan
    return FieldResult(zd, zd_neighbors, delta, q, objective, mean)


def cooperator_ratio(dep: Deployment, mode: str = "expected",
                     rounds: int = 1, seed: int = 0) -> float:
    """System-wide cooperator fraction; ZD nodes count as cooperators.

    ``expected`` averages the probabilities directly; ``monte_carlo``
    samples each regular node's action per round and averages over rounds.
    """
    if mode not in ("expected", "monte_carlo"):
        raise ValueError(f"unknown ratio mode {mode!r}")
    if mode == "monte_carlo" and rounds < 1:
        raise ValueError("monte carlo needs at least one round")
    result = evaluate(dep)
    k = len(dep.zd_nodes)
    n = dep.graph.n
    if mode == "expected":
        return (k + result.objective) / n
    # one draw per regular node in node order, summed without overflow
    coops = np.random.default_rng(seed).binomial(rounds, result.q[~result.zd])
    return (k * rounds + sum(coops.tolist())) / (n * rounds)


@functools.lru_cache(maxsize=8)
def _coop_table(scale: PayoffScale, max_degree: int):
    """A regular node's ``(delta, q)`` from :func:`node_delta` and
    :func:`coop_probability`, each indexed by ``[has_regular_neighbors,
    zd_neighbors]`` with shape (2, max_degree + 1). Raises ValueError when
    r overflows float64 in the largest game, of max_degree + 1 players."""
    # r(n) grows with n, so the largest game bounds every other one
    if not math.isfinite(scale(max_degree + 1)):
        raise ValueError(f"payoff scale {scale} overflows float64 in a "
                         f"{max_degree + 1}-player game")
    delta = np.array([[node_delta(m, bool(h), scale)
                       for m in range(max_degree + 1)] for h in (0, 1)])
    q = np.array([[coop_probability(d) for d in row] for row in delta])
    for table in (delta, q):
        table.flags.writeable = False
    return delta, q


@functools.lru_cache(maxsize=1)
def _placement_tables(g: Graph, scale: PayoffScale):
    """The kernel's tables ``(adj_w, base, q)`` for the last (graph, scale),
    the only V x V array kept between calls (4 V^2 bytes).

    ``adj_w`` is the float32 0/1 adjacency with ``W = max_degree + 1``
    written on its diagonal, so ``mask @ adj_w`` counts a node's ZD
    neighbours and adds W when the node is itself ZD: integers of at most
    max_degree + W <= 2V, which float32 sums exactly while V < 2^23, in any
    order BLAS takes. ``base[u] = 2 W u`` (intp, since it passes 2^24 on
    graphs such as star-3000) offsets node u into the flat (V, 2W) table
    ``q``: ``q[u, m]`` is u's cooperation probability with m ZD neighbours,
    from :func:`_coop_table`, and 0.0 for m >= W.
    """
    degrees = g.degrees
    width = int(degrees.max()) + 1
    adj_w = np.zeros((g.n, g.n), dtype=np.float32)
    adj_w[np.repeat(np.arange(g.n), degrees), g.indices] = 1.0
    adj_w.flat[::g.n + 1] = width
    base = 2 * width * np.arange(g.n, dtype=np.intp)
    coop = _coop_table(scale, width - 1)[1]
    q = np.zeros((g.n, 2 * width))
    q[:, :width] = np.where(np.arange(width) < degrees[:, None],
                            coop[1], coop[0])
    for table in (adj_w, base, q):
        table.flags.writeable = False
    return adj_w, base, q.ravel()


def objective_from_mask(g: Graph, masks: np.ndarray,
                        scale: PayoffScale) -> np.ndarray:
    """Placement objective of every row of a (P, V) boolean population on
    ``g``; the per-node terms and their order are those of
    :func:`evaluate`, and ZD nodes add 0.0. Returns shape (P,)."""
    adj_w, base, q = _placement_tables(g, scale)
    idx = (masks @ adj_w).astype(np.intp)
    idx += base
    return q.take(idx).sum(axis=1)
