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
from .graphs import Graph, adjacency_matrix  # noqa: F401  (re-exported)


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
class NodeIncentive:
    zd_neighbors: int
    has_regular_neighbors: bool
    delta: float
    coop_prob: float


@dataclass(frozen=True)
class FieldResult:
    nodes: dict
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
    (sum of regular nodes' probabilities; ZD nodes are excluded)."""
    g, zd = dep.graph, dep.zd_nodes
    nodes = {}
    objective = 0.0
    for u in range(g.n):
        if u in zd:
            continue
        neigh = g.neighbors(u)
        n_zd = sum(1 for v in neigh if v in zd)
        has_regular = len(neigh) > n_zd
        delta = node_delta(n_zd, has_regular, dep.scale)
        q = coop_probability(delta)
        nodes[u] = NodeIncentive(n_zd, has_regular, delta, q)
        objective += q
    regular = g.n - len(zd)
    mean = objective / regular if regular else math.nan
    return FieldResult(nodes, objective, mean)


def cooperator_ratio(dep: Deployment, mode: str = "expected",
                     rounds: int = 1, seed: int = 0) -> float:
    """System-wide cooperator fraction; ZD nodes count as cooperators.

    ``expected`` averages the probabilities directly; ``monte_carlo``
    samples each regular node's action per round and averages over rounds.
    """
    result = evaluate(dep)
    k = len(dep.zd_nodes)
    n = dep.graph.n
    if mode == "expected":
        return (k + result.objective) / n
    if mode != "monte_carlo":
        raise ValueError(f"unknown ratio mode {mode!r}")
    if rounds < 1:
        raise ValueError("monte carlo needs at least one round")
    rng = np.random.default_rng(seed)
    coops = k * rounds
    for info in result.nodes.values():
        coops += int(rng.binomial(rounds, info.coop_prob))
    return coops / (n * rounds)


@functools.lru_cache(maxsize=8)
def _coop_table(scale: PayoffScale, max_degree: int) -> np.ndarray:
    """Cooperation probability of a regular node indexed by
    ``[has_regular_neighbors, zd_neighbors]``, shape (2, max_degree + 1)."""
    table = np.array([[coop_probability(node_delta(m, bool(h), scale))
                       for m in range(max_degree + 1)] for h in (0, 1)])
    table.flags.writeable = False
    return table


def objective_from_mask(adj: np.ndarray, masks: np.ndarray,
                        scale: PayoffScale) -> np.ndarray:
    """Placement objective of every row of a (P, V) boolean population;
    the per-node terms come from :func:`node_delta`, as in
    :func:`evaluate`. Returns shape (P,)."""
    degrees = adj.sum(axis=0)
    n_zd = (masks @ adj).astype(np.intp)
    has_regular = (n_zd < degrees).astype(np.intp)
    q = _coop_table(scale, int(degrees.max()))[has_regular, n_zd]
    return np.where(masks, 0.0, q).sum(axis=1)
