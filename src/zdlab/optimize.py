"""ZD-placement optimization: pick exactly K nodes to maximize the
incentive-field objective, by genetic algorithm or exhaustive search."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ExhaustiveCapError
from .field import Deployment, adjacency_matrix, objective_from_mask
from .game import PayoffScale
from .graphs import Graph, betweenness


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 100
    generations: int = 300
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # default 1/V per gene
    elitism_count: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population must hold at least two individuals")
        for rate in (self.crossover_rate, self.mutation_rate):
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise ValueError("rates must lie in [0, 1]")
        if not 0 <= self.elitism_count <= self.population_size:
            raise ValueError("elitism count out of range")
        if self.tournament_size < 1:
            raise ValueError("tournament size must be positive")


def _repair(mask, k, rng):
    """Force exactly k ZD bits, randomizing which bits flip."""
    zd_idx = np.flatnonzero(mask)
    if len(zd_idx) > k:
        drop = rng.choice(zd_idx, size=len(zd_idx) - k, replace=False)
        mask[drop] = False
    elif len(zd_idx) < k:
        regular_idx = np.flatnonzero(~mask)
        add = rng.choice(regular_idx, size=k - len(zd_idx), replace=False)
        mask[add] = True
    return mask


def _top_k_mask(values, k, n):
    order = sorted(range(n), key=lambda u: (-values[u], u))
    mask = np.zeros(n, dtype=bool)
    mask[order[:k]] = True
    return mask


def optimize_ga(g: Graph, k: int, scale: PayoffScale,
                cfg: GAConfig = GAConfig()):
    """Best deployment found by the GA.

    Returns ``(deployment, objective, history)`` where history holds the
    per-generation best fitness (nondecreasing thanks to elitism).
    """
    if not 1 <= k < g.n:
        raise ValueError("K must satisfy 1 <= K < V")
    rng = np.random.default_rng(cfg.seed)
    adj = adjacency_matrix(g)
    mutation_rate = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / g.n

    def fitness(mask):
        return objective_from_mask(adj, mask, scale)

    degrees = [g.degree(u) for u in range(g.n)]
    population = [_top_k_mask(degrees, k, g.n),
                  _top_k_mask(betweenness(g), k, g.n)]
    while len(population) < cfg.population_size:
        mask = np.zeros(g.n, dtype=bool)
        mask[rng.choice(g.n, size=k, replace=False)] = True
        population.append(mask)
    population = population[:cfg.population_size]
    scores = np.array([fitness(m) for m in population])

    def tournament():
        picks = rng.integers(0, cfg.population_size, size=cfg.tournament_size)
        return population[picks[np.argmax(scores[picks])]]

    history = []
    for _ in range(cfg.generations):
        order = np.argsort(-scores, kind="stable")
        next_pop = [population[i].copy() for i in order[:cfg.elitism_count]]
        while len(next_pop) < cfg.population_size:
            parent_a, parent_b = tournament(), tournament()
            if rng.random() < cfg.crossover_rate:
                take_b = rng.random(g.n) < 0.5
                child = np.where(take_b, parent_b, parent_a)
            else:
                child = parent_a.copy()
            flips = rng.random(g.n) < mutation_rate
            child = child ^ flips
            next_pop.append(_repair(child, k, rng))
        population = next_pop
        scores = np.array([fitness(m) for m in population])
        history.append(float(scores.max()))

    best = int(np.argmax(scores))
    zd_nodes = frozenset(np.flatnonzero(population[best]).tolist())
    dep = Deployment(g, zd_nodes, scale)
    return dep, float(scores[best]), history


def optimize_exhaustive(g: Graph, k: int, scale: PayoffScale,
                        cap: int = 2_000_000):
    """Exact optimum by enumeration; ties go to the lexicographically
    smallest ZD set. Refuses when C(V, K) exceeds ``cap``."""
    if not 1 <= k <= g.n:
        raise ValueError("K must satisfy 1 <= K <= V")
    total = math.comb(g.n, k)
    if total > cap:
        raise ExhaustiveCapError(
            f"{total} candidate subsets exceed the cap of {cap}"
        )
    adj = adjacency_matrix(g)
    best_set, best_score = None, -math.inf
    mask = np.zeros(g.n, dtype=bool)
    for subset in combinations(range(g.n), k):
        mask[:] = False
        mask[list(subset)] = True
        score = objective_from_mask(adj, mask, scale)
        # near-equal scores count as ties so rounding noise cannot steal
        # the win from the lexicographically first subset
        if best_set is None or score > best_score + 1e-12 * max(1.0, abs(best_score)):
            best_set, best_score = subset, score
    dep = Deployment(g, frozenset(best_set), scale)
    return dep, best_score
