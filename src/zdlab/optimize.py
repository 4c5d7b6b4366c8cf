"""ZD-placement optimization: pick exactly K nodes to maximize the
incentive-field objective, by genetic algorithm or exhaustive search."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import ExhaustiveCapError
from .field import Deployment, objective_from_mask
from .game import PayoffScale
from .graphs import Graph, betweenness, shared_adjacency

# mask elements scored per exhaustive-search block
EXHAUSTIVE_BLOCK = 8192


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
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        for rate in (self.crossover_rate, self.mutation_rate):
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise ValueError("rates must lie in [0, 1]")
        if not 0 <= self.elitism_count <= self.population_size:
            raise ValueError("elitism count out of range")
        if self.tournament_size < 1:
            raise ValueError("tournament size must be positive")


def _check_k(g: Graph, k: int):
    if not 1 <= k < g.n:
        raise ValueError("K must satisfy 1 <= K < V")


def fix_k(masks: np.ndarray, k: int, rng) -> np.ndarray:
    """Rows of ``masks`` with exactly k set bits, by one random-key pass.

    A row with more than k bits keeps a uniformly random k of them; a row
    with fewer keeps all of them plus uniformly random unset bits.
    """
    keys = rng.random(masks.shape) + ~masks  # set bits sort first
    keep = np.argpartition(keys, k - 1, axis=1)[:, :k]
    out = np.zeros(masks.shape, dtype=bool)
    np.put_along_axis(out, keep, True, axis=1)
    return out


def _top_k_mask(values, k):
    mask = np.zeros(len(values), dtype=bool)
    mask[np.argsort(-np.asarray(values), kind="stable")[:k]] = True
    return mask


def optimize_ga(g: Graph, k: int, scale: PayoffScale,
                cfg: GAConfig = GAConfig()):
    """Best deployment found by the GA.

    Each generation keeps the elite, breeds all children at once
    (tournament selection, uniform crossover, bit-flip mutation, then
    :func:`fix_k`) and scores the population in one kernel call.

    Returns ``(deployment, objective, history)`` where history holds the
    per-generation best fitness (nondecreasing thanks to elitism).
    """
    _check_k(g, k)
    rng = np.random.default_rng(cfg.seed)
    adj = shared_adjacency(g)
    n, size = g.n, cfg.population_size
    mutation_rate = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / n
    n_children = size - cfg.elitism_count

    seeded = np.array([_top_k_mask(g.degrees, k),
                       _top_k_mask(betweenness(g), k)])
    population = np.concatenate(
        [seeded, fix_k(np.zeros((size - len(seeded), n), dtype=bool), k, rng)])
    scores = objective_from_mask(adj, population, scale)

    history = []
    for _ in range(cfg.generations):
        elite = population[np.argsort(-scores, kind="stable")[:cfg.elitism_count]]
        picks = rng.integers(0, size, size=(2, n_children, cfg.tournament_size))
        won = np.argmax(scores[picks], axis=2)[..., None]
        parent_a, parent_b = population[np.take_along_axis(picks, won, 2)[..., 0]]
        crossed = rng.random(n_children) < cfg.crossover_rate
        take_b = (rng.random((n_children, n)) < 0.5) & crossed[:, None]
        children = np.where(take_b, parent_b, parent_a)
        children ^= rng.random((n_children, n)) < mutation_rate
        population = np.concatenate([elite, fix_k(children, k, rng)])
        scores = objective_from_mask(adj, population, scale)
        history.append(float(scores.max()))

    best = int(np.argmax(scores))
    zd_nodes = frozenset(np.flatnonzero(population[best]).tolist())
    dep = Deployment(g, zd_nodes, scale)
    return dep, float(scores[best]), history


def optimize_exhaustive(g: Graph, k: int, scale: PayoffScale,
                        cap: int = 2_000_000):
    """Exact optimum by enumeration in lexicographic order; a subset
    replaces the best only when it beats it by more than 1e-12 relative, so
    ties go to the lexicographically smallest ZD set. Refuses when C(V, K)
    exceeds ``cap``."""
    _check_k(g, k)
    total = math.comb(g.n, k)
    if total > cap:
        raise ExhaustiveCapError(
            f"{total} candidate subsets exceed the cap of {cap}"
        )
    adj = shared_adjacency(g)
    rows = max(1, EXHAUSTIVE_BLOCK // g.n)
    subsets = combinations(range(g.n), k)
    best_set, best_score, seen_max = None, -math.inf, -math.inf
    while (block := np.array(list(islice(subsets, rows)),
                             dtype=np.intp)).size:
        masks = np.zeros((len(block), g.n), dtype=bool)
        np.put_along_axis(masks, block, True, axis=1)
        scores = objective_from_mask(adj, masks, scale)
        # objectives are nonnegative, so the tie margin grows with the best
        # and only a strict running maximum can replace it: step through
        # those records with the sequential rule
        running = np.maximum.accumulate(np.maximum(scores, seen_max))
        before = np.concatenate(([seen_max], running[:-1]))
        for i in np.flatnonzero(scores > before):
            score = float(scores[i])
            # near-equal scores count as ties so rounding noise cannot
            # steal the win from the lexicographically first subset
            if best_set is None or score > best_score + 1e-12 * max(1.0, abs(best_score)):
                best_set, best_score = block[i].tolist(), score
        seen_max = running[-1]
    dep = Deployment(g, frozenset(best_set), scale)
    return dep, best_score
