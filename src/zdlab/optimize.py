"""ZD-placement optimization: pick exactly K nodes to maximize the
incentive-field objective, by genetic algorithm or exhaustive search."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExhaustiveCapError
from .field import Deployment, _placement_tables, objective_from_mask
from .game import PayoffScale
from .graphs import Graph, adjacency_matrix

# mask elements scored per exhaustive-search block
EXHAUSTIVE_BLOCK = 8192
# candidate subsets re-scored per kernel call, whatever V: each call reads
# the V x V adjacency once
RESCORE_ROWS = 256
# most work of one search: V * C(V-1, K-1) mask entries, each weighted by
# 1 + (V / 256)^2 for the V x V adjacency every block reads (README.md)
EXHAUSTIVE_CAP = 2**27
GA_CAP = 2**22  # most entries P * V of a GA population (~46 B each traced)
# the GA's fixed operators (see optimize_ga)
TOURNAMENT_SIZE = 3
CROSSOVER_RATE = 0.9
ELITISM_COUNT = 2


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 100
    generations: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population must hold at least two individuals")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def check_size(self, g: Graph):
        """Refuse a population of more than ``GA_CAP`` entries P * V."""
        if (size := self.population_size) * g.n > GA_CAP:
            raise ValueError(f"a population of {size} on {g.n} nodes holds "
                             f"{size * g.n} entries, over the cap of {GA_CAP}")


def _check_k(g: Graph, k: int):
    if not 1 <= k < g.n:
        raise ValueError("K must satisfy 1 <= K < V")


def fix_k(masks: np.ndarray, k: int, rng) -> np.ndarray:
    """Rows of ``masks`` with exactly k set bits, by one random-key pass.

    A row with more than k bits keeps a uniformly random k of them; a row
    with fewer keeps all of them plus uniformly random unset bits.
    """
    out = np.empty(masks.shape, dtype=bool)
    _fix_k_into(masks, k, rng.random(masks.shape), out)
    return out


def _fix_k_into(masks: np.ndarray, k: int, keys: np.ndarray, out: np.ndarray):
    """:func:`fix_k` on the uniform ``keys`` (overwritten), into ``out``."""
    keys += ~masks  # set bits sort first
    np.less_equal(keys, np.partition(keys, k - 1, axis=1)[:, k - 1:k], out=out)
    # a key tied with the k-th smallest leaves a row with more than k bits
    # (never fewer); such rows keep the k that argpartition picks, the rule
    # the GA's random stream is pinned to
    if np.count_nonzero(out) != k * len(out):
        tied = np.flatnonzero(np.count_nonzero(out, axis=1) != k)
        keep = np.argpartition(keys[tied], k - 1, axis=1)[:, :k]
        rows = np.zeros((tied.size, masks.shape[1]), dtype=bool)
        np.put_along_axis(rows, keep, True, axis=1)
        out[tied] = rows


def optimize_ga(g: Graph, k: int, scale: PayoffScale,
                cfg: GAConfig = GAConfig()):
    """Best deployment found by the GA.

    The initial population holds the K highest-degree nodes (ties to the
    lower id) and ``population_size - 1`` uniformly random K-sets. Each
    generation keeps the ``ELITISM_COUNT`` = 2 best, breeds all children at
    once (tournaments of ``TOURNAMENT_SIZE`` = 3, uniform crossover with
    probability ``CROSSOVER_RATE`` = 0.9 per child, bit-flip mutation at
    1/V per gene, then :func:`fix_k`) and scores them in one kernel call.
    After the tournament draw, one ``rng.random`` call per generation
    supplies, in this order, the crossover coins and the take-b, mutation
    and :func:`fix_k` keys; children are bred in place on the gathered
    parents and written into a second population buffer, which then swaps
    with the live one.

    Returns ``(deployment, objective, history)`` where history holds the
    per-generation best fitness (nondecreasing thanks to elitism).
    """
    _check_k(g, k)
    cfg.check_size(g)
    rng = np.random.default_rng(cfg.seed)
    n, size = g.n, cfg.population_size
    n_children = size - ELITISM_COUNT

    population = np.zeros((size, n), dtype=bool)
    population[0, np.argsort(-g.degrees, kind="stable")[:k]] = True
    population[1:] = fix_k(population[1:], k, rng)
    scores = objective_from_mask(g, population, scale)

    # buffers reused by every generation
    spare = np.empty_like(population)
    parents = np.empty((2, n_children, n), dtype=bool)
    parent_a, parent_b = parents
    gene_mask = np.empty((n_children, n), dtype=bool)
    uniform = np.empty(n_children * (1 + 3 * n))
    coins = uniform[:n_children]
    b_keys, flip_keys, fix_keys = uniform[n_children:].reshape(3, n_children, n)
    # index arrays that pick each tournament's winner out of ``picks``
    pair, child = np.arange(2)[:, None], np.arange(n_children)
    history = []
    for _ in range(cfg.generations):
        spare[:ELITISM_COUNT] = population[
            np.argsort(-scores, kind="stable")[:ELITISM_COUNT]]
        picks = rng.integers(0, size, size=(2, n_children, TOURNAMENT_SIZE))
        won = np.argmax(scores[picks], axis=2)
        rng.random(out=uniform)
        population.take(picks[pair, child, won], axis=0, out=parents)
        # children = a ^ ((a ^ b) & take_b), bred into parent_a
        np.less(b_keys, 0.5, out=gene_mask)
        gene_mask &= (coins < CROSSOVER_RATE)[:, None]
        parent_b ^= parent_a
        parent_b &= gene_mask
        parent_a ^= parent_b
        parent_a ^= np.less(flip_keys, 1.0 / n, out=gene_mask)
        _fix_k_into(parent_a, k, fix_keys, spare[ELITISM_COUNT:])
        population, spare = spare, population
        scores = objective_from_mask(g, population, scale)
        history.append(float(scores.max()))

    best = int(np.argmax(scores))
    zd_nodes = frozenset(np.flatnonzero(population[best]).tolist())
    dep = Deployment(g, zd_nodes, scale)
    return dep, float(scores[best]), history


def lex_combinations(n: int, k: int, rows: int):
    """The k-subsets of range(n) in lexicographic order, as (rows, k)
    arrays of ascending elements (the last block may be shorter)."""
    subsets = itertools.combinations(range(n), k)
    total = math.comb(n, k)
    for start in range(0, total, rows):
        m = min(rows, total - start)
        flat = itertools.chain.from_iterable(itertools.islice(subsets, m))
        yield np.fromiter(flat, dtype=np.intp, count=m * k).reshape(m, k)


def _extension_scores(g: Graph, adj: np.ndarray, masks: np.ndarray,
                      scale: PayoffScale) -> np.ndarray:
    """First-order scores of one-node extensions. ``adj`` is ``g``'s
    :func:`adjacency_matrix` and ``masks`` a (V, P) boolean array, one
    prefix per column; entry [v, p] of the (V, P) result approximates
    :func:`objective_from_mask`'s score of prefix p plus node v, for each v
    outside prefix p.

    With c the prefix's ZD-neighbour counts, q0 = q[u, c_u] and
    d = q[u, c_u + 1] - q0 (0.0 on the prefix's own nodes), adding v
    changes the sum of q0 by (A @ d)[v] - q0[v]: one product scores all V
    extensions of every prefix.
    """
    adj_w, base, q = _placement_tables(g, scale)
    idx = (adj_w @ masks).astype(np.intp)
    idx += base[:, None]
    q0 = q.take(idx)
    # on a prefix's own nodes idx + 1 can reach the next node's table (or
    # one past the end), so those differences are zeroed
    d = q.take(idx + 1, mode="clip") - q0
    d[masks] = 0.0
    return (q0.sum(axis=0) - q0) + adj @ d


def _record_slack(n: int) -> float:
    """Margin by which :func:`_extension_scores` may undercut a subset the
    tie rule could accept on a V = ``n`` graph.

    An approximation and a kernel score are each a floating-point sum of at
    most m = 2n + 2 terms in [-1, 1] (a difference q1 - q0 counts as one
    term, rounded once more), so each lies within m * gamma_m of its real
    value, gamma_m = m u / (1 - m u), u = 2**-53, in any summation order
    (Higham, *Accuracy and Stability of Numerical Algorithms*, sec. 4.2).
    They differ by at most E = 2 m gamma_m, and a subset that beats every
    earlier kernel score, as each subset the tie rule accepts does, has an
    approximation above every earlier approximation minus 2 E.
    """
    m = 2 * n + 2
    gamma = m * 2.0 ** -53 / (1.0 - m * 2.0 ** -53)
    return 4.0 * m * gamma


def _plan_blocks(n: int, k: int, rows: int):
    """The part of :func:`optimize_exhaustive`'s blocks that does not read
    the graph: for each block of ``rows`` (K-1)-prefixes of range(n - 1),
    in lexicographic order, read-only (n, rows) boolean arrays
    ``(masks, valid)``. Column p of ``masks`` holds prefix p, and
    ``valid[v, p]`` says that v may extend it (v > max of the prefix)."""
    nodes = np.arange(n)
    for block in lex_combinations(n - 1, k - 1, rows):
        # one column per prefix, so the search's reductions over axis 0 run
        # vectorized across prefixes
        masks = np.zeros((n, len(block)), dtype=bool)
        masks[block.T, np.arange(len(block))] = True
        # each prefix's last node; K = 1 has one prefix, the empty one
        valid = nodes[:, None] > (block[:, -1] if k > 1 else -1)
        masks.flags.writeable = valid.flags.writeable = False
        yield masks, valid


@functools.lru_cache(maxsize=8)
def _cached_plan(n: int, k: int, rows: int) -> tuple:
    """All of :func:`_plan_blocks`, kept per (n, k, rows)."""
    return tuple(_plan_blocks(n, k, rows))


def optimize_exhaustive(g: Graph, k: int, scale: PayoffScale):
    """Exact optimum by enumeration in lexicographic order; a subset
    replaces the best only when it beats it by more than 1e-12 relative, so
    ties go to the lexicographically smallest ZD set. Refuses, before any
    enumeration, a search whose work exceeds ``EXHAUSTIVE_CAP``.

    The K-subsets are visited as (K-1)-prefixes T of range(V - 1), each
    extended by every v > max(T). :func:`_extension_scores` scores all
    extensions of a block of prefixes at once; only the subsets whose
    approximation exceeds the approximate running maximum before them,
    minus :func:`_record_slack`, are subsets the tie rule could accept (it
    accepts only strict records, as the kernel's running maximum never
    exceeds the best plus its margin), and only those are re-scored by
    :func:`objective_from_mask`, ``RESCORE_ROWS`` per call, and passed
    through the rule in lexicographic order.
    The prefix blocks come from :func:`_plan_blocks`, kept per shape by
    :func:`_cached_plan` while they are small.
    """
    _check_k(g, k)
    n = g.n
    entries = n * math.comb(n - 1, k - 1)
    work = entries * (2**16 + n * n) // 2**16
    if work > EXHAUSTIVE_CAP:
        raise ExhaustiveCapError(f"search work {work} (V = {n}, K = {k}) "
                                 f"exceeds the cap of {EXHAUSTIVE_CAP}")
    adj = adjacency_matrix(g)
    slack = _record_slack(n)
    rows = max(1, EXHAUSTIVE_BLOCK // n)
    best, best_score = None, -math.inf
    seen_approx = -math.inf
    # a plan of at most 32 blocks' worth of mask entries (512 KB for both
    # arrays at the default block) is built once per shape; a larger one
    # streams, so memory stays O(block)
    small = entries <= 32 * EXHAUSTIVE_BLOCK
    for masks, valid in (_cached_plan if small else _plan_blocks)(n, k, rows):
        approx = np.where(valid, _extension_scores(g, adj, masks, scale), -math.inf)
        # prefixes holding a possible record, by their best extension and
        # the approximate running maximum over earlier prefixes
        top = approx.max(axis=0)
        running = np.maximum.accumulate(np.maximum(top, seen_approx))
        before = np.concatenate(([seen_approx], running[:-1]))
        hot = np.flatnonzero(top > before - slack)
        seen_approx = running[-1]
        if not hot.size:
            continue
        # within those prefixes, each extension against the maximum before it
        scores = approx[:, hot]
        ahead = np.maximum.accumulate(np.maximum(scores, before[hot]), axis=0)
        ahead = np.concatenate((before[None, hot], ahead[:-1]))
        p, v = np.nonzero((scores > ahead - slack).T)  # in lexicographic order
        p = hot[p]
        for first in range(0, len(p), RESCORE_ROWS):
            cp = p[first:first + RESCORE_ROWS]
            cv = v[first:first + RESCORE_ROWS]
            cand = masks[:, cp].T
            cand[np.arange(len(cp)), cv] = True
            exact = objective_from_mask(g, cand, scale)
            for i, score in enumerate(exact.tolist()):
                # near-equal scores count as ties so rounding noise cannot
                # steal the win from the lexicographically first subset
                if best is None or score > best_score + 1e-12 * max(1.0, abs(best_score)):
                    best, best_score = cand[i], score
    dep = Deployment(g, frozenset(np.flatnonzero(best).tolist()), scale)
    return dep, best_score
