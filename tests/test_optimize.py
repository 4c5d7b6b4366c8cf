import math
from itertools import combinations

import numpy as np
import pytest

from zdlab import optimize
from zdlab.field import Deployment, evaluate
from zdlab.game import PayoffScale
from zdlab.graphs import generate
from zdlab.optimize import (ExhaustiveCapError, GAConfig, fix_k,
                            optimize_exhaustive, optimize_ga)

SCALE = PayoffScale(2, 1, 3)
FAST = GAConfig(population_size=40, generations=40, seed=0)


def sequential_exhaustive(g, k, score=None):
    """Reference search: every subset in lexicographic order, replacing the
    best only when beaten by more than 1e-12 relative."""
    score = score or (lambda sub: evaluate(Deployment(g, sub, SCALE)).objective)
    best_set, best = None, -math.inf
    for sub in combinations(range(g.n), k):
        value = score(frozenset(sub))
        if best_set is None or value > best + 1e-12 * max(1.0, abs(best)):
            best_set, best = frozenset(sub), value
    return best_set, best


class TestExhaustive:
    def test_star_picks_hub(self):
        dep, score = optimize_exhaustive(generate("star", 12), 1, SCALE)
        assert dep.zd_nodes == {0}
        assert score == pytest.approx(evaluate(dep).objective)

    def test_lexicographic_tie_break(self):
        # every single node on a ring scores the same; smallest id wins
        dep, _ = optimize_exhaustive(generate("ring", 8), 1, SCALE)
        assert dep.zd_nodes == {0}

    def test_beats_every_other_subset(self):
        g = generate("mesh", 9, seed=7)
        from itertools import combinations
        dep, score = optimize_exhaustive(g, 2, SCALE)
        best = max(evaluate(Deployment(g, frozenset(sub), SCALE)).objective
                   for sub in combinations(range(9), 2))
        assert score == pytest.approx(best)

    def test_cap(self):
        with pytest.raises(ExhaustiveCapError):
            optimize_exhaustive(generate("mesh", 60, seed=0), 30, SCALE,
                                cap=1000)

    def test_bad_k(self):
        for k in (0, 5, 6):
            with pytest.raises(ValueError):
                optimize_exhaustive(generate("ring", 5), k, SCALE)

    # block sizes in mask elements: one subset, a few subsets, the default
    @pytest.mark.parametrize("block", [1, 40, 8192])
    @pytest.mark.parametrize("graph", [("ring", 8, 0), ("ring", 11, 0),
                                       ("star", 9, 0), ("star", 12, 0),
                                       ("mesh", 10, 1), ("mesh", 12, 4)])
    def test_matches_sequential_reference(self, monkeypatch, graph, block):
        monkeypatch.setattr(optimize, "EXHAUSTIVE_BLOCK", block, raising=False)
        g = generate(*graph)
        for k in range(1, g.n):
            dep, score = optimize_exhaustive(g, k, SCALE)
            best_set, best = sequential_exhaustive(g, k)
            assert dep.zd_nodes == best_set
            assert score == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("block", [1, 12, 8192])
    def test_tie_rule_is_sequential(self, monkeypatch, block):
        g = generate("ring", 6)
        order = list(combinations(range(6), 2))
        table = {}

        def fake_objective(adj, masks, scale):
            rows = np.atleast_2d(masks)
            values = np.array([table[frozenset(np.flatnonzero(r).tolist())]
                               for r in rows])
            return values if masks.ndim == 2 else float(values[0])

        monkeypatch.setattr(optimize, "objective_from_mask", fake_objective)
        monkeypatch.setattr(optimize, "EXHAUSTIVE_BLOCK", block, raising=False)
        # bumps in units of the 1e-12 relative tie margin; the first chain
        # keeps the second subset although later ones score higher
        rng = np.random.default_rng(block)
        chains = [[0.0, 1.5, 2.2, 2.4, 0.5, 3.3, 3.6, 3.0] + [0.0] * 7]
        chains += [rng.choice([0.0, 0.5, 1.0, 1.5, 2.2, 2.4, 3.3, 3.6], 15)
                   for _ in range(200)]
        for i, bumps in enumerate(chains):
            table.clear()
            table.update({frozenset(sub): 7.0 * (1.0 + b * 1e-12)
                          for sub, b in zip(order, bumps)})
            dep, score = optimize_exhaustive(g, 2, SCALE)
            best_set, best = sequential_exhaustive(g, 2, table.__getitem__)
            assert dep.zd_nodes == best_set and score == best
            if i == 0:
                assert best_set == frozenset(order[5])


class TestGA:
    def test_star_hub_found(self):
        dep, score, history = optimize_ga(generate("star", 40), 1, SCALE, FAST)
        assert dep.zd_nodes == {0}
        assert score == pytest.approx(evaluate(dep).objective)

    def test_history_nondecreasing(self):
        _, _, history = optimize_ga(generate("mesh", 25, seed=2), 3, SCALE,
                                    FAST)
        assert len(history) == FAST.generations
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))

    def test_exact_k_nodes(self):
        for k in (1, 3, 6):
            dep, _, _ = optimize_ga(generate("mesh", 20, seed=4), k, SCALE,
                                    FAST)
            assert len(dep.zd_nodes) == k

    def test_deterministic_per_seed(self):
        g = generate("mesh", 20, seed=9)
        a = optimize_ga(g, 3, SCALE, FAST)
        b = optimize_ga(g, 3, SCALE, FAST)
        assert a[0].zd_nodes == b[0].zd_nodes and a[1] == b[1]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_exhaustive_on_small_graphs(self, seed):
        g = generate("mesh", 12, seed=seed)
        _, exact = optimize_exhaustive(g, 2, SCALE)
        _, found, _ = optimize_ga(g, 2, SCALE,
                                  GAConfig(population_size=40, generations=60,
                                           seed=seed))
        assert found >= 0.99 * exact

    def test_bad_k(self):
        with pytest.raises(ValueError):
            optimize_ga(generate("ring", 5), 5, SCALE, FAST)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=1)
        for generations in (0, -5):
            with pytest.raises(ValueError):
                GAConfig(generations=generations)
        with pytest.raises(ValueError):
            GAConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GAConfig(elitism_count=-1)


class TestFixK:
    def test_exact_k_keeping_own_bits(self):
        rng = np.random.default_rng(3)
        masks = rng.random((300, 20)) < rng.random((300, 1))
        for k in (1, 5, 19):
            fixed = fix_k(masks, k, np.random.default_rng(k))
            assert (fixed.sum(axis=1) == k).all()
            below = masks.sum(axis=1) <= k
            assert below.any() and (~below).any()
            # a row below K keeps all of its bits, one above only its own
            assert (fixed[below] >= masks[below]).all()
            assert (fixed[~below] <= masks[~below]).all()

    def test_choices_are_uniform(self):
        row = np.zeros(12, dtype=bool)
        row[:6] = True
        rng = np.random.default_rng(0)
        for k, share in ((2, 2 / 6), (9, 3 / 6)):
            fixed = fix_k(np.tile(row, (20000, 1)), k, rng)
            # above K: each own bit kept with chance k/6; below K: each
            # unset bit gains with chance (k-6)/6
            freq = fixed[:, :6].mean(axis=0) if k < 6 else fixed[:, 6:].mean(axis=0)
            assert np.abs(freq - share).max() < 0.02
