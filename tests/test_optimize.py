import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdlab import graphs, optimize
from zdlab.field import Deployment, evaluate, objective_from_mask
from zdlab.game import PayoffScale
from zdlab.graphs import Graph, adjacency_matrix, generate
from zdlab.optimize import (ExhaustiveCapError, GAConfig, fix_k,
                            lex_combinations, optimize_exhaustive,
                            optimize_ga)

SCALE = PayoffScale(2, 1, 3)
SCALE_K2 = PayoffScale(2, 2, 3)
FAST = GAConfig(population_size=40, generations=40, seed=0)


def approximation_error(n):
    """Rounding bound on one first-order extension score against the
    kernel's score on a V = n graph: each is a sum of at most m = 2n + 2
    terms in [-1, 1], so each lies within m * gamma_m of the real value
    (Higham, sec. 4.2), and the two within twice that."""
    m = 2 * n + 2
    gamma = m * 2.0 ** -53 / (1.0 - m * 2.0 ** -53)
    return 2 * m * gamma


@st.composite
def small_graphs(draw):
    """Graphs on 2-12 nodes with random edges, isolated nodes allowed."""
    n = draw(st.integers(2, 12), "n")
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]),
                          max_size=3 * n), "edges")
    return Graph(n, edges)


def search_work(n, k):
    """Work of an exhaustive search on V = n nodes: V * C(V-1, K-1) mask
    entries, each weighted by 1 + (V / 256)^2."""
    return n * math.comb(n - 1, k - 1) * (2**16 + n * n) // 2**16


def sequential_exhaustive(g, k, score=None, scale=SCALE, picks=None):
    """Reference search: every subset in lexicographic order, replacing the
    best only when beaten by more than 1e-12 relative; each subset that
    replaces the best is appended to ``picks``."""
    score = score or (lambda sub: evaluate(Deployment(g, sub, scale)).objective)
    best_set, best = None, -math.inf
    for sub in combinations(range(g.n), k):
        value = score(frozenset(sub))
        if best_set is None or value > best + 1e-12 * max(1.0, abs(best)):
            best_set, best = frozenset(sub), value
            if picks is not None:
                picks.append(best_set)
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

    def test_cap(self, monkeypatch):
        # the cap bounds work, not subsets: mesh-20 K=3 has C(20, 3) =
        # 1,140 subsets, 20 * C(19, 2) = 3,420 mask entries and 3,440 units
        g = generate("mesh", 20, seed=0)
        assert search_work(20, 3) == 3440
        expected = optimize_exhaustive(g, 3, SCALE)
        monkeypatch.setattr(optimize, "EXHAUSTIVE_CAP", 3440)
        assert optimize_exhaustive(g, 3, SCALE) == expected
        monkeypatch.setattr(optimize, "EXHAUSTIVE_CAP", 3439)
        with pytest.raises(ExhaustiveCapError, match=(
                r"^search work 3440 \(V = 20, K = 3\) exceeds the cap of "
                r"3439$")):
            optimize_exhaustive(g, 3, SCALE)

    def test_cap_admits_mesh80_k5(self):
        # by value: mesh-80 K=5 (120,200,080 mask entries, about 4 s) is
        # admitted and K=6 is not; a K=2 search is refused from V = 1,713,
        # where each block reads a 1,713 x 1,713 adjacency
        cap = optimize.EXHAUSTIVE_CAP
        assert search_work(80, 5) == 131_938_369 <= cap
        assert search_work(80, 6) > cap
        assert search_work(1712, 2) <= cap < search_work(1713, 2)

    def test_cap_raises_before_enumeration(self, monkeypatch):
        def enumerate_nothing(*args):
            raise AssertionError("subsets enumerated past the cap")

        monkeypatch.setattr(optimize, "lex_combinations", enumerate_nothing)
        monkeypatch.setattr(optimize, "_plan_blocks", enumerate_nothing)
        monkeypatch.setattr(optimize, "adjacency_matrix", enumerate_nothing)
        # C(80, 40) is about 1e23, beyond int64
        for kind, n, k in (("mesh", 80, 6), ("mesh", 60, 30),
                           ("mesh", 80, 40), ("ring", 1713, 2)):
            tracemalloc.start()
            try:
                with pytest.raises(ExhaustiveCapError):
                    optimize_exhaustive(generate(kind, n, seed=0), k, SCALE)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (kind, n, k)

    def test_bad_k(self):
        for k in (0, 5, 6):
            with pytest.raises(ValueError):
                optimize_exhaustive(generate("ring", 5), k, SCALE)

    @pytest.mark.parametrize("rows", [1, 7, 5000])
    def test_lex_combinations_match_itertools(self, rows):
        # k = 0 is the empty prefix of every K = 1 search
        for n in range(1, 13):
            for k in range(n + 1):
                blocks = list(lex_combinations(n, k, rows))
                assert all(len(b) == rows for b in blocks[:-1])
                got = np.concatenate(blocks)
                assert got.dtype == np.intp
                assert got.tolist() == [list(c) for c in
                                        combinations(range(n), k)]

    # unclamped, C(69, 34) and C(79, 39) overflow int64
    @pytest.mark.parametrize("n,k", [(70, 68), (80, 1), (80, 2), (80, 78),
                                     (80, 79)])
    def test_matches_sequential_reference_near_v(self, n, k):
        g = generate("mesh", n, seed=2)
        dep, score = optimize_exhaustive(g, k, SCALE)
        best_set, best = sequential_exhaustive(g, k)
        assert dep.zd_nodes == best_set
        assert score == pytest.approx(best, rel=1e-12)

    # block sizes in mask elements: one subset, a few subsets, the default;
    # candidates are re-scored in chunks of as many rows as a block has
    @pytest.mark.parametrize("block", [1, 40, 8192])
    @pytest.mark.parametrize("graph", [("ring", 8, 0), ("ring", 11, 0),
                                       ("star", 9, 0), ("star", 12, 0),
                                       ("mesh", 10, 1), ("mesh", 12, 4)])
    def test_matches_sequential_reference(self, monkeypatch, graph, block):
        g = generate(*graph)
        monkeypatch.setattr(optimize, "EXHAUSTIVE_BLOCK", block, raising=False)
        monkeypatch.setattr(optimize, "RESCORE_ROWS", max(1, block // g.n))
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
        # the search must survive approximations that are off by the
        # rounding bound, pushed against it: each subset the sequential
        # rule picks down, every other subset up
        error = approximation_error(g.n)
        shift = {}

        def fake_objective(adj, masks, scale):
            rows = np.atleast_2d(masks)
            values = np.array([table[frozenset(np.flatnonzero(r).tolist())]
                               for r in rows])
            return values if masks.ndim == 2 else float(values[0])

        def fake_extension_scores(g, adj, masks, scale):
            # entries the search must not read are infinite
            out = np.full(masks.shape, np.inf)
            for p, column in enumerate(masks.T):
                prefix = np.flatnonzero(column).tolist()
                for v in range(max(prefix, default=-1) + 1, g.n):
                    sub = frozenset(prefix + [v])
                    out[v, p] = table[sub] + shift[sub]
            return out

        monkeypatch.setattr(optimize, "objective_from_mask", fake_objective)
        monkeypatch.setattr(optimize, "_extension_scores",
                            fake_extension_scores)
        monkeypatch.setattr(optimize, "EXHAUSTIVE_BLOCK", block, raising=False)
        monkeypatch.setattr(optimize, "RESCORE_ROWS", max(1, block // g.n))
        # bumps in units of the 1e-12 relative tie margin; the first chain
        # keeps the second subset although later ones score higher
        rng = np.random.default_rng(block)
        chains = [[0.0, 1.5, 2.2, 2.4, 0.5, 3.3, 3.6, 3.0] + [0.0] * 7]
        chains += [rng.choice([0.0, 0.5, 1.0, 1.5, 2.2, 2.4, 3.3, 3.6], 15)
                   for _ in range(200)]
        # a subset just past the margin behind one just inside it, closer
        # than twice the error: its approximation falls below the other's
        chains += [[0.0, 0.999, 1.005] + [0.0] * 12,
                   [0.0] * 9 + [0.999, 0.5, 1.005, 0.0, 1.004, 0.0],
                   [0.0, 0.999, 0.0, 0.0, 0.0, 1.005, 2.004, 2.01] + [1.0] * 7]
        for i, bumps in enumerate(chains):
            table.clear()
            table.update({frozenset(sub): 7.0 * (1.0 + b * 1e-12)
                          for sub, b in zip(order, bumps)})
            picked = []
            best_set, best = sequential_exhaustive(g, 2, table.__getitem__,
                                                   picks=picked)
            shift.update({sub: error for sub in table})
            shift.update({sub: -error for sub in picked})
            dep, score = optimize_exhaustive(g, 2, SCALE)
            assert dep.zd_nodes == best_set and score == best
            if i == 0:
                assert best_set == frozenset(order[5])

    def test_rescores_in_fixed_chunks(self, monkeypatch):
        # a tree's many alike leaves leave 1,525 near-tied candidates to
        # re-score: 11 kernel calls of up to RESCORE_ROWS rows, where chunks
        # of EXHAUSTIVE_BLOCK // V = 27 rows took 59
        g = generate("tree", 300, seed=1)
        rows = []

        def spy(g, masks, scale):
            rows.append(len(masks))
            return objective_from_mask(g, masks, scale)

        monkeypatch.setattr(optimize, "objective_from_mask", spy)
        dep, score = optimize_exhaustive(g, 2, SCALE)
        assert len(rows) == 11 and max(rows) == optimize.RESCORE_ROWS
        best_set, best = sequential_exhaustive(g, 2)
        assert dep.zd_nodes == best_set
        assert score == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("graph", ["complete", "star", "mesh"])
    def test_approximations_within_bound(self, graph):
        if graph == "complete":
            g = Graph(40, combinations(range(40), 2))
        else:
            g = generate(graph, 80, seed=1)
        slack = optimize._record_slack(g.n)
        assert slack >= 2 * approximation_error(g.n)
        worst = 0.0
        for k in (1, 2, 3):
            for block in lex_combinations(g.n - 1, k - 1, 64):
                masks = np.zeros((len(block), g.n), dtype=bool)
                np.put_along_axis(masks, block, True, axis=1)
                approx = optimize._extension_scores(
                    g, adjacency_matrix(g), masks.T, SCALE).T
                p, v = np.nonzero(~masks)
                subsets = masks[p]
                subsets[np.arange(len(p)), v] = True
                exact = objective_from_mask(g, subsets, SCALE)
                worst = max(worst, np.abs(approx[p, v] - exact).max())
        assert worst <= slack / 4

    @pytest.mark.parametrize("graph,k", [(("mesh", 80, 1), 4),
                                         (("mesh", 23, 5), 11)])
    def test_memory_stays_bounded(self, graph, k):
        # C(80, 4) = 1,581,580 and C(23, 11) = 1,352,078 subsets
        g = generate(*graph)
        tracemalloc.start()
        try:
            dep, score = optimize_exhaustive(g, k, SCALE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert len(dep.zd_nodes) == k
        assert score == evaluate(dep).objective

    def test_ga_holds_one_adjacency(self):
        # the kernel's tables hold the only V x V array a GA run builds
        g = generate("ring", 2000)
        cfg = GAConfig(population_size=4, generations=1)
        tracemalloc.start()
        try:
            optimize_ga(g, 2, PayoffScale(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 4 * g.n ** 2

    def test_plan_blocks_hold_prefixes_and_extensions(self):
        for n in range(2, 10):
            for k in range(1, n):
                prefixes = [list(c) for c in combinations(range(n - 1), k - 1)]
                for rows in (1, 3, 409):
                    plan = list(optimize._plan_blocks(n, k, rows))
                    for blocks in (plan, optimize._cached_plan(n, k, rows)):
                        masks = np.concatenate([m for m, _ in blocks], axis=1)
                        valid = np.concatenate([v for _, v in blocks], axis=1)
                        assert [np.flatnonzero(c).tolist() for c in masks.T] == prefixes
                        assert valid.tolist() == [
                            [v > max(t, default=-1) for t in prefixes]
                            for v in range(n)]
                        for pair in blocks:
                            assert all(a.shape == (n, pair[0].shape[1])
                                       and not a.flags.writeable for a in pair)

    # C(79, 2) prefixes of mesh-80 K=3 make 246,480 mask entries, within
    # 32 x EXHAUSTIVE_BLOCK; mesh-80 K=4 (6.3 M) and mesh-23 K=11 (14.9 M)
    # stream
    @pytest.mark.parametrize("graph,k,cached", [(("mesh", 80, 1), 3, 1),
                                                (("mesh", 80, 1), 4, 0),
                                                (("mesh", 23, 5), 11, 0)])
    def test_plan_cached_only_when_small(self, graph, k, cached):
        optimize._cached_plan.cache_clear()
        optimize_exhaustive(generate(*graph), k, SCALE)
        assert optimize._cached_plan.cache_info().currsize == cached

    def test_plan_per_block_size(self, monkeypatch):
        g = generate("ring", 8)
        optimize._cached_plan.cache_clear()
        expected = optimize_exhaustive(g, 3, SCALE)
        # 8 x C(7, 2) = 168 mask entries: a plan of its own at 40-entry
        # blocks (5 rows), found again at the second search, streamed at
        # one-entry blocks (a bound of 32), and the default's plan found again
        for block in (40, 40, 1, 8192):
            monkeypatch.setattr(optimize, "EXHAUSTIVE_BLOCK", block)
            dep, score = optimize_exhaustive(g, 3, SCALE)
            assert (dep.zd_nodes, score) == (expected[0].zd_nodes, expected[1])
            assert optimize._cached_plan.cache_info().currsize == 2
        assert optimize._cached_plan.cache_info().hits == 2

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=small_graphs(), scale=st.sampled_from([SCALE, SCALE_K2]))
    def test_matches_sequential_reference_on_random_graphs(self, case, scale):
        for k in range(1, case.n):
            dep, score = optimize_exhaustive(case, k, scale)
            best_set, _ = sequential_exhaustive(case, k, scale=scale)
            assert dep.zd_nodes == best_set
            assert score == evaluate(dep).objective


# sha256 prefixes of GA output as "sorted set|repr(objective)|history" per
# (topology, V, graph seed, K, population, generations), GA seed 7, and of
# exhaustive output as "sorted set|repr(objective)" per (topology, V, graph
# seed, K, scale); they pin the GA's random stream and the kernel's scores
# bit for bit. "isolated" is mesh-9 with three isolated nodes added.
GOLDEN_GA = {
    ("mesh", 80, 1, 1, 50, 40): "70fdefd926d95862",
    ("mesh", 80, 1, 5, 100, 300): "f0d135d4a2341113",
    ("mesh", 40, 3, 10, 50, 40): "ec0a41495b3f408d",
    ("ring", 80, 0, 1, 100, 300): "645f8f6b6830c08e",
    ("ring", 40, 0, 5, 50, 40): "53ed7de9804036a2",
    ("ring", 80, 0, 10, 50, 40): "640e839d7e4b7ed9",
    ("tree", 80, 0, 1, 50, 40): "b2503ec83a9ea01a",
    ("tree", 40, 0, 5, 50, 40): "790ff459be6a14d5",
    ("tree", 80, 0, 10, 100, 300): "0e9d6458403dfbf7",
    ("star", 40, 0, 1, 50, 40): "f5b38ed0e6316238",
    ("star", 80, 0, 5, 50, 40): "ae6ce9e1612646a2",
    ("star", 80, 0, 10, 100, 300): "eb1fa289bb91835b",
}
GOLDEN_EXHAUSTIVE = {
    ("mesh", 20, 0, 2, SCALE): "6c8cdfc91ae62986",
    ("mesh", 20, 1, 3, SCALE): "dba11f43d4c88390",
    ("mesh", 20, 2, 4, SCALE): "4baacb4137f08a42",
    ("ring", 20, 0, 3, SCALE): "9080a6f9956ee0a5",
    ("star", 20, 0, 2, SCALE): "5635288541564324",
    ("tree", 20, 0, 4, SCALE): "3baf96a97ed30611",
    ("mesh", 20, 3, 4, SCALE_K2): "7707a09db3993e05",
    ("mesh", 80, 1, 3, SCALE): "4e1f725099bbff46",
    ("isolated", 12, 3, 3, SCALE): "b6c2bc2830f10b3e",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestGolden:
    @pytest.mark.parametrize("case", list(GOLDEN_GA))
    def test_ga_output(self, case):
        topology, n, graph_seed, k, population, generations = case
        dep, objective, history = optimize_ga(
            generate(topology, n, seed=graph_seed), k, SCALE,
            GAConfig(population_size=population, generations=generations,
                     seed=7))
        text = (f"{sorted(dep.zd_nodes)}|{objective!r}|"
                f"{','.join(map(repr, history))}")
        assert _digest(text) == GOLDEN_GA[case]

    @pytest.mark.parametrize("case", list(GOLDEN_EXHAUSTIVE))
    def test_exhaustive_output(self, case):
        topology, n, graph_seed, k, scale = case
        if topology == "isolated":
            g = Graph(n, generate("mesh", 9, seed=graph_seed).edges())
        else:
            g = generate(topology, n, seed=graph_seed)
        # a search that builds its plan, then one that finds it cached
        optimize._cached_plan.cache_clear()
        for _ in range(2):
            dep, objective = optimize_exhaustive(g, k, scale)
            text = f"{sorted(dep.zd_nodes)}|{objective!r}"
            assert _digest(text) == GOLDEN_EXHAUSTIVE[case]


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

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_exhaustive_on_sweep_graph(self, k):
        # the sweep's setting: the seed-1 mesh-80 graph and the default GA;
        # seeds 0-9 hit the optimum in 10 of 10 runs at both K
        g = generate("mesh", 80, 1, 0.49)
        _, exact = optimize_exhaustive(g, k, SCALE)
        for seed in range(5):
            _, found, _ = optimize_ga(g, k, SCALE, GAConfig(seed=seed))
            assert found == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_computes_no_betweenness(self, monkeypatch):
        def refuse(adj, sources):
            raise AssertionError("placement computed betweenness")

        monkeypatch.setattr(graphs, "_dependencies", refuse)
        dep, _, _ = optimize_ga(generate("mesh", 30, seed=8), 3, SCALE, FAST)
        assert len(dep.zd_nodes) == 3

    def test_population_cap_refused_before_any_draw(self, monkeypatch):
        # by value alone: mesh-80 admits GA_CAP // 80 = 52,428 individuals
        g = generate("mesh", 80, seed=1)
        size = optimize.GA_CAP // 80
        GAConfig(population_size=size).check_size(g)

        def no_rng(*args):
            raise AssertionError("random generator built past the cap")

        monkeypatch.setattr(optimize.np.random, "default_rng", no_rng)
        for population in (size + 1, 10**8):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=(
                        f"^a population of {population} on 80 nodes holds "
                        f"{80 * population} entries, over the cap of "
                        f"{optimize.GA_CAP}$")):
                    optimize_ga(g, 5, SCALE,
                                GAConfig(population_size=population))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_bad_k(self):
        with pytest.raises(ValueError):
            optimize_ga(generate("ring", 5), 5, SCALE, FAST)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=1)
        for generations in (0, -5):
            with pytest.raises(ValueError):
                GAConfig(generations=generations)
        # the GA's operators are fixed, not settable
        with pytest.raises(TypeError):
            GAConfig(crossover_rate=0.9)
        with pytest.raises(ValueError, match="seed"):
            GAConfig(seed=-1)


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

    def test_ties_match_argpartition_rule(self):
        class GridRng:
            """Keys on a 1/8 grid, so the k-th smallest key is often tied."""

            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def random(self, shape):
                return self.rng.integers(0, 8, size=shape) / 8

        def argpartition_fix_k(masks, k, rng):
            keys = rng.random(masks.shape) + ~masks
            keep = np.argpartition(keys, k - 1, axis=1)[:, :k]
            out = np.zeros(masks.shape, dtype=bool)
            np.put_along_axis(out, keep, True, axis=1)
            return out

        rng = np.random.default_rng(5)
        masks = rng.random((500, 24)) < rng.random((500, 1))
        for k in (1, 4, 12, 23):
            keys = GridRng(k).random(masks.shape) + ~masks
            kth = np.partition(keys, k - 1, axis=1)[:, k - 1:k]
            assert ((keys <= kth).sum(axis=1) != k).any()  # ties do occur
            fixed = fix_k(masks, k, GridRng(k))
            assert (fixed.sum(axis=1) == k).all()
            assert (fixed == argpartition_fix_k(masks, k, GridRng(k))).all()
