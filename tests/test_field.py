import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zdlab.field
import zdlab.optimize
from zdlab.field import (Deployment, adjacency_matrix, coop_probability,
                         cooperator_ratio, evaluate, node_delta,
                         objective_from_mask)
from zdlab.game import PayoffScale
from zdlab.graphs import (TOPOLOGIES, Graph, TraceRecord, generate,
                          ingest_trace)

SCALE = PayoffScale(2, 1, 3)  # r(n) = 2n + 3
SCALE_K2 = PayoffScale(2, 2, 3)


def reference_q(g, zd_nodes, scale):
    """Scalar per-node reference for :func:`evaluate` and the kernel: each
    regular node's cooperation probability, keyed by node in ascending
    order; the objective is the sum of the values in that order."""
    q = {}
    for u in range(g.n):
        if u in zd_nodes:
            continue
        neigh = g.neighbors(u)
        n_zd = sum(v in zd_nodes for v in neigh)
        q[u] = coop_probability(node_delta(n_zd, len(neigh) > n_zd, scale))
    return q


def reference_tables(g, scale):
    """The kernel's tables ``(adj_w, base, q)`` built step by step, as
    :func:`zdlab.field._placement_tables` documents them."""
    degrees = np.diff(g.indptr)
    width = int(degrees.max()) + 1
    adj_w = adjacency_matrix(g).astype(np.float32)
    np.fill_diagonal(adj_w, width)
    base = (2 * width * np.arange(g.n)).astype(np.intp)
    m = np.arange(width)
    has_regular = (m < degrees[:, None]).astype(np.intp)
    q = np.zeros((g.n, 2 * width))
    q[:, :width] = zdlab.field._coop_table(scale, width - 1)[1][has_regular, m]
    return adj_w, base, q.ravel()


class TestNodeDelta:
    def test_reference_points(self):
        # regular neighbors only: defection premium of one unit
        assert node_delta(0, True, SCALE) == pytest.approx(-1.0)
        # one ZD neighbor plus regulars: menu gap cancels the premium
        assert node_delta(1, True, SCALE) == pytest.approx(0.0)
        # one ZD neighbor, nothing else
        assert node_delta(1, False, SCALE) == pytest.approx(1.0)
        # two ZD neighbors plus regulars: r(3)=9 gives 9/3 - 1 + 1
        assert node_delta(2, True, SCALE) == pytest.approx(3.0)
        # no games at all
        assert node_delta(0, False, SCALE) == pytest.approx(0.0)

    def test_monotone_in_zd_neighbors(self):
        deltas = [node_delta(z, True, SCALE) for z in range(8)]
        assert deltas == sorted(deltas)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            node_delta(-1, True, SCALE)

    def test_coop_probability(self):
        assert coop_probability(0.0) == 0.5
        assert coop_probability(-1.0) == pytest.approx(1 / (1 + math.e))
        assert coop_probability(1.0) == pytest.approx(math.e / (1 + math.e))
        assert coop_probability(3.0) == pytest.approx(0.95257, abs=1e-5)


class TestEvaluate:
    def test_star_hub(self):
        dep = Deployment(generate("star", 80), frozenset({0}), SCALE)
        result = evaluate(dep)
        leaf_q = math.e / (1 + math.e)
        assert result.objective == pytest.approx(79 * leaf_q)
        assert result.mean_regular == pytest.approx(leaf_q)
        assert result.zd.tolist() == [True] + [False] * 79
        assert result.zd_neighbors.tolist() == [0] + [1] * 79
        assert result.delta[1:].tolist() == [1.0] * 79
        assert math.isnan(result.delta[0]) and result.q[0] == 0.0

    def test_ring_single_zd(self):
        dep = Deployment(generate("ring", 6), frozenset({0}), SCALE)
        result = evaluate(dep)
        assert result.q[1] == pytest.approx(0.5)
        assert result.q[5] == pytest.approx(0.5)
        for far in (2, 3, 4):
            assert result.q[far] == pytest.approx(1 / (1 + math.e))
        assert result.objective == pytest.approx(1.0 + 3 / (1 + math.e))

    def test_arrays_read_only(self):
        result = evaluate(Deployment(generate("ring", 6), {0}, SCALE))
        for values in (result.zd, result.zd_neighbors, result.delta, result.q):
            with pytest.raises(ValueError):
                values[1] = 0

    def test_zd_nodes_excluded_from_objective(self):
        g = generate("ring", 6)
        empty = evaluate(Deployment(g, frozenset(), SCALE))
        assert empty.objective == pytest.approx(6 / (1 + math.e))
        full = evaluate(Deployment(g, frozenset(range(6)), SCALE))
        assert full.objective == 0.0
        assert math.isnan(full.mean_regular)

    def test_large_sparse_graph(self):
        # a V x V float64 matrix of this graph would need 320 GB
        g = generate("ring", 200_000)
        zd = frozenset(range(0, g.n, 7))
        tracemalloc.start()
        try:
            result = evaluate(Deployment(g, zd, SCALE))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        q = reference_q(g, zd, SCALE)
        # summed one by one, these 171,428 terms drift 2e-12 from the
        # correctly rounded sum
        exact = math.fsum(q.values())
        assert result.objective == pytest.approx(exact, rel=1e-11)
        assert result.mean_regular == pytest.approx(exact / len(q), rel=1e-11)

    def test_deployment_validation(self):
        with pytest.raises(ValueError):
            Deployment(generate("ring", 6), frozenset({6}), SCALE)

    def test_overflowing_scale_refused(self):
        # r(2) = 8e307 is finite and r(3) is not: a graph of degree 1 plays
        # only 2-player games, a ring 3-player ones
        scale = PayoffScale(2e307, 2, 3.0)
        pair = Graph(2, [(0, 1)])
        assert evaluate(Deployment(pair, {0}, scale)).objective == (
            coop_probability(1.0))
        ring = generate("ring", 6)
        message = (r"payoff scale PayoffScale\(a=2e\+307, k=2, b=3.0\) "
                   "overflows float64 in a 3-player game")
        for call in (lambda: evaluate(Deployment(ring, {0}, scale)),
                     lambda: cooperator_ratio(Deployment(ring, {0}, scale)),
                     lambda: objective_from_mask(
                         ring, np.eye(6, dtype=bool), scale)):
            with pytest.raises(ValueError, match=message):
                call()


class TestRatios:
    def test_expected_counts_zd_as_cooperators(self):
        dep = Deployment(generate("star", 5), frozenset({0}), SCALE)
        leaf_q = math.e / (1 + math.e)
        assert cooperator_ratio(dep) == pytest.approx((1 + 4 * leaf_q) / 5)

    def test_monte_carlo_reproducible_and_converges(self):
        dep = Deployment(generate("mesh", 20, seed=1), frozenset({0, 3}), SCALE)
        mc1 = cooperator_ratio(dep, "monte_carlo", rounds=500, seed=42)
        mc2 = cooperator_ratio(dep, "monte_carlo", rounds=500, seed=42)
        assert mc1 == mc2
        expected = cooperator_ratio(dep)
        assert abs(mc1 - expected) < 0.05

    @pytest.mark.parametrize("seed", range(6))
    def test_monte_carlo_draws_per_node_stream(self, seed):
        # one binomial per regular node in ascending order, as a loop of
        # scalar draws from the same generator would take them
        g = generate("mesh", 30, seed=seed)
        zd = frozenset(range(seed, 30, 5))
        rng = np.random.default_rng(seed)
        coops = len(zd) * 700 + sum(int(rng.binomial(700, p)) for p in
                                    reference_q(g, zd, SCALE).values())
        dep = Deployment(g, zd, SCALE)
        assert cooperator_ratio(dep, "monte_carlo", 700, seed) == (
            coops / (g.n * 700))

    def test_bad_arguments(self, monkeypatch):
        # rejected before anything is evaluated
        def fail(dep):
            raise AssertionError("evaluated")

        monkeypatch.setattr(zdlab.field, "evaluate", fail)
        dep = Deployment(generate("ring", 4), frozenset({0}), SCALE)
        with pytest.raises(ValueError):
            cooperator_ratio(dep, "bogus")
        with pytest.raises(ValueError):
            cooperator_ratio(dep, "monte_carlo", rounds=0)


def _population(g, rows):
    masks = np.zeros((len(rows), g.n), dtype=bool)
    for mask, nodes in zip(masks, rows):
        mask[list(nodes)] = True
    return masks


@st.composite
def graphs_with_populations(draw):
    """A graph of any topology, or one with isolated nodes, and 1-8
    K-subsets of its nodes with 1 <= K < V."""
    kind = draw(st.sampled_from(TOPOLOGIES + ("gaps", "trace")), "kind")
    if kind == "gaps":
        n = draw(st.integers(2, 16), "n")
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]),
                              max_size=2 * n), "edges")
        g = Graph(n, edges)
    elif kind == "trace":
        labels = st.sampled_from("abcdefghij")
        contacts = draw(st.lists(st.tuples(labels, labels).filter(
            lambda c: c[0] != c[1]), min_size=1, max_size=30), "contacts")
        g = ingest_trace([TraceRecord(a, b) for a, b in contacts],
                         min_contacts=2)
    else:
        n = draw(st.integers(3, 30), "n")
        g = generate(kind, n, seed=draw(st.integers(0, 50), "seed"),
                     mesh_density=draw(st.sampled_from([None, 0.1, 0.5])))
    k = draw(st.integers(1, g.n - 1), "K")
    rows = draw(st.lists(st.permutations(range(g.n)).map(lambda p: p[:k]),
                         min_size=1, max_size=8), "rows")
    return g, rows


class TestMaskObjective:
    def test_matches_evaluate_on_random_deployments(self):
        rng = np.random.default_rng(8)
        for seed in range(4):
            g = generate("mesh", 15, seed=seed)
            rows = [rng.choice(15, size=int(rng.integers(1, 8)), replace=False)
                    for _ in range(10)]
            scores = objective_from_mask(g, _population(g, rows), SCALE)
            for score, nodes in zip(scores, rows):
                dep = Deployment(g, frozenset(nodes.tolist()), SCALE)
                assert score == evaluate(dep).objective

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=graphs_with_populations())
    def test_population_kernel_matches_evaluate(self, case):
        # the kernel and evaluate sum the same values in the same order;
        # the scalar reference sums them one by one
        g, rows = case
        scores = objective_from_mask(g, _population(g, rows), SCALE)
        assert scores.shape == (len(rows),)
        for score, nodes in zip(scores, rows):
            zd = frozenset(nodes)
            result = evaluate(Deployment(g, zd, SCALE))
            assert score == result.objective
            q = reference_q(g, zd, SCALE)
            assert result.q[list(q)].tolist() == list(q.values())
            assert abs(score - sum(q.values())) <= 1e-9

    @pytest.mark.parametrize("scale", [SCALE, SCALE_K2])
    @pytest.mark.parametrize("graph", [("mesh", 20, 0), ("mesh", 80, 1),
                                       ("ring", 12, 0), ("star", 15, 0),
                                       ("tree", 30, 0), "isolated"])
    def test_tables_match_reference(self, graph, scale):
        if graph == "isolated":
            g = Graph(12, generate("mesh", 9, seed=3).edges())
        else:
            g = generate(*graph)
        tables = zdlab.field._placement_tables(g, scale)
        for got, want in zip(tables, reference_tables(g, scale), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert (got == want).all()
            assert not got.flags.writeable

    @staticmethod
    def _star_rows(g, rng):
        """K-sets on star-3000: random ones, and ones holding the hub and
        high leaves, whose index base[u] + 1 is odd and past 2^24."""
        rows = [rng.choice(g.n, size=k, replace=False) for k in (1, 3, 8)]
        rows += [np.concatenate(([0], rng.choice(np.arange(2797, g.n), size=k,
                                                 replace=False)))
                 for k in (0, 1, 4, 9)]
        return rows + [np.arange(g.n - 5, g.n)]

    def test_kernel_exact_past_float32_integers(self):
        # W = 3000 and 2W(V - 1) = 17,994,000 > 2^24: float32 holds the
        # product's counts but not every base[u] + count, so they are
        # added as integers
        g = generate("star", 3000)
        base = zdlab.field._placement_tables(g, SCALE)[1]
        assert base[-1] > 2**24
        rows = self._star_rows(g, np.random.default_rng(4))
        scores = objective_from_mask(g, _population(g, rows), SCALE)
        for score, nodes in zip(scores, rows):
            dep = Deployment(g, frozenset(nodes.tolist()), SCALE)
            assert score == evaluate(dep).objective

    def test_extension_scores_exact_past_float32_integers(self):
        # the float64 reference: counts, W on the prefix's own nodes and the
        # offsets 2Wu summed in float64, exact below 2^53
        g = generate("star", 3000)
        adj = adjacency_matrix(g)
        masks = _population(g, self._star_rows(g, np.random.default_rng(5))).T
        width = int(g.degrees.max()) + 1
        idx = (adj @ masks + width * masks
               + 2.0 * width * np.arange(g.n)[:, None]).astype(np.intp)
        q = zdlab.field._placement_tables(g, SCALE)[2]
        q0 = q.take(idx)
        d = q.take(idx + 1, mode="clip") - q0
        d[masks] = 0.0
        want = (q0.sum(axis=0) - q0) + adj @ d
        got = zdlab.optimize._extension_scores(g, adj, masks, SCALE)
        assert (got == want).all()

    def test_adjacency_matrix(self):
        adj = adjacency_matrix(Graph(3, [(0, 1)]))
        assert adj.tolist() == [[False, True, False],
                                [True, False, False],
                                [False, False, False]]
