import hashlib
import math
import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdlab import graphs
from zdlab.errors import TraceParseError
from zdlab.graphs import (Graph, TraceRecord, betweenness, degree_stats,
                          generate, ingest_trace, parse_trace)


def brute_betweenness(g):
    """All-pairs oracle: enumerate every shortest path explicitly."""
    scores = [0.0] * g.n

    def shortest_paths(s, t):
        paths, best = [], math.inf
        frontier = [[s]]
        while frontier:
            nxt = []
            for path in frontier:
                u = path[-1]
                if u == t:
                    if len(path) <= best:
                        best = len(path)
                        paths.append(path)
                    continue
                if len(path) >= best:
                    continue
                for v in g.neighbors(u):
                    if v not in path:
                        nxt.append(path + [v])
            frontier = nxt
        return [p for p in paths if len(p) == best]

    for s, t in combinations(range(g.n), 2):
        paths = shortest_paths(s, t)
        if not paths:
            continue
        for path in paths:
            for mid in path[1:-1]:
                scores[mid] += 1.0 / len(paths)
    return scores


def has_edge(g, u, v):
    return v in g.neighbors(u)


def random_graphs(count, max_n, seed):
    """Seeded G(n, p) graphs with n in 1..max_n and mean degree 0.5 to 12.

    The sparse ones (mean degree at most 1) are mostly disconnected, with
    isolated nodes. The denser ones also get the path 0-1-...-(n-1), so
    they are connected: for a pair in different components the oracle
    enumerates every simple path of a component, and on a dense component
    that takes minutes.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 1 + i % max_n
        mean_degree = rng.choice((0.5, 1.0, 3.0, 6.0, 12.0))
        p = mean_degree / max(1, n - 1)
        edges = [(u, v) for u, v in combinations(range(n), 2)
                 if rng.random() < p]
        if mean_degree > 1.0:
            edges += [(u, u + 1) for u in range(n - 1)]
        out.append(Graph(n, edges))
    return out


class TestGraph:
    def test_basic_operations(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert has_edge(g, 1, 0)
        assert not has_edge(g, 0, 2)
        assert g.degree(1) == 2
        assert g.edge_count == 3
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.edge_count == 1

    def test_rejects_self_loop_and_bad_ids(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(-1, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 2)])

    def test_immutable_sorted_csr(self):
        g = Graph(5, [(3, 0), (0, 1), (4, 0), (2, 1)])
        assert g.indptr.dtype == g.indices.dtype == np.int32
        assert g.indptr.tolist() == [0, 3, 5, 6, 7, 8]
        assert g.indices.tolist() == [1, 3, 4, 0, 2, 1, 0, 0]
        assert g.neighbors(0) == [1, 3, 4]
        assert g.degrees.tolist() == [3, 2, 1, 1, 1]
        with pytest.raises(AttributeError):
            g.n = 6
        with pytest.raises(ValueError):
            g.indices[0] = 2

    def test_isolated_nodes(self):
        g = Graph(4, [])
        assert g.edge_count == 0 and g.edges() == []
        assert [g.degree(u) for u in range(4)] == [0, 0, 0, 0]

    def test_round_trip(self, tmp_path):
        g = generate("mesh", 12, seed=3)
        path = tmp_path / "g.txt"
        g.write(path)
        h = Graph.read(path)
        assert h.n == g.n and h.edges() == g.edges()

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a header\n")
        with pytest.raises(ValueError):
            Graph.read(path)


# sha256 prefixes of ``generate(...).edges()`` as "u,v;u,v;..."; they pin
# the generators' random streams and repair order
GOLDEN_EDGES = {
    ("star", 2, 0, None): "83b97b859aa5f81b",
    ("star", 7, 0, None): "bed413cb1ea346e1",
    ("star", 80, 0, None): "ca36818a6fe5b019",
    ("ring", 3, 0, None): "098d554d0433295a",
    ("ring", 10, 0, None): "0b6302b80f4538de",
    ("ring", 80, 0, None): "bbee85cc00865eba",
    ("tree", 2, 0, None): "83b97b859aa5f81b",
    ("tree", 9, 0, None): "4df92164ec9bca21",
    ("tree", 80, 0, None): "7a13001eef0f46af",
    ("mesh", 12, 0, None): "6793d9fb7dd57bb3",
    ("mesh", 30, 5, None): "16c047647f5ef8c0",
    ("mesh", 80, 1, 0.49): "3014bb8559280337",
    ("mesh", 40, 3, 0.1): "0d1f96cabacd03b0",
    ("mesh", 20, 7, 0.3): "de40ddd38e54b2a3",
    ("mesh", 60, 2, 0.9): "4e8822fbd268285f",
    ("mesh", 5, 11, 0.05): "a27efea6fe4c3cc9",
}


class TestGenerate:
    @pytest.mark.parametrize("case", sorted(GOLDEN_EDGES, key=str))
    def test_golden_edges(self, case):
        text = ";".join(f"{u},{v}" for u, v in generate(*case).edges())
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == GOLDEN_EDGES[case]

    def test_star(self):
        g = generate("star", 6)
        assert g.degree(0) == 5
        assert all(g.degree(u) == 1 for u in range(1, 6))

    def test_ring(self):
        g = generate("ring", 6)
        assert all(g.degree(u) == 2 for u in range(6))
        assert has_edge(g, 5, 0)

    def test_tree(self):
        g = generate("tree", 7)
        assert g.edge_count == 6
        assert sorted(g.neighbors(0)) == [1, 2]
        assert sorted(g.neighbors(1)) == [0, 3, 4]

    def test_mesh_deterministic_and_repaired(self):
        g1 = generate("mesh", 30, seed=5)
        g2 = generate("mesh", 30, seed=5)
        g3 = generate("mesh", 30, seed=6)
        assert g1.edges() == g2.edges()
        assert g1.edges() != g3.edges()
        assert min(g1.degree(u) for u in range(30)) >= 2

    def test_mesh_density_scales_edges(self):
        sparse = generate("mesh", 40, seed=0, mesh_density=0.1)
        dense = generate("mesh", 40, seed=0, mesh_density=0.9)
        assert sparse.edge_count < dense.edge_count

    def test_validation(self):
        with pytest.raises(ValueError):
            generate("torus", 5)
        with pytest.raises(ValueError):
            generate("ring", 2)
        with pytest.raises(ValueError):
            generate("mesh", 10, mesh_density=0.0)


class TestTrace:
    def test_parse_formats(self):
        lines = [
            "# comment",
            "alice bob",
            "bob,carol,10.5",
            "alice carol 3 9",
            "",
        ]
        records = parse_trace(lines)
        assert records == [
            TraceRecord("alice", "bob"),
            TraceRecord("bob", "carol", 10.5),
            TraceRecord("alice", "carol", 3.0, 9.0),
        ]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(["a b", "too many fields on this line here"])
        assert excinfo.value.line_number == 2
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(["a b notanumber"])
        assert excinfo.value.line_number == 1
        with pytest.raises(TraceParseError):
            parse_trace(["a a"])

    def test_ingest_relabels_and_thresholds(self):
        records = parse_trace(["x y", "y z", "x y", "z x"])
        g = ingest_trace(records, min_contacts=2)
        # first-appearance ids: x=0, y=1, z=2; only x-y repeats
        assert g.n == 3
        assert g.edges() == [(0, 1)]
        g_all = ingest_trace(records, min_contacts=1)
        assert g_all.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_ingest_rejects_empty(self):
        with pytest.raises(ValueError):
            ingest_trace([], min_contacts=1)


class TestMetrics:
    def test_degree_stats(self):
        stats = degree_stats(generate("star", 5))
        assert stats.degrees == (4, 1, 1, 1, 1)
        assert stats.mean == pytest.approx(8 / 5)

    def test_star_hub_betweenness(self):
        for n in (4, 7, 10):
            scores = betweenness(generate("star", n))
            assert scores[0] == pytest.approx(math.comb(n - 1, 2))
            assert all(s == 0.0 for s in scores[1:])

    def test_path_graph(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert betweenness(g) == pytest.approx([0.0, 2.0, 2.0, 0.0])

    @pytest.mark.filterwarnings("error")
    def test_matches_brute_force_oracle(self, monkeypatch):
        cases = [generate("ring", 7), generate("tree", 9),
                 generate("mesh", 9, seed=2), generate("mesh", 10, seed=4),
                 Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
                 *random_graphs(80, 40, seed=11)]
        assert any(0 in g.degrees for g in cases)
        for g in cases:
            expected = brute_betweenness(g)
            # 50 entries per block splits every graph of more than one node
            # into several source blocks, the last one short
            for block in (graphs.BETWEENNESS_BLOCK, 50):
                monkeypatch.setattr(graphs, "BETWEENNESS_BLOCK", block)
                betweenness.cache_clear()
                assert betweenness(g) == pytest.approx(expected)

    def test_relabel_invariance(self):
        g = generate("mesh", 8, seed=9)
        base = betweenness(g)
        perm = [3, 1, 4, 0, 6, 2, 7, 5]
        h = Graph(8, [(perm[u], perm[v]) for u, v in g.edges()])
        relabeled = betweenness(h)
        for u in range(8):
            assert relabeled[perm[u]] == pytest.approx(base[u])


# lines mixing the graph and trace grammars with junk; free text is kept
# short so that no drawn header asks for a huge graph
TOKENS = st.sampled_from(["V", "#", "#V", "0", "1", "2", "7", "-1", "x",
                          "3.5", "1e3", "nan", ",", "a", "b"])
LINES = st.one_of(st.lists(TOKENS, max_size=5).map(" ".join),
                  st.integers(-3, 40).map(lambda n: f"V {n}"),
                  st.text(max_size=6))
LABELS = st.text("abcxyz019_-.", min_size=1, max_size=4)


def _content_line(line):
    parts = line.split()
    return bool(parts) and not parts[0].startswith("#")


class TestFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 25), data=st.data())
    def test_read_round_trip(self, n, data, tmp_path_factory):
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = data.draw(st.lists(pairs.filter(lambda e: e[0] != e[1]),
                                   max_size=40))
        g = Graph(n, edges)
        path = tmp_path_factory.getbasetemp() / "round_trip.txt"
        g.write(path)
        h = Graph.read(path)
        assert h.n == g.n and h.edges() == g.edges()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(lines=st.lists(LINES, max_size=8))
    def test_read_arbitrary_text(self, lines, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "arbitrary.txt"
        path.write_text("\n".join(lines))
        with open(path) as fh:  # the lines as the reader sees them
            read_lines = fh.readlines()
        try:
            g = Graph.read(path)
        except ValueError as exc:
            message = str(exc)
            if not any(map(_content_line, read_lines)):
                assert message == f"{path}: empty graph file"
                return
            head, lineno, _ = message.split(":", 2)
            assert head == str(path)
            assert _content_line(read_lines[int(lineno) - 1])
        else:
            assert isinstance(g, Graph)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=st.lists(st.tuples(
        LABELS, LABELS,
        st.sampled_from([(), (1.5,), (0.0, 2.25), (-3e-7, 1e9)]),
        st.sampled_from([" ", ",", "\t", " , "])), max_size=10))
    def test_trace_round_trip(self, rows):
        rows = [row for row in rows if row[0] != row[1]]
        lines = [sep.join([a, b, *map(repr, times)])
                 for a, b, times, sep in rows]
        assert parse_trace(lines) == [TraceRecord(a, b, *times)
                                      for a, b, times, _ in rows]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(lines=st.lists(LINES, max_size=8))
    def test_trace_arbitrary_text(self, lines):
        try:
            records = parse_trace(lines)
        except TraceParseError as exc:
            assert str(exc).startswith(f"line {exc.line_number}: ")
            assert _content_line(lines[exc.line_number - 1])
        else:
            assert all(isinstance(r, TraceRecord) for r in records)
