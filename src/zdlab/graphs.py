"""Undirected graphs: generators, contact-trace ingestion, and metrics."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import TraceParseError

TOPOLOGIES = ("star", "ring", "tree", "mesh")
DEFAULT_MESH_DENSITY = 0.49
MAX_GENERATED_EDGES = 1_000_000
# node pairs a mesh draws one number for (about 2.5 s at 73 ns a pair);
# the default density reaches MAX_GENERATED_EDGES well before it
MAX_MESH_PAIRS = 1 << 25
# array entries per betweenness source block (8 MB of float64)
BETWEENNESS_BLOCK = 1 << 20


class Graph:
    """Immutable simple undirected graph on nodes 0..n-1.

    Adjacency is stored in CSR form: the neighbours of ``u`` are
    ``indices[indptr[u]:indptr[u + 1]]``, sorted ascending, both int32 and
    read-only, and ``degrees`` holds their counts (int32, read-only).
    ``edges`` may list an edge in either direction and more than once;
    self-loops, out-of-range ids and a node count outside 1..2**31 - 1 (the
    int32 id range) are rejected.
    """

    __slots__ = ("n", "indptr", "indices", "degrees")

    def __init__(self, n: int, edges):
        if not 1 <= n <= 2**31 - 1:  # ids are int32
            raise ValueError(f"node count {n} must lie in 1..{2**31 - 1}")
        ends = np.array([*edges] or np.empty((0, 2)), dtype=np.int64)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if np.any(ends[:, 0] == ends[:, 1]):
            raise ValueError("self-loops are not allowed")
        if np.any((ends < 0) | (ends >= n)):
            raise ValueError("node id out of range")
        # both directions as one sorted key per arc, duplicates dropped
        keys = np.concatenate((ends[:, 0] * n + ends[:, 1],
                               ends[:, 1] * n + ends[:, 0]))
        keys.sort()
        keys = keys[np.flatnonzero(np.diff(keys, prepend=-1))]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        indices = (keys % n).astype(np.int32)
        degrees = np.diff(indptr)
        for values in (indptr, indices, degrees):
            values.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "degrees", degrees)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def neighbors(self, u) -> list[int]:
        return self.indices[self.indptr[u]:self.indptr[u + 1]].tolist()

    @property
    def edge_count(self):
        return len(self.indices) // 2

    def edges(self):
        src = np.repeat(np.arange(self.n, dtype=np.int32), self.degrees)
        upper = src < self.indices
        return list(zip(src[upper].tolist(), self.indices[upper].tolist()))

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(f"V {self.n}\n")
            for u, v in self.edges():
                fh.write(f"{u} {v}\n")

    @classmethod
    def read(cls, path):
        """Graph from a ``V <count>`` header and ``u v`` edge lines ('#'
        comments and blank lines skipped). A bad line raises ValueError
        naming ``path:line``."""
        n, edges = None, []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                where = f"{path}:{lineno}"
                if n is None:
                    if len(parts) != 2 or parts[0] != "V":
                        raise ValueError(f"{where}: expected header 'V <count>'")
                    n = _read_int(parts[1], "node count", where)
                    if n < 1:
                        raise ValueError(f"{where}: node count must be positive")
                    continue
                if len(parts) != 2:
                    raise ValueError(f"{where}: expected 'u v'")
                u, v = (_read_int(p, "node id", where) for p in parts)
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"{where}: node ids must lie in 0..{n - 1}")
                if u == v:
                    raise ValueError(f"{where}: self-loop on node {u}")
                edges.append((u, v))
        if n is None:
            raise ValueError(f"{path}: empty graph file")
        return cls(n, edges)


def _read_int(token, what, where):
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{where}: {what} {token!r} is not an integer") from None


def generate(topology: str, n: int, seed: int = 0,
             mesh_density: float | None = None) -> Graph:
    """Deterministic topology generators used in the experiments. A graph
    expected to hold over ``MAX_GENERATED_EDGES`` edges, or a mesh over
    ``MAX_MESH_PAIRS`` node pairs, is refused first."""
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    if topology in ("ring", "mesh"):
        # a ring, and a mesh's min-degree-2 repair, need three nodes
        if n < 3:
            raise ValueError(f"a {topology} needs at least three nodes")
    elif n < 2:
        raise ValueError(f"a {topology} needs at least two nodes")
    density = DEFAULT_MESH_DENSITY if mesh_density is None else mesh_density
    if topology == "mesh" and not 0.0 < density <= 1.0:
        raise ValueError("mesh density must lie in (0, 1]")
    # exact, where a float product would overflow for a huge n
    pairs = n * (n - 1) // 2
    expected = (pairs * Fraction(density) if topology == "mesh"
                else n if topology == "ring" else n - 1)
    if expected > MAX_GENERATED_EDGES:
        raise ValueError(f"a {topology} on {n} nodes expects {round(expected)} "
                         f"edges, over the limit of {MAX_GENERATED_EDGES}")
    if topology == "mesh" and pairs > MAX_MESH_PAIRS:
        raise ValueError(f"a mesh on {n} nodes draws {pairs} node pairs, "
                         f"over the limit of {MAX_MESH_PAIRS}")

    if topology == "star":
        edges = [(0, leaf) for leaf in range(1, n)]
    elif topology == "ring":
        edges = [(u, (u + 1) % n) for u in range(n)]
    elif topology == "tree":
        # complete binary tree filled level by level
        edges = [(child, (child - 1) // 2) for child in range(1, n)]
    else:
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        # min-degree-2 repair
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        for u in range(n):
            while len(adj[u]) < 2:
                candidates = [v for v in range(n)
                              if v != u and v not in adj[u]]
                v = rng.choice(candidates)
                adj[u].add(v)
                adj[v].add(u)
                edges.append((u, v))
    return Graph(n, edges)


@dataclass(frozen=True)
class TraceRecord:
    """One observed contact between two externally-labelled nodes."""

    node_a: str
    node_b: str
    start: float | None = None
    end: float | None = None

    def __post_init__(self):
        if self.node_a == self.node_b:
            raise ValueError("contact endpoints must differ")


def parse_trace(lines) -> list[TraceRecord]:
    """Parse delimited contact records: ``a b [start end]`` per line,
    comma or whitespace separated, '#' comments ignored."""
    records = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) not in (2, 3, 4):
            raise TraceParseError(
                f"line {lineno}: expected 2-4 fields, got {len(parts)}", lineno
            )
        start = end = None
        try:
            if len(parts) >= 3:
                start = float(parts[2])
            if len(parts) == 4:
                end = float(parts[3])
            record = TraceRecord(parts[0], parts[1], start, end)
        except ValueError as exc:
            raise TraceParseError(f"line {lineno}: {exc}", lineno) from exc
        records.append(record)
    return records


def parse_trace_file(path) -> list[TraceRecord]:
    with open(path) as fh:
        return parse_trace(fh)


def ingest_trace(records, min_contacts: int = 1) -> Graph:
    """Contact graph from trace records; an edge needs at least
    ``min_contacts`` observed contacts. Labels are relabelled densely in
    first-appearance order."""
    if min_contacts < 1:
        raise ValueError("min_contacts must be at least 1")
    ids: dict[str, int] = {}
    counts: Counter = Counter()
    for rec in records:
        for label in (rec.node_a, rec.node_b):
            if label not in ids:
                ids[label] = len(ids)
        a, b = ids[rec.node_a], ids[rec.node_b]
        counts[(min(a, b), max(a, b))] += 1
    if not ids:
        raise ValueError("trace contains no records")
    return Graph(len(ids), [edge for edge, c in counts.items()
                            if c >= min_contacts])


def adjacency_matrix(g: Graph) -> np.ndarray:
    """A new dense 0/1 adjacency as float64, owned by the caller, so a mask
    or frontier product is one BLAS call."""
    adj = np.zeros((g.n, g.n))
    adj[np.repeat(np.arange(g.n), g.degrees), g.indices] = 1.0
    return adj


def betweenness(g: Graph) -> tuple[float, ...]:
    """Shortest-path betweenness per node, unnormalized, with fractional
    credit on ties; each unordered pair counted once.

    Brandes' dependency recursion run from a block of sources at once, one
    dense product per BFS level (see :func:`_dependencies`). Blocks hold
    about ``BETWEENNESS_BLOCK`` entries per array, so memory beyond the
    V x V adjacency stays bounded.
    """
    adj = adjacency_matrix(g)
    rows = max(1, BETWEENNESS_BLOCK // g.n)
    scores = np.zeros(g.n)
    for first in range(0, g.n, rows):
        scores += _dependencies(adj, np.arange(first, min(g.n, first + rows)))
    return tuple((scores / 2.0).tolist())


def _dependencies(adj: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Each node's summed dependency over ``sources`` (Brandes 2001).

    Row ``i`` of each array belongs to source ``sources[i]``. The forward
    pass counts shortest paths (``sigma``) with one ``frontier @ adj`` per
    level and records depths; the backward pass accumulates dependencies
    from the deepest level up, one product per level.
    """
    rows = np.arange(len(sources))
    frontier = np.zeros((len(sources), len(adj)))
    frontier[rows, sources] = 1.0
    sigma = frontier.copy()
    dist = np.full(frontier.shape, -1, dtype=np.int32)
    dist[rows, sources] = 0
    depth = 0
    while True:
        frontier = frontier @ adj
        frontier[dist >= 0] = 0.0
        reached = frontier > 0
        if not reached.any():
            break
        depth += 1
        dist[reached] = depth
        sigma += frontier
    delta = np.zeros_like(sigma)
    for level in range(depth, 1, -1):
        # coef[s, w] = (1 + delta[s, w]) / sigma[s, w] on level ``level``
        coef = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma),
                         where=dist == level)
        upper = dist == level - 1
        delta[upper] = (coef @ adj)[upper] * sigma[upper]
    return delta.sum(axis=0)
