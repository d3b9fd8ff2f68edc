"""Exhaustive instance streams: free trees, connected graphs, unicyclic
graphs, and graph6 corpus files.

Generated streams yield one representative per isomorphism class; file
streams yield verbatim.  Everything is lazy so sweeps can stop early.
"""

from __future__ import annotations

from typing import Callable, Iterator

from . import kernels
from .errors import Graph6Error, GraphError
from .graphs import (
    Graph,
    _centroids,
    _rooted_code,
    build_graph,
    canonical_form,
    parse_graph6,
)

FREE_TREE_LIMIT = 16
CONNECTED_GRAPH_LIMIT = 7
UNICYCLIC_LIMIT = 10

# Published counts used as generator acceptance oracles (index = order).
FREE_TREE_COUNTS = (0, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)
CONNECTED_GRAPH_COUNTS = (0, 1, 1, 2, 6, 21, 112, 853)
UNICYCLIC_COUNTS = (0, 0, 0, 1, 2, 5, 13, 33, 89, 240, 657)


class InstanceStream:
    """Re-iterable graph stream with a source tag for reporting."""

    def __init__(self, source: str, order: int, factory: Callable[[], Iterator[Graph]]):
        self.source = source
        self.order = order
        self._factory = factory

    def __iter__(self) -> Iterator[Graph]:
        return self._factory()


# -- free trees ----------------------------------------------------------------
#
# Rooted trees are produced as canonical level sequences by the classic
# successor rule; a sequence is kept exactly when its root is a centroid
# and (for bicentroidal trees) it is the not-smaller of the two centroid
# rootings, so each free tree survives once.


def _level_sequences(n: int) -> Iterator[list[int]]:
    if n == 1:
        yield [0]
        return
    seq = list(range(n))
    while True:
        yield seq
        p = None
        for i in range(n - 1, -1, -1):
            if seq[i] >= 2:
                p = i
                break
        if p is None:
            return
        q = next(i for i in range(p - 1, -1, -1) if seq[i] == seq[p] - 1)
        d = p - q
        for i in range(p, n):
            seq[i] = seq[i - d]


def _parents(seq: list[int]) -> list[int | None]:
    last_at = {0: 0}
    parents: list[int | None] = [None] * len(seq)
    for i in range(1, len(seq)):
        parents[i] = last_at[seq[i] - 1]
        last_at[seq[i]] = i
    return parents


def _iter_free_trees(n: int) -> Iterator[Graph]:
    if n == 1:
        yield build_graph(1, [])
        return
    for seq in _level_sequences(n):
        parents = _parents(seq)
        cents = _centroids(parents, range(n))
        if 0 not in cents:
            continue
        if len(cents) == 2:
            rows = [0] * n
            for v in range(1, n):
                rows[v] |= 1 << parents[v]
                rows[parents[v]] |= 1 << v
            if seq < _rooted_code(rows, cents[1]):
                continue
        yield build_graph(n, [(v, parents[v]) for v in range(1, n)])


def free_trees(n: int) -> InstanceStream:
    """Every free tree on n vertices, exactly once per isomorphism class."""
    if not 1 <= n <= FREE_TREE_LIMIT:
        raise GraphError(f"free tree generation supports 1 <= n <= {FREE_TREE_LIMIT}")
    return InstanceStream("generated-trees", n, lambda: _iter_free_trees(n))


# -- connected graphs ----------------------------------------------------------


def _graph_from_signature(n: int, code: int) -> Graph:
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if code >> idx & 1:
                edges.append((i, j))
            idx += 1
    return build_graph(n, edges)


def _iter_connected(n: int) -> Iterator[Graph]:
    decoded = [
        _graph_from_signature(n, code)
        for code in kernels.connected_canonical_signatures(n)
    ]
    decoded.sort(key=canonical_form)
    yield from decoded


def connected_graphs(n: int) -> InstanceStream:
    """All connected graphs on n vertices up to isomorphism.

    The classes on n vertices are grown from those on n - 1 by adding a
    vertex joined to each nonempty subset of the old vertices; the step
    to n = 7 makes 7056 canonicalizations for 853 classes.
    """
    if not 1 <= n <= CONNECTED_GRAPH_LIMIT:
        raise GraphError(
            f"connected graph generation supports 1 <= n <= {CONNECTED_GRAPH_LIMIT}"
        )
    return InstanceStream("generated-graphs", n, lambda: _iter_connected(n))


# -- unicyclic graphs ----------------------------------------------------------


def _iter_unicyclic(n: int) -> Iterator[Graph]:
    out = []
    seen = set()
    for tree in free_trees(n):
        for j in range(1, n):
            for i in range(j):
                if tree.has_edge(i, j):
                    continue
                g = build_graph(n, tree.edges() + [(i, j)])
                key = canonical_form(g)
                if key in seen:
                    continue
                seen.add(key)
                out.append((key, g))
    out.sort()
    for _, g in out:
        yield g


def unicyclic_graphs(n: int) -> InstanceStream:
    """All connected graphs with exactly one cycle, via tree plus chord."""
    if not 3 <= n <= UNICYCLIC_LIMIT:
        raise GraphError(f"unicyclic generation supports 3 <= n <= {UNICYCLIC_LIMIT}")
    return InstanceStream("generated-unicyclic", n, lambda: _iter_unicyclic(n))


# -- graph6 files --------------------------------------------------------------


def iter_graph6_lines(lines) -> Iterator[tuple[int, Graph]]:
    """(line number, graph) for each non-header line; malformed lines raise
    with the line number attached."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith(">>graph6<<"):
            line = line[len(">>graph6<<"):]
        if not line or line.startswith(">"):
            continue  # header or blank
        try:
            yield lineno, parse_graph6(line)
        except Graph6Error as exc:
            raise Graph6Error(str(exc), line=lineno) from exc


def read_graph6_stream(path: str) -> InstanceStream:
    """Graphs from a file of graph6 lines, in file order."""

    def factory() -> Iterator[Graph]:
        with open(path, "r", encoding="ascii") as handle:
            for _, g in iter_graph6_lines(handle):
                yield g

    return InstanceStream("file", -1, factory)
