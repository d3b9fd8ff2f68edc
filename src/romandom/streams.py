"""Exhaustive instance streams: free trees, connected graphs, unicyclic
graphs, and graph6 corpus files.

Generated streams yield one representative per isomorphism class; file
streams yield verbatim.  Everything is lazy so sweeps can stop early.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator

from . import kernels
from .errors import Graph6Error, GraphError
from .graphs import Graph, _parents_preorder, parse_graph6, tree_from_level_sequence, write_graph6

FREE_TREE_LIMIT = 16
CONNECTED_GRAPH_LIMIT = 7
UNICYCLIC_LIMIT = 10

# Published counts used as generator acceptance oracles (index = order).
FREE_TREE_COUNTS = (0, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)
CONNECTED_GRAPH_COUNTS = (0, 1, 1, 2, 6, 21, 112, 853)
UNICYCLIC_COUNTS = (0, 0, 0, 1, 2, 5, 13, 33, 89, 240, 657)


class InstanceStream:
    """Re-iterable graph stream; ``order`` is -1 for graphs read from a file."""

    def __init__(self, order: int, factory: Callable[[], Iterator[Graph]]):
        self.order = order
        self._factory = factory

    def __iter__(self) -> Iterator[Graph]:
        return self._factory()


# -- free trees ----------------------------------------------------------------
#
# A rooted tree is written as its level sequence, one byte per vertex: the
# root's 0, then each child subtree's sequence one level down, the children
# in non-increasing order.  A child's sequence holds a 1 only at its start,
# so two sequences compare by their first children, then the next, and so
# on, a proper prefix first.  `_sequences` therefore yields the sequences of
# one size in descending order by taking each child from a descending
# catalogue, at or after the index its left sibling took; the catalogue is
# built size by size the same way.
#
# Free trees take children of at most n // 2 vertices, so every sequence
# composed is rooted at a centroid.  When n is even and a child has n / 2
# vertices, it is the second centroid, and the sequence is kept only if it
# is not smaller than the tree's sequence rooted there.

# Translation tables adding 1 to, and taking 1 from, every depth.
_DEEPER = bytes(range(1, 256)) + b"\x00"
_SHALLOWER = b"\x00" + bytes(range(255))


def _children(catalogue: list[bytes], fits: list[list[int]], room: int, start: int
              ) -> Iterator[bytes]:
    """Every concatenation of catalogue entries with ``room`` vertices in all,
    the entry indices non-decreasing from ``start``, in descending order.
    ``fits[r]`` lists, ascending, the indices of the entries of at most r
    vertices."""
    entries = fits[room]
    for k in range(bisect_left(entries, start), len(entries)):
        j = entries[k]
        child = catalogue[j]
        left = room - len(child)
        if left:
            for rest in _children(catalogue, fits, left, j):
                yield child + rest
        else:
            yield child


def _sequences(catalogue: list[bytes], n: int) -> Iterator[bytes]:
    """Every canonical level sequence of n vertices whose root children are
    catalogue entries, in descending order."""
    if n == 1:
        yield b"\x00"
        return
    fits = [[j for j, child in enumerate(catalogue) if len(child) <= room]
            for room in range(n)]
    for body in _children(catalogue, fits, n - 1, 0):
        yield b"\x00" + body


def _rooted_catalogue(top: int) -> list[bytes]:
    """The canonical level sequence, one level down, of every rooted tree of
    at most ``top`` vertices, in descending order."""
    catalogue: list[bytes] = []
    for size in range(1, top + 1):
        catalogue += [seq.translate(_DEEPER) for seq in _sequences(catalogue, size)]
        catalogue.sort(reverse=True)
    return catalogue


def _tree_rows(seq: bytes) -> tuple[int, ...]:
    """Bitmask rows of the tree with level sequence ``seq``."""
    return tree_from_level_sequence(seq).open_rows()


def _not_below_twin(seq: bytes) -> bool:
    """For a centroid-rooted level sequence of even length n: whether it is
    not smaller than the tree's sequence rooted at the root child with n / 2
    vertices, if there is one; that child's subtree covers position n / 2.
    The two halves are the child's subtree A, each depth less one, and the
    rest B of the sequence; the root's sequence is not the smaller exactly
    when A >= B, which the tests check on every sequence to order 16."""
    half = len(seq) // 2
    twin = seq.rfind(1, 0, half + 1)
    end = seq.find(1, half + 1)
    if (len(seq) if end < 0 else end) - twin != half:
        return True
    return seq[twin:twin + half].translate(_SHALLOWER) >= seq[:twin] + seq[twin + half:]


def _iter_free_trees(n: int) -> Iterator[Graph]:
    for seq in _sequences(_rooted_catalogue(n // 2), n):
        if n & 1 or _not_below_twin(seq):
            yield tree_from_level_sequence(seq)


def free_trees(n: int) -> InstanceStream:
    """Every free tree on n vertices, exactly once per isomorphism class."""
    if not 1 <= n <= FREE_TREE_LIMIT:
        raise GraphError(f"free tree generation supports 1 <= n <= {FREE_TREE_LIMIT}")
    return InstanceStream(n, lambda: _iter_free_trees(n))


# -- connected graphs ----------------------------------------------------------


def _iter_connected(n: int) -> Iterator[Graph]:
    # A signature's graph is its own canonical form, so its graph6 line is
    # the sort key with no further search.
    signatures = kernels.connected_canonical_signatures(n)
    yield from sorted((Graph(n, sig) for sig in signatures), key=write_graph6)


def connected_graphs(n: int) -> InstanceStream:
    """All connected graphs on n vertices up to isomorphism, each the
    canonically relabelled graph of its class, in graph6 order.

    The classes on n vertices are grown from those on n - 1 by adding a
    vertex joined to each nonempty subset of the old vertices; the step
    to n = 7 makes 7056 canonicalizations for 853 classes.
    """
    if not 1 <= n <= CONNECTED_GRAPH_LIMIT:
        raise GraphError(
            f"connected graph generation supports 1 <= n <= {CONNECTED_GRAPH_LIMIT}"
        )
    return InstanceStream(n, lambda: _iter_connected(n))


# -- unicyclic graphs ----------------------------------------------------------


def _chord_keys(rows: tuple[int, ...]) -> Iterator[tuple[list[int], bytes]]:
    """(rows, key) for the tree with bitmask rows plus each chord ij, taken
    by j then i (i < j), where key classifies that graph up to isomorphism.

    The chord closes the cycle along the tree path from j to i.  With the
    cycle's edges removed, a rooted tree hangs at each cycle vertex; a
    unicyclic graph is fixed up to isomorphism by the cyclic sequence of
    those trees' level sequences, read in either direction.  So the key is
    the least rotation or reflection of that sequence, joined into one
    bytes string; each level sequence holds a single 0, at its start, so
    the join loses nothing.

    One bottom-up pass per j over the tree rooted there gives each vertex's
    child sequences: the tree hung at i is i's subtree, and the one hung at
    any other cycle vertex is its subtree less the child toward i.
    """
    for j in range(1, len(rows)):
        parent, order = _parents_preorder(rows, j)
        kids: list[list[bytes]] = [[] for _ in rows]  # child sequences, one level down
        down = {}  # down[v]: v's subtree sequence, one level down
        for v in reversed(order):
            kids[v].sort(reverse=True)
            down[v] = (b"\x00" + b"".join(kids[v])).translate(_DEEPER)
            if v != j:
                kids[parent[v]].append(down[v])
        for i in range(j):
            if rows[i] >> j & 1:
                continue
            codes, v = [b"\x00" + b"".join(kids[i])], i
            while v != j:
                rest = kids[parent[v]].copy()
                rest.remove(down[v])
                codes.append(b"\x00" + b"".join(rest))
                v = parent[v]
            with_chord = list(rows)
            with_chord[i] |= 1 << j
            with_chord[j] |= 1 << i
            turns = (b"".join(seq[k:] + seq[:k]) for seq in (codes, codes[::-1])
                     for k in range(len(seq)))
            yield with_chord, min(turns)


def _iter_unicyclic(n: int) -> Iterator[Graph]:
    # One canonical search per class, not per candidate: it only gives the
    # sort key, the graph6 line of the class's canonical graph.
    first = {}  # key -> the first tree plus chord in its class
    for tree in free_trees(n):
        for rows, key in _chord_keys(tree.open_rows()):
            first.setdefault(key, rows)
    classes = sorted(
        (write_graph6(Graph(n, kernels.canonical_signature(r))), r) for r in first.values()
    )
    for _, rows in classes:
        yield Graph(n, rows)


def unicyclic_graphs(n: int) -> InstanceStream:
    """All connected graphs with exactly one cycle, via tree plus chord."""
    if not 3 <= n <= UNICYCLIC_LIMIT:
        raise GraphError(f"unicyclic generation supports 3 <= n <= {UNICYCLIC_LIMIT}")
    return InstanceStream(n, lambda: _iter_unicyclic(n))


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

    return InstanceStream(-1, factory)
