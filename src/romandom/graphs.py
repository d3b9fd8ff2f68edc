"""Simple undirected graphs on dense vertex ids, graph6 I/O, neighborhood
primitives, named constructions, and small-order isomorphism utilities.

Vertices are always 0..order-1.  Adjacency is stored as one bitmask per
vertex, which is what the exact-search kernels consume directly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from . import kernels
from .errors import Graph6Error, GraphError, LimitExceededError
from .kernels import bits

CANONICAL_ORDER_LIMIT = 10


class Graph:
    """Immutable simple graph: vertex count plus adjacency bitmasks.

    Instances are hashable and safe to share; every operation below returns
    a new graph.
    """

    __slots__ = ("order", "_adj", "_hash")

    def __init__(self, order: int, adj_masks: Sequence[int]):
        if order < 0:
            raise GraphError("order must be nonnegative")
        if len(adj_masks) != order:
            raise GraphError("adjacency rows must match order")
        full = (1 << order) - 1
        for v, row in enumerate(adj_masks):
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
            if row & ~full:
                raise GraphError(f"adjacency row {v} mentions out-of-range vertices")
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj_masks[u] >> v & 1:
                    raise GraphError(f"adjacency not symmetric at ({v}, {u})")
                row ^= low
        self.order = order
        self._adj = tuple(adj_masks)
        self._hash = hash((order, self._adj))

    # -- basic accessors ---------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def adjacency_mask(self, v: int) -> int:
        """Open neighborhood of v as a bitmask."""
        return self._adj[v]

    def closed_mask(self, v: int) -> int:
        return self._adj[v] | (1 << v)

    def open_rows(self) -> tuple[int, ...]:
        return self._adj

    def closed_rows(self) -> list[int]:
        return [row | (1 << v) for v, row in enumerate(self._adj)]

    def closed_reach(self, mask: int) -> int:
        """The vertices of ``mask`` plus their neighbors, as a bitmask."""
        if mask >> self.order:
            raise GraphError("set contains out-of-range vertices")
        reach, adj = mask, self._adj
        while mask:
            low = mask & -mask
            reach |= adj[low.bit_length() - 1]
            mask ^= low
        return reach

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self._adj[v]))

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for v in range(self.order):
            m = self._adj[v] >> (v + 1) << (v + 1)
            while m:
                low = m & -m
                out.append((v, low.bit_length() - 1))
                m ^= low
        return out

    @property
    def size(self) -> int:
        return sum(map(int.bit_count, self._adj)) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees in nonincreasing order."""
        return tuple(sorted((r.bit_count() for r in self._adj), reverse=True))

    def min_degree(self) -> int:
        if self.order == 0:
            raise GraphError("empty graph has no degrees")
        return min(r.bit_count() for r in self._adj)

    def max_degree(self) -> int:
        if self.order == 0:
            raise GraphError("empty graph has no degrees")
        return max(r.bit_count() for r in self._adj)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.order == other.order
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edges()})"


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    try:
        for v in vertices:
            m |= 1 << v
    except ValueError:
        raise GraphError("vertex ids must be nonnegative") from None
    return m


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph with exactly the given edges.  Loops, out-of-range endpoints
    and duplicate edges are errors."""
    adj = [0] * order
    seen = set()
    for e in edges:
        u, v = e
        if u == v:
            raise GraphError(f"loop edge at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise GraphError(f"edge ({u}, {v}) out of range for order {order}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(order, adj)


def tree_from_level_sequence(seq: bytes) -> Graph:
    """The tree whose level sequence is ``seq``: vertex i at depth seq[i],
    joined to the latest earlier vertex one level up.  The sequence starts
    at 0 and each later entry lies in 1..previous + 1.  Such rows are
    symmetric, loop-free and in range, so ``Graph``'s test is skipped."""
    n = len(seq)
    if not n or seq[0]:
        raise GraphError("a level sequence starts with a single 0")
    rows = [0] * n
    last_at = [0] * n  # last_at[d]: the latest vertex at depth d
    for v in range(1, n):
        d = seq[v]
        if not 0 < d <= seq[v - 1] + 1:
            raise GraphError(f"level {d} at position {v} does not follow {seq[v - 1]}")
        p = last_at[d - 1]
        rows[v] = 1 << p
        rows[p] |= 1 << v
        last_at[d] = v
    g = object.__new__(Graph)
    g.order, g._adj = n, tuple(rows)
    g._hash = hash((n, g._adj))
    return g


# -- graph6 ------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_order(text: str) -> tuple[int, int]:
    """Decode the graph6 length field; returns (order, chars consumed)."""
    if not text:
        raise Graph6Error("empty graph6 string")
    c0 = ord(text[0]) - 63
    if c0 < 0 or c0 > 63:
        raise Graph6Error("length character out of range 63..126")
    if c0 < 63:
        return c0, 1
    # extended forms: '~' then 3 chars, or '~~' then 6 chars
    start = 2 if text[1:2] == "~" else 1
    used = 4 * start
    chars = text[start:used]
    if len(chars) < used - start:
        raise Graph6Error(f"truncated {used}-byte length field")
    n = 0
    for ch in chars:
        d = ord(ch) - 63
        if d < 0 or d > 63:
            raise Graph6Error("length character out of range 63..126")
        n = (n << 6) | d
    return n, used


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line.  The optional ``>>graph6<<`` header is
    stripped; the character count and zero padding are validated."""
    line = text.strip()
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    n, used = _g6_order(line)
    body = line[used:]
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(body) != nchars:
        raise Graph6Error(
            f"expected {nchars} adjacency characters for order {n}, got {len(body)}"
        )
    adj = [0] * n
    i, j = 0, 1  # the pair the next bit describes, in (j, i) order
    for ch in body:
        d = ord(ch) - 63
        if d < 0 or d > 63:
            raise Graph6Error(f"character {ch!r} outside 63..126")
        for k in range(5, -1, -1):
            bit = (d >> k) & 1
            if j < n:
                if bit:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                i += 1
                if i == j:
                    i, j = 0, j + 1
            elif bit:
                raise Graph6Error("nonzero padding bits")
    return Graph(n, adj)


# graph6 character of six bits taken lowest first, so bit 0 is the first
# (most significant) bit of the character
_G6_CHARS = [chr(63 + int(f"{d:06b}"[::-1], 2)) for d in range(64)]


def write_graph6(g: Graph) -> str:
    """graph6 line for graphs of order at most 62."""
    n = g.order
    if n > 62:
        raise GraphError("write_graph6 supports order <= 62")
    # bit j(j-1)/2 + i is the pair (i, j), i < j, in graph6 order
    upper = 0
    for j, row in enumerate(g._adj):
        upper |= (row & ((1 << j) - 1)) << (j * (j - 1) // 2)
    chars = [_G6_CHARS[upper >> k & 63] for k in range(0, n * (n - 1) // 2, 6)]
    return chr(63 + n) + "".join(chars)


# -- neighborhood primitives ---------------------------------------------------


def private_neighbors(g: Graph, x: int, members: Iterable[int]) -> frozenset[int]:
    """Vertices y with N[y] intersecting the set exactly in {x}.

    x itself is included when its only set member in N[x] is x.
    """
    xmask = mask_of(members)
    if xmask & ~g.full_mask:
        raise GraphError("set contains out-of-range vertices")
    if x < 0 or not xmask >> x & 1:
        raise GraphError(f"vertex {x} is not in the given set")
    return frozenset(bits(g.closed_mask(x) & ~g.closed_reach(xmask ^ 1 << x)))


def boundary(g: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """Vertices outside the set having a neighbor inside it."""
    smask = mask_of(vertices)
    return frozenset(bits(g.closed_reach(smask) & ~smask))


# -- deletions and components --------------------------------------------------


def _relabelled(g: Graph, old_ids: Sequence[int]) -> Graph:
    """Subgraph induced by ``old_ids``, vertex ``old_ids[i]`` becoming i;
    ``g`` itself when ``old_ids`` is 0..order-1."""
    if list(old_ids) == list(range(g.order)):
        return g
    new_id = {u: i for i, u in enumerate(old_ids)}
    keep = mask_of(old_ids)
    rows = []
    for u in old_ids:
        m, row = g._adj[u] & keep, 0
        while m:
            low = m & -m
            row |= 1 << new_id[low.bit_length() - 1]
            m ^= low
        rows.append(row)
    return Graph(len(old_ids), rows)


def rows_without(rows: Sequence[int], v: int) -> list[int]:
    """Bitmask rows with vertex v deleted: row v goes, and every vertex
    above v moves down by one."""
    low = (1 << v) - 1
    return [r & low | r >> 1 & ~low for r in rows[:v] + rows[v + 1:]]


def delete_vertex(g: Graph, v: int) -> tuple[Graph, dict[int, int]]:
    """Remove v, relabel the rest contiguously; returns the old-to-new map."""
    if not 0 <= v < g.order:
        raise GraphError(f"vertex {v} not in graph of order {g.order}")
    return (Graph(g.order - 1, rows_without(g._adj, v)),
            {u: u - (u > v) for u in range(g.order) if u != v})


def delete_vertices(g: Graph, drop: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Remove several vertices at once; same relabelling contract."""
    dropset = set(drop)
    for v in dropset:
        if not (0 <= v < g.order):
            raise GraphError(f"vertex {v} not in graph of order {g.order}")
    keep = tuple(bits(g.full_mask & ~mask_of(dropset)))
    return _relabelled(g, keep), {u: i for i, u in enumerate(keep)}


def delete_edges(g: Graph, drop: Iterable[tuple[int, int]]) -> Graph:
    """Remove the given edges; vertex labels are preserved."""
    adj = list(g.open_rows())
    for e in drop:
        u, v = e
        if not (0 <= u < g.order and 0 <= v < g.order) or not adj[u] >> v & 1:
            raise GraphError(f"edge ({u}, {v}) not present")
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return Graph(g.order, adj)


def incident_edges(g: Graph, v: int) -> list[tuple[int, int]]:
    return [(min(v, u), max(v, u)) for u in bits(g.adjacency_mask(v))]


def _component_masks(g: Graph) -> Iterator[int]:
    """Vertex bitmask of each component, in order of its smallest vertex."""
    rest = g.full_mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            frontier = g.closed_reach(frontier) & ~comp
            comp |= frontier
        rest &= ~comp
        yield comp


def connected_components(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    """Component subgraphs with their vertex maps (new id -> old id); a
    connected graph comes back as itself."""
    out = []
    for comp in _component_masks(g):
        old_ids = tuple(bits(comp))
        out.append((_relabelled(g, old_ids), old_ids))
    return out


def is_connected(g: Graph) -> bool:
    return next(_component_masks(g), 0) == g.full_mask


def is_tree(g: Graph) -> bool:
    return g.order > 0 and is_connected(g) and g.size == g.order - 1


def is_forest(g: Graph) -> bool:
    """No cycle.  The edge count screens first: a graph with at least as
    many edges as vertices has a cycle, unless it is empty."""
    if g.size >= g.order > 0:
        return False
    return g.size == g.order - sum(1 for _ in _component_masks(g))


def is_unicyclic(g: Graph) -> bool:
    return is_connected(g) and g.size == g.order


# -- named constructions -------------------------------------------------------


def edgeless_graph(n: int) -> Graph:
    return build_graph(n, [])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for j in range(n) for i in range(j)])


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 0 or n < 0:
        raise GraphError("part sizes must be nonnegative")
    return build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star(n: int) -> Graph:
    """Star on n vertices: center 0 adjacent to the n-1 leaves."""
    if n < 1:
        raise GraphError("star needs at least 1 vertex")
    return build_graph(n, [(0, i) for i in range(1, n)])


def cube_graph() -> Graph:
    """3-cube: vertices are 3-bit ids, edges join ids at Hamming distance 1."""
    edges = []
    for v in range(8):
        for b in (1, 2, 4):
            if v < v ^ b:
                edges.append((v, v ^ b))
    return build_graph(8, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shift = g.order
    edges = g.edges() + [(a + shift, b + shift) for a, b in h.edges()]
    return build_graph(g.order + h.order, edges)


def join_graph(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts."""
    shift = g.order
    edges = g.edges() + [(a + shift, b + shift) for a, b in h.edges()]
    edges += [(a, b + shift) for a in range(g.order) for b in range(h.order)]
    return build_graph(g.order + h.order, edges)


def two_cliques_bridge(r: int) -> Graph:
    """Two disjoint copies of K_r joined by a single bridge (0, r); r >= 4."""
    if r < 4:
        raise GraphError("two_cliques_bridge requires r >= 4")
    edges = [(i, j) for j in range(r) for i in range(j)]
    edges += [(r + i, r + j) for j in range(r) for i in range(j)]
    edges.append((0, r))
    return build_graph(2 * r, edges)


def figure3_graph() -> Graph:
    """4-cycle 0-1-2-3 with pendant leaves 4,5 at vertex 0 and 6,7 at 2.

    The unique 8-vertex unicyclic graph whose Roman domination number
    survives every single-vertex deletion.
    """
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 5), (2, 6), (2, 7)]
    return build_graph(8, edges)


# -- isomorphism utilities -----------------------------------------------------


def permute(g: Graph, old_to_new: Sequence[int]) -> Graph:
    """Relabel vertices: old_to_new[v] is the new id of v."""
    if sorted(old_to_new) != list(range(g.order)):
        raise GraphError("not a permutation of the vertex ids")
    old_ids = [0] * g.order
    for v, new in enumerate(old_to_new):
        old_ids[new] = v
    return _relabelled(g, old_ids)


def canonical_form(g: Graph) -> bytes:
    """graph6 bytes of the canonically relabelled graph.

    Equal canonical forms characterize isomorphism.  Brute-force search
    pruned by degree partition; capped at order 10.
    """
    if g.order > CANONICAL_ORDER_LIMIT:
        raise LimitExceededError(
            f"canonical_form limited to order {CANONICAL_ORDER_LIMIT}, got {g.order}"
        )
    rows = kernels.canonical_signature(g.open_rows())
    return write_graph6(Graph(g.order, rows)).encode("ascii")


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism test: canonical forms for order <= 10, encoding-based
    comparison for forests of any order."""
    if g.order != h.order or g.size != h.size:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    if is_forest(g) and is_forest(h):
        return forest_canonical_key(g) == forest_canonical_key(h)
    return canonical_form(g) == canonical_form(h)


# -- tree encodings ------------------------------------------------------------


def _parents_preorder(rows: Sequence[int], root: int) -> tuple[list[int | None], list[int]]:
    """Parent links (None at the root) and a preorder of the tree given by
    bitmask rows, rooted at ``root``."""
    parent: list[int | None] = [None] * len(rows)
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in bits(rows[v]):
            if u != parent[v]:
                parent[u] = v
                stack.append(u)
    return parent, order


def _centroids(parent: Sequence[int | None], preorder: Sequence[int]) -> list[int]:
    """Centroid vertices (1 or 2, adjacent, ascending) of a tree given by
    parent links and a preorder of its vertices 0..n-1."""
    n = len(preorder)
    size = [1] * n
    heaviest = [0] * n
    for v in preorder[:0:-1]:
        p = parent[v]
        size[p] += size[v]
        heaviest[p] = max(heaviest[p], size[v])
    best = n + 1
    out: list[int] = []
    for v in range(n):
        weight = max(heaviest[v], n - size[v])
        if weight < best:
            best = weight
            out = [v]
        elif weight == best:
            out.append(v)
    return out


def _rooted_code(rows: Sequence[int], root: int) -> list[int]:
    """Canonical level sequence of the tree given by bitmask rows, rooted at
    ``root``: each vertex's depth, children in decreasing code order."""
    parent, order = _parents_preorder(rows, root)
    depth = [0] * len(rows)
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    subs: list[list[list[int]]] = [[] for _ in rows]
    for v in reversed(order):
        code = [depth[v]]
        for sub in sorted(subs[v], reverse=True):
            code.extend(sub)
        subs[v] = []
        if v != root:
            subs[parent[v]].append(code)
    return code  # the root comes last


def _key_bytes(values: list[int]) -> bytes:
    """One byte per value below 255, else 0xff and four big-endian bytes, so
    keys of trees below order 255 keep their one-byte-per-value form."""
    if max(values) < 255:
        return bytes(values)
    return b"".join(
        bytes([x]) if x < 255 else b"\xff" + x.to_bytes(4, "big") for x in values
    )


def tree_canonical_key(g: Graph) -> bytes:
    """Canonical level-sequence encoding of a tree, rooted at its centroid.

    Works for any order; equal keys characterize tree isomorphism.
    """
    if not is_tree(g):
        raise GraphError("tree_canonical_key requires a tree")
    rows = g.open_rows()
    cents = _centroids(*_parents_preorder(rows, 0))
    return _key_bytes([g.order] + max(_rooted_code(rows, c) for c in cents))


def forest_canonical_key(g: Graph) -> bytes:
    """Multiset of component tree keys; characterizes forest isomorphism."""
    keys = []
    for comp, _ in connected_components(g):
        if comp.size != comp.order - 1:
            raise GraphError("forest_canonical_key requires a forest")
        keys.append(tree_canonical_key(comp))
    return b"|".join(sorted(keys))
