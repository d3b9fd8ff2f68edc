"""Status-labelled trees: the constructive family closed under the four
growth operations, its recognition, and its canonical optimal function.

A labelling assigns each vertex one of the statuses A, B, C.  The family
is the closure of the labelled 3-vertex star (leaves A, center B) under
operations O1-O4.  Membership of an arbitrary tree can be decided two
independent ways: a solver-backed criterion on the unique minimum
dominating set, and a structural peeling that reconstructs an explicit
build script.  The verify checks use only the solver-backed recognizer;
the two are cross-checked against each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import solvers
from .errors import GraphError, OperationError
from .graphs import (
    Graph,
    bits,
    build_graph,
    is_tree,
    mask_of,
    parse_graph6,
    private_neighbors,
    tree_canonical_key,
    write_graph6,
)

STATUS_A = "A"
STATUS_B = "B"
STATUS_C = "C"
_STATUSES = (STATUS_A, STATUS_B, STATUS_C)

O1, O2, O3, O4 = "O1", "O2", "O3", "O4"

# Vertex the fresh 7-vertex gadget of O4 exposes for attachment
O4_ATTACH_OFFSET = 3


@dataclass(frozen=True)
class LabelledTree:
    """A tree together with a total status map, indexed by vertex id."""

    tree: Graph
    statuses: tuple[str, ...]

    def __post_init__(self):
        if not is_tree(self.tree):
            raise GraphError("labelled tree requires a tree")
        if len(self.statuses) != self.tree.order:
            raise GraphError("status map must cover every vertex")
        for s in self.statuses:
            if s not in _STATUSES:
                raise GraphError(f"unknown status {s!r}")

    @property
    def order(self) -> int:
        return self.tree.order

    def status(self, v: int) -> str:
        return self.statuses[v]

    def status_set(self, status: str) -> frozenset[int]:
        return frozenset(v for v, s in enumerate(self.statuses) if s == status)

    @property
    def s_a(self) -> frozenset[int]:
        return self.status_set(STATUS_A)

    @property
    def s_b(self) -> frozenset[int]:
        return self.status_set(STATUS_B)

    @property
    def s_c(self) -> frozenset[int]:
        return self.status_set(STATUS_C)


def serialize_labelled(lt: LabelledTree) -> str:
    """graph6 plus the status word in vertex-id order."""
    return f"{write_graph6(lt.tree)} {''.join(lt.statuses)}"


def parse_labelled(line: str) -> LabelledTree:
    try:
        g6, word = line.split()
    except ValueError as exc:
        raise GraphError("expected 'graph6 statusword'") from exc
    return LabelledTree(parse_graph6(g6), tuple(word))


def base_k12() -> LabelledTree:
    """The 3-vertex path 0-1-2 with leaves A and center B."""
    return LabelledTree(build_graph(3, [(0, 1), (1, 2)]), (STATUS_A, STATUS_B, STATUS_A))


def _extended(lt: LabelledTree, new_edges, new_statuses) -> LabelledTree:
    n = lt.order
    edges = lt.tree.edges() + new_edges
    return LabelledTree(
        build_graph(n + len(new_statuses), edges), lt.statuses + tuple(new_statuses)
    )


def apply_o1(lt: LabelledTree, u: int) -> LabelledTree:
    """Attach a fresh path x-y-z by the edge u-x; u must have status A or C.

    New ids: x=n (A), y=n+1 (B), z=n+2 (A).
    """
    if lt.status(u) not in (STATUS_A, STATUS_C):
        raise OperationError(f"O1 needs status A or C at vertex {u}, found {lt.status(u)}")
    n = lt.order
    return _extended(lt, [(u, n), (n, n + 1), (n + 1, n + 2)], (STATUS_A, STATUS_B, STATUS_A))


def apply_o2(lt: LabelledTree, u: int) -> LabelledTree:
    """Attach a fresh star (center y, leaves x,z,t) by the edge u-x; u must
    have status B.

    New ids: x=n (C), y=n+1 (B), z=n+2 (A), t=n+3 (A).
    """
    if lt.status(u) != STATUS_B:
        raise OperationError(f"O2 needs status B at vertex {u}, found {lt.status(u)}")
    n = lt.order
    return _extended(
        lt,
        [(u, n), (n, n + 1), (n + 1, n + 2), (n + 1, n + 3)],
        (STATUS_C, STATUS_B, STATUS_A, STATUS_A),
    )


def apply_o3(lt: LabelledTree, u: int) -> LabelledTree:
    """Attach a fresh path x-y-z by the edge u-y (to the center); u must
    have status C.

    New ids: x=n (A), y=n+1 (B), z=n+2 (A).
    """
    if lt.status(u) != STATUS_C:
        raise OperationError(f"O3 needs status C at vertex {u}, found {lt.status(u)}")
    n = lt.order
    return _extended(lt, [(u, n + 1), (n, n + 1), (n + 1, n + 2)], (STATUS_A, STATUS_B, STATUS_A))


def apply_o4(lt: LabelledTree, u: int) -> LabelledTree:
    """Attach a fresh copy of the 7-vertex gadget R by an edge from u to its
    C-vertex; u must have status A or C.

    New ids n..n+6: a=n (A), b=n+1 (B), c=n+2 (A), x=n+3 (C), y=n+4 (B),
    z=n+5 (A), t=n+6 (A); edges a-b, b-c, b-x, x-y, y-z, y-t, plus u-x.
    """
    if lt.status(u) not in (STATUS_A, STATUS_C):
        raise OperationError(f"O4 needs status A or C at vertex {u}, found {lt.status(u)}")
    n = lt.order
    edges = [
        (n, n + 1),
        (n + 1, n + 2),
        (n + 1, n + 3),
        (n + 3, n + 4),
        (n + 4, n + 5),
        (n + 4, n + 6),
        (u, n + 3),
    ]
    statuses = (STATUS_A, STATUS_B, STATUS_A, STATUS_C, STATUS_B, STATUS_A, STATUS_A)
    return _extended(lt, edges, statuses)


_OPERATIONS = {O1: apply_o1, O2: apply_o2, O3: apply_o3, O4: apply_o4}

_GROWTH = {O1: 3, O2: 4, O3: 3, O4: 7}


def labelled_r() -> LabelledTree:
    """The 7-vertex gadget: one O2 application at the center of the base."""
    return apply_o2(base_k12(), 1)


def replay_script(script) -> LabelledTree:
    """Rebuild a labelled tree from a list of (operation, attach vertex)."""
    lt = base_k12()
    for op, u in script:
        lt = _OPERATIONS[op](lt, u)
    return lt


def generate_script_t(max_order: int) -> list[LabelledTree]:
    """Closure of the base under O1-O4 up to max_order, one representative
    per isomorphism class (the labelling is determined by the tree, so
    deduping on the tree alone is sound).  Sorted by order, then canonical
    tree encoding."""
    if max_order < 3:
        return []
    base = base_k12()
    seen = {tree_canonical_key(base.tree)}
    members = [base]
    frontier = [base]
    while frontier:
        nxt = []
        for lt in frontier:
            for op, fn in _OPERATIONS.items():
                if lt.order + _GROWTH[op] > max_order:
                    continue
                allowed = (STATUS_B,) if op == O2 else (
                    (STATUS_C,) if op == O3 else (STATUS_A, STATUS_C)
                )
                for u in range(lt.order):
                    if lt.status(u) not in allowed:
                        continue
                    child = fn(lt, u)
                    key = tree_canonical_key(child.tree)
                    if key in seen:
                        continue
                    seen.add(key)
                    members.append(child)
                    nxt.append(child)
        frontier = nxt
    members.sort(key=lambda lt: (lt.order, tree_canonical_key(lt.tree)))
    return members


def recognize_script_t(t: Graph, limit: int = solvers.DEFAULT_EXACT_LIMIT) -> Optional[LabelledTree]:
    """Solver-backed recognition: member iff the tree has a unique minimum
    dominating set D that is independent with |pn[v, D]| = 3 for all v in D.

    On success the labelling is forced: B on D, C on outside vertices with
    at least two D-neighbors, A elsewhere.
    """
    if not is_tree(t):
        raise GraphError("expected a tree")
    if t.order < 3:
        raise GraphError("expected order at least 3")
    summary = solvers.minimum_dominating_sets(t, limit)
    if not summary.unique:
        return None
    dom = summary.all_min_sets[0]
    dmask = mask_of(dom)
    for v in dom:
        if t.adjacency_mask(v) & dmask:
            return None  # not independent
        if len(private_neighbors(t, v, dom)) != 3:
            return None
    statuses = []
    for v in range(t.order):
        if v in dom:
            statuses.append(STATUS_B)
        elif (t.adjacency_mask(v) & dmask).bit_count() >= 2:
            statuses.append(STATUS_C)
        else:
            statuses.append(STATUS_A)
    return LabelledTree(t, tuple(statuses))


# -- structural decomposition --------------------------------------------------
#
# Peels one gadget at a time from the deep end of a diametral path, mirroring
# how the family is built.  Works on the original vertex ids through an
# "alive" bitmask, and carries an original-id -> rebuilt-id map so each peel
# can be replayed immediately; the replay enforces the status preconditions,
# so a wrong greedy choice is caught and the next candidate tried.


def _bfs_far(adj, alive: int, src: int):
    """(farthest vertex with smallest id, parent map) by BFS inside alive."""
    from collections import deque

    dist = {src: 0}
    parent = {src: None}
    queue = deque([src])
    far, fdist = src, 0
    while queue:
        v = queue.popleft()
        for u in bits(adj[v] & alive):
            if u not in dist:
                dist[u] = dist[v] + 1
                parent[u] = v
                queue.append(u)
                if dist[u] > fdist:
                    far, fdist = u, dist[u]
    return far, parent


def _diametral_path(adj, alive: int) -> list[int]:
    start = next(bits(alive))
    a, _ = _bfs_far(adj, alive, start)
    b, parent = _bfs_far(adj, alive, a)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _peel(adj, alive: int):
    """Returns (labelled tree, orig->rebuilt map, script) or None."""
    n_alive = alive.bit_count()
    if n_alive < 3 or n_alive in (4, 5):
        return None
    live = list(bits(alive))
    deg = {v: (adj[v] & alive).bit_count() for v in live}
    if n_alive == 3:
        center = next(v for v in live if deg[v] == 2)
        leaves = sorted(v for v in live if v != center)
        mapping = {leaves[0]: 0, center: 1, leaves[1]: 2}
        return base_k12(), mapping, []

    path = _diametral_path(adj, alive)
    if len(path) <= 4:
        return None  # stars and diameter-3 trees have no members this large
    xm, xm1, xm2 = path[-1], path[-2], path[-3]

    def leaf_neighbors(v):
        return sorted(u for u in bits(adj[v] & alive) if deg[u] == 1)

    if deg[xm1] == 2:
        if deg[xm2] != 2:
            return None
        u = next(w for w in bits(adj[xm2] & alive) if w != xm1)
        sub = _peel(adj, alive & ~((1 << xm) | (1 << xm1) | (1 << xm2)))
        if sub is None:
            return None
        lt, mapping, script = sub
        if lt.status(mapping[u]) not in (STATUS_A, STATUS_C):
            return None
        base = lt.order
        lt2 = apply_o1(lt, mapping[u])
        mapping2 = dict(mapping)
        mapping2.update({xm2: base, xm1: base + 1, xm: base + 2})
        return lt2, mapping2, script + [(O1, mapping[u])]

    # deep-end support vertex with at least two leaves
    leaves1 = leaf_neighbors(xm1)
    if deg[xm1] != 3 or len(leaves1) != 2:
        return None
    others = [w for w in bits(adj[xm2] & alive) if w != xm1]
    zshaped = [w for w in others if deg[w] == 3 and len(leaf_neighbors(w)) == 2]
    rest = [w for w in others if w not in zshaped]
    if len(rest) > 1:
        return None
    port = rest[0] if rest else None

    candidates = []
    if len(zshaped) >= 2:
        candidates.append((O3, None))
    elif len(zshaped) == 1 and port is None:
        candidates.append((O2, zshaped[0]))
    elif len(zshaped) == 1:
        candidates.append((O3, None))
        candidates.append((O4, port))
    elif port is not None:
        candidates.append((O2, port))
    else:
        return None

    for op, attach in candidates:
        if op == O3:
            removed = (1 << xm1) | (1 << leaves1[0]) | (1 << leaves1[1])
            sub = _peel(adj, alive & ~removed)
            if sub is None:
                continue
            lt, mapping, script = sub
            if lt.status(mapping[xm2]) != STATUS_C:
                continue
            base = lt.order
            lt2 = apply_o3(lt, mapping[xm2])
            mapping2 = dict(mapping)
            mapping2.update(
                {leaves1[0]: base, xm1: base + 1, leaves1[1]: base + 2}
            )
            result = lt2, mapping2, script + [(O3, mapping[xm2])]
        elif op == O2:
            removed = (1 << xm2) | (1 << xm1) | (1 << leaves1[0]) | (1 << leaves1[1])
            sub = _peel(adj, alive & ~removed)
            if sub is None:
                continue
            lt, mapping, script = sub
            if lt.status(mapping[attach]) != STATUS_B:
                continue
            base = lt.order
            lt2 = apply_o2(lt, mapping[attach])
            mapping2 = dict(mapping)
            mapping2.update(
                {xm2: base, xm1: base + 1, leaves1[0]: base + 2, leaves1[1]: base + 3}
            )
            result = lt2, mapping2, script + [(O2, mapping[attach])]
        else:  # O4
            z = zshaped[0]
            zleaves = leaf_neighbors(z)
            removed = (
                (1 << xm2)
                | (1 << xm1)
                | (1 << leaves1[0])
                | (1 << leaves1[1])
                | (1 << z)
                | (1 << zleaves[0])
                | (1 << zleaves[1])
            )
            sub = _peel(adj, alive & ~removed)
            if sub is None:
                continue
            lt, mapping, script = sub
            if lt.status(mapping[attach]) not in (STATUS_A, STATUS_C):
                continue
            base = lt.order
            lt2 = apply_o4(lt, mapping[attach])
            mapping2 = dict(mapping)
            mapping2.update(
                {
                    zleaves[0]: base,
                    z: base + 1,
                    zleaves[1]: base + 2,
                    xm2: base + 3,
                    xm1: base + 4,
                    leaves1[0]: base + 5,
                    leaves1[1]: base + 6,
                }
            )
            result = lt2, mapping2, script + [(O4, mapping[attach])]
        return result
    return None


def decompose_script_t(t: Graph) -> Optional[list[tuple[str, int]]]:
    """Structural membership test: peel gadgets down to the 3-vertex base.

    Returns a build script (operation, attach vertex in the rebuilt tree)
    whose replay through the apply functions reconstructs a tree isomorphic
    to the input, or None when the tree is not in the family.  Independent
    of the solver-backed recognizer.
    """
    if not is_tree(t):
        raise GraphError("expected a tree")
    if t.order < 3:
        raise GraphError("expected order at least 3")
    res = _peel(t.open_rows(), t.full_mask)
    if res is None:
        return None
    lt, mapping, script = res
    # the peel tracked ids exactly, so the rebuilt edges must match 1:1
    rebuilt = {(min(a, b), max(a, b)) for a, b in lt.tree.edges()}
    original = {
        (min(mapping[a], mapping[b]), max(mapping[a], mapping[b]))
        for a, b in t.edges()
    }
    if rebuilt != original:
        raise GraphError("internal error: peel produced a non-matching script")
    return script


# -- canonical optimal function and the no-C subfamily -------------------------


def canonical_gamma_r_function(lt: LabelledTree) -> solvers.RomanFunction:
    """The function putting 2 on the B-vertices and 0 elsewhere."""
    return solvers.RomanFunction(
        lt.order, lt.s_a | lt.s_c, frozenset(), lt.s_b
    )


def in_t1(lt: LabelledTree) -> bool:
    """Subfamily with no C-vertices (equivalently, built by O1 alone)."""
    return not lt.s_c


def sabc_violations(lt: LabelledTree, limit: int = solvers.DEFAULT_EXACT_LIMIT) -> list[str]:
    """Check the structural facts every family member must satisfy; returns
    human-readable violations (empty for members)."""
    out = []
    t = lt.tree
    s_a, s_b, s_c = lt.s_a, lt.s_b, lt.s_c
    bmask = mask_of(s_b)
    # (i) B independent dominating; two A-neighbors; private neighborhood shape
    if not solvers.is_dominating(t, s_b):
        out.append("B-set is not dominating")
    for v in s_b:
        if t.adjacency_mask(v) & bmask:
            out.append(f"B-set not independent at {v}")
        a_nbrs = frozenset(u for u in bits(t.adjacency_mask(v)) if u in s_a)
        if len(a_nbrs) != 2:
            out.append(f"B-vertex {v} has {len(a_nbrs)} A-neighbors, wanted 2")
        if private_neighbors(t, v, s_b) != a_nbrs | {v}:
            out.append(f"private neighborhood of {v} is not its A-neighbors plus itself")
    # (ii) A-vertices see exactly one B; |A| = 2|B|
    for v in s_a:
        if (t.adjacency_mask(v) & bmask).bit_count() != 1:
            out.append(f"A-vertex {v} does not have exactly one B-neighbor")
    if len(s_a) != 2 * len(s_b):
        out.append(f"|A| = {len(s_a)} but 2|B| = {2 * len(s_b)}")
    # (iii) C-vertices see at least two Bs
    for v in s_c:
        if (t.adjacency_mask(v) & bmask).bit_count() < 2:
            out.append(f"C-vertex {v} has fewer than two B-neighbors")
    # (iv) B is the unique minimum dominating set
    summary = solvers.minimum_dominating_sets(t, limit)
    if not (summary.unique and summary.all_min_sets[0] == s_b):
        out.append("B-set is not the unique minimum dominating set")
    return out
