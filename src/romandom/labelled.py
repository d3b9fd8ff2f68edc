"""Status-labelled trees: the constructive family closed under the four
growth operations, its recognition, and its canonical optimal function.

A labelling assigns each vertex one of the statuses A, B, C.  The family
is the closure of the labelled 3-vertex star (leaves A, center B) under
operations O1-O4.  The table ``_OPERATIONS`` is the single definition of
the operations (attach-vertex statuses, gadget statuses and shape), and
``_grow`` the one in-place step that applies a row of it; the apply
functions, the replay, the generator and the decomposition all use them.
Membership of an arbitrary tree can be decided two independent ways: a
solver-backed criterion on the unique minimum dominating set, and a
structural peeling that reconstructs an explicit build script.  The peel
is a loop with no recursion and no order cap.  The verify checks use only
the solver-backed recognizer; the two are cross-checked against each
other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import kernels, solvers
from .errors import GraphError, LimitExceededError, OperationError
from .graphs import (
    Graph,
    _parents_preorder,
    bits,
    build_graph,
    is_tree,
    mask_of,
    parse_graph6,
    private_neighbors,
    tree_canonical_key,
    write_graph6,
)

SCRIPT_T_LIMIT = kernels._MAX_SCAN_ORDER

STATUS_A = "A"
STATUS_B = "B"
STATUS_C = "C"
_STATUSES = (STATUS_A, STATUS_B, STATUS_C)

O1, O2, O3, O4 = "O1", "O2", "O3", "O4"


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


# op -> (statuses allowed at the attach vertex u, status word of the gadget,
# gadget edges in local ids 0..k-1, local id of the gadget vertex joined to u).
# The gadget's vertices get ids n..n+k-1 in local order.
_OPERATIONS = {
    O1: ((STATUS_A, STATUS_C), "ABA", ((0, 1), (1, 2)), 0),
    O2: ((STATUS_B,), "CBAA", ((0, 1), (1, 2), (1, 3)), 0),
    O3: ((STATUS_C,), "ABA", ((0, 1), (1, 2)), 1),
    O4: ((STATUS_A, STATUS_C), "ABACBAA", ((0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6)), 3),
}


def _grow(rows: list[int], statuses: list[str], op: str, u: int) -> None:
    """Apply ``op`` at ``u``, in place, to a tree held as open rows and a
    status list."""
    allowed, word, edges, joined = _OPERATIONS[op]
    n = len(rows)
    if not 0 <= u < n:
        raise OperationError(f"{op} needs a vertex of the tree, got {u}")
    if statuses[u] not in allowed:
        raise OperationError(
            f"{op} needs status {' or '.join(allowed)} at vertex {u}, found {statuses[u]}"
        )
    rows.extend([0] * len(word))
    statuses.extend(word)
    for a, b in edges:
        rows[n + a] |= 1 << n + b
        rows[n + b] |= 1 << n + a
    rows[u] |= 1 << n + joined
    rows[n + joined] |= 1 << u


def _apply(lt: LabelledTree, op: str, u: int) -> LabelledTree:
    rows, statuses = list(lt.tree.open_rows()), list(lt.statuses)
    _grow(rows, statuses, op, u)
    return LabelledTree(Graph(len(rows), rows), tuple(statuses))


def apply_o1(lt: LabelledTree, u: int) -> LabelledTree:
    """Attach a fresh path x-y-z by the edge u-x; u must have status A or C.

    New ids: x=n (A), y=n+1 (B), z=n+2 (A).
    """
    return _apply(lt, O1, u)


def apply_o2(lt: LabelledTree, u: int) -> LabelledTree:
    """Attach a fresh star (center y, leaves x,z,t) by the edge u-x; u must
    have status B.

    New ids: x=n (C), y=n+1 (B), z=n+2 (A), t=n+3 (A).
    """
    return _apply(lt, O2, u)


def apply_o3(lt: LabelledTree, u: int) -> LabelledTree:
    """Attach a fresh path x-y-z by the edge u-y (to the center); u must
    have status C.

    New ids: x=n (A), y=n+1 (B), z=n+2 (A).
    """
    return _apply(lt, O3, u)


def apply_o4(lt: LabelledTree, u: int) -> LabelledTree:
    """Attach a fresh copy of the 7-vertex gadget R by an edge from u to its
    C-vertex; u must have status A or C.

    New ids n..n+6: a=n (A), b=n+1 (B), c=n+2 (A), x=n+3 (C), y=n+4 (B),
    z=n+5 (A), t=n+6 (A); edges a-b, b-c, b-x, x-y, y-z, y-t, plus u-x.
    """
    return _apply(lt, O4, u)


def labelled_r() -> LabelledTree:
    """The 7-vertex gadget: one O2 application at the center of the base."""
    return apply_o2(base_k12(), 1)


def replay_script(script) -> LabelledTree:
    """Rebuild a labelled tree from a list of (operation, attach vertex)."""
    base = base_k12()
    rows, statuses = list(base.tree.open_rows()), list(base.statuses)
    for op, u in script:
        _grow(rows, statuses, op, u)
    return LabelledTree(Graph(len(rows), rows), tuple(statuses))


def generate_script_t(max_order: int) -> list[LabelledTree]:
    """Closure of the base under O1-O4 up to max_order, one representative
    per isomorphism class (the labelling is determined by the tree, so
    deduping on the tree alone is sound).  Sorted by order, then canonical
    tree encoding.  Limited to order `SCRIPT_T_LIMIT`, the kernels' order
    limit: no solver analyses a larger member, and the family roughly
    triples every two orders."""
    if max_order > SCRIPT_T_LIMIT:
        raise LimitExceededError(
            f"script T generation limited to order {SCRIPT_T_LIMIT}, got {max_order}")
    if max_order < 3:
        return []
    base = base_k12()
    seen = {tree_canonical_key(base.tree)}
    members = [base]
    frontier = [base]
    while frontier:
        nxt = []
        for lt in frontier:
            for op, (allowed, word, _, _) in _OPERATIONS.items():
                if lt.order + len(word) > max_order:
                    continue
                for u in range(lt.order):
                    if lt.status(u) not in allowed:
                        continue
                    child = _apply(lt, op, u)
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
    return _recognize(t, summary.all_min_sets[0] if summary.unique else None)


def _b_set_shape(t: Graph, dom) -> bool:
    """Whether ``dom`` is independent in ``t`` and each member has exactly
    three private neighbors: the shape of a member's B-set."""
    dmask = mask_of(dom)
    return all(
        not t.adjacency_mask(v) & dmask and len(private_neighbors(t, v, dom)) == 3
        for v in dom
    )


def _recognize(t: Graph, dom) -> Optional[LabelledTree]:
    """`recognize_script_t` on a checked tree, given its minimum dominating
    set when that is unique and None when it is not."""
    if dom is None or not _b_set_shape(t, dom):
        return None
    dmask = mask_of(dom)
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
# Roots the tree once at vertex 0 and peels one gadget at a time from a
# deepest alive leaf, mirroring how the family is built, down to the 3-vertex
# base.  Peeling never changes the depth of what is left, so visiting the
# vertices once, deepest first, always finds a deepest alive leaf.  Works on
# the original vertex ids through an "alive" bitmask.  The peels are then
# replayed in reverse through the operation table, carrying an original-id ->
# rebuilt-id map; the replay enforces the status preconditions.


def _next_peel(adj, alive: int, xm: int, parent):
    """The gadget at ``xm``, a deepest leaf of the tree ``alive`` under the
    rooting ``parent``, or None when no operation can have put it there.

    The parent of ``xm`` has only leaf children, and the other children of
    its grandparent have height at most 1.  Returns a list of alternatives,
    each a list of (op, attach vertex, gadget vertices in local order); every
    alternative removes the same vertices.
    """
    xm1 = parent[xm]
    xm2 = parent[xm1]
    if xm2 is None or not alive >> xm2 & 1:
        return None  # a star: no members this large

    def deg(v):
        return (adj[v] & alive).bit_count()

    def leaves(v):
        return [u for u in bits(adj[v] & alive) if deg(u) == 1]

    if deg(xm1) == 2:
        if deg(xm2) != 2:
            return None
        (u,) = bits(adj[xm2] & alive & ~(1 << xm1))
        return [[(O1, u, [xm2, xm1, xm])]]

    # deep-end support vertex with exactly two leaves
    ends = leaves(xm1)
    if deg(xm1) != 3 or len(ends) != 2:
        return None
    others = list(bits(adj[xm2] & alive & ~(1 << xm1)))
    zshaped = [w for w in others if deg(w) == 3 and len(leaves(w)) == 2]
    rest = [w for w in others if w not in zshaped]
    if not others or len(rest) > 1:
        return None
    if len(zshaped) >= 2:
        return [[(O3, xm2, [ends[0], xm1, ends[1]])]]
    if len(others) == 1:
        return [[(O2, others[0], [xm2, xm1, *ends])]]
    # one Z-shaped neighbour plus a port: its status decides at replay
    z, port = zshaped[0], rest[0]
    zends = leaves(z)
    return [
        [(O2, port, [xm2, z, *zends]), (O3, xm2, [ends[0], xm1, ends[1]])],
        [(O4, port, [zends[0], z, zends[1], xm2, xm1, *ends])],
    ]


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
    adj, alive = t.open_rows(), t.full_mask
    parent, preorder = _parents_preorder(adj, 0)
    depth = [0] * t.order
    for v in preorder[1:]:
        depth[v] = depth[parent[v]] + 1
    peels = []
    for xm in sorted(preorder, key=depth.__getitem__, reverse=True):
        if not alive >> xm & 1 or alive.bit_count() <= 5:
            continue
        alternatives = _next_peel(adj, alive, xm, parent)
        if alternatives is None:
            return None
        peels.append(alternatives)
        for _, _, gadget in alternatives[0]:
            alive &= ~mask_of(gadget)
    if alive.bit_count() != 3:
        return None
    center = next(v for v in bits(alive) if (adj[v] & alive).bit_count() == 2)
    low, high = bits(alive & ~(1 << center))
    mapping = {low: 0, center: 1, high: 2}
    base = base_k12()
    rows, statuses = list(base.tree.open_rows()), list(base.statuses)
    script = []
    for alternatives in reversed(peels):
        for steps in alternatives:
            op, u, _ = steps[0]
            if statuses[mapping[u]] in _OPERATIONS[op][0]:
                break
        else:
            return None
        for op, u, gadget in steps:
            script.append((op, mapping[u]))
            mapping.update(zip(gadget, range(len(rows), len(rows) + len(gadget))))
            _grow(rows, statuses, op, mapping[u])
    # the peel tracked ids exactly, so the rebuilt rows must match 1:1
    relabelled = [0] * t.order
    for v, row in enumerate(adj):
        relabelled[mapping[v]] = mask_of(mapping[u] for u in bits(row))
    if relabelled != rows:
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
