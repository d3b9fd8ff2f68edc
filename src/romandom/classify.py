"""Class membership predicates built on vertex/edge deletion, and the
Roman bondage number.

The classes come in two families: those defined through the Roman
domination number under single-vertex deletion, and those defined the
same way through the differential.  Both are computed from their own
definitions; their agreement is a theorem the harness re-checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import solvers
from .errors import BondageCapError, GraphError, InvariantViolationError
from .graphs import Graph, bits, delete_edges, delete_vertex, incident_edges, mask_of

DECREASED = "decreased"
UNCHANGED = "unchanged"
INCREASED = "increased"

DEFAULT_LIMIT = solvers.DEFAULT_EXACT_LIMIT


def _effect(base: int, after: int, v: int) -> str:
    """Classify gamma_R(G - v) = after against gamma_R(G) = base.

    A decrease of more than one contradicts a known lemma and is raised
    loudly rather than reported.
    """
    if after < base:
        if base - after != 1:
            raise InvariantViolationError(
                f"gamma_R dropped by {base - after} (not 1) deleting vertex {v}"
            )
        return DECREASED
    if after == base:
        return UNCHANGED
    return INCREASED


def _after_deletions(g: Graph, solve, limit: int, vertices=None):
    """solve(G - v) for each v of ``vertices`` (default: every vertex in
    order).  Lazy, so a caller that stops early solves no further deletions."""
    for v in range(g.order) if vertices is None else vertices:
        smaller, _ = delete_vertex(g, v)
        yield solve(smaller, limit)


def removal_effect(g: Graph, v: int, limit: int = DEFAULT_LIMIT) -> str:
    """Compare gamma_R(G - v) against gamma_R(G)."""
    base = solvers.roman_domination_number(g, limit)
    (after,) = _after_deletions(g, solvers.roman_domination_number, limit, (v,))
    return _effect(base, after, v)


def per_vertex_effects(g: Graph, limit: int = DEFAULT_LIMIT) -> dict[int, str]:
    base = solvers.roman_domination_number(g, limit)
    afters = _after_deletions(g, solvers.roman_domination_number, limit)
    return {v: _effect(base, after, v) for v, after in enumerate(afters)}


def in_class_r_uvr(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    """gamma_R unchanged by every single-vertex deletion."""
    base = solvers.roman_domination_number(g, limit)
    return all(a == base for a in _after_deletions(g, solvers.roman_domination_number, limit))


def in_class_r_cvr(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    """gamma_R changed by every single-vertex deletion."""
    base = solvers.roman_domination_number(g, limit)
    return all(a != base for a in _after_deletions(g, solvers.roman_domination_number, limit))


def in_class_d_uvr(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    """Differential analogue of vertex-removal stability.

    Deleting a vertex shrinks the order by one, so on a stable graph the
    differential must land exactly one below its old value; that shifted
    comparison is the class test (the unshifted one would contradict the
    identity tying the differential to gamma_R and the order).
    """
    base = solvers.differential_value(g, limit)
    return all(a == base - 1 for a in _after_deletions(g, solvers.differential_value, limit))


def in_class_d_cvr(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    base = solvers.differential_value(g, limit)
    return all(a != base - 1 for a in _after_deletions(g, solvers.differential_value, limit))


def is_roman(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    return solvers.roman_domination_number(g, limit) == 2 * solvers.domination_number(g, limit)


def is_urd(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    """Exactly one minimum-weight Roman dominating function."""
    return len(solvers.optimal_v2_sets(g, limit)) == 1


def vertex_never_one(g: Graph, v: int, limit: int = DEFAULT_LIMIT) -> bool:
    """True when no minimum-weight function assigns label 1 to v.

    Label 1 appears exactly on vertices outside N[V2], so this reduces to
    checking v is covered by every optimal V2.
    """
    if not (0 <= v < g.order):
        raise GraphError(f"vertex {v} not in graph")
    for v2 in solvers.optimal_v2_sets(g, limit):
        reach = mask_of(v2)
        for u in v2:
            reach |= g.adjacency_mask(u)
        if not reach >> v & 1:
            return False
    return True


def _path_triple_bound(g: Graph) -> int:
    """deg(x) + deg(y) + deg(z) - |N(x) cap N(y)| - 3 minimized over paths
    x, y, z.  Requires max degree >= 2, which guarantees such a path."""
    best = None
    for y in range(g.order):
        nbrs = list(bits(g.adjacency_mask(y)))
        if len(nbrs) < 2:
            continue
        for x in nbrs:
            common = (g.adjacency_mask(x) & g.adjacency_mask(y)).bit_count()
            for z in nbrs:
                if z == x:
                    continue
                val = g.degree(x) + g.degree(y) + g.degree(z) - common - 3
                if best is None or val < best:
                    best = val
    if best is None:
        raise GraphError("no path on three vertices; need maximum degree >= 2")
    return best


def bondage_cap(g: Graph, limit: int = DEFAULT_LIMIT) -> int:
    """Safety cap for the bondage search, from two proven upper bounds:
    the path-triple bound, and the degree of any vertex never labelled 1."""
    cap = _path_triple_bound(g)
    for v in range(g.order):
        if g.degree(v) < cap and vertex_never_one(g, v, limit):
            cap = g.degree(v)
    return max(cap, 1)


def roman_bondage_number(
    g: Graph, cap: int | None = None, limit: int = DEFAULT_LIMIT
) -> int:
    """Minimum number of edge deletions that raises gamma_R.

    Searches edge subsets by increasing size, lexicographically within a
    size; deleting edges never lowers gamma_R, so the first success is
    exact.  Exhausting the cap is a theorem violation and raises.
    """
    if g.order == 0 or g.max_degree() < 2:
        raise GraphError("Roman bondage requires maximum degree at least 2")
    if cap is None:
        cap = bondage_cap(g, limit)
    base = solvers.roman_domination_number(g, limit)
    edges = g.edges()
    for k in range(1, cap + 1):
        for subset in itertools.combinations(edges, k):
            if solvers.roman_domination_number(delete_edges(g, subset), limit) > base:
                return k
    raise BondageCapError(
        f"no edge set of size <= {cap} raised gamma_R; bound violated"
    )


@dataclass
class ClassReport:
    """All invariants and class memberships of one graph."""

    gamma: int
    gamma_r: int
    differential: int
    is_roman: bool
    in_r_uvr: bool
    in_r_cvr: bool
    in_d_uvr: bool
    in_d_cvr: bool
    is_urd: bool
    bondage: int | None
    per_vertex_effect: dict[int, str] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "gamma_r": self.gamma_r,
            "differential": self.differential,
            "is_roman": self.is_roman,
            "in_r_uvr": self.in_r_uvr,
            "in_r_cvr": self.in_r_cvr,
            "in_d_uvr": self.in_d_uvr,
            "in_d_cvr": self.in_d_cvr,
            "is_urd": self.is_urd,
            "bondage": self.bondage,
            "per_vertex_effect": {str(v): e for v, e in sorted(self.per_vertex_effect.items())},
        }


def build_class_report(
    g: Graph, limit: int = DEFAULT_LIMIT, with_bondage: bool = True
) -> ClassReport:
    effects = per_vertex_effects(g, limit)
    bondage = None
    if with_bondage and g.order > 0 and g.max_degree() >= 2:
        bondage = roman_bondage_number(g, limit=limit)
    gamma = solvers.domination_number(g, limit)
    gamma_r = solvers.roman_domination_number(g, limit)
    return ClassReport(
        gamma=gamma,
        gamma_r=gamma_r,
        differential=solvers.differential_value(g, limit),
        is_roman=gamma_r == 2 * gamma,
        in_r_uvr=all(e == UNCHANGED for e in effects.values()),
        in_r_cvr=all(e != UNCHANGED for e in effects.values()),
        in_d_uvr=in_class_d_uvr(g, limit),
        in_d_cvr=in_class_d_cvr(g, limit),
        is_urd=is_urd(g, limit),
        bondage=bondage,
        per_vertex_effect=effects,
    )


def graph_minus_all_incident(g: Graph, v: int) -> Graph:
    """G with every edge at v removed (v stays as an isolated vertex)."""
    return delete_edges(g, incident_edges(g, v))
