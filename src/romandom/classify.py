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

from . import kernels, solvers
from .errors import BondageCapError, GraphError, InvariantViolationError
from .graphs import (Graph, bits, connected_components, delete_edges, delete_vertex, incident_edges,
                     is_forest, mask_of, rows_without)

DECREASED = "decreased"
UNCHANGED = "unchanged"
INCREASED = "increased"
ROMAN = "gamma_r"
DIFFERENTIAL = "differential"

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


class Deletions:
    """gamma_R or the differential of G - v for v = 0, 1, ...; each value is
    kept once solved.

    Deleting a vertex shrinks the order by one, so on a differential-stable
    graph the differential must land exactly one below its old value; that
    shifted comparison is the class test (the unshifted one would contradict
    the identity tying the differential to gamma_R and the order).

    No graph is built for any G - v.  On a forest, each value, G's own
    included, is one kernel call on G's rows (with row v shifted out for
    G - v), solved when a reader first reaches it.  On a graph with a cycle,
    one level scan per component gives G's value and every G - v value at
    once (`_profile`); a value it leaves unproven, which then lies more than
    one from the class test's value, is solved the forest's way when a
    reader first reaches it.

    Built with ``ties``, it also counts the optimal sets (the optimal V2
    sets for gamma_R): ``tie_counts`` holds one count per component, read
    from the same scans, or one for a whole forest, from its tie programme.
    The optimal function of G is unique exactly when every count is 1.
    Without ``ties``, ``tie_counts`` is None.
    """

    def __init__(self, g: Graph, quantity: str, limit: int = DEFAULT_LIMIT, ties: bool = False):
        solvers._check_limit(g, limit)
        self._g = g
        self._roman = {ROMAN: True, DIFFERENTIAL: False}[quantity]
        if is_forest(g):
            self.base, self._values = self._value(None), []
            masks = kernels.min_cover_masks if self._roman else kernels.max_differential_masks
            self.tie_counts = [len(masks(self._rows(g)))] if ties else None
        else:
            self.base, self._values, self.tie_counts = self._profile(ties)
        self._target = self.base if self._roman else self.base - 1

    def _rows(self, g: Graph) -> list[int]:
        return g.closed_rows() if self._roman else g.open_rows()

    def _value(self, v: int | None) -> int:
        """One kernel call on G's rows, with vertex v deleted unless v is None.
        The rows are read from G each time, so a kept walk holds no copy."""
        rows = self._rows(self._g)
        if v is not None:
            rows = rows_without(rows, v)
        if self._roman:
            return kernels.min_weight_cover(rows) + solvers._GAMMA_R_OFFSET
        return kernels.max_differential(rows)

    def _profile(self, ties: bool) -> tuple[int, list[int | None], list[int] | None]:
        """G's value, every G - v value and the tie counts when asked, from
        one level scan per component C of G.  G - v is G with C swapped for
        C - v, so its value is base - value(C) + value(C - v), and the fault
        offset in base counts once.  None where the scan left C - v
        unproven."""
        scan = kernels.cover_scan if self._roman else kernels.differential_scan
        parts = [(old_ids, *scan(self._rows(comp), ties, True))
                 for comp, old_ids in connected_components(self._g)]
        base = sum(own for _, own, _, _ in parts) + (solvers._GAMMA_R_OFFSET if self._roman else 0)
        values = [None] * self._g.order
        for old_ids, own, _, afters in parts:
            for v, after in zip(old_ids, afters):
                if after is not None:
                    values[v] = base - own + after
        return base, values, [len(masks) for _, _, masks, _ in parts] if ties else None

    def __iter__(self):
        # by index, so interleaved iterators over one object stay correct
        for v in range(self._g.order):
            if v == len(self._values):  # a forest's values come one at a time
                self._values.append(None)
            if self._values[v] is None:
                self._values[v] = self._value(v)
            yield self._values[v]

    def unchanged(self):
        """Lazily, for each v in order: does G - v keep the shifted value?"""
        return (after == self._target for after in self)


def removal_effect(g: Graph, v: int, limit: int = DEFAULT_LIMIT) -> str:
    """Compare gamma_R(G - v) against gamma_R(G)."""
    base = solvers.roman_domination_number(g, limit)
    after = solvers.roman_domination_number(delete_vertex(g, v)[0], limit)
    return _effect(base, after, v)


def per_vertex_effects(g: Graph, limit: int = DEFAULT_LIMIT) -> dict[int, str]:
    walk = Deletions(g, ROMAN, limit)
    return {v: _effect(walk.base, after, v) for v, after in enumerate(walk)}


def in_class_r_uvr(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    """gamma_R unchanged by every single-vertex deletion."""
    return all(Deletions(g, ROMAN, limit).unchanged())


def in_class_r_cvr(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    """gamma_R changed by every single-vertex deletion."""
    return not any(Deletions(g, ROMAN, limit).unchanged())


def in_class_d_uvr(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    """Differential analogue of vertex-removal stability (see `Deletions`)."""
    return all(Deletions(g, DIFFERENTIAL, limit).unchanged())


def in_class_d_cvr(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    return not any(Deletions(g, DIFFERENTIAL, limit).unchanged())


def is_roman(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    return solvers.roman_domination_number(g, limit) == 2 * solvers.domination_number(g, limit)


def is_urd(g: Graph, limit: int = DEFAULT_LIMIT) -> bool:
    """Exactly one minimum-weight Roman dominating function."""
    return len(solvers.optimal_v2_sets(g, limit)) == 1


def never_one_mask(g: Graph, v2_sets) -> int:
    """Vertices that every optimal V2 in ``v2_sets`` covers: label 1 falls
    exactly outside N[V2], so no minimum-weight function labels them 1."""
    mask = g.full_mask
    for v2 in v2_sets:
        mask &= g.closed_reach(mask_of(v2))
    return mask


def vertex_never_one(g: Graph, v: int, limit: int = DEFAULT_LIMIT) -> bool:
    """True when no minimum-weight function assigns label 1 to v."""
    if not (0 <= v < g.order):
        raise GraphError(f"vertex {v} not in graph")
    return bool(never_one_mask(g, solvers.optimal_v2_sets(g, limit)) >> v & 1)


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
    never_one = never_one_mask(g, solvers.optimal_v2_sets(g, limit))
    return max(min([_path_triple_bound(g)] + [g.degree(v) for v in bits(never_one)]), 1)


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
        out = dict(vars(self))
        out["per_vertex_effect"] = {str(v): e for v, e in sorted(self.per_vertex_effect.items())}
        return out


def build_class_report(
    g: Graph, limit: int = DEFAULT_LIMIT, with_bondage: bool = True
) -> ClassReport:
    roman = Deletions(g, ROMAN, limit, ties=True)
    effects = {v: _effect(roman.base, after, v) for v, after in enumerate(roman)}
    bondage = None
    if with_bondage and g.order > 0 and g.max_degree() >= 2:
        bondage = roman_bondage_number(g, limit=limit)
    gamma = solvers.domination_number(g, limit)
    diff = Deletions(g, DIFFERENTIAL, limit)
    return ClassReport(
        gamma=gamma,
        gamma_r=roman.base,
        differential=diff.base,
        is_roman=roman.base == 2 * gamma,
        in_r_uvr=all(roman.unchanged()),
        in_r_cvr=not any(roman.unchanged()),
        in_d_uvr=all(diff.unchanged()),
        in_d_cvr=not any(diff.unchanged()),
        is_urd=all(count == 1 for count in roman.tie_counts),
        bondage=bondage,
        per_vertex_effect=effects,
    )


def graph_minus_all_incident(g: Graph, v: int) -> Graph:
    """G with every edge at v removed (v stays as an isolated vertex)."""
    return delete_edges(g, incident_edges(g, v))
