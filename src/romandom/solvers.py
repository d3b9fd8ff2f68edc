"""Exact solvers: domination number, Roman domination number, differential,
their optimal-set enumerations, and efficient dominating sets.

Everything is exhaustive search over vertex subsets (no approximation);
instances above the configured limit raise instead of degrading.  All
solvers split the input into connected components, solve per component and
combine: values add, enumerations form cartesian products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import kernels
from .errors import GraphError, LimitExceededError
from .graphs import Graph, bits, connected_components, is_tree, mask_of, private_neighbors

DEFAULT_EXACT_LIMIT = 20
SWEEP_EXACT_LIMIT = 16

# Fault injection for harness self-tests: offset added to every Roman
# domination number.  Never touched outside `set_fault_injection`.
_GAMMA_R_OFFSET = 0

FAULT_GAMMA_R_PLUS_ONE = "gamma-r-plus-one"


def set_fault_injection(mode: str | None) -> None:
    """Deliberately corrupt the gamma_R solver (mode 'gamma-r-plus-one'),
    or restore it (None).  Exists so the verification harness can prove
    it detects wrong solvers."""
    global _GAMMA_R_OFFSET
    if mode is None:
        _GAMMA_R_OFFSET = 0
    elif mode == FAULT_GAMMA_R_PLUS_ONE:
        _GAMMA_R_OFFSET = 1
    else:
        raise ValueError(f"unknown fault mode: {mode}")


def _check_limit(g: Graph, limit: int) -> None:
    if g.order > limit:
        raise LimitExceededError(
            f"exact search limited to order {limit}, got {g.order}"
        )


@dataclass(frozen=True)
class RomanFunction:
    """Ordered partition (V0, V1, V2) of the vertices of a host graph."""

    order: int
    v0: frozenset[int]
    v1: frozenset[int]
    v2: frozenset[int]

    def __post_init__(self):
        all_ids = set(self.v0) | set(self.v1) | set(self.v2)
        total = len(self.v0) + len(self.v1) + len(self.v2)
        if total != self.order or all_ids != set(range(self.order)):
            raise GraphError("V0, V1, V2 must partition the vertex set")

    @property
    def weight(self) -> int:
        return len(self.v1) + 2 * len(self.v2)

    def label(self, v: int) -> int:
        if v in self.v2:
            return 2
        if v in self.v1:
            return 1
        return 0


@dataclass(frozen=True)
class DominationSummary:
    gamma: int
    all_min_sets: tuple[frozenset[int], ...]
    unique: bool


def is_dominating(g: Graph, vertices) -> bool:
    """True when every vertex is in the set or adjacent to it."""
    dmask = mask_of(vertices)
    if dmask & ~g.full_mask:
        raise GraphError("set contains out-of-range vertices")
    reach = dmask
    for v in bits(dmask):
        reach |= g.adjacency_mask(v)
    return reach == g.full_mask


def _component_value(g: Graph, limit: int, kernel, rows) -> int:
    """Sum of ``kernel(rows(component))`` over the components.  ``rows`` is
    ``Graph.closed_rows`` or ``Graph.open_rows``."""
    _check_limit(g, limit)
    return sum(kernel(rows(comp)) for comp, _ in connected_components(g))


def _component_sets(g: Graph, limit: int, kernel, rows) -> list[frozenset[int]]:
    """Every union of one kernel mask per component, in global vertex ids,
    lexicographic by sorted vertex list.  Empty when some component has no
    mask."""
    _check_limit(g, limit)
    per_comp = [
        [frozenset(old_ids[i] for i in bits(m)) for m in kernel(rows(comp))]
        for comp, old_ids in connected_components(g)
    ]
    sets = [frozenset().union(*combo) for combo in itertools.product(*per_comp)]
    sets.sort(key=lambda s: tuple(sorted(s)))
    return sets


def domination_number(g: Graph, limit: int = DEFAULT_EXACT_LIMIT) -> int:
    return _component_value(g, limit, kernels.min_dominating_size, Graph.closed_rows)


def minimum_dominating_sets(g: Graph, limit: int = DEFAULT_EXACT_LIMIT) -> DominationSummary:
    """All minimum dominating sets, lexicographic by sorted vertex list."""
    sets = _component_sets(g, limit, kernels.min_dominating_masks, Graph.closed_rows)
    return DominationSummary(len(sets[0]), tuple(sets), len(sets) == 1)


def roman_domination_number(g: Graph, limit: int = DEFAULT_EXACT_LIMIT) -> int:
    """Exact gamma_R via min over S of 2|S| + |V - N[S]|, per component."""
    value = _component_value(g, limit, kernels.min_weight_cover, Graph.closed_rows)
    return value + _GAMMA_R_OFFSET


def optimal_v2_sets(g: Graph, limit: int = DEFAULT_EXACT_LIMIT) -> list[frozenset[int]]:
    """V2 sets of all minimum-weight Roman dominating functions.

    Every optimal function is determined by its V2: V1 is forced to the
    vertices outside N[V2] and V0 to the rest.
    """
    return _component_sets(g, limit, kernels.min_cover_masks, Graph.closed_rows)


def function_from_v2(g: Graph, v2) -> RomanFunction:
    """The minimum-weight function with the given V2: unreached vertices
    get label 1, dominated outsiders get 0."""
    v2mask = mask_of(v2)
    reach = v2mask
    for v in bits(v2mask):
        reach |= g.adjacency_mask(v)
    v1mask = g.full_mask & ~reach
    v0mask = g.full_mask & ~v2mask & ~v1mask
    return RomanFunction(
        g.order,
        frozenset(bits(v0mask)),
        frozenset(bits(v1mask)),
        frozenset(bits(v2mask)),
    )


def gamma_r_functions(g: Graph, limit: int = DEFAULT_EXACT_LIMIT) -> list[RomanFunction]:
    """Every minimum-weight Roman dominating function, deterministic order."""
    return [function_from_v2(g, v2) for v2 in optimal_v2_sets(g, limit)]


def validate_rdf(g: Graph, f: RomanFunction) -> tuple[bool, int | None]:
    """Check the defining condition: every 0-vertex has a 2-neighbor.

    Returns (ok, witness); the witness is a violating vertex.
    """
    if f.order != g.order:
        raise GraphError("function is for a different order")
    v2mask = mask_of(f.v2)
    for v in sorted(f.v0):
        if not g.adjacency_mask(v) & v2mask:
            return False, v
    return True, None


def differential_value(g: Graph, limit: int = DEFAULT_EXACT_LIMIT) -> int:
    """max over S of |B(S)| - |S|.  Computed from open neighborhoods,
    independently of the Roman solver."""
    return _component_value(g, limit, kernels.max_differential, Graph.open_rows)


def differential_sets(g: Graph, limit: int = DEFAULT_EXACT_LIMIT) -> list[frozenset[int]]:
    return _component_sets(g, limit, kernels.max_differential_masks, Graph.open_rows)


def efficient_dominating_sets(g: Graph, limit: int = DEFAULT_EXACT_LIMIT) -> list[frozenset[int]]:
    """All sets whose closed neighborhoods partition the vertex set."""
    return _component_sets(g, limit, kernels.efficient_dominating_masks, Graph.closed_rows)


def tree_unique_gamma_structural(t: Graph, dom) -> bool:
    """Structural uniqueness test for a dominating set of a tree: every
    member needs two nonadjacent private neighbors.  Equivalence with
    actual gamma-set uniqueness is a theorem the harness re-verifies."""
    if not is_tree(t):
        raise GraphError("expected a tree")
    if t.order < 3:
        raise GraphError("expected a tree of order at least 3")
    dset = frozenset(dom)
    if not is_dominating(t, dset):
        raise GraphError("set is not dominating")
    return _tree_unique_gamma_structural(t, dset)


def _tree_unique_gamma_structural(t: Graph, dset: frozenset[int]) -> bool:
    """`tree_unique_gamma_structural` without validation: ``t`` must be a
    tree of order at least 3 and ``dset`` a dominating set of it."""
    for v in dset:
        pn = sorted(private_neighbors(t, v, dset))
        ok = any(
            not t.has_edge(a, b)
            for i, a in enumerate(pn)
            for b in pn[i + 1:]
        )
        if not ok:
            return False
    return True
