"""Theorem-check registry and exhaustive verification sweeps.

Each check re-verifies one proven statement over an exhaustive instance
stream (all small trees, all small connected graphs, all small unicyclic
graphs, or a constructed family).  A check yields one result per instance;
failures always carry a witness.  Exceptions inside a case, or while a
check chooses its instances, are recorded as failures, never swallowed, so
even solver-level invariant violations surface in the report.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator

from . import classify, kernels, labelled, solvers, streams
from .errors import LimitExceededError
from .graphs import (
    Graph,
    bits,
    connected_components,
    delete_edges,
    delete_vertices,
    disjoint_union,
    edgeless_graph,
    figure3_graph,
    complete_graph,
    are_isomorphic,
    join_graph,
    mask_of,
    private_neighbors,
    tree_canonical_key,
    two_cliques_bridge,
    write_graph6,
)


@dataclass(frozen=True)
class Limits:
    trees_max_n: int = 12
    graphs_max_n: int = 6
    unicyclic_n: int = 8

    def validate(self) -> None:
        if not 3 <= self.trees_max_n <= streams.FREE_TREE_LIMIT:
            raise LimitExceededError(f"trees_max_n must be in 3..{streams.FREE_TREE_LIMIT}")
        if not 1 <= self.graphs_max_n <= streams.CONNECTED_GRAPH_LIMIT:
            raise LimitExceededError(f"graphs_max_n must be in 1..{streams.CONNECTED_GRAPH_LIMIT}")
        if not 3 <= self.unicyclic_n <= streams.UNICYCLIC_LIMIT:
            raise LimitExceededError(f"unicyclic_n must be in 3..{streams.UNICYCLIC_LIMIT}")


@dataclass
class CheckResult:
    check_id: str
    instance: dict
    ok: bool
    witness: dict | str | None = None
    elapsed: float = 0.0

    def to_json_dict(self, with_timing: bool = False) -> dict:
        out = {
            "check": self.check_id,
            "instance": self.instance,
            "ok": self.ok,
            "witness": self.witness,
        }
        if with_timing:
            out["seconds"] = round(self.elapsed, 6)
        return out


@dataclass
class SuiteReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def per_check(self) -> dict[str, tuple[int, int]]:
        out: dict[str, tuple[int, int]] = {}
        for r in self.results:
            ran, bad = out.get(r.check_id, (0, 0))
            out[r.check_id] = (ran + 1, bad + (0 if r.ok else 1))
        return out

    @property
    def all_passed(self) -> bool:
        return not self.failures


# -- cached solver wrappers ------------------------------------------------
#
# Sweeps revisit the same graphs from many checks; gamma_R, the differential
# and their stable classes come from one deletion walk per graph and quantity.
# Every suite clears the caches, so fault injection cannot leak stale answers.

LIMIT = solvers.SWEEP_EXACT_LIMIT


@lru_cache(maxsize=None)
def _gamma(g: Graph) -> int:
    return solvers.domination_number(g, LIMIT)


@lru_cache(maxsize=None)
def _deletions(g: Graph, quantity: str) -> classify.Deletions:
    return classify.Deletions(g, quantity, LIMIT)


def _gamma_r(g: Graph) -> int:
    return _deletions(g, classify.ROMAN).base


def _diff(g: Graph) -> int:
    return _deletions(g, classify.DIFFERENTIAL).base


@lru_cache(maxsize=None)
def _v2_sets(g: Graph) -> tuple[frozenset[int], ...]:
    return tuple(solvers.optimal_v2_sets(g, LIMIT))


@lru_cache(maxsize=None)
def _min_dom(t: Graph) -> tuple[int, ...]:
    """The minimum dominating sets of a tree as masks, ascending."""
    solvers._check_limit(t, LIMIT)
    return tuple(kernels.min_dominating_masks(t.closed_rows()))


def _unique_min_dom(t: Graph) -> list[int] | None:
    """The minimum dominating set of a tree when it is unique, else None."""
    doms = _min_dom(t)
    return list(bits(doms[0])) if len(doms) == 1 else None


def _in_r_uvr(g: Graph) -> bool:
    return all(_deletions(g, classify.ROMAN).unchanged())


_SOLVER_CACHES = (_gamma, _deletions, _v2_sets, _min_dom)


def clear_caches() -> None:
    for cache in _SOLVER_CACHES:
        cache.cache_clear()


# Corpus caches are solver-independent and safe to keep across runs.  Each
# order is generated once; the ranges join the cached orders.  The corpora
# of the checks below look them up by name when called, so rebinding a
# cache reaches every check.


@lru_cache(maxsize=None)
def _connected_at(n: int) -> tuple[Graph, ...]:
    return tuple(streams.connected_graphs(n))


@lru_cache(maxsize=None)
def _trees_at(n: int) -> tuple[Graph, ...]:
    return tuple(streams.free_trees(n))


def _connected_upto(maxn: int) -> tuple[Graph, ...]:
    return tuple(itertools.chain.from_iterable(map(_connected_at, range(1, maxn + 1))))


def _trees_range(lo: int, hi: int) -> tuple[Graph, ...]:
    return tuple(itertools.chain.from_iterable(map(_trees_at, range(lo, hi + 1))))


@lru_cache(maxsize=None)
def _unicyclic_at(n: int) -> tuple[Graph, ...]:
    return tuple(streams.unicyclic_graphs(n))


@lru_cache(maxsize=None)
def _script_members(max_order: int) -> tuple[labelled.LabelledTree, ...]:
    return tuple(labelled.generate_script_t(max_order))


def _graphs(limits: Limits) -> tuple[Graph, ...]:
    return _connected_upto(limits.graphs_max_n)


def _trees(limits: Limits) -> tuple[Graph, ...]:
    return _trees_range(3, limits.trees_max_n)


def _constructed(limits: Limits) -> tuple[labelled.LabelledTree, ...]:
    return _script_members(limits.trees_max_n)


def _mixed_corpus(limits: Limits) -> Iterator[Graph]:
    """Connected graphs up to the graph limit, then the larger trees; the
    small trees are already among the connected graphs."""
    yield from _connected_upto(limits.graphs_max_n)
    yield from _trees_range(max(3, limits.graphs_max_n + 1), limits.trees_max_n)


def _label(item: Graph | labelled.LabelledTree, **extra) -> dict:
    """The graph6 of an instance, and the statuses of a constructed tree."""
    if isinstance(item, labelled.LabelledTree):
        extra["statuses"] = "".join(item.statuses)
        item = item.tree
    return {"graph6": write_graph6(item), **extra}


# -- independent brute-force enumeration (used where a check would otherwise
#    lean on the very reduction it is meant to validate) ----------------------


def _brute_optimal_functions(g: Graph) -> list[tuple[int, int]]:
    """All minimum-weight functions as (V2, V1) mask pairs, by trying all
    3^n labelings: V2 is any subset, V1 any subset of the rest, and every
    vertex left at 0 needs a neighbor in V2."""
    full = g.full_mask
    best = None
    out: list[tuple[int, int]] = []
    for v2 in range(full + 1):
        covered = g.closed_reach(v2)
        rest = full & ~v2
        v1 = rest
        while True:
            if not rest & ~v1 & ~covered:
                weight = 2 * v2.bit_count() + v1.bit_count()
                if best is None or weight < best:
                    best = weight
                    out = []
                if weight == best:
                    out.append((v2, v1))
            if not v1:
                break
            v1 = (v1 - 1) & rest
    return out


# -- the checks -------------------------------------------------------------
#
# A check's cases(limits) is a generator of (instance label, thunk); the
# thunk returns (ok, witness).  The runner measures and wraps exceptions.
# A check that tests each corpus item on its own is declared by _per_item
# from its corpus, its test of one item and an optional chooser; the rest
# are generators.

Case = tuple[dict, Callable[[], tuple[bool, dict | str | None]]]


def _per_item(corpus, test, choose=None) -> Callable[[Limits], Iterator[Case]]:
    """The cases of a check that runs ``test(item)`` on each item of
    ``corpus(limits)``.  ``choose(item)``, when given, returns extra label
    fields, or None to skip the item."""
    def cases(limits: Limits) -> Iterator[Case]:
        for item in corpus(limits):
            extra = {} if choose is None else choose(item)
            if extra is not None:
                yield _label(item, **extra), partial(test, item)
    return cases


def _member(g: Graph) -> dict | None:
    return {} if _in_r_uvr(g) else None


def _not_member(t: Graph):
    ok = not _in_r_uvr(t)
    return ok, None if ok else {"unexpected_member": True}


def _eq1(g: Graph):
    lo, hi = _gamma(g), _gamma_r(g)
    ok = lo <= hi <= 2 * lo
    return ok, None if ok else {"gamma": lo, "gamma_r": hi}


def _lem_on(g: Graph):
    for v2, v1 in _brute_optimal_functions(g):
        for v in bits(v1):
            if g.adjacency_mask(v) & v2:
                return False, {"edge_between_v1_v2_at": v}
            if (g.adjacency_mask(v) & v1).bit_count() > 1:
                return False, {"v1_component_too_big_at": v, "v1": list(bits(v1))}
    return True, None


def _lem_minus(g: Graph):
    walk = _deletions(g, classify.ROMAN)
    never_one = classify.never_one_mask(g, _v2_sets(g))
    for v, after in enumerate(walk):
        drop = walk.base - after
        ever_one = not never_one >> v & 1
        if (drop > 0) != ever_one:
            return False, {"vertex": v, "drop": drop, "label1_exists": ever_one}
        if drop > 0 and drop != 1:
            return False, {"vertex": v, "drop": drop}
    return True, None


def _with_edges(g: Graph) -> dict | None:
    # from order 7 on, every third edge is deleted (see _lem_minuse)
    return {"sampled": g.order >= 7} if g.size else None


def _lem_minuse(g: Graph):
    base = _gamma_r(g)
    edges = g.edges()
    for e in edges[::3] if g.order >= 7 else edges:
        after = solvers.roman_domination_number(delete_edges(g, [e]), LIMIT)
        if after < base:
            return False, {"edge": list(e), "before": base, "after": after}
    return True, None


def _thm_r(g: Graph):
    roman = _gamma_r(g) == 2 * _gamma(g)
    no_ones = any(
        g.closed_reach(mask_of(s)) == g.full_mask for s in _v2_sets(g)
    )
    ok = roman == no_ones
    return ok, None if ok else {"roman": roman, "v1_empty_function": no_ones}


def _thm_un(t: Graph):
    closed, doms = t.closed_rows(), _min_dom(t)
    unique = len(doms) == 1
    wrong = [dom for dom in doms if solvers._tree_unique_gamma_mask(closed, dom) != unique]
    if wrong:
        # the witness is the first wrong set in lexicographic order
        dom = min(wrong, key=lambda m: list(bits(m)))
        return False, {"set": list(bits(dom)), "structural": not unique, "unique": unique}
    # non-minimum dominating sets are never the unique minimum one.  In a
    # tree two neighbours of a member are never adjacent, so the structural
    # test asks for two private neighbours outside the set, and the search
    # finds, in lexicographic order, every set it could accept
    for mask in kernels.private_dominating_masks(closed, doms[0].bit_count() + 1, 2):
        if solvers._tree_unique_gamma_mask(closed, mask):
            return False, {"oversized_structural_set": list(bits(mask))}
    return True, None


def _thm_diff_i(g: Graph):
    ok = _gamma_r(g) + _diff(g) == g.order
    return ok, None if ok else {"gamma_r": _gamma_r(g), "differential": _diff(g)}


def _up_to_order_eight(g: Graph) -> dict | None:
    return {} if g.order <= 8 else None


def _thm_diff_ii(g: Graph):
    v2s = set(_v2_sets(g))
    dsets = set(solvers.differential_sets(g, LIMIT))
    if v2s != dsets:
        return False, {
            "optimal_v2_only": [sorted(s) for s in v2s - dsets],
            "differential_only": [sorted(s) for s in dsets - v2s],
        }
    for v2, v1 in _brute_optimal_functions(g):
        v0 = g.full_mask & ~v2 & ~v1
        if v0 != g.closed_reach(v2) & ~v2:
            return False, {"v2": list(bits(v2)), "v0": list(bits(v0))}
    return True, None


def _check_obs_disc(limits: Limits) -> Iterator[Case]:
    parts = _connected_upto(limits.graphs_max_n)
    for i, g in enumerate(parts):
        for h in parts[i:]:
            if g.order + h.order > limits.graphs_max_n:
                continue
            union = disjoint_union(g, h)
            def case(g=g, h=h, union=union):
                whole = _in_r_uvr(union)
                partwise = _in_r_uvr(g) and _in_r_uvr(h)
                ok = whole == partwise
                return ok, None if ok else {"union": whole, "components": partwise}
            yield _label(union), case


def _obs_pn3(g: Graph):
    if _gamma_r(g) != 2 * _gamma(g):
        return False, {"not_roman": True}
    for v2 in _v2_sets(g):
        if g.closed_reach(mask_of(v2)) != g.full_mask:
            return False, {"v1_nonempty_for": sorted(v2)}
        if len(v2) != _gamma(g):
            return False, {"v2_not_minimum": sorted(v2)}
        for v in v2:
            if len(private_neighbors(g, v, v2)) < 3:
                return False, {"v2": sorted(v2), "small_pn_at": v}
    # gamma_R = 2 gamma, so 2 on any minimum dominating set is optimal with no 1s
    return True, None


def _check_rem_e1(limits: Limits) -> Iterator[Case]:
    for r in (4, 5, 6):
        g = two_cliques_bridge(r)
        def case(g=g, r=r):
            if _gamma_r(g) != 4:
                return False, {"gamma_r": _gamma_r(g)}
            if not _in_r_uvr(g):
                return False, {"member": False}
            for x1 in range(r):
                for x2 in range(r, 2 * r):
                    pair = frozenset((x1, x2))
                    if g.closed_reach(mask_of(pair)) != g.full_mask:
                        return False, {"pair": sorted(pair), "dominating": False}
                    for x in pair:
                        if len(private_neighbors(g, x, pair)) not in (r - 1, r):
                            return False, {"pair": sorted(pair), "pn_size_at": x}
            return True, None
        yield _label(g, family=f"two-cliques r={r}"), case


def _prop_3v2(g: Graph):
    n, gr = g.order, _gamma_r(g)
    if 3 * gr > 2 * n:
        return False, {"gamma_r": gr, "order": n}
    equality = 3 * gr == 2 * n
    eds = solvers.efficient_dominating_sets(g, LIMIT)
    if equality:
        for v2 in _v2_sets(g):
            if v2 not in eds:
                return False, {"v2_not_efficient": sorted(v2)}
            if any(g.degree(v) != 2 for v in v2):
                return False, {"v2_with_wrong_degree": sorted(v2)}
    degree2_eds = any(all(g.degree(v) == 2 for v in d) for d in eds)
    if degree2_eds and not equality:
        return False, {"degree2_eds_without_equality": True}
    if g.min_degree() >= 3 and 3 * gr >= 2 * n:
        return False, {"min_degree": g.min_degree(), "gamma_r": gr}
    return True, None


def _with_never_one(g: Graph) -> dict | None:
    hyp = list(bits(classify.never_one_mask(g, _v2_sets(g))))
    return {"vertices": hyp} if hyp else None


def _prop_02(g: Graph):
    base = _gamma_r(g)
    for v in bits(classify.never_one_mask(g, _v2_sets(g))):
        stripped = classify.graph_minus_all_incident(g, v)
        after = solvers.roman_domination_number(stripped, LIMIT)
        if after <= base:
            return False, {"vertex": v, "before": base, "after": after}
    return True, None


def _member_of_degree_two(g: Graph) -> dict | None:
    return {} if g.max_degree() >= 2 and _in_r_uvr(g) else None


def _cor_uvrbon(g: Graph):
    # capping the search at the minimum degree makes the bound the test:
    # exhausting the cap raises and is recorded as a failure
    b = classify.roman_bondage_number(g, cap=g.min_degree(), limit=LIMIT)
    return True, {"bondage": b}


def _cor_uvrtree(t: Graph):
    b = classify.roman_bondage_number(t, cap=3, limit=LIMIT)
    ok = b == 1
    return ok, None if ok else {"bondage": b}


def _obs_sabc(lt: labelled.LabelledTree):
    bad = labelled.sabc_violations(lt, LIMIT)
    return not bad, {"violations": bad} if bad else None


def _cor_unilab(lt: labelled.LabelledTree):
    rec = labelled._recognize(lt.tree, _unique_min_dom(lt.tree))
    if rec is None:
        return False, {"recognized": False}
    ok = rec.statuses == lt.statuses
    return ok, None if ok else {"expected": "".join(lt.statuses),
                                "recognized": "".join(rec.statuses)}


def _obs_equi(g: Graph):
    roman, diff = _deletions(g, classify.ROMAN), _deletions(g, classify.DIFFERENTIAL)
    r_u, d_u = all(roman.unchanged()), all(diff.unchanged())
    r_c, d_c = not any(roman.unchanged()), not any(diff.unchanged())
    ok = r_u == d_u and r_c == d_c
    return ok, None if ok else {"r_uvr": r_u, "d_uvr": d_u, "r_cvr": r_c, "d_cvr": d_c}


def _criterion_unique_function(t: Graph) -> bool:
    """Unique optimal function with no 1s, independent V2, and exactly three
    private neighbors per V2 vertex."""
    v2s = _v2_sets(t)
    if len(v2s) != 1:
        return False
    v2 = v2s[0]
    return t.closed_reach(mask_of(v2)) == t.full_mask and labelled._b_set_shape(t, v2)


def _check_thm_main(limits: Limits) -> Iterator[Case]:
    members = [lt.tree for lt in _script_members(limits.trees_max_n)]
    keys = {tree_canonical_key(m) for m in members}
    # a tree whose degree sequence no member has is not one: no key needed
    degrees = {m.degree_sequence() for m in members}
    for t in _trees_range(3, limits.trees_max_n):
        def case(t=t):
            flags = {
                "constructed": t.degree_sequence() in degrees and tree_canonical_key(t) in keys,
                "vertex_removal_stable": _in_r_uvr(t),
                "unique_function_shape": _criterion_unique_function(t),
                "unique_gamma_set_shape": labelled._recognize(t, _unique_min_dom(t)) is not None,
                "differential_stable": all(_deletions(t, classify.DIFFERENTIAL).unchanged()),
            }
            ok = len(set(flags.values())) == 1
            return ok, None if ok else flags
        yield _label(t), case


def _cor_sb(lt: labelled.LabelledTree):
    expected = labelled.canonical_gamma_r_function(lt)
    fns = [solvers.function_from_v2(lt.tree, v2) for v2 in _v2_sets(lt.tree)]
    ok = fns == [expected]
    return ok, None if ok else {"function_count": len(fns)}


def _cor_vdel(lt: labelled.LabelledTree):
    t = lt.tree
    base = _gamma_r(t)
    f = labelled.canonical_gamma_r_function(lt)
    for x in sorted(f.v2):
        pn = sorted(private_neighbors(t, x, f.v2))
        for u, v in itertools.combinations(pn, 2):
            rest = delete_vertices(t, [u, v])[0]
            after = solvers.roman_domination_number(rest, LIMIT)
            if after != base - 1:
                return False, {"x": x, "pair": [u, v], "after": after,
                               "expected": base - 1}
    return True, None


def _inner_edges(lt: labelled.LabelledTree) -> list[tuple[int, int]]:
    """The edges between two vertices the canonical function labels 0."""
    v0 = labelled.canonical_gamma_r_function(lt).v0
    return [e for e in lt.tree.edges() if e[0] in v0 and e[1] in v0]


def _with_inner_edges(lt: labelled.LabelledTree) -> dict | None:
    return {} if _inner_edges(lt) else None


def _cor_edel(lt: labelled.LabelledTree):
    for e in _inner_edges(lt):
        forest = delete_edges(lt.tree, [e])
        parts = connected_components(forest)
        if len(parts) != 2:
            return False, {"edge": list(e), "components": len(parts)}
        if not _in_r_uvr(forest):
            return False, {"edge": list(e), "forest_member": False}
        for comp, _ in parts:
            if not _in_r_uvr(comp):
                return False, {"edge": list(e), "component_order": comp.order}
    return True, None


def _prop_t1(lt: labelled.LabelledTree):
    no_c = labelled.in_t1(lt)
    equality = 2 * lt.order == 3 * _gamma_r(lt.tree)
    ok = no_c == equality
    return ok, None if ok else {"no_c_vertices": no_c, "two_thirds": equality}


def _minedge_i_trees(limits: Limits) -> list[Graph]:
    return [t for n in (4, 5, 8) if n <= limits.trees_max_n for t in _trees_range(n, n)]


def _check_minedge_i(limits: Limits) -> Iterator[Case]:
    maxn = limits.trees_max_n

    def orders_case():
        got = sorted({lt.order for lt in _script_members(maxn)})
        want = sorted(n for n in range(3, maxn + 1) if n in (3, 6, 7) or n >= 9)
        ok = got == want
        return ok, None if ok else {"orders": got, "expected": want}

    yield {"family": f"constructed trees up to {maxn}"}, orders_case
    yield from _per_item(_minedge_i_trees, _not_member)(limits)


def _check_minedge_ii(limits: Limits) -> Iterator[Case]:
    for n in (4, 5):
        if n > limits.graphs_max_n:
            continue
        def case(n=n):
            members = [g for g in _connected_upto(n) if g.order == n and _in_r_uvr(g)]
            if not members:
                return False, {"members": 0}
            smallest = min(g.size for g in members)
            at_min = [g for g in members if g.size == smallest]
            expected = join_graph(complete_graph(2), edgeless_graph(n - 2))
            ok = (
                smallest == 2 * n - 3
                and len(at_min) == 1
                and are_isomorphic(at_min[0], expected)
            )
            return ok, None if ok else {
                "min_size": smallest,
                "count_at_min": len(at_min),
                "expected_size": 2 * n - 3,
            }
        yield {"family": f"connected graphs of order {n}"}, case


def _order_eight_trees(limits: Limits) -> tuple[Graph, ...]:
    return _trees_range(8, 8) if limits.trees_max_n >= 8 else ()


def _check_minedge_iii(limits: Limits) -> Iterator[Case]:
    n = limits.unicyclic_n

    def unicyclic_case():
        members = [g for g in _unicyclic_at(n) if _in_r_uvr(g)]
        if n != 8:
            # informational at other orders; the uniqueness claim is for 8
            return True, {"members": [write_graph6(g) for g in members]}
        ok = (
            len(members) == 1
            and members[0].size == 8
            and are_isomorphic(members[0], figure3_graph())
        )
        return ok, None if ok else {"members": [write_graph6(g) for g in members]}

    yield {"family": f"unicyclic graphs of order {n}"}, unicyclic_case
    if n == 8:
        yield from _per_item(_order_eight_trees, _not_member)(limits)


@dataclass(frozen=True)
class Check:
    check_id: str
    statement: str
    domain: str
    cases: Callable[[Limits], Iterator[Case]]


REGISTRY: dict[str, Check] = {
    c.check_id: c
    for c in (
        Check("EQ1", "gamma <= gamma_R <= 2 gamma", "graphs", _per_item(_graphs, _eq1)),
        Check("LEM-ON", "optimal functions: 1-labelled parts have order >= 2 and never touch a 2", "graphs", _per_item(_graphs, _lem_on)),
        Check("LEM-MINUS", "vertex deletion lowers gamma_R iff some optimal function labels it 1; drops are exactly 1", "graphs", _per_item(_graphs, _lem_minus)),
        Check("LEM-MINUSE", "edge deletion never lowers gamma_R", "graphs", _per_item(_graphs, _lem_minuse, _with_edges)),
        Check("THM-R", "gamma_R = 2 gamma iff an optimal function avoids label 1", "graphs", _per_item(_graphs, _thm_r)),
        Check("THM-UN", "a dominating set of a tree is the unique minimum one iff each member has two nonadjacent private neighbors", "trees", _per_item(_trees, _thm_un)),
        Check("THM-DIFF-I", "gamma_R plus the differential equals the order", "graphs+trees", _per_item(_mixed_corpus, _thm_diff_i)),
        Check("THM-DIFF-II", "optimal V2 sets and maximum-differential sets coincide, with V0 the boundary of V2", "graphs+trees", _per_item(_mixed_corpus, _thm_diff_ii, _up_to_order_eight)),
        Check("OBS-DISC", "membership in the vertex-removal-stable class holds iff it holds per component", "graph pairs", _check_obs_disc),
        Check("OBS-PN3", "stable graphs: no 1s, V2 a minimum dominating set, three private neighbors each; every minimum dominating set lifts to an optimal function", "members", _per_item(_mixed_corpus, _obs_pn3, _member)),
        Check("REM-E1", "two bridged cliques: gamma_R 4, stable, private neighborhoods of size r-1 or r", "constructed", _check_rem_e1),
        Check("PROP-3V2", "stable connected graphs satisfy 3 gamma_R <= 2n, with equality exactly in the degree-2 efficient-domination case", "members", _per_item(_mixed_corpus, _prop_3v2, _member)),
        Check("PROP-02", "stripping all edges at a vertex never labelled 1 raises gamma_R", "graphs", _per_item(_graphs, _prop_02, _with_never_one)),
        Check("COR-UVRBON", "stable graphs: bondage at most the minimum degree", "members", _per_item(_graphs, _cor_uvrbon, _member_of_degree_two)),
        Check("COR-UVRTREE", "stable trees have bondage exactly 1", "tree members", _per_item(_trees, _cor_uvrtree, _member)),
        Check("OBS-SABC", "structural facts of the labelling (independent dominating B-set, A/B/C degree conditions, unique minimum dominating set)", "constructed trees", _per_item(_constructed, _obs_sabc)),
        Check("COR-UNILAB", "the labelling of a constructed tree is unique and recoverable", "constructed trees", _per_item(_constructed, _cor_unilab)),
        Check("OBS-EQUI", "vertex-removal stability under gamma_R and under the differential coincide", "graphs+trees", _per_item(_mixed_corpus, _obs_equi)),
        Check("THM-MAIN", "five-way equivalence for trees: constructed, removal-stable, unique-function shape, unique-dominating-set shape, differential-stable", "trees", _check_thm_main),
        Check("COR-SB", "the 2-on-B function is the unique optimal function of a constructed tree", "constructed trees", _per_item(_constructed, _cor_sb)),
        Check("COR-VDEL", "deleting two private neighbors of a V2 vertex lowers gamma_R by exactly 1", "constructed trees", _per_item(_constructed, _cor_vdel)),
        Check("COR-EDEL", "deleting an edge between 0-labelled vertices keeps every part removal-stable", "constructed trees", _per_item(_constructed, _cor_edel, _with_inner_edges)),
        Check("PROP-T1", "no C-vertices iff gamma_R equals two thirds of the order", "constructed trees", _per_item(_constructed, _prop_t1)),
        Check("MINEDGE-I", "tree members exist exactly at orders 3, 6, 7 and 9 upward", "trees", _check_minedge_i),
        Check("MINEDGE-II", "orders 4 and 5: unique minimum-size member, 2n-3 edges, the join of an edge with isolated vertices", "graphs", _check_minedge_ii),
        Check("MINEDGE-III", "order 8: the unique unicyclic member is the 4-cycle with paired leaves; no order-8 tree is a member", "unicyclic", _check_minedge_iii),
    )
}

CHECK_IDS: tuple[str, ...] = tuple(REGISTRY)


def _guarded(cases: Iterator[Case]) -> Iterator[Case]:
    """A check's cases; if choosing the next instance raises, one last case
    that raises the same exception, so the runner records it as a failure."""
    try:
        yield from cases
    except Exception as exc:
        def reraise(exc=exc):
            raise exc
        yield {"choosing_instances": True}, reraise


def run_checks(
    suite: str,
    limits: Limits,
    fault: str | None,
    sink: Callable[[CheckResult], None],
) -> None:
    """Run one check or every check over its instance stream, handing each
    result to ``sink`` as soon as it is made.

    Deterministic given (suite, limits, fault); the optional fault mode
    corrupts the Roman domination solver so the harness can prove it is
    not vacuous.  The fault and the solver caches are cleared however the
    run ends, also when ``sink`` raises.
    """
    limits.validate()
    if suite != "all" and suite not in REGISTRY:
        raise ValueError(f"unknown check id: {suite}")
    ids = list(CHECK_IDS) if suite == "all" else [suite]
    clear_caches()
    solvers.set_fault_injection(fault)
    try:
        for check_id in ids:
            for instance, thunk in _guarded(REGISTRY[check_id].cases(limits)):
                started = time.perf_counter()
                try:
                    ok, witness = thunk()
                except Exception as exc:  # recorded, never swallowed
                    ok, witness = False, f"{type(exc).__name__}: {exc}"
                sink(CheckResult(check_id, instance, ok, witness,
                                 time.perf_counter() - started))
    finally:
        solvers.set_fault_injection(None)
        clear_caches()


def run_suite(
    suite: str = "all",
    limits: Limits = Limits(),
    fault: str | None = None,
) -> SuiteReport:
    """`run_checks` with every result kept in one report."""
    report = SuiteReport()
    run_checks(suite, limits, fault, report.results.append)
    return report
