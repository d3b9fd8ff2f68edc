"""Theorem-check registry and exhaustive verification sweeps.

Each check re-verifies one proven statement over an exhaustive instance
stream (all small trees, all small connected graphs, all small unicyclic
graphs, or a constructed family).  A check yields one result per instance;
failures always carry a witness.  Exceptions inside a case are recorded as
failures, never swallowed, so even solver-level invariant violations
surface in the report.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

from . import classify, labelled, solvers
from .graphs import (
    Graph,
    bits,
    boundary,
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
from .streams import connected_graphs, free_trees, unicyclic_graphs


@dataclass(frozen=True)
class Limits:
    trees_max_n: int = 12
    graphs_max_n: int = 6
    unicyclic_n: int = 8

    def validate(self) -> None:
        if not 3 <= self.trees_max_n <= 16:
            raise ValueError("trees_max_n must be in 3..16")
        if not 1 <= self.graphs_max_n <= 7:
            raise ValueError("graphs_max_n must be in 1..7")
        if not 3 <= self.unicyclic_n <= 10:
            raise ValueError("unicyclic_n must be in 3..10")


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
# Sweeps revisit the same graphs from many checks; the caches are cleared
# whenever a suite starts so fault injection cannot leak stale answers.

LIMIT = solvers.SWEEP_EXACT_LIMIT


@lru_cache(maxsize=None)
def _gamma(g: Graph) -> int:
    return solvers.domination_number(g, LIMIT)


@lru_cache(maxsize=None)
def _gamma_r(g: Graph) -> int:
    return solvers.roman_domination_number(g, LIMIT)


@lru_cache(maxsize=None)
def _diff(g: Graph) -> int:
    return solvers.differential_value(g, LIMIT)


@lru_cache(maxsize=None)
def _v2_sets(g: Graph) -> tuple[frozenset[int], ...]:
    return tuple(solvers.optimal_v2_sets(g, LIMIT))


@lru_cache(maxsize=None)
def _min_dom(g: Graph) -> solvers.DominationSummary:
    return solvers.minimum_dominating_sets(g, LIMIT)


@lru_cache(maxsize=None)
def _in_r_uvr(g: Graph) -> bool:
    return classify.in_class_r_uvr(g, LIMIT)


@lru_cache(maxsize=None)
def _in_d_uvr(g: Graph) -> bool:
    return classify.in_class_d_uvr(g, LIMIT)


_SOLVER_CACHES = (_gamma, _gamma_r, _diff, _v2_sets, _min_dom, _in_r_uvr, _in_d_uvr)


def clear_caches() -> None:
    for cache in _SOLVER_CACHES:
        cache.cache_clear()


# Corpus caches are solver-independent and safe to keep across runs.


@lru_cache(maxsize=None)
def _connected_upto(maxn: int) -> tuple[Graph, ...]:
    out: list[Graph] = []
    for n in range(1, maxn + 1):
        out.extend(connected_graphs(n))
    return tuple(out)


@lru_cache(maxsize=None)
def _trees_range(lo: int, hi: int) -> tuple[Graph, ...]:
    out: list[Graph] = []
    for n in range(lo, hi + 1):
        if n >= 1:
            out.extend(free_trees(n))
    return tuple(out)


@lru_cache(maxsize=None)
def _unicyclic_at(n: int) -> tuple[Graph, ...]:
    return tuple(unicyclic_graphs(n))


@lru_cache(maxsize=None)
def _script_members(max_order: int) -> tuple[labelled.LabelledTree, ...]:
    return tuple(labelled.generate_script_t(max_order))


def _mixed_corpus(limits: Limits) -> Iterator[Graph]:
    """Connected graphs up to the graph limit, then the larger trees; the
    small trees are already among the connected graphs."""
    yield from _connected_upto(limits.graphs_max_n)
    yield from _trees_range(max(3, limits.graphs_max_n + 1), limits.trees_max_n)


def _label(g: Graph, **extra) -> dict:
    out = {"graph6": write_graph6(g)}
    out.update(extra)
    return out


def _closed_reach(g: Graph, vertices) -> int:
    reach = mask_of(vertices)
    for v in bits(reach):
        reach |= g.adjacency_mask(v)
    return reach


# -- independent brute-force enumeration (used where a check would otherwise
#    lean on the very reduction it is meant to validate) ----------------------


def _brute_optimal_functions(g: Graph) -> list[tuple[frozenset, frozenset, frozenset]]:
    """All minimum-weight functions by trying all 3^n labelings."""
    n = g.order
    best = None
    out: list[tuple[frozenset, frozenset, frozenset]] = []
    for labels in itertools.product((0, 1, 2), repeat=n):
        twos = mask_of(v for v in range(n) if labels[v] == 2)
        ok = all(
            g.adjacency_mask(v) & twos for v in range(n) if labels[v] == 0
        )
        if not ok:
            continue
        weight = sum(labels)
        if best is None or weight < best:
            best = weight
            out = []
        if weight == best:
            out.append(
                tuple(
                    frozenset(v for v in range(n) if labels[v] == i)
                    for i in (0, 1, 2)
                )
            )
    return out


# -- the checks -------------------------------------------------------------
#
# A check is a generator of (instance label, thunk); the thunk returns
# (ok, witness).  The runner measures and wraps exceptions.

Case = tuple[dict, Callable[[], tuple[bool, dict | str | None]]]


def _check_eq1(limits: Limits) -> Iterator[Case]:
    for g in _connected_upto(limits.graphs_max_n):
        def case(g=g):
            lo, hi = _gamma(g), _gamma_r(g)
            ok = lo <= hi <= 2 * lo
            return ok, None if ok else {"gamma": lo, "gamma_r": hi}
        yield _label(g), case


def _check_lem_on(limits: Limits) -> Iterator[Case]:
    for g in _connected_upto(limits.graphs_max_n):
        def case(g=g):
            if g.order <= 6:
                functions = _brute_optimal_functions(g)
            else:
                functions = [
                    (f.v0, f.v1, f.v2) for f in solvers.gamma_r_functions(g, LIMIT)
                ]
            for v0, v1, v2 in functions:
                v2mask = mask_of(v2)
                v1mask = mask_of(v1)
                for v in v1:
                    if g.adjacency_mask(v) & v2mask:
                        return False, {"edge_between_v1_v2_at": v}
                    if (g.adjacency_mask(v) & v1mask).bit_count() > 1:
                        return False, {"v1_component_too_big_at": v, "v1": sorted(v1)}
            return True, None
        yield _label(g), case


def _check_lem_minus(limits: Limits) -> Iterator[Case]:
    for g in _connected_upto(limits.graphs_max_n):
        def case(g=g):
            base = _gamma_r(g)
            for v in range(g.order):
                smaller = delete_vertices(g, [v])[0]
                drop = base - solvers.roman_domination_number(smaller, LIMIT)
                ever_one = any(
                    not _closed_reach(g, s) >> v & 1 for s in _v2_sets(g)
                )
                if (drop > 0) != ever_one:
                    return False, {"vertex": v, "drop": drop, "label1_exists": ever_one}
                if drop > 0 and drop != 1:
                    return False, {"vertex": v, "drop": drop}
            return True, None
        yield _label(g), case


def _check_lem_minuse(limits: Limits) -> Iterator[Case]:
    for g in _connected_upto(limits.graphs_max_n):
        edges = g.edges()
        sampled = g.order >= 7
        chosen = edges[::3] if sampled else edges
        if not chosen:
            continue
        def case(g=g, chosen=chosen):
            base = _gamma_r(g)
            for e in chosen:
                after = solvers.roman_domination_number(delete_edges(g, [e]), LIMIT)
                if after < base:
                    return False, {"edge": list(e), "before": base, "after": after}
            return True, None
        yield _label(g, sampled=sampled), case


def _check_thm_r(limits: Limits) -> Iterator[Case]:
    for g in _connected_upto(limits.graphs_max_n):
        def case(g=g):
            roman = _gamma_r(g) == 2 * _gamma(g)
            no_ones = any(
                _closed_reach(g, s) == g.full_mask for s in _v2_sets(g)
            )
            ok = roman == no_ones
            return ok, None if ok else {"roman": roman, "v1_empty_function": no_ones}
        yield _label(g), case


def _check_thm_un(limits: Limits) -> Iterator[Case]:
    for t in _trees_range(3, limits.trees_max_n):
        def case(t=t):
            summary = _min_dom(t)
            for dom in summary.all_min_sets:
                structural = solvers.tree_unique_gamma_structural(t, dom)
                if structural != summary.unique:
                    return False, {"set": sorted(dom), "structural": structural,
                                   "unique": summary.unique}
            # non-minimum dominating sets are never the unique minimum one
            k = summary.gamma + 1
            if k <= t.order:
                closed, full = t.closed_rows(), t.full_mask
                for combo in itertools.combinations(range(t.order), k):
                    reach = 0
                    for v in combo:
                        reach |= closed[v]
                    if reach != full:
                        continue
                    if solvers._tree_unique_gamma_structural(t, frozenset(combo)):
                        return False, {"oversized_structural_set": list(combo)}
            return True, None
        yield _label(t), case


def _check_thm_diff_i(limits: Limits) -> Iterator[Case]:
    for g in _mixed_corpus(limits):
        def case(g=g):
            ok = _gamma_r(g) + _diff(g) == g.order
            return ok, None if ok else {"gamma_r": _gamma_r(g), "differential": _diff(g)}
        yield _label(g), case


def _check_thm_diff_ii(limits: Limits) -> Iterator[Case]:
    for g in _mixed_corpus(limits):
        if g.order > 8:
            continue
        def case(g=g):
            v2s = set(_v2_sets(g))
            dsets = set(solvers.differential_sets(g, LIMIT))
            if v2s != dsets:
                return False, {
                    "optimal_v2_only": [sorted(s) for s in v2s - dsets],
                    "differential_only": [sorted(s) for s in dsets - v2s],
                }
            for f in solvers.gamma_r_functions(g, LIMIT):
                if f.v0 != boundary(g, f.v2):
                    return False, {"v2": sorted(f.v2), "v0": sorted(f.v0)}
            return True, None
        yield _label(g), case


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


def _check_obs_pn3(limits: Limits) -> Iterator[Case]:
    for g in _mixed_corpus(limits):
        if not _in_r_uvr(g):
            continue
        def case(g=g):
            if _gamma_r(g) != 2 * _gamma(g):
                return False, {"not_roman": True}
            for v2 in _v2_sets(g):
                if _closed_reach(g, v2) != g.full_mask:
                    return False, {"v1_nonempty_for": sorted(v2)}
                if len(v2) != _gamma(g):
                    return False, {"v2_not_minimum": sorted(v2)}
                for v in v2:
                    if len(private_neighbors(g, v, v2)) < 3:
                        return False, {"v2": sorted(v2), "small_pn_at": v}
            for dom in _min_dom(g).all_min_sets:
                f = solvers.function_from_v2(g, dom)
                ok, bad = solvers.validate_rdf(g, f)
                if not ok or f.weight != _gamma_r(g) or f.v1:
                    return False, {"gamma_set": sorted(dom), "violation": bad}
            return True, None
        yield _label(g), case


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
                    f = solvers.function_from_v2(g, pair)
                    ok, bad = solvers.validate_rdf(g, f)
                    if not ok or f.weight != 4 or f.v1:
                        return False, {"pair": sorted(pair), "violation": bad}
                    for x in pair:
                        if len(private_neighbors(g, x, pair)) not in (r - 1, r):
                            return False, {"pair": sorted(pair), "pn_size_at": x}
            return True, None
        yield _label(g, family=f"two-cliques r={r}"), case


def _check_prop_3v2(limits: Limits) -> Iterator[Case]:
    for g in _mixed_corpus(limits):
        if g.order == 0 or not _in_r_uvr(g):
            continue
        def case(g=g):
            n, gr = g.order, _gamma_r(g)
            if 3 * gr > 2 * n:
                return False, {"gamma_r": gr, "order": n}
            equality = 3 * gr == 2 * n
            if equality:
                eds = set(solvers.efficient_dominating_sets(g, LIMIT))
                for v2 in _v2_sets(g):
                    if v2 not in eds:
                        return False, {"v2_not_efficient": sorted(v2)}
                    if any(g.degree(v) != 2 for v in v2):
                        return False, {"v2_with_wrong_degree": sorted(v2)}
            degree2_eds = any(
                all(g.degree(v) == 2 for v in d)
                for d in solvers.efficient_dominating_sets(g, LIMIT)
            )
            if degree2_eds and not equality:
                return False, {"degree2_eds_without_equality": True}
            if g.min_degree() >= 3 and 3 * gr >= 2 * n:
                return False, {"min_degree": g.min_degree(), "gamma_r": gr}
            return True, None
        yield _label(g), case


def _check_prop_02(limits: Limits) -> Iterator[Case]:
    for g in _connected_upto(limits.graphs_max_n):
        hyp = [
            v for v in range(g.order)
            if all(_closed_reach(g, s) >> v & 1 for s in _v2_sets(g))
        ]
        if not hyp:
            continue
        def case(g=g, hyp=hyp):
            base = _gamma_r(g)
            for v in hyp:
                stripped = classify.graph_minus_all_incident(g, v)
                after = solvers.roman_domination_number(stripped, LIMIT)
                if after <= base:
                    return False, {"vertex": v, "before": base, "after": after}
            return True, None
        yield _label(g, vertices=hyp), case


def _check_cor_uvrbon(limits: Limits) -> Iterator[Case]:
    for g in _connected_upto(limits.graphs_max_n):
        if g.order == 0 or g.max_degree() < 2 or not _in_r_uvr(g):
            continue
        def case(g=g):
            # capping the search at the minimum degree makes the bound the
            # test: exhausting the cap raises and is recorded as a failure
            b = classify.roman_bondage_number(g, cap=g.min_degree(), limit=LIMIT)
            return True, {"bondage": b}
        yield _label(g), case


def _check_cor_uvrtree(limits: Limits) -> Iterator[Case]:
    for t in _trees_range(3, limits.trees_max_n):
        if not _in_r_uvr(t):
            continue
        def case(t=t):
            b = classify.roman_bondage_number(t, cap=3, limit=LIMIT)
            ok = b == 1
            return ok, None if ok else {"bondage": b}
        yield _label(t), case


def _labelled_cases(limits: Limits) -> Iterator[labelled.LabelledTree]:
    yield from _script_members(limits.trees_max_n)


def _check_obs_sabc(limits: Limits) -> Iterator[Case]:
    for lt in _labelled_cases(limits):
        def case(lt=lt):
            bad = labelled.sabc_violations(lt, LIMIT)
            return not bad, {"violations": bad} if bad else None
        yield _label(lt.tree, statuses="".join(lt.statuses)), case


def _check_cor_unilab(limits: Limits) -> Iterator[Case]:
    for lt in _labelled_cases(limits):
        def case(lt=lt):
            rec = labelled.recognize_script_t(lt.tree, LIMIT)
            if rec is None:
                return False, {"recognized": False}
            ok = rec.statuses == lt.statuses
            return ok, None if ok else {"expected": "".join(lt.statuses),
                                         "recognized": "".join(rec.statuses)}
        yield _label(lt.tree, statuses="".join(lt.statuses)), case


def _check_obs_equi(limits: Limits) -> Iterator[Case]:
    for g in _mixed_corpus(limits):
        def case(g=g):
            r_u, d_u = _in_r_uvr(g), _in_d_uvr(g)
            r_c = classify.in_class_r_cvr(g, LIMIT)
            d_c = classify.in_class_d_cvr(g, LIMIT)
            ok = r_u == d_u and r_c == d_c
            return ok, None if ok else {"r_uvr": r_u, "d_uvr": d_u,
                                        "r_cvr": r_c, "d_cvr": d_c}
        yield _label(g), case


def _criterion_unique_function(t: Graph) -> bool:
    """Unique optimal function with no 1s, independent V2, and exactly three
    private neighbors per V2 vertex."""
    v2s = _v2_sets(t)
    if len(v2s) != 1:
        return False
    v2 = v2s[0]
    if _closed_reach(t, v2) != t.full_mask:
        return False
    v2mask = mask_of(v2)
    for v in v2:
        if t.adjacency_mask(v) & v2mask:
            return False
        if len(private_neighbors(t, v, v2)) != 3:
            return False
    return True


def _check_thm_main(limits: Limits) -> Iterator[Case]:
    keys = {tree_canonical_key(lt.tree) for lt in _script_members(limits.trees_max_n)}
    for t in _trees_range(3, limits.trees_max_n):
        def case(t=t):
            flags = {
                "constructed": tree_canonical_key(t) in keys,
                "vertex_removal_stable": _in_r_uvr(t),
                "unique_function_shape": _criterion_unique_function(t),
                "unique_gamma_set_shape": labelled.recognize_script_t(t, LIMIT) is not None,
                "differential_stable": _in_d_uvr(t),
            }
            ok = len(set(flags.values())) == 1
            return ok, None if ok else flags
        yield _label(t), case


def _check_cor_sb(limits: Limits) -> Iterator[Case]:
    for lt in _labelled_cases(limits):
        def case(lt=lt):
            expected = labelled.canonical_gamma_r_function(lt)
            fns = solvers.gamma_r_functions(lt.tree, LIMIT)
            ok = fns == [expected]
            return ok, None if ok else {"function_count": len(fns)}
        yield _label(lt.tree, statuses="".join(lt.statuses)), case


def _check_cor_vdel(limits: Limits) -> Iterator[Case]:
    for lt in _labelled_cases(limits):
        def case(lt=lt):
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
        yield _label(lt.tree, statuses="".join(lt.statuses)), case


def _check_cor_edel(limits: Limits) -> Iterator[Case]:
    for lt in _labelled_cases(limits):
        f = labelled.canonical_gamma_r_function(lt)
        inner = [e for e in lt.tree.edges() if e[0] in f.v0 and e[1] in f.v0]
        if not inner:
            continue
        def case(lt=lt, inner=inner):
            for e in inner:
                forest = delete_edges(lt.tree, [e])
                if not _in_r_uvr(forest):
                    return False, {"edge": list(e), "forest_member": False}
                for comp, _ in connected_components(forest):
                    if not _in_r_uvr(comp):
                        return False, {"edge": list(e), "component_order": comp.order}
            return True, None
        yield _label(lt.tree, statuses="".join(lt.statuses)), case


def _check_prop_t1(limits: Limits) -> Iterator[Case]:
    for lt in _labelled_cases(limits):
        def case(lt=lt):
            no_c = labelled.in_t1(lt)
            equality = 2 * lt.order == 3 * _gamma_r(lt.tree)
            ok = no_c == equality
            return ok, None if ok else {"no_c_vertices": no_c, "two_thirds": equality}
        yield _label(lt.tree, statuses="".join(lt.statuses)), case


def _check_minedge_i(limits: Limits) -> Iterator[Case]:
    maxn = limits.trees_max_n

    def orders_case():
        got = sorted({lt.order for lt in _script_members(maxn)})
        want = sorted(n for n in range(3, maxn + 1) if n in (3, 6, 7) or n >= 9)
        ok = got == want
        return ok, None if ok else {"orders": got, "expected": want}

    yield {"family": f"constructed trees up to {maxn}"}, orders_case
    for n in (4, 5, 8):
        if n > maxn:
            continue
        for t in _trees_range(n, n):
            def case(t=t):
                ok = not _in_r_uvr(t)
                return ok, None if ok else {"unexpected_member": True}
            yield _label(t), case


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
    if n == 8 and limits.trees_max_n >= 8:
        for t in _trees_range(8, 8):
            def case(t=t):
                ok = not _in_r_uvr(t)
                return ok, None if ok else {"unexpected_member": True}
            yield _label(t), case


@dataclass(frozen=True)
class Check:
    check_id: str
    statement: str
    domain: str
    cases: Callable[[Limits], Iterator[Case]]


REGISTRY: dict[str, Check] = {
    c.check_id: c
    for c in (
        Check("EQ1", "gamma <= gamma_R <= 2 gamma", "graphs", _check_eq1),
        Check("LEM-ON", "optimal functions: 1-labelled parts have order >= 2 and never touch a 2", "graphs", _check_lem_on),
        Check("LEM-MINUS", "vertex deletion lowers gamma_R iff some optimal function labels it 1; drops are exactly 1", "graphs", _check_lem_minus),
        Check("LEM-MINUSE", "edge deletion never lowers gamma_R", "graphs", _check_lem_minuse),
        Check("THM-R", "gamma_R = 2 gamma iff an optimal function avoids label 1", "graphs", _check_thm_r),
        Check("THM-UN", "a dominating set of a tree is the unique minimum one iff each member has two nonadjacent private neighbors", "trees", _check_thm_un),
        Check("THM-DIFF-I", "gamma_R plus the differential equals the order", "graphs+trees", _check_thm_diff_i),
        Check("THM-DIFF-II", "optimal V2 sets and maximum-differential sets coincide, with V0 the boundary of V2", "graphs+trees", _check_thm_diff_ii),
        Check("OBS-DISC", "membership in the vertex-removal-stable class holds iff it holds per component", "graph pairs", _check_obs_disc),
        Check("OBS-PN3", "stable graphs: no 1s, V2 a minimum dominating set, three private neighbors each; every minimum dominating set lifts to an optimal function", "members", _check_obs_pn3),
        Check("REM-E1", "two bridged cliques: gamma_R 4, stable, private neighborhoods of size r-1 or r", "constructed", _check_rem_e1),
        Check("PROP-3V2", "stable connected graphs satisfy 3 gamma_R <= 2n, with equality exactly in the degree-2 efficient-domination case", "members", _check_prop_3v2),
        Check("PROP-02", "stripping all edges at a vertex never labelled 1 raises gamma_R", "graphs", _check_prop_02),
        Check("COR-UVRBON", "stable graphs: bondage at most the minimum degree", "members", _check_cor_uvrbon),
        Check("COR-UVRTREE", "stable trees have bondage exactly 1", "tree members", _check_cor_uvrtree),
        Check("OBS-SABC", "structural facts of the labelling (independent dominating B-set, A/B/C degree conditions, unique minimum dominating set)", "constructed trees", _check_obs_sabc),
        Check("COR-UNILAB", "the labelling of a constructed tree is unique and recoverable", "constructed trees", _check_cor_unilab),
        Check("OBS-EQUI", "vertex-removal stability under gamma_R and under the differential coincide", "graphs+trees", _check_obs_equi),
        Check("THM-MAIN", "five-way equivalence for trees: constructed, removal-stable, unique-function shape, unique-dominating-set shape, differential-stable", "trees", _check_thm_main),
        Check("COR-SB", "the 2-on-B function is the unique optimal function of a constructed tree", "constructed trees", _check_cor_sb),
        Check("COR-VDEL", "deleting two private neighbors of a V2 vertex lowers gamma_R by exactly 1", "constructed trees", _check_cor_vdel),
        Check("COR-EDEL", "deleting an edge between 0-labelled vertices keeps every part removal-stable", "constructed trees", _check_cor_edel),
        Check("PROP-T1", "no C-vertices iff gamma_R equals two thirds of the order", "constructed trees", _check_prop_t1),
        Check("MINEDGE-I", "tree members exist exactly at orders 3, 6, 7 and 9 upward", "trees", _check_minedge_i),
        Check("MINEDGE-II", "orders 4 and 5: unique minimum-size member, 2n-3 edges, the join of an edge with isolated vertices", "graphs", _check_minedge_ii),
        Check("MINEDGE-III", "order 8: the unique unicyclic member is the 4-cycle with paired leaves; no order-8 tree is a member", "unicyclic", _check_minedge_iii),
    )
}

CHECK_IDS: tuple[str, ...] = tuple(REGISTRY)


def run_suite(
    suite: str = "all",
    limits: Limits = Limits(),
    fault: str | None = None,
) -> SuiteReport:
    """Run one check or every check over its instance stream.

    Deterministic given (suite, limits, fault); the optional fault mode
    corrupts the Roman domination solver so the harness can prove it is
    not vacuous.
    """
    limits.validate()
    if suite != "all" and suite not in REGISTRY:
        raise ValueError(f"unknown check id: {suite}")
    ids = list(CHECK_IDS) if suite == "all" else [suite]
    report = SuiteReport()
    clear_caches()
    solvers.set_fault_injection(fault)
    try:
        for check_id in ids:
            for instance, thunk in REGISTRY[check_id].cases(limits):
                started = time.perf_counter()
                try:
                    ok, witness = thunk()
                except Exception as exc:  # recorded, never swallowed
                    ok, witness = False, f"{type(exc).__name__}: {exc}"
                report.results.append(
                    CheckResult(check_id, instance, ok, witness,
                                time.perf_counter() - started)
                )
    finally:
        solvers.set_fault_injection(None)
        clear_caches()
    return report
