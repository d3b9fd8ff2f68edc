"""The tree-shaped kernels against independent answers: the branching
dominating-set search against full 2^n scans, the forest programmes for
γ_R and the differential against the size-ordered scans and the 3^n
oracle, their tie programmes for optimal V2 sets and minimum dominating
sets against full scans and the 3^n oracle, the deletion walk on forests
against deleting and solving, and THM-UN's pruned search against a walk
over all k-subsets."""

import itertools
import random
import tracemalloc

import pytest

from oracles import (brute_differential, brute_gamma_r, brute_gamma_r_functions,
                     brute_min_dominating_sets, full_scan_kernel)
from romandom import graphs, kernels, solvers, streams
from romandom.classify import DIFFERENTIAL, ROMAN, Deletions
from romandom.errors import LimitExceededError
from romandom.graphs import build_graph, delete_vertex, private_neighbors


def trees_upto(n):
    return [t for k in range(1, n + 1) for t in streams.free_trees(k)]


def random_forest(rng, n):
    """A forest on n vertices, labelled at random: each vertex after the
    first joins an earlier one, or starts a new tree."""
    place = list(range(n))
    rng.shuffle(place)
    p = rng.choice((0.6, 0.8, 0.95))
    edges = [(place[rng.randrange(v)], place[v]) for v in range(1, n) if rng.random() < p]
    return build_graph(n, edges)


def cover_weight(closed, mask):
    """2|S| + |V - N[S]| for the set S = mask."""
    reach = 0
    for v in graphs.bits(mask):
        reach |= closed[v]
    return 2 * mask.bit_count() + len(closed) - reach.bit_count()


def differential(open_rows, mask):
    """|B(S)| - |S| for the set S = mask."""
    reach = 0
    for v in graphs.bits(mask):
        reach |= open_rows[v]
    return (reach & ~mask).bit_count() - mask.bit_count()


def assert_forest_values(g):
    # max_differential_masks stays on the size-ordered levels, so its first
    # mask gives the value the scans find; min_cover_masks runs the tie
    # programme on forests, and the tie tests below pit it against full scans
    closed, open_rows = g.closed_rows(), g.open_rows()
    assert kernels.min_weight_cover(closed) == cover_weight(
        closed, kernels.min_cover_masks(closed)[0]), graphs.write_graph6(g)
    assert kernels.max_differential(open_rows) == differential(
        open_rows, kernels.max_differential_masks(open_rows)[0]), graphs.write_graph6(g)


def test_branching_matches_full_scan_on_every_tree_to_order_12():
    for t in trees_upto(12):
        closed = t.closed_rows()
        want = full_scan_kernel("min_dominating_masks", closed)
        assert kernels.min_dominating_masks(closed) == want, graphs.write_graph6(t)
        assert kernels.min_dominating_size(closed) == want[0].bit_count()


def test_branching_matches_full_scan_on_random_graphs_to_order_12():
    rng = random.Random(1712)
    for n in range(13):
        for _ in range(12):
            p = rng.choice((0.1, 0.2, 0.35, 0.5))
            g = build_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
            closed = g.closed_rows()
            for name in ("min_dominating_size", "min_dominating_masks"):
                assert getattr(kernels, name)(closed) == full_scan_kernel(name, closed), (name, closed)


def test_forest_programmes_match_the_scans_on_every_tree_minus_a_vertex():
    for t in trees_upto(12):
        assert_forest_values(t)
        for v in range(t.order):
            assert_forest_values(delete_vertex(t, v)[0])


def test_forest_programmes_match_the_scans_on_random_forests_to_order_16():
    rng = random.Random(1716)
    for n in range(1, 17):
        for _ in range(3):
            assert_forest_values(random_forest(rng, n))


def test_forest_programmes_match_the_three_to_the_n_oracle_to_order_9():
    rng = random.Random(1709)
    for n in range(1, 10):
        for _ in range(3):
            g = random_forest(rng, n)
            assert kernels.min_weight_cover(g.closed_rows()) == brute_gamma_r(g)
            assert kernels.max_differential(g.open_rows()) == brute_differential(g)


def test_solvers_take_a_forest_whole(monkeypatch):
    calls = []
    real = kernels.min_weight_cover

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(kernels, "min_weight_cover", counting)
    forest = graphs.disjoint_union(graphs.path_graph(4), graphs.star(5))
    cyclic = graphs.disjoint_union(graphs.path_graph(4), graphs.cycle_graph(3))
    assert solvers.roman_domination_number(forest) == 3 + 2
    assert solvers.roman_domination_number(cyclic) == 3 + 2
    assert calls == [9, 4, 3]


def walk_hits(t, k, need):
    """The dominating k-sets of t, in lexicographic order, whose members
    each have at least ``need`` private neighbours outside the set."""
    out = []
    for combo in itertools.combinations(range(t.order), k):
        if not solvers.is_dominating(t, combo):
            continue
        if all(len(private_neighbors(t, x, combo) - set(combo)) >= need for x in combo):
            out.append(graphs.mask_of(combo))
    return out


def test_private_search_matches_the_walk_on_every_tree_of_order_3_to_10():
    hits = 0
    for t in trees_upto(10):
        if t.order < 3:
            continue
        gamma = solvers.domination_number(t)
        closed = t.closed_rows()
        for k in (gamma, gamma + 1):
            want = walk_hits(t, k, 1)
            assert kernels.private_dominating_masks(closed, k, 1) == want, graphs.write_graph6(t)
            hits += len(want)
        # THM-UN's own predicate: no oversized set passes it
        assert kernels.private_dominating_masks(closed, gamma + 1, 2) == walk_hits(t, gamma + 1, 2) == []
    # the walk's count; counting a member as its own private neighbour gives 1667
    assert hits == 531


@pytest.mark.parametrize("make", [graphs.path_graph, graphs.star])
def test_order_24_forests_solve_in_bounded_memory(make):
    g = make(24)
    tracemalloc.start()
    try:
        values = [solvers.domination_number(g, 24), solvers.roman_domination_number(g, 24),
                  solvers.differential_value(g, 24)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values == ([8, 16, 8] if make is graphs.path_graph else [1, 2, 22])
    assert peak < 256 * 1024
    big = make(25)
    for solve in (solvers.domination_number, solvers.roman_domination_number,
                  solvers.differential_value):
        with pytest.raises(LimitExceededError):
            solve(big, 30)


TIE_KERNELS = ("min_cover_masks", "min_dominating_masks")


def assert_ties_match_full_scan(g, names=TIE_KERNELS):
    closed = g.closed_rows()
    for name in names:
        assert getattr(kernels, name)(closed) == full_scan_kernel(name, closed), (
            name, graphs.write_graph6(g))


def test_v2_ties_match_full_scan_on_every_tree_to_order_12():
    # min_dominating_masks on these trees is checked by the branching test
    # above, which now runs its tie programme
    for t in trees_upto(12):
        assert_ties_match_full_scan(t, ("min_cover_masks",))


def test_ties_match_full_scan_on_every_tree_minus_a_vertex_to_order_10():
    for t in trees_upto(10):
        for v in range(t.order):
            assert_ties_match_full_scan(delete_vertex(t, v)[0])


def test_ties_match_full_scan_on_random_forests_to_order_13():
    rng = random.Random(1813)
    for n in range(14):
        for _ in range(4):
            assert_ties_match_full_scan(random_forest(rng, n))


def test_ties_match_the_three_to_the_n_oracle_to_order_9():
    rng = random.Random(1819)
    for n in range(1, 10):
        for _ in range(3):
            g = random_forest(rng, n)
            closed = g.closed_rows()
            v2s = sorted(graphs.mask_of(v2) for _, _, v2 in brute_gamma_r_functions(g))
            assert kernels.min_cover_masks(closed) == v2s, graphs.write_graph6(g)
            doms = sorted(graphs.mask_of(d) for d in brute_min_dominating_sets(g))
            assert kernels.min_dominating_masks(closed) == doms, graphs.write_graph6(g)


SOLVERS = {ROMAN: solvers.roman_domination_number, DIFFERENTIAL: solvers.differential_value}


@pytest.mark.parametrize("fault", [None, solvers.FAULT_GAMMA_R_PLUS_ONE])
def test_forest_walk_matches_deleting_and_solving(fault):
    rng = random.Random(1816)
    forests = trees_upto(12) + [random_forest(rng, n) for n in range(1, 17) for _ in range(3)]
    solvers.set_fault_injection(fault)
    try:
        for g in forests:
            for quantity, solve in SOLVERS.items():
                walk = Deletions(g, quantity)
                assert walk.base == solve(g)
                assert list(walk) == [solve(delete_vertex(g, v)[0]) for v in range(g.order)], (
                    quantity, graphs.write_graph6(g))
    finally:
        solvers.set_fault_injection(None)


@pytest.mark.parametrize("make", [graphs.path_graph, graphs.star])
def test_order_24_forests_enumerate_in_bounded_memory(make):
    g = make(24)
    tracemalloc.start()
    try:
        v2s = solvers.optimal_v2_sets(g, 24)
        doms = solvers.minimum_dominating_sets(g, 24).all_min_sets
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # P24 has one optimal V2 and one minimum dominating set, {1, 4, ..., 22}
    want = [frozenset(range(1, 24, 3))] if make is graphs.path_graph else [frozenset({0})]
    assert (v2s, list(doms)) == (want, want)
    assert peak < 256 * 1024
    big = make(25)
    for solve in (solvers.optimal_v2_sets, solvers.minimum_dominating_sets):
        with pytest.raises(LimitExceededError):
            solve(big, 30)
