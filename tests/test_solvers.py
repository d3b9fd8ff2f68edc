import itertools
import random

import pytest

from oracles import (
    brute_differential,
    brute_efficient_dominating_sets,
    brute_gamma,
    brute_gamma_r,
    brute_gamma_r_functions,
    brute_min_dominating_sets,
)
from romandom import graphs, solvers, streams
from romandom.errors import GraphError, LimitExceededError
from romandom.graphs import bits, build_graph, disjoint_union
from romandom.solvers import (
    RomanFunction,
    differential_sets,
    differential_value,
    domination_number,
    efficient_dominating_sets,
    gamma_r_functions,
    is_dominating,
    minimum_dominating_sets,
    roman_domination_number,
    tree_unique_gamma_structural,
    validate_rdf,
)


def random_graph(rng, n, p=0.4):
    return build_graph(
        n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
    )


def test_is_dominating():
    p3 = graphs.path_graph(3)
    assert is_dominating(p3, [1])
    assert not is_dominating(p3, [0])
    assert is_dominating(graphs.cycle_graph(6), [0, 3])


def test_domination_frozen_values():
    # values computed with the subset-enumeration oracle
    p6 = graphs.path_graph(6)
    summary = minimum_dominating_sets(p6)
    assert summary.gamma == 2
    assert summary.all_min_sets == (frozenset({1, 4}),)
    assert summary.unique

    p4 = graphs.path_graph(4)
    summary = minimum_dominating_sets(p4)
    assert summary.gamma == 2
    assert set(summary.all_min_sets) == {
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({1, 2}),
        frozenset({1, 3}),
    }
    assert not summary.unique

    edgeless = graphs.edgeless_graph(4)
    summary = minimum_dominating_sets(edgeless)
    assert summary.gamma == 4 and summary.unique


def test_domination_matches_oracle():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 7))
        assert domination_number(g) == brute_gamma(g)
        got = set(minimum_dominating_sets(g).all_min_sets)
        assert got == set(brute_min_dominating_sets(g)) or g.order == 0


def test_gamma_r_frozen_values():
    # 3^n oracle values
    assert roman_domination_number(graphs.path_graph(3)) == 2
    assert roman_domination_number(graphs.path_graph(4)) == 3
    assert roman_domination_number(graphs.path_graph(6)) == 4
    assert roman_domination_number(graphs.cycle_graph(6)) == 4
    assert roman_domination_number(graphs.figure3_graph()) == 4
    assert roman_domination_number(graphs.cube_graph()) == 4
    assert roman_domination_number(graphs.complete_bipartite(4, 4)) == 4
    assert roman_domination_number(graphs.edgeless_graph(0)) == 0


def test_gamma_r_matches_oracle_small():
    rng = random.Random(13)
    for _ in range(80):
        g = random_graph(rng, rng.randint(0, 7), rng.choice((0.25, 0.5, 0.75)))
        assert roman_domination_number(g) == brute_gamma_r(g)


def test_gamma_r_functions_match_oracle():
    rng = random.Random(47)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        got = {(f.v0, f.v1, f.v2) for f in gamma_r_functions(g)}
        assert got == brute_gamma_r_functions(g)


def test_gamma_r_functions_oracle_trees_to_nine():
    from romandom.streams import free_trees

    for n in range(1, 10):
        for t in free_trees(n):
            got = {(f.v0, f.v1, f.v2) for f in gamma_r_functions(t)}
            assert got == brute_gamma_r_functions(t)


def test_gamma_r_function_examples():
    fns = gamma_r_functions(graphs.path_graph(3))
    assert fns == [
        RomanFunction(3, frozenset({0, 2}), frozenset(), frozenset({1}))
    ]
    p4fns = gamma_r_functions(graphs.path_graph(4))
    assert (
        RomanFunction(4, frozenset({0, 2}), frozenset({3}), frozenset({1}))
        in p4fns
    )
    two = gamma_r_functions(graphs.edgeless_graph(2))
    assert two == [RomanFunction(2, frozenset(), frozenset({0, 1}), frozenset())]


def test_component_additivity():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 5))
        h = random_graph(rng, rng.randint(1, 5))
        u = disjoint_union(g, h)
        assert roman_domination_number(u) == roman_domination_number(
            g
        ) + roman_domination_number(h)
        assert domination_number(u) == domination_number(g) + domination_number(h)
        assert differential_value(u) == differential_value(g) + differential_value(h)
        assert len(gamma_r_functions(u)) == len(gamma_r_functions(g)) * len(
            gamma_r_functions(h)
        )
        for enumerate_sets in (
            lambda x: list(minimum_dominating_sets(x).all_min_sets),
            solvers.optimal_v2_sets,
            differential_sets,
            efficient_dominating_sets,
        ):
            product = [
                a | {g.order + v for v in b}
                for a in enumerate_sets(g)
                for b in enumerate_sets(h)
            ]
            assert enumerate_sets(u) == sorted(product, key=sorted)


def test_validate_rdf():
    p3 = graphs.path_graph(3)
    good = RomanFunction(3, frozenset({0, 2}), frozenset(), frozenset({1}))
    assert validate_rdf(p3, good) == (True, None)
    bad = RomanFunction(3, frozenset({1, 2}), frozenset(), frozenset({0}))
    ok, witness = validate_rdf(p3, bad)
    assert not ok and witness == 2  # the far leaf has no 2-neighbor
    all_ones = RomanFunction(3, frozenset(), frozenset({0, 1, 2}), frozenset())
    assert validate_rdf(p3, all_ones) == (True, None)
    with pytest.raises(GraphError):
        RomanFunction(3, frozenset({0}), frozenset(), frozenset({0, 1, 2}))


def test_differential_frozen_values():
    assert differential_value(graphs.path_graph(3)) == 1
    assert frozenset({1}) in differential_sets(graphs.path_graph(3))
    assert differential_value(graphs.edgeless_graph(5)) == 0
    assert differential_value(graphs.cycle_graph(6)) == 2


def test_differential_matches_oracle():
    rng = random.Random(61)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 7))
        assert differential_value(g) == brute_differential(g)
        # the identity ties it to the Roman solver
        assert differential_value(g) == g.order - roman_domination_number(g)


def test_efficient_dominating_sets():
    assert efficient_dominating_sets(graphs.path_graph(3)) == [frozenset({1})]
    c6 = efficient_dominating_sets(graphs.cycle_graph(6))
    assert frozenset({0, 3}) in c6 and len(c6) == 3
    assert efficient_dominating_sets(graphs.cycle_graph(4)) == []
    rng = random.Random(9)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        got = set(efficient_dominating_sets(g))
        assert got == set(brute_efficient_dominating_sets(g))
        gamma = domination_number(g)
        assert all(len(s) == gamma for s in got)


def test_tree_unique_gamma_structural():
    assert tree_unique_gamma_structural(graphs.path_graph(6), [1, 4])
    assert tree_unique_gamma_structural(graphs.path_graph(3), [1])
    assert not tree_unique_gamma_structural(graphs.path_graph(4), [1, 2])
    with pytest.raises(GraphError):
        tree_unique_gamma_structural(graphs.cycle_graph(4), [0, 2])
    with pytest.raises(GraphError):
        tree_unique_gamma_structural(graphs.path_graph(6), [0])


def _structural_by_definition(t, dset):
    # every member has two private neighbours that are not adjacent
    return all(
        any(not t.has_edge(a, b)
            for a, b in itertools.combinations(sorted(graphs.private_neighbors(t, x, dset)), 2))
        for x in dset
    )


def _double_star(a, b):
    # two adjacent centres 0 and 1 with a and b leaves
    return build_graph(2 + a + b, [(0, 1)] + [(0, 2 + i) for i in range(a)]
                       + [(1, 2 + a + i) for i in range(b)])


def test_structural_mask_test_matches_its_definition():
    families = ([graphs.star(n) for n in range(3, 13)]
                + [graphs.path_graph(n) for n in range(3, 13)]
                + [_double_star(a, b) for a in range(1, 6) for b in range(a, 6)])
    every_set = [t for n in range(3, 9) for t in streams.free_trees(n)]
    every_set += [t for t in families if t.order <= 8]
    minimum = [t for n in range(3, 13) for t in streams.free_trees(n)] + families
    seen = set()
    for trees, sets in ((every_set, lambda t: range(1 << t.order)),
                        (minimum, lambda t: map(graphs.mask_of, minimum_dominating_sets(t).all_min_sets))):
        for t in trees:
            closed = t.closed_rows()
            for dom in sets(t):
                if t.closed_reach(dom) == t.full_mask:
                    got = solvers._tree_unique_gamma_mask(closed, dom)
                    assert got == _structural_by_definition(t, set(bits(dom))), (t.edges(), dom)
                    seen.add(got)
    assert seen == {True, False}


def test_limits_are_hard():
    big = graphs.path_graph(12)
    with pytest.raises(LimitExceededError):
        roman_domination_number(big, limit=10)
    with pytest.raises(LimitExceededError):
        domination_number(big, limit=10)
    with pytest.raises(LimitExceededError):
        differential_value(big, limit=10)


def test_empty_graph_values():
    empty = graphs.edgeless_graph(0)
    assert domination_number(empty) == 0
    assert roman_domination_number(empty) == 0
    assert differential_value(empty) == 0


def test_sandwich_inequality():
    rng = random.Random(77)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8))
        gamma = domination_number(g)
        gr = roman_domination_number(g)
        assert gamma <= gr <= 2 * gamma


def test_redundant_dominator_can_be_dropped():
    # a dominating-set member with an empty private neighborhood is redundant
    rng = random.Random(101)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8))
        dom = minimum_dominating_sets(g).all_min_sets[0]
        extra = next((v for v in range(g.order) if v not in dom), None)
        if extra is None:
            continue
        big = set(dom) | {extra}
        for x in sorted(big):
            if not graphs.private_neighbors(g, x, big):
                assert is_dominating(g, big - {x})


def test_fault_injection_offsets_gamma_r():
    p3 = graphs.path_graph(3)
    solvers.set_fault_injection(solvers.FAULT_GAMMA_R_PLUS_ONE)
    try:
        assert roman_domination_number(p3) == 3
    finally:
        solvers.set_fault_injection(None)
    assert roman_domination_number(p3) == 2
    with pytest.raises(ValueError):
        solvers.set_fault_injection("nonsense")
