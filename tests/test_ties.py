"""The tie counts of the deletion walk, from which `build_class_report`
reads `is_urd`, against the 3^n labelling oracle and full 2^n scans."""

import math
import random
from functools import lru_cache

from oracles import brute_gamma_r_functions, full_scan_kernel
from romandom import graphs
from romandom.classify import DIFFERENTIAL, ROMAN, Deletions, build_class_report
from romandom.graphs import build_graph, disjoint_union, is_forest, write_graph6


def random_graph(rng, n, p):
    return build_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])


def friendship(t):
    """t triangles sharing the hub 0."""
    return build_graph(2 * t + 1, [e for i in range(1, 2 * t, 2)
                                   for e in ((0, i), (0, i + 1), (i, i + 1))])


def corona(g):
    """g with one leaf hung on each vertex."""
    n = g.order
    return build_graph(2 * n, g.edges() + [(v, n + v) for v in range(n)])


def _cases():
    rng = random.Random(4141)
    # gamma_R(C5) = 4 is proven at level 1, and five of its ten optimal
    # functions have a V2 of two vertices: their ties lie one level past
    # the value's stop rule.  C8 is the same one level further on.
    out = [graphs.cycle_graph(n) for n in range(3, 10)]
    # unique optimal functions on graphs with cycles
    out += [friendship(t) for t in (2, 3, 4)] + [corona(graphs.cycle_graph(n)) for n in (3, 4)]
    out += [graphs.complete_graph(n) for n in (1, 2, 4)] + [graphs.cube_graph()]
    while len(out) < 40:
        g = random_graph(rng, rng.randint(4, 9), rng.choice((0.3, 0.45, 0.6)))
        if not is_forest(g):
            out.append(g)
    small = [random_graph(rng, rng.randint(1, 4), rng.choice((0.4, 0.8))) for _ in range(10)]
    out += [disjoint_union(g, h) for g, h in zip(small, small[1:])]
    out += [disjoint_union(graphs.cycle_graph(5), graphs.path_graph(3)),
            disjoint_union(graphs.cycle_graph(4), graphs.cycle_graph(5)),
            graphs.path_graph(6), disjoint_union(graphs.path_graph(3), graphs.star(3))]
    return out


CASES = _cases()


@lru_cache(maxsize=None)
def optimal_functions(g):
    return len(brute_gamma_r_functions(g))


def tie_count_mismatches(cases):
    """The graph6 of each case whose Roman tie counts do not multiply to the
    oracle's number of optimal functions."""
    return [write_graph6(g) for g in cases
            if math.prod(Deletions(g, ROMAN, ties=True).tie_counts) != optimal_functions(g)]


def test_roman_tie_counts_match_the_oracle():
    assert tie_count_mismatches(CASES) == []
    assert Deletions(graphs.cycle_graph(5), ROMAN, ties=True).tie_counts == [10]


def test_one_count_per_component_off_forests():
    g = disjoint_union(disjoint_union(graphs.cycle_graph(5), graphs.path_graph(3)),
                       graphs.complete_graph(3))
    assert Deletions(g, ROMAN, ties=True).tie_counts == [10, 1, 3]
    assert Deletions(g, ROMAN).tie_counts is None


def test_is_urd_matches_the_oracle():
    flags = [build_class_report(g, with_bondage=False).is_urd for g in CASES]
    assert flags == [optimal_functions(g) == 1 for g in CASES]
    cyclic = [flag for g, flag in zip(CASES, flags) if not is_forest(g)]
    assert any(cyclic) and not all(cyclic)


def test_differential_tie_counts_match_a_full_scan():
    for g in CASES:
        want = len(full_scan_kernel("max_differential_masks", g.open_rows()))
        assert math.prod(Deletions(g, DIFFERENTIAL, ties=True).tie_counts) == want, write_graph6(g)


def test_tie_counts_leave_the_values_unchanged():
    for g in CASES:
        for quantity in (ROMAN, DIFFERENTIAL):
            with_ties = Deletions(g, quantity, ties=True)
            plain = Deletions(g, quantity)
            assert (with_ties.base, list(with_ties)) == (plain.base, list(plain)), write_graph6(g)
