"""The level scans asked for every G - v value, which solve G and every
G - v from one scan, against one kernel call per G - v and the 3^n oracle."""

import random

import pytest

from oracles import brute_differential, brute_gamma_r, full_scan_kernel
from romandom import classify, kernels, solvers
from romandom.classify import DIFFERENTIAL, ROMAN, Deletions
from romandom.errors import LimitExceededError
from romandom.graphs import Graph, build_graph, delete_vertex, disjoint_union, path_graph, rows_without


def random_graph(rng, n, p):
    return build_graph(n, [(i, j) for j in range(n) for i in range(j)
                           if rng.random() < p])


def wheel(n):
    """The hub 0 joined to the cycle 1, 2, ..., n - 1."""
    return build_graph(n, [(0, i) for i in range(1, n)]
                       + [(i, i % (n - 1) + 1) for i in range(1, n)])


def friendship(t):
    """t triangles sharing the hub 0."""
    return build_graph(2 * t + 1, [e for i in range(1, 2 * t, 2)
                                   for e in ((0, i), (0, i + 1), (i, i + 1))])


def corpus():
    rng = random.Random(2020)
    out = [build_graph(n, []) for n in range(6)]
    out += [Graph(n, [(1 << n) - 1 & ~(1 << v) for v in range(n)]) for n in range(1, 13)]
    out += [wheel(n) for n in range(4, 13)] + [friendship(t) for t in range(1, 6)]
    out += [random_graph(rng, n, p) for n in range(1, 13) for p in (0.2, 0.35, 0.5, 0.7, 0.9)
            for _ in range(3)]
    small = [random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.6, 0.9))) for _ in range(20)]
    return out + [disjoint_union(g, h) for g, h in zip(small, small[1:])]


def test_profile_kernels_match_one_call_per_deleted_row():
    for g in corpus():
        closed, open_rows = g.closed_rows(), g.open_rows()
        value, _, afters = kernels.cover_scan(closed, deletions=True)
        assert value == kernels.min_weight_cover(closed)
        for v, after in enumerate(afters):
            want = kernels.min_weight_cover(rows_without(closed, v))
            # left open only when more than one above gamma_R(G)
            assert after == want if after is not None else want >= value + 2, (g.edges(), v)
        value, _, afters = kernels.differential_scan(open_rows, deletions=True)
        assert value == kernels.max_differential(open_rows)
        for v, after in enumerate(afters):
            want = kernels.max_differential(rows_without(open_rows, v))
            # left open only when more than one below the shifted target
            assert after == want if after is not None else want <= value - 3, (g.edges(), v)


def test_profile_kernels_match_the_oracles():
    rng = random.Random(909)
    for n in range(1, 10):
        for _ in range(3 if n < 8 else 1):
            g = random_graph(rng, n, rng.choice((0.25, 0.45, 0.7)))
            minus = [delete_vertex(g, v)[0] for v in range(n)]
            value, _, afters = kernels.cover_scan(g.closed_rows(), deletions=True)
            assert value == brute_gamma_r(g)
            assert all(a == brute_gamma_r(h) for a, h in zip(afters, minus) if a is not None)
            value, _, afters = kernels.differential_scan(g.open_rows(), deletions=True)
            assert value == brute_differential(g)
            assert all(a == brute_differential(h) for a, h in zip(afters, minus) if a is not None)


@pytest.mark.parametrize("t", [3, 5, 7])
def test_friendship_hub_is_left_open_and_the_walk_solves_it(t):
    # G - hub is t disjoint edges: gamma_R 2t against gamma_R(G) = 2
    g = friendship(t)
    assert kernels.cover_scan(g.closed_rows(), deletions=True)[2][0] is None
    assert kernels.differential_scan(g.open_rows(), deletions=True)[2][0] is None
    for quantity, solve in ((ROMAN, solvers.roman_domination_number),
                            (DIFFERENTIAL, solvers.differential_value)):
        want = [solve(delete_vertex(g, v)[0]) for v in range(g.order)]
        assert list(Deletions(g, quantity)) == want
    assert list(Deletions(g, ROMAN))[0] == 2 * t


@pytest.mark.parametrize("g", [friendship(3), path_graph(7)], ids=["windmill-3", "path-7"])
def test_the_walk_builds_no_graph_minus_a_vertex(monkeypatch, g):
    # the scan leaves the windmill's hub value open: G - hub is three disjoint edges
    def refuse(*args):
        raise AssertionError("the walk built G - v")

    monkeypatch.setattr(classify, "delete_vertex", refuse)
    for quantity, oracle in ((ROMAN, brute_gamma_r), (DIFFERENTIAL, brute_differential)):
        want = [oracle(delete_vertex(g, v)[0]) for v in range(g.order)]
        assert list(Deletions(g, quantity)) == want


@pytest.mark.parametrize("kernel", [kernels.cover_scan, kernels.differential_scan])
def test_profile_kernels_keep_the_scan_limit(kernel):
    with pytest.raises(LimitExceededError):
        kernel([0] * 25, deletions=True)


def test_scans_answer_every_request_alike():
    # the value, ties and G - v values do not depend on what else is asked
    # for, though the stop rule does
    for g in corpus():
        for scan, rows, name, single in (
                (kernels.cover_scan, g.closed_rows(), "min_cover_masks", kernels.min_weight_cover),
                (kernels.differential_scan, g.open_rows(), "max_differential_masks",
                 kernels.max_differential)):
            value, ties, afters = scan(rows, True, True)
            assert ties == full_scan_kernel(name, rows), (g.edges(), name)
            assert scan(rows) == (value, None, None) and scan(rows, True)[1] == ties
            assert all(a == single(rows_without(rows, v))
                       for v, a in enumerate(afters) if a is not None), (g.edges(), name)
            for after, plain in zip(afters, scan(rows, deletions=True)[2]):
                assert after == plain or plain is None, (g.edges(), name)
