"""The shared vertex-deletion walk behind the class predicates, and the
"never labelled 1" mask, against the 3^n oracles."""

import random

import pytest

from oracles import brute_differential, brute_gamma_r, brute_gamma_r_functions
from romandom import classify, graphs, kernels, solvers
from romandom.classify import DIFFERENTIAL, ROMAN, Deletions
from romandom.graphs import build_graph, delete_vertex, disjoint_union

ORACLES = {ROMAN: (brute_gamma_r, 0), DIFFERENTIAL: (brute_differential, 1)}


def random_graphs(seed, count, max_n=7):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.choice((0.25, 0.45, 0.7))
        out.append(build_graph(n, [(i, j) for j in range(n) for i in range(j)
                                   if rng.random() < p]))
    return out


def corpus():
    """Seeded random graphs of order at most 7, then disjoint unions of
    consecutive pairs of seeded random graphs of order at most 4."""
    singles = random_graphs(11, 40)
    small = random_graphs(12, 30, max_n=4)
    return singles + [disjoint_union(g, h) for g, h in zip(small, small[1:])]


def expected(g, quantity):
    oracle, shift = ORACLES[quantity]
    base = oracle(g)
    afters = [oracle(delete_vertex(g, v)[0]) for v in range(g.order)]
    stable = [after == base - shift for after in afters]
    return base, afters, all(stable), not any(stable)


@pytest.mark.parametrize("quantity", [ROMAN, DIFFERENTIAL])
def test_interleaved_iterators_match_the_oracle(quantity):
    for g in corpus():
        base, afters, _, _ = expected(g, quantity)
        walk = Deletions(g, quantity)
        assert walk.base == base
        first, second = iter(walk), iter(walk)
        got_first, got_second = [], []
        # the second reader starts behind the first, overtakes it, and
        # the first then finishes over values the second solved
        got_first.extend(next(first) for _ in range(g.order // 2))
        got_second.extend(second)
        got_first.extend(first)
        assert got_first == afters and got_second == afters


@pytest.mark.parametrize("quantity", [ROMAN, DIFFERENTIAL])
def test_changed_class_read_before_stable_class(quantity):
    uvr = {ROMAN: classify.in_class_r_uvr, DIFFERENTIAL: classify.in_class_d_uvr}[quantity]
    cvr = {ROMAN: classify.in_class_r_cvr, DIFFERENTIAL: classify.in_class_d_cvr}[quantity]
    for g in corpus():
        _, afters, stable, changed = expected(g, quantity)
        walk = Deletions(g, quantity)
        assert not any(walk.unchanged()) == changed
        assert all(walk.unchanged()) == stable
        assert list(walk) == afters
        assert (uvr(g), cvr(g)) == (stable, changed)


def test_class_report_reads_both_walks():
    for g in corpus():
        report = classify.build_class_report(g, with_bondage=False)
        r_base, _, r_stable, r_changed = expected(g, ROMAN)
        d_base, _, d_stable, d_changed = expected(g, DIFFERENTIAL)
        assert (report.gamma_r, report.differential) == (r_base, d_base)
        assert (report.in_r_uvr, report.in_r_cvr) == (r_stable, r_changed)
        assert (report.in_d_uvr, report.in_d_cvr) == (d_stable, d_changed)


def test_predicate_stops_at_the_first_deciding_vertex(monkeypatch):
    real = kernels.min_weight_cover
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(kernels, "min_weight_cover", counting)
    # gamma_R(P4) = 3 and gamma_R(P4 - 0) = gamma_R(P3) = 2: vertex 0 decides
    assert not classify.in_class_r_uvr(graphs.path_graph(4))
    assert calls == [4, 3]


def test_never_one_mask_matches_the_oracle():
    for g in random_graphs(13, 60):
        functions = brute_gamma_r_functions(g)
        want = sum(1 << v for v in range(g.order) if not any(v in v1 for _, v1, _ in functions))
        assert classify.never_one_mask(g, solvers.optimal_v2_sets(g)) == want
        assert [classify.vertex_never_one(g, v) for v in range(g.order)] == [
            bool(want >> v & 1) for v in range(g.order)
        ]
