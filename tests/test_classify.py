import random

import pytest

from oracles import brute_bondage, brute_differential, brute_gamma_r
from romandom import classify, graphs
from romandom.classify import (
    DECREASED,
    INCREASED,
    UNCHANGED,
    build_class_report,
    in_class_d_cvr,
    in_class_d_uvr,
    in_class_r_cvr,
    in_class_r_uvr,
    is_roman,
    is_urd,
    per_vertex_effects,
    removal_effect,
    roman_bondage_number,
    vertex_never_one,
)
from romandom.errors import GraphError
from romandom.graphs import build_graph


def random_graph(rng, n, p=0.4):
    return build_graph(
        n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
    )


def test_removal_effect_examples():
    assert removal_effect(graphs.path_graph(4), 3) == DECREASED
    assert all(e == UNCHANGED for e in per_vertex_effects(graphs.path_graph(6)).values())
    assert removal_effect(graphs.star(4), 0) == INCREASED


def test_class_memberships():
    assert in_class_r_uvr(graphs.complete_bipartite(4, 4))
    assert in_class_r_uvr(graphs.cube_graph())
    assert not in_class_r_uvr(graphs.path_graph(4))
    assert in_class_r_uvr(graphs.path_graph(6))
    assert in_class_r_uvr(graphs.complete_graph(5))
    assert in_class_r_cvr(graphs.path_graph(2))
    assert not in_class_r_cvr(graphs.path_graph(6))


def test_differential_classes_agree_with_roman_classes():
    rng = random.Random(19)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 7))
        assert in_class_r_uvr(g) == in_class_d_uvr(g)
        assert in_class_r_cvr(g) == in_class_d_cvr(g)
    # the deletion walk behind all of them, against the 3^n oracle
    for k in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        if k % 3 == 0 and g.order <= 4:
            g = graphs.disjoint_union(g, random_graph(rng, rng.randint(1, 2)))
        base, base_diff = brute_gamma_r(g), brute_differential(g)
        afters, after_diffs = [], []
        for v in range(g.order):
            keep = [u for u in range(g.order) if u != v]
            rest = build_graph(g.order - 1, [
                (keep.index(a), keep.index(b)) for a, b in g.edges() if v not in (a, b)
            ])
            afters.append(brute_gamma_r(rest))
            after_diffs.append(brute_differential(rest))
        effects = {
            v: DECREASED if a < base else UNCHANGED if a == base else INCREASED
            for v, a in enumerate(afters)
        }
        assert per_vertex_effects(g) == effects
        assert [removal_effect(g, v) for v in range(g.order)] == list(effects.values())
        assert in_class_r_uvr(g) == all(a == base for a in afters)
        assert in_class_r_cvr(g) == all(a != base for a in afters)
        assert in_class_d_uvr(g) == all(d == base_diff - 1 for d in after_diffs)
        assert in_class_d_cvr(g) == all(d != base_diff - 1 for d in after_diffs)


def test_is_roman():
    assert is_roman(graphs.path_graph(6))
    assert not is_roman(graphs.path_graph(4))
    assert not is_roman(graphs.edgeless_graph(1))
    assert is_roman(graphs.cycle_graph(6))


def test_is_urd():
    assert is_urd(graphs.path_graph(3))
    assert is_urd(graphs.path_graph(6))
    assert not is_urd(graphs.cycle_graph(3))


def test_vertex_never_one():
    assert vertex_never_one(graphs.path_graph(3), 1)
    assert not vertex_never_one(graphs.path_graph(4), 3)
    c6 = graphs.cycle_graph(6)
    assert all(vertex_never_one(c6, v) for v in range(6))


def test_bondage_frozen_values():
    assert roman_bondage_number(graphs.path_graph(6)) == 1
    assert roman_bondage_number(graphs.cycle_graph(3)) == 2
    assert roman_bondage_number(graphs.path_graph(4)) == 1
    assert roman_bondage_number(graphs.cycle_graph(6)) == 2
    assert roman_bondage_number(graphs.star(4)) == 1


def test_bondage_requires_degree_two():
    with pytest.raises(GraphError):
        roman_bondage_number(graphs.path_graph(2))
    with pytest.raises(GraphError):
        roman_bondage_number(graphs.edgeless_graph(3))


def test_bondage_matches_oracle():
    rng = random.Random(71)
    tried = 0
    while tried < 12:
        g = random_graph(rng, rng.randint(3, 6), 0.5)
        if g.order == 0 or g.max_degree() < 2:
            continue
        tried += 1
        assert roman_bondage_number(g) == brute_bondage(g, brute_gamma_r)


def test_bondage_cap_override():
    # an explicit cap below the true bondage number must fail loudly
    from romandom.errors import BondageCapError

    with pytest.raises(BondageCapError):
        roman_bondage_number(graphs.cycle_graph(3), cap=1)


def test_class_report_consistency():
    rng = random.Random(55)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6), 0.5)
        rep = build_class_report(g, with_bondage=False)
        effects = rep.per_vertex_effect
        assert rep.in_r_uvr == all(e == UNCHANGED for e in effects.values())
        assert rep.in_r_cvr == all(e != UNCHANGED for e in effects.values())
        assert rep.in_r_uvr == rep.in_d_uvr
        assert rep.in_r_cvr == rep.in_d_cvr
        assert rep.gamma_r + rep.differential == g.order
        d = rep.to_json_dict()
        assert set(d["per_vertex_effect"]) == {str(v) for v in range(g.order)}


def test_class_report_bondage_field():
    rep = build_class_report(graphs.path_graph(6))
    assert rep.bondage == 1
    rep2 = build_class_report(graphs.path_graph(2))
    assert rep2.bondage is None


def test_two_cliques_bridge_family():
    for r in (4, 5, 6):
        g = graphs.two_cliques_bridge(r)
        assert classify.in_class_r_uvr(g)
        from romandom.solvers import roman_domination_number

        assert roman_domination_number(g) == 4
