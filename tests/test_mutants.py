"""Checks that a broken helper must fail: each mutant is monkeypatched into
the package and the check it names must report failures."""

import functools
import inspect
import operator

from romandom import checks, kernels, solvers
from romandom.checks import Limits, run_suite
from romandom.graphs import bits
from test_ties import CASES, tie_count_mismatches

SMALL = Limits(9, 5, 6)


def test_cor_edel_fails_when_edge_deletion_does_nothing(monkeypatch):
    # the tree is left whole, and a stable tree is still stable, so only
    # the component count can see the edge was not deleted
    monkeypatch.setattr(checks, "delete_edges", lambda g, edges: g)
    report = run_suite("COR-EDEL", SMALL)
    assert report.total == 3
    assert [r.witness["components"] for r in report.failures] == [1, 1, 1]


def test_thm_un_fails_when_one_private_neighbour_is_enough(monkeypatch):
    def one_private(closed, dom):
        def reach(members):
            return functools.reduce(operator.or_, (closed[v] for v in bits(members)), 0)
        return all(closed[x] & ~reach(dom & ~(1 << x)) & ~dom for x in bits(dom))

    monkeypatch.setattr(solvers, "_tree_unique_gamma_mask", one_private)
    assert run_suite("THM-UN", SMALL).failures


def test_thm_diff_i_fails_when_a_leaf_state_is_off_by_one(monkeypatch):
    # a leaf in S that pays nothing: the forest programme's differential
    # rises, and only on forests, so gamma_R + differential = n breaks
    monkeypatch.setattr(kernels, "_OPEN_LEAF", (0,) + kernels._OPEN_LEAF[1:])
    assert run_suite("THM-DIFF-I", SMALL).failures


def _dropping_one_tie(monkeypatch, leaf):
    # the forest programme for ``leaf`` loses its first optimal set
    # whenever it has more than one
    real = kernels._cover_ties

    def dropping(forest, used):
        masks = real(forest, used)
        return masks[1:] if used == leaf and len(masks) > 1 else masks

    monkeypatch.setattr(kernels, "_cover_ties", dropping)


def test_thm_diff_ii_fails_when_the_v2_programme_drops_a_tie(monkeypatch):
    # THM-DIFF-II matches the optimal V2 sets with the maximum-differential
    # sets, which the size-ordered scans find
    _dropping_one_tie(monkeypatch, kernels._ROMAN_LEAF)
    assert run_suite("THM-DIFF-II", SMALL).failures


def test_thm_un_fails_when_the_dominating_programme_drops_a_tie(monkeypatch):
    # a tree with two minimum dominating sets then looks like one with a
    # unique set, which the structural test denies
    _dropping_one_tie(monkeypatch, kernels._DOMINATING_LEAF)
    assert run_suite("THM-UN", SMALL).failures


def _mutated(monkeypatch, name, old, new):
    # the kernel ``name`` rebuilt from its source with ``old`` replaced by
    # ``new``; a kernel edit that drops ``old`` fails here, not silently
    source = inspect.getsource(getattr(kernels, name))
    assert source.count(old) == 1
    namespace = dict(vars(kernels))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(kernels, name, namespace[name])


def test_lem_minus_fails_when_the_plain_offer_beats_the_better_one(monkeypatch):
    # a vertex outside N[S] for one subset of a group and in N[S] - S for
    # another takes the plain offer: some gamma_R(G - v) reads one too high
    _mutated(monkeypatch, "cover_scan", "c - (o >> v & 1)",
             "c - (o >> v & 1 and not p >> v & 1)")
    assert run_suite("LEM-MINUS", SMALL).failures


def test_eq1_fails_when_the_roman_deletion_scan_stops_a_level_early(monkeypatch):
    # gamma_R of a graph with a cycle is taken before it is proven
    _mutated(monkeypatch, "cover_scan", "floor = 2 * k + 2", "floor = 2 * k + 4")
    assert run_suite("EQ1", SMALL).failures


def test_thm_diff_i_fails_when_the_differential_deletion_scan_stops_a_level_early(monkeypatch):
    _mutated(monkeypatch, "differential_scan", "ceiling = n - 2 * k - 3",
             "ceiling = n - 2 * k - 5")
    assert run_suite("THM-DIFF-I", SMALL).failures


def test_tie_counts_fail_when_the_ties_scan_stops_at_the_value_rule(monkeypatch):
    # the scan then misses the ties one level past the one that proves
    # gamma_R, such as five of the ten optimal functions of C5
    _mutated(monkeypatch, "cover_scan", "floor > best if ties else floor >= best", "floor >= best")
    assert tie_count_mismatches(CASES)
