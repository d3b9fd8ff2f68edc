"""Checks that a broken helper must fail: each mutant is monkeypatched into
the package and the check it names must report failures.

``MUTANTS`` is the table: for each check id, a test here whose mutant that
check fails at ``SMALL``, or the reason no meaningful mutant can.
"""

import functools
import inspect
import operator
import textwrap

from romandom import checks, classify, kernels, labelled, solvers
from romandom.checks import Limits, run_suite
from romandom.graphs import (Graph, bits, delete_vertex, delete_vertices, disjoint_union,
                             private_neighbors)
from test_ties import CASES, tie_count_mismatches

SMALL = Limits(9, 5, 6)

MUTANTS = {
    "EQ1": "test_eq1_fails_when_the_roman_deletion_scan_stops_a_level_early",
    "LEM-ON": "test_lem_on_fails_when_near_optimal_functions_are_kept",
    "LEM-MINUS": "test_lem_minus_fails_when_the_plain_offer_beats_the_better_one",
    "LEM-MINUSE": "test_lem_minuse_fails_when_edge_deletion_contracts_the_edge",
    "THM-R": "test_thm_r_fails_when_the_ties_scan_stops_at_the_value_rule",
    "THM-UN": "test_thm_un_fails_when_one_private_neighbour_is_enough",
    "THM-DIFF-I": "test_thm_diff_i_fails_when_a_leaf_state_is_off_by_one",
    "THM-DIFF-II": "test_thm_diff_ii_fails_when_the_v2_programme_drops_a_tie",
    "OBS-DISC": "test_obs_disc_fails_when_the_profile_reads_the_last_component_only",
    "OBS-PN3": "test_private_neighbour_checks_fail_when_a_vertex_is_not_its_own",
    "REM-E1": "test_private_neighbour_checks_fail_when_a_vertex_is_not_its_own",
    "PROP-3V2": "test_prop_3v2_fails_when_efficient_sets_may_overlap",
    "PROP-02": "test_prop_02_fails_when_stripping_deletes_the_vertex",
    "COR-UVRBON": "test_bondage_checks_fail_when_the_search_skips_single_edges",
    "COR-UVRTREE": "test_bondage_checks_fail_when_the_search_skips_single_edges",
    "OBS-SABC": "test_family_checks_fail_when_o2_labels_its_attach_vertex_a",
    "COR-UNILAB": "test_family_checks_fail_when_o2_labels_its_attach_vertex_a",
    "OBS-EQUI": "test_obs_equi_fails_when_the_differential_test_is_unshifted",
    "THM-MAIN": "test_thm_main_fails_when_the_b_set_shape_allows_more_private_neighbours",
    "COR-SB": "test_cor_sb_fails_when_the_canonical_function_puts_b_in_v1",
    "COR-VDEL": "test_cor_vdel_fails_when_deleting_a_pair_deletes_one",
    "COR-EDEL": "test_cor_edel_fails_when_edge_deletion_does_nothing",
    "PROP-T1": "test_prop_t1_fails_when_t1_allows_one_c_vertex",
    "MINEDGE-I": "test_minedge_i_fails_when_the_family_stops_an_order_short",
    "MINEDGE-II": "test_minedge_ii_fails_when_the_join_has_no_cross_edges",
    "MINEDGE-III": "none: its claim is about order 8, and below unicyclic_n = 8 its one "
                   "case only lists the members and passes",
}


def test_every_check_has_a_mutant_or_a_reason():
    assert list(MUTANTS) == list(checks.CHECK_IDS)
    for entry in MUTANTS.values():
        assert entry.startswith("none: ") or callable(globals().get(entry)), entry


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


def _mutated(monkeypatch, name, old, new, owner=kernels):
    # the function ``name`` of ``owner``, a module or a class, rebuilt from
    # its source with ``old`` replaced by ``new``; an edit of the package
    # that drops ``old`` fails here, not silently
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(owner)))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


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


def test_lem_on_fails_when_near_optimal_functions_are_kept(monkeypatch):
    # a function one above the minimum weight may put a 1 next to a 2
    _mutated(monkeypatch, "_brute_optimal_functions", "if weight == best:",
             "if weight <= best + 1:", checks)
    assert run_suite("LEM-ON", SMALL).failures


def _contracted(g, edges):
    # the one edge uv contracted into u: its ends merged, not parted
    (u, v), = edges
    rows = [row | 1 << u if row >> v & 1 else row for row in g.open_rows()]
    rows[u] = (rows[u] | rows[v]) & ~(1 << u)
    return delete_vertex(Graph(g.order, rows), v)[0]


def test_lem_minuse_fails_when_edge_deletion_contracts_the_edge(monkeypatch):
    monkeypatch.setattr(checks, "delete_edges", _contracted)
    assert run_suite("LEM-MINUSE", SMALL).failures


def test_thm_r_fails_when_the_ties_scan_stops_at_the_value_rule(monkeypatch):
    # the optimal V2 sets then miss the one whose function has no 1s
    _mutated(monkeypatch, "cover_scan", "floor > best if ties else floor >= best", "floor >= best")
    assert run_suite("THM-R", SMALL).failures


def test_obs_disc_fails_when_the_profile_reads_the_last_component_only(monkeypatch):
    # as a loop that keeps only its last part would: C3 plus K1 then looks
    # stable, since the isolated vertex's deletion is solved on C3 alone
    _mutated(monkeypatch, "_profile", "for comp, old_ids in connected_components(self._g)]",
             "for comp, old_ids in connected_components(self._g)][-1:]", classify.Deletions)
    assert run_suite("OBS-DISC", SMALL).failures


def test_private_neighbour_checks_fail_when_a_vertex_is_not_its_own(monkeypatch):
    # pn[x, S] counts x itself when no other member of S is next to it
    monkeypatch.setattr(checks, "private_neighbors",
                        lambda g, x, members: private_neighbors(g, x, members) - {x})
    for check_id in ("OBS-PN3", "REM-E1"):
        assert run_suite(check_id, SMALL).failures, check_id


def test_prop_3v2_fails_when_efficient_sets_may_overlap(monkeypatch):
    # closed neighbourhoods that cover the graph without partitioning it
    _mutated(monkeypatch, "efficient_dominating_masks", "disjoint=True", "disjoint=False")
    assert run_suite("PROP-3V2", SMALL).failures


def test_prop_02_fails_when_stripping_deletes_the_vertex(monkeypatch):
    # the stripped vertex must stay, isolated, and pay its label 1
    monkeypatch.setattr(classify, "graph_minus_all_incident", lambda g, v: delete_vertex(g, v)[0])
    assert run_suite("PROP-02", SMALL).failures


def test_bondage_checks_fail_when_the_search_skips_single_edges(monkeypatch):
    # COR-UVRBON then exhausts a cap of 1, COR-UVRTREE reads bondage 2
    _mutated(monkeypatch, "roman_bondage_number", "range(1, cap + 1)", "range(2, cap + 1)",
             classify)
    for check_id in ("COR-UVRBON", "COR-UVRTREE"):
        assert run_suite(check_id, SMALL).failures, check_id


def _fresh_family(monkeypatch):
    # the corpus caches outlive a suite, so a mutant of the family's
    # generation must not read the members cached before it
    monkeypatch.setattr(checks, "_script_members",
                        lambda max_order: tuple(labelled.generate_script_t(max_order)))


def test_family_checks_fail_when_o2_labels_its_attach_vertex_a(monkeypatch):
    _fresh_family(monkeypatch)
    allowed, word, edges, joined = labelled._OPERATIONS[labelled.O2]
    assert word == "CBAA"
    monkeypatch.setitem(labelled._OPERATIONS, labelled.O2, (allowed, "ABAA", edges, joined))
    for check_id in ("OBS-SABC", "COR-UNILAB"):
        assert run_suite(check_id, SMALL).failures, check_id


def test_obs_equi_fails_when_the_differential_test_is_unshifted(monkeypatch):
    # the comparison the Deletions docstring warns against
    _mutated(monkeypatch, "__init__", "self.base if self._roman else self.base - 1", "self.base",
             classify.Deletions)
    assert run_suite("OBS-EQUI", SMALL).failures


def test_thm_main_fails_when_the_b_set_shape_allows_more_private_neighbours(monkeypatch):
    # "exactly three" read as "at least three": more trees look constructed
    _mutated(monkeypatch, "_b_set_shape", "== 3", ">= 3", labelled)
    assert run_suite("THM-MAIN", SMALL).failures


def test_cor_sb_fails_when_the_canonical_function_puts_b_in_v1(monkeypatch):
    # the V1 and V2 arguments of RomanFunction swapped
    _mutated(monkeypatch, "canonical_gamma_r_function", "lt.s_a | lt.s_c, frozenset(), lt.s_b",
             "lt.s_a | lt.s_c, lt.s_b, frozenset()", labelled)
    assert run_suite("COR-SB", SMALL).failures


def test_cor_vdel_fails_when_deleting_a_pair_deletes_one(monkeypatch):
    monkeypatch.setattr(checks, "delete_vertices",
                        lambda g, drop: delete_vertices(g, list(drop)[:1]))
    assert run_suite("COR-VDEL", SMALL).failures


def test_prop_t1_fails_when_t1_allows_one_c_vertex(monkeypatch):
    _mutated(monkeypatch, "in_t1", "not lt.s_c", "len(lt.s_c) <= 1", labelled)
    assert run_suite("PROP-T1", SMALL).failures


def test_minedge_i_fails_when_the_family_stops_an_order_short(monkeypatch):
    # an operation that would reach max_order exactly is refused
    _fresh_family(monkeypatch)
    _mutated(monkeypatch, "generate_script_t", "lt.order + len(word) > max_order",
             "lt.order + len(word) >= max_order", labelled)
    assert run_suite("MINEDGE-I", SMALL).failures


def test_minedge_ii_fails_when_the_join_has_no_cross_edges(monkeypatch):
    monkeypatch.setattr(checks, "join_graph", disjoint_union)
    assert run_suite("MINEDGE-II", SMALL).failures
