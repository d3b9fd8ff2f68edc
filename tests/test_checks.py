import json
import random

import pytest
from oracles import brute_gamma_r_functions

from romandom import checks
from romandom.checks import CHECK_IDS, REGISTRY, Limits, run_suite
from romandom.errors import LimitExceededError
from romandom.graphs import bits, build_graph, edgeless_graph, is_connected, write_graph6

EXPECTED_IDS = {
    "EQ1", "LEM-ON", "LEM-MINUS", "LEM-MINUSE", "THM-R", "THM-UN",
    "THM-DIFF-I", "THM-DIFF-II", "OBS-DISC", "OBS-PN3", "REM-E1",
    "PROP-3V2", "PROP-02", "COR-UVRBON", "COR-UVRTREE", "OBS-SABC",
    "COR-UNILAB", "OBS-EQUI", "THM-MAIN", "COR-SB", "COR-VDEL",
    "COR-EDEL", "PROP-T1", "MINEDGE-I", "MINEDGE-II", "MINEDGE-III",
}


def test_registry_covers_every_statement():
    assert set(CHECK_IDS) == EXPECTED_IDS
    assert len(CHECK_IDS) == len(set(CHECK_IDS))
    for check in REGISTRY.values():
        assert check.statement and check.domain


def test_eq1_instance_count():
    # 1 + 1 + 2 + 6 + 21 connected graphs through order 5
    report = run_suite("EQ1", Limits(graphs_max_n=5))
    assert report.total == 31
    assert report.all_passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("NOPE")
    with pytest.raises(ValueError):
        run_suite("all", Limits(graphs_max_n=9))


@pytest.mark.parametrize("limits, named", [
    (Limits(trees_max_n=17), "trees_max_n must be in 3..16"),
    (Limits(graphs_max_n=0), "graphs_max_n must be in 1..7"),
    (Limits(unicyclic_n=11), "unicyclic_n must be in 3..10"),
])
def test_out_of_range_limits_raise_limit_exceeded(limits, named):
    with pytest.raises(LimitExceededError, match=named):
        limits.validate()


def test_small_full_suite_passes():
    report = run_suite("all", Limits(trees_max_n=7, graphs_max_n=4, unicyclic_n=4))
    assert report.total > 200
    assert report.all_passed, [
        (r.check_id, r.instance, r.witness) for r in report.failures
    ]


def test_failures_always_carry_witnesses():
    report = run_suite("all", Limits(trees_max_n=6, graphs_max_n=4, unicyclic_n=4),
                       fault="gamma-r-plus-one")
    assert report.failures
    for r in report.failures:
        assert r.witness is not None


def test_fault_injection_is_detected():
    # the forced off-by-one in the Roman solver must trip at least one check
    report = run_suite("THM-DIFF-I", Limits(trees_max_n=5, graphs_max_n=4),
                       fault="gamma-r-plus-one")
    assert not report.all_passed
    # and the solver is restored afterwards
    clean = run_suite("THM-DIFF-I", Limits(trees_max_n=5, graphs_max_n=4))
    assert clean.all_passed


def test_reports_are_deterministic():
    limits = Limits(trees_max_n=7, graphs_max_n=4, unicyclic_n=4)
    first = run_suite("all", limits)
    second = run_suite("all", limits)
    as_json = lambda rep: [json.dumps(r.to_json_dict(), sort_keys=True)
                           for r in rep.results]
    assert as_json(first) == as_json(second)


def test_sampled_flag_on_order_seven_edges():
    report = run_suite("LEM-MINUSE", Limits(graphs_max_n=5))
    assert all(not r.instance.get("sampled") for r in report.results)


def test_minedge_checks_small_limits():
    report = run_suite("MINEDGE-II", Limits(graphs_max_n=5))
    assert report.total == 2 and report.all_passed
    report = run_suite("MINEDGE-I", Limits(trees_max_n=9))
    assert report.all_passed


def test_thm_main_instance_count_through_order_ten():
    # 1+2+3+6+11+23+47+106 free trees of orders 3..10
    report = run_suite("THM-MAIN", Limits(trees_max_n=10))
    assert report.total == 199
    assert report.all_passed


def test_smoke_run_at_minimum_limits():
    report = run_suite("all", Limits(trees_max_n=3, graphs_max_n=3, unicyclic_n=3))
    assert report.all_passed
    assert report.total > 0
    # the report is well formed: every result serializes
    for r in report.results:
        d = r.to_json_dict()
        assert d["check"] in REGISTRY and isinstance(d["ok"], bool)


def test_exception_while_choosing_instances_is_recorded(monkeypatch):
    real = checks._in_r_uvr

    def planted(g):
        if g.order == 5:
            raise RuntimeError("planted at order 5")
        return real(g)

    monkeypatch.setattr(checks, "_in_r_uvr", planted)
    report = run_suite("all", Limits(7, 5, 5))
    chosen = [r for r in report.results if r.instance == {"choosing_instances": True}]
    assert any(r.check_id == "OBS-PN3" for r in chosen)
    for r in chosen:
        assert not r.ok and r.witness == "RuntimeError: planted at order 5"
    later = CHECK_IDS[CHECK_IDS.index("OBS-PN3") + 1:]
    assert all(cid in report.per_check() for cid in later)


def test_brute_optimal_functions_match_the_labeling_oracle():
    rng = random.Random(12)
    corpus = [edgeless_graph(0), edgeless_graph(1)]
    for _ in range(40):
        n = rng.randint(1, 7)
        p = rng.choice((0.2, 0.4, 0.7))
        corpus.append(build_graph(n, [(i, j) for j in range(n) for i in range(j)
                                      if rng.random() < p]))
    assert any(not is_connected(g) for g in corpus if g.order > 1)
    for g in corpus:
        pairs = checks._brute_optimal_functions(g)
        got = {(frozenset(bits(g.full_mask & ~v2 & ~v1)), frozenset(bits(v1)),
                frozenset(bits(v2))) for v2, v1 in pairs}
        assert len(got) == len(pairs)
        assert got == brute_gamma_r_functions(g), write_graph6(g)


@pytest.mark.parametrize("check_id", ["LEM-ON", "THM-DIFF-II"])
def test_function_checks_pass_at_order_seven(check_id):
    report = run_suite(check_id, Limits(3, 7, 3))
    assert any(r.instance["graph6"].startswith("F") for r in report.results)
    assert report.all_passed, [(r.instance, r.witness) for r in report.failures]
