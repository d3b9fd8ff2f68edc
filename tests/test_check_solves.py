"""The verify sweep solves each quantity once per graph, and its caches do
not carry answers from a faulty run into a clean one."""

import sys
from collections import Counter

import pytest

from romandom import checks, cli, graphs, kernels, solvers, streams
from romandom.checks import Limits, run_checks, run_suite
from romandom.solvers import FAULT_GAMMA_R_PLUS_ONE

SMALL = Limits(9, 5, 6)

# Kernel calls of run_suite("all", SMALL) with one deletion walk per graph
# and quantity and one minimum-dominating-set enumeration per tree.  A
# check that solves γ_R(G - v), ∂(G - v) or the minimum dominating sets
# again, instead of reading the cached answers, goes over these.
MAX_CALLS = {
    "min_weight_cover": 1840,
    "max_differential": 914,
    "min_dominating_masks": 110,
}


def test_the_sweep_does_not_repeat_solves(monkeypatch):
    calls = Counter()
    for name in MAX_CALLS:
        def counting(rows, name=name, real=getattr(kernels, name)):
            calls[name] += 1
            return real(rows)
        monkeypatch.setattr(kernels, name, counting)
    report = run_suite("all", SMALL)
    assert report.all_passed
    over = {name: calls[name] for name, bound in MAX_CALLS.items() if calls[name] > bound}
    assert over == {}


@pytest.mark.parametrize("check_id", ["OBS-EQUI", "THM-MAIN"])
def test_a_faulty_run_leaves_no_cached_answer(check_id):
    # the fault raises gamma_R and every gamma_R(G - v) alike, so these two
    # checks still pass; a walk left in the cache would hand its shifted
    # base to the clean run, and THM-DIFF-I there would fail.  The walks an
    # earlier test left behind would hide that, so start from none.
    checks._deletions.cache_clear()
    assert run_suite(check_id, SMALL, fault=FAULT_GAMMA_R_PLUS_ONE).total > 0
    assert run_suite("all", SMALL).all_passed


def test_the_sweep_reads_cached_v2_sets_and_enumerates_efficient_sets_once(monkeypatch):
    # COR-SB reads the cached optimal V2 sets and PROP-3V2 enumerates the
    # efficient dominating sets once per graph; the sweep made 195 and 17
    # calls when each re-enumerated them.
    bounds = {"min_cover_masks": 124, "efficient_dominating_masks": 12}
    calls = Counter()
    for name in bounds:
        def counting(rows, name=name, real=getattr(kernels, name)):
            calls[name] += 1
            return real(rows)
        monkeypatch.setattr(kernels, name, counting)
    assert run_suite("all", SMALL).all_passed
    assert {name: calls[name] for name in bounds if calls[name] > bounds[name]} == {}


def test_each_corpus_order_is_generated_once(monkeypatch):
    made = Counter()
    for name in ("free_trees", "connected_graphs"):
        def counting(n, name=name, real=getattr(streams, name)):
            made[name, n] += 1
            return real(n)
        monkeypatch.setattr(streams, name, counting)
    checks._trees_at.cache_clear()
    checks._connected_at.cache_clear()
    assert run_suite("all", SMALL).all_passed
    assert made and set(made.values()) == {1}


def _run_state():
    """Whether the fault is on (gamma_R of P3 reads 3, not 2), and the
    number of entries in each solver cache."""
    faulty = solvers.roman_domination_number(graphs.path_graph(3)) == 3
    return faulty, [cache.cache_info().currsize for cache in checks._SOLVER_CACHES]


class _Stop(Exception):
    pass


def test_a_sink_that_stops_after_one_record_leaves_no_fault_or_cached_answer():
    states = []

    def stop(result):
        states.append(_run_state())
        raise _Stop

    with pytest.raises(_Stop):
        run_checks("THM-MAIN", SMALL, FAULT_GAMMA_R_PLUS_ONE, stop)
    faulty, sizes = states[0]
    assert len(states) == 1 and faulty and all(sizes[1:])
    assert _run_state() == (False, [0, 0, 0, 0])


def test_a_verify_whose_output_breaks_leaves_no_fault_or_cached_answer(monkeypatch):
    states = []

    class BrokenPipe:
        def write(self, text):
            states.append(_run_state())
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    with pytest.raises(BrokenPipeError):
        cli.main(["verify", "--suite", "all", "--trees-max-n", "9", "--graphs-max-n", "5",
                  "--unicyclic-n", "6", "--inject-fault", FAULT_GAMMA_R_PLUS_ONE])
    faulty, sizes = states[0]
    assert len(states) == 1 and faulty and sizes[0]
    assert _run_state() == (False, [0, 0, 0, 0])
