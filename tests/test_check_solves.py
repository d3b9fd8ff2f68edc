"""The verify sweep solves each quantity once per graph, and its caches do
not carry answers from a faulty run into a clean one."""

from collections import Counter

import pytest

from romandom import checks, kernels
from romandom.checks import Limits, run_suite
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
