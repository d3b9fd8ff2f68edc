"""Checks that a broken helper must fail: each mutant is monkeypatched into
``romandom.checks`` and the check it names must report failures."""

from romandom import checks
from romandom.checks import Limits, run_suite

SMALL = Limits(9, 5, 6)


def test_cor_edel_fails_when_edge_deletion_does_nothing(monkeypatch):
    # the tree is left whole, and a stable tree is still stable, so only
    # the component count can see the edge was not deleted
    monkeypatch.setattr(checks, "delete_edges", lambda g, edges: g)
    report = run_suite("COR-EDEL", SMALL)
    assert report.total == 3
    assert [r.witness["components"] for r in report.failures] == [1, 1, 1]
