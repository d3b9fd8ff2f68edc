"""The kernels' size-ordered subset scans against full 2^n scans."""

import random

import pytest

from oracles import brute_gamma_r, full_scan_kernel
from romandom import kernels as pure
from romandom import graphs
from romandom.errors import GraphError, LimitExceededError

CLOSED_SCANS = ("min_weight_cover", "min_cover_masks", "min_dominating_size",
                "min_dominating_masks", "efficient_dominating_masks")
OPEN_SCANS = ("max_differential", "max_differential_masks")
CANON_FUNCTIONS = ("canonical_permutation", "canonical_signature",
                   "connected_canonical_signatures")


def random_rows(rng, n, p):
    rows = [0] * n
    for j in range(n):
        for i in range(j):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def test_scans_match_full_scan():
    rng = random.Random(3031)
    cases = []
    for n in range(12):
        full = (1 << n) - 1
        cases.append([0] * n)                                   # edgeless
        cases.append([full & ~(1 << v) for v in range(n)])      # complete
        cases += [random_rows(rng, n, rng.choice((0.1, 0.2, 0.35, 0.5, 0.75)))
                  for _ in range(25)]
    for rows in cases:
        closed = [r | 1 << v for v, r in enumerate(rows)]
        for name in CLOSED_SCANS:
            assert getattr(pure, name)(closed) == full_scan_kernel(name, closed), (name, rows)
        for name in OPEN_SCANS:
            assert getattr(pure, name)(rows) == full_scan_kernel(name, rows), (name, rows)


def test_scans_match_full_scan_on_any_rows():
    # The stop rules need only that every row lies within the n vertex bits,
    # so results agree on rows that are no graph's neighborhoods too.
    rng = random.Random(3032)
    for n in range(10):
        for _ in range(15):
            rows = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
            for name in CLOSED_SCANS + OPEN_SCANS:
                assert getattr(pure, name)(rows) == full_scan_kernel(name, rows), (name, rows)


def test_min_weight_cover_is_gamma_r():
    rng = random.Random(77)
    cases = [graphs.path_graph(7), graphs.cycle_graph(6), graphs.star(5)]
    for _ in range(8):
        n = rng.randint(1, 7)
        cases.append(graphs.build_graph(n, [
            (i, j) for j in range(n) for i in range(j) if rng.random() < 0.4]))
    for g in cases:
        assert pure.min_weight_cover(g.closed_rows()) == brute_gamma_r(g)


@pytest.mark.parametrize("name", CLOSED_SCANS + OPEN_SCANS)
def test_scan_limit(name):
    with pytest.raises(ValueError):
        getattr(pure, name)([0] * 25)


def test_kernel_limits_raise_typed_errors():
    with pytest.raises(LimitExceededError):
        pure.min_weight_cover([0] * 25)
    with pytest.raises(LimitExceededError):
        pure.connected_canonical_signatures(8)
    with pytest.raises(GraphError):
        pure.connected_canonical_signatures(0)


def test_every_entry_point_is_defined_in_the_kernel_module():
    for name in CLOSED_SCANS + OPEN_SCANS + CANON_FUNCTIONS:
        assert getattr(pure, name).__module__ == "romandom.kernels", name
