"""The instances each check chooses are pinned: for every check that keeps
some corpus items and skips others, the count and the sha256 of its record
lines, formatted as ``verify`` prints them."""

import hashlib
import json

import pytest

from romandom.checks import Limits, run_suite

CHOSEN = [
    # graphs with edges; from order 7 every third edge, flagged sampled
    ("LEM-MINUSE", Limits(3, 7, 3), 995,
     "b49da05651e0f7161dfc5c1d061bed6d6947c8b0b3f175b310d2f95937c34a9c"),
    # graphs with a vertex no optimal function labels 1
    ("PROP-02", Limits(3, 7, 3), 973,
     "6379487e8354ea3935c15c91d23bac9e88e227e3782f000652b34f61edcaac16"),
    # the mixed corpus to order 8; the trees of order 9 and 10 are skipped
    ("THM-DIFF-II", Limits(10, 4, 3), 53,
     "e028e19cb43504971260a74380e7950b14a2550cf03513822299bfa3759add0e"),
    # constructed trees with an edge between two 0-labelled vertices
    ("COR-EDEL", Limits(12, 3, 3), 10,
     "247ec2b78d2fb63e41fe6ce0a8bfa32ce814367468d9f39f300e7d4711c9e0cf"),
    # members of the vertex-removal-stable class, in their corpora
    ("OBS-PN3", Limits(10, 6, 3), 27,
     "7d80ee992f9f877fda4108e1b9756c15fd30fdb1d50e941e57eea10f4e19aeb1"),
    ("PROP-3V2", Limits(10, 6, 3), 27,
     "086a7d5138e202f92e9e3fe342aaa11818ee63b910864baf0cdc5f87809cb74a"),
    ("COR-UVRBON", Limits(10, 6, 3), 21,
     "c97e03bd92c992bc25c9bdc333d55a6b7f0a17f8e3e865b1d92464aa4fd31184"),
    ("COR-UVRTREE", Limits(10, 6, 3), 8,
     "27f01d29367b635e614a38755fb9014597d3e2b4c6c5c89ef3f09eed98c1d7de"),
]


@pytest.mark.parametrize("check_id, limits, count, digest", CHOSEN,
                         ids=[case[0] for case in CHOSEN])
def test_chosen_instances_are_pinned(check_id, limits, count, digest):
    report = run_suite(check_id, limits)
    assert report.all_passed
    assert report.total == count
    lines = "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n"
                    for r in report.results)
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


def test_order_seven_edges_are_sampled():
    report = run_suite("LEM-MINUSE", Limits(3, 7, 3))
    sampled = [r.instance["graph6"] for r in report.results if r.instance["sampled"]]
    assert len(sampled) == 853
    assert {g6[0] for g6 in sampled} == {"F"}
