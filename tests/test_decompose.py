"""Structural decomposition against the generated family: on members under
a random relabelling (so the rooting vertex varies), on every free tree of
orders 13 and 14, and by the number of tree validations it pays for."""

import random

from romandom import labelled
from romandom.graphs import build_graph, path_graph, tree_canonical_key, write_graph6
from romandom.labelled import decompose_script_t, generate_script_t, replay_script
from romandom.streams import free_trees


def _shuffled(t, rng):
    perm = list(range(t.order))
    rng.shuffle(perm)
    return build_graph(t.order, [(perm[a], perm[b]) for a, b in t.edges()])


def test_decompose_replays_relabelled_members():
    rng = random.Random(20)
    for lt in generate_script_t(20):
        t = _shuffled(lt.tree, rng)
        script = decompose_script_t(t)
        assert script is not None, write_graph6(t)
        rebuilt = replay_script(script)
        assert tree_canonical_key(rebuilt.tree) == tree_canonical_key(t)
        assert sorted(rebuilt.statuses) == sorted(lt.statuses)


def test_decompose_accepts_exactly_the_members_of_orders_13_and_14():
    keys = {tree_canonical_key(lt.tree) for lt in generate_script_t(14)}
    accepted = 0
    for n in (13, 14):
        for t in free_trees(n):
            member = tree_canonical_key(t) in keys
            assert (decompose_script_t(t) is not None) == member, write_graph6(t)
            accepted += member
    assert accepted > 0


def test_decompose_and_replay_validate_few_trees(monkeypatch):
    calls = []
    real = labelled.is_tree

    def counting(g):
        calls.append(g.order)
        return real(g)

    monkeypatch.setattr(labelled, "is_tree", counting)
    script = decompose_script_t(path_graph(900))
    assert script is not None and len(calls) <= 2
    calls.clear()
    replay_script(script)
    assert len(calls) <= 2
