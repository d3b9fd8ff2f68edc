import sys

import pytest

from oracles import brute_gamma_r
from romandom import graphs, labelled
from romandom.errors import GraphError, LimitExceededError, OperationError
from romandom.graphs import are_isomorphic, tree_canonical_key
from romandom.labelled import (
    apply_o1,
    apply_o2,
    apply_o3,
    apply_o4,
    base_k12,
    canonical_gamma_r_function,
    decompose_script_t,
    generate_script_t,
    in_t1,
    labelled_r,
    parse_labelled,
    recognize_script_t,
    replay_script,
    sabc_violations,
    serialize_labelled,
)
from romandom.solvers import gamma_r_functions, roman_domination_number


def test_base():
    b = base_k12()
    assert b.order == 3
    assert b.statuses == ("A", "B", "A")
    assert len(b.s_b) == 1
    assert canonical_gamma_r_function(b).weight == 2 == brute_gamma_r(b.tree)


def test_o1_builds_path_six():
    lt = apply_o1(base_k12(), 0)
    assert "".join(lt.statuses) == "ABAABA"
    assert are_isomorphic(lt.tree, graphs.path_graph(6))
    assert roman_domination_number(lt.tree) == 4
    nine = apply_o1(lt, 3)  # the new x-leaf has status A
    assert nine.order == 9
    with pytest.raises(OperationError):
        apply_o1(base_k12(), 1)  # center has status B


def test_o2_builds_the_gadget():
    r = labelled_r()
    assert r.order == 7
    assert (len(r.s_b), len(r.s_a), len(r.s_c)) == (2, 4, 1)
    assert roman_domination_number(r.tree) == 4
    with pytest.raises(OperationError):
        apply_o2(base_k12(), 0)


def test_o3_requires_status_c():
    r = labelled_r()
    c_vertex = next(iter(r.s_c))
    bigger = apply_o3(r, c_vertex)
    assert bigger.order == 10
    assert not sabc_violations(bigger)
    with pytest.raises(OperationError):
        apply_o3(base_k12(), 1)


def test_o4_attaches_fresh_gadget():
    lt = apply_o4(base_k12(), 0)
    assert lt.order == 10
    assert roman_domination_number(lt.tree) == roman_domination_number(
        base_k12().tree
    ) + 4
    with pytest.raises(OperationError):
        apply_o4(base_k12(), 1)


@pytest.mark.parametrize("apply", [apply_o1, apply_o2, apply_o3, apply_o4])
@pytest.mark.parametrize("u", [-1, 3])
def test_operations_need_a_vertex_of_the_tree(apply, u):
    with pytest.raises(OperationError):
        apply(base_k12(), u)


def test_generate_refuses_orders_above_the_kernel_limit(monkeypatch):
    def no_work():
        raise AssertionError("generation started")

    monkeypatch.setattr(labelled, "base_k12", no_work)
    with pytest.raises(LimitExceededError, match="order 24, got 25"):
        generate_script_t(labelled.SCRIPT_T_LIMIT + 1)


def test_generate_small_orders():
    only_base = generate_script_t(3)
    assert len(only_base) == 1 and only_base[0].order == 3
    upto8 = generate_script_t(8)
    assert sorted({lt.order for lt in upto8}) == [3, 6, 7]
    upto10 = generate_script_t(10)
    orders = sorted({lt.order for lt in upto10})
    assert orders == [3, 6, 7, 9, 10]
    assert any(
        are_isomorphic(lt.tree, graphs.path_graph(9)) for lt in upto10
    )
    assert not any(lt.order == 8 for lt in upto10)
    assert generate_script_t(2) == []


def test_generated_members_satisfy_structure():
    for lt in generate_script_t(10):
        assert not sabc_violations(lt)


def test_recognize_examples():
    rec = recognize_script_t(graphs.path_graph(6))
    assert rec is not None
    assert rec.s_b == frozenset({1, 4})
    assert rec.s_c == frozenset()
    assert recognize_script_t(graphs.path_graph(4)) is None
    r = labelled_r()
    rec_r = recognize_script_t(r.tree)
    assert rec_r is not None and len(rec_r.s_c) == 1
    with pytest.raises(GraphError):
        recognize_script_t(graphs.cycle_graph(6))
    with pytest.raises(GraphError):
        recognize_script_t(graphs.path_graph(2))


def test_decompose_examples():
    script = decompose_script_t(graphs.path_graph(6))
    assert script is not None and len(script) == 1 and script[0][0] == "O1"
    replay = replay_script(script)
    assert are_isomorphic(replay.tree, graphs.path_graph(6))

    r_script = decompose_script_t(labelled_r().tree)
    assert r_script == [("O2", 1)]

    assert decompose_script_t(graphs.path_graph(5)) is None
    assert decompose_script_t(graphs.star(5)) is None


def test_decompose_replays_all_members():
    for lt in generate_script_t(16):
        script = decompose_script_t(lt.tree)
        assert script is not None, serialize_labelled(lt)
        rebuilt = replay_script(script)
        assert tree_canonical_key(rebuilt.tree) == tree_canonical_key(lt.tree)
        # the labelling is unique per tree, so the status counts must agree
        assert sorted(rebuilt.statuses) == sorted(lt.statuses)


def test_decompose_needs_no_recursion():
    # 299 O1 steps; the peel is a loop, so a shallow stack is enough
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        script = decompose_script_t(graphs.path_graph(900))
    finally:
        sys.setrecursionlimit(limit)
    assert script is not None and len(script) == 299


def test_recognize_and_decompose_agree_small():
    from romandom.streams import free_trees

    for n in range(3, 11):
        for t in free_trees(n):
            rec = recognize_script_t(t)
            script = decompose_script_t(t)
            assert (rec is None) == (script is None), graphs.write_graph6(t)
            if script is not None:
                assert are_isomorphic(replay_script(script).tree, t)


def test_canonical_function_weights():
    assert canonical_gamma_r_function(base_k12()).weight == 2
    p6 = apply_o1(base_k12(), 0)
    assert canonical_gamma_r_function(p6).weight == 4
    r = labelled_r()
    assert canonical_gamma_r_function(r).weight == 4
    # it really is the unique optimal function
    for lt in generate_script_t(9):
        assert gamma_r_functions(lt.tree) == [canonical_gamma_r_function(lt)]


def test_in_t1():
    assert in_t1(base_k12())
    assert in_t1(apply_o1(base_k12(), 0))
    assert not in_t1(labelled_r())


def test_serialization_round_trip():
    for lt in generate_script_t(9):
        line = serialize_labelled(lt)
        back = parse_labelled(line)
        assert back.tree == lt.tree and back.statuses == lt.statuses
    with pytest.raises(GraphError):
        parse_labelled("Bw")
