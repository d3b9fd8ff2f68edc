import itertools

import networkx as nx
import pytest

from romandom import graphs, kernels, streams
from romandom.errors import Graph6Error, GraphError
from romandom.graphs import canonical_form, is_connected, is_tree, is_unicyclic
from romandom.streams import (
    CONNECTED_GRAPH_COUNTS,
    FREE_TREE_COUNTS,
    UNICYCLIC_COUNTS,
    connected_graphs,
    free_trees,
    read_graph6_stream,
    unicyclic_graphs,
)


def test_free_tree_counts_match_published():
    for n in range(1, 13):
        assert sum(1 for _ in free_trees(n)) == FREE_TREE_COUNTS[n], n


def test_free_trees_are_trees_and_distinct():
    for n in range(1, 9):
        trees = list(free_trees(n))
        assert all(is_tree(t) for t in trees)
        keys = {graphs.tree_canonical_key(t) for t in trees}
        assert len(keys) == len(trees)


def test_free_trees_bounds():
    with pytest.raises(GraphError):
        free_trees(0)
    with pytest.raises(GraphError):
        free_trees(17)


def test_connected_graph_counts_match_published():
    for n in range(1, 8):
        assert sum(1 for _ in connected_graphs(n)) == CONNECTED_GRAPH_COUNTS[n], n


def test_connected_signatures_match_graph_atlas():
    atlas = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n and nx.is_connected(h):
            rows = [0] * n
            for u, v in h.edges():
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            atlas[n].add(kernels.canonical_signature(rows))
    for n in range(1, 8):
        assert kernels.connected_canonical_signatures(n) == sorted(atlas[n]), n
    with pytest.raises(ValueError):
        kernels.connected_canonical_signatures(8)


def test_connected_graphs_are_connected_and_distinct():
    for n in range(1, 6):
        gs = list(connected_graphs(n))
        assert all(is_connected(g) for g in gs)
        for a, b in itertools.combinations(gs, 2):
            assert canonical_form(a) != canonical_form(b)


def test_connected_graphs_bounds():
    with pytest.raises(GraphError):
        connected_graphs(0)
    with pytest.raises(GraphError):
        connected_graphs(8)


def test_unicyclic_counts_match_published():
    for n in range(3, 9):
        assert sum(1 for _ in unicyclic_graphs(n)) == UNICYCLIC_COUNTS[n], n


def test_unicyclic_examples():
    only = list(unicyclic_graphs(3))
    assert len(only) == 1 and graphs.are_isomorphic(only[0], graphs.cycle_graph(3))
    four = list(unicyclic_graphs(4))
    assert len(four) == 2
    assert all(is_unicyclic(g) for g in unicyclic_graphs(7))
    fig = graphs.figure3_graph()
    assert any(graphs.are_isomorphic(g, fig) for g in unicyclic_graphs(8))


def test_streams_are_reiterable():
    stream = free_trees(5)
    assert sum(1 for _ in stream) == sum(1 for _ in stream) == 3


def test_read_graph6_stream(tmp_path):
    path = tmp_path / "corpus.g6"
    lines = [
        ">>graph6<<Bw",
        graphs.write_graph6(graphs.path_graph(4)),
        "",
        graphs.write_graph6(graphs.cycle_graph(5)),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    got = list(read_graph6_stream(str(path)))
    assert len(got) == 3
    assert got[0].size == 3 and got[2].order == 5

    empty = tmp_path / "empty.g6"
    empty.write_text("", encoding="ascii")
    assert list(read_graph6_stream(str(empty))) == []

    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\nB\n", encoding="ascii")
    with pytest.raises(Graph6Error) as err:
        list(read_graph6_stream(str(bad)))
    assert "line 2" in str(err.value)
