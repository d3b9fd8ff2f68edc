import hashlib
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


# OEIS A000081: rooted trees on 0, 1, ..., 8 vertices.
ROOTED_TREE_COUNTS = (0, 1, 1, 2, 4, 9, 20, 48, 115)


def test_rooted_catalogue_matches_published_counts():
    catalogue = streams._rooted_catalogue(8)
    sizes = [len(code) for code in catalogue]
    assert [sizes.count(k) for k in range(1, 9)] == list(ROOTED_TREE_COUNTS[1:])
    assert catalogue == sorted(set(catalogue), reverse=True)
    # Each entry is its tree's canonical sequence, one level down.
    for code in catalogue:
        seq = bytes(d - 1 for d in code)
        assert bytes(d + 1 for d in graphs._rooted_code(streams._tree_rows(seq), 0)) == code


def test_bicentroid_tie_break_matches_rooted_code():
    # Every sequence composed to order 16; here the second centroid is the
    # root child whose gap to the next 1 (or the end) is n / 2.
    for n in range(2, 17, 2):
        bicentroidal = 0
        for seq in streams._sequences(streams._rooted_catalogue(n // 2), n):
            starts = [i for i in range(1, n) if seq[i] == 1] + [n]
            twins = [a for a, b in zip(starts, starts[1:]) if 2 * (b - a) == n]
            if not twins:
                assert streams._not_below_twin(seq), seq
                continue
            bicentroidal += 1
            rooted_there = graphs._rooted_code(streams._tree_rows(seq), twins[0])
            assert streams._not_below_twin(seq) == (list(seq) >= rooted_there), seq
        # Each ordered pair of rooted halves is composed once.
        assert bicentroidal == ROOTED_TREE_COUNTS[n // 2] ** 2, n


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


def stream_pin(streams):
    """(line count, sha256) of the graph6 lines of the streams, in order."""
    digest, count = hashlib.sha256(), 0
    for stream in streams:
        for g in stream:
            digest.update((graphs.write_graph6(g) + "\n").encode("ascii"))
            count += 1
    return count, digest.hexdigest()


def test_connected_graph_stream_is_pinned():
    assert stream_pin(connected_graphs(n) for n in range(1, 8)) == (
        996, "29b3e5b21aabeddf041e1070cbc20a0a59de66c314967e1406e1e1f3937ff542")


def test_unicyclic_stream_is_pinned():
    assert stream_pin(unicyclic_graphs(n) for n in range(3, 10)) == (
        383, "8b1264564e16c28e301351409ca4d535e2d5f9885307a26dcccf82e8c0d82499")


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


def counted(stream, counts):
    """The stream's graphs, noting how many there were under its order."""
    out = list(stream)
    counts[stream.order] = len(out)
    return out


def test_free_tree_stream_is_pinned():
    counts = {}
    assert stream_pin(counted(free_trees(n), counts) for n in range(1, 17)) == (
        32508, "dedbff75a09e3b5158b98bcd8f4bbd5765ce3d2859556a068138c96f6319cf42")
    assert counts == {n: FREE_TREE_COUNTS[n] for n in range(1, 17)}


def test_unicyclic_stream_to_order_10_is_pinned():
    counts = {}
    assert stream_pin(counted(unicyclic_graphs(n), counts) for n in range(3, 11)) == (
        1040, "922c6dd4d60c418f6fd30eae95f972cd845758cee1102f3a465ce8597c2a2fc0")
    assert counts == {n: UNICYCLIC_COUNTS[n] for n in range(3, 11)}


def test_free_trees_match_networkx():
    # Compared as sorted lists, so a tree generated twice fails too.
    for n in range(1, 13):
        ours = sorted(graphs.tree_canonical_key(t) for t in free_trees(n))
        theirs = sorted(graphs.tree_canonical_key(graphs.build_graph(n, list(t.edges())))
                        for t in nx.nonisomorphic_trees(n))
        assert ours == theirs, n


def test_chord_keys_classify_like_canonical_search():
    # Every tree plus chord to order 9: equal cheap keys exactly when the
    # canonical search says isomorphic.
    for n in range(3, 10):
        key_to_sig, sig_to_key = {}, {}
        for tree in free_trees(n):
            for rows, key in streams._chord_keys(tree.open_rows()):
                sig = kernels.canonical_signature(rows)
                assert key_to_sig.setdefault(key, sig) == sig, (n, rows)
                assert sig_to_key.setdefault(sig, key) == key, (n, rows)
        assert len(key_to_sig) == UNICYCLIC_COUNTS[n], n


def chord_keys_by_definition(rows):
    """The (rows, key) pairs of ``streams._chord_keys`` from the first
    definition: clear the cycle's edges in a copy of the rows, code the tree
    hung at each cycle vertex with ``graphs._rooted_code``, and take the
    least rotation or reflection of the joined codes."""
    n = len(rows)
    for j in range(1, n):
        toward_j = graphs._parents_preorder(rows, j)[0]
        for i in range(j):
            if rows[i] >> j & 1:
                continue
            cycle = [i]
            while cycle[-1] != j:
                cycle.append(toward_j[cycle[-1]])
            on_cycle = graphs.mask_of(cycle)
            hung = [row & ~on_cycle if v in cycle else row for v, row in enumerate(rows)]
            codes = [bytes(graphs._rooted_code(hung, c)) for c in cycle]
            with_chord = list(rows)
            with_chord[i] |= 1 << j
            with_chord[j] |= 1 << i
            turns = [b"".join(seq[k:] + seq[:k]) for seq in (codes, codes[::-1])
                     for k in range(len(seq))]
            yield with_chord, min(turns)


def test_chord_keys_match_their_definition():
    # Every free tree plus chord of order 3 to 12, in the same order; below
    # order 12 no key needs the child sequences sorted.
    for n in range(3, 13):
        for tree in free_trees(n):
            rows = tree.open_rows()
            assert list(streams._chord_keys(rows)) == list(chord_keys_by_definition(rows)), rows
