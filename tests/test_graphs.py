import random
import time
import tracemalloc

import networkx as nx
import pytest

from romandom import graphs, kernels, streams
from romandom.errors import Graph6Error, GraphError, LimitExceededError
from romandom.graphs import (
    Graph,
    are_isomorphic,
    boundary,
    build_graph,
    canonical_form,
    connected_components,
    delete_edges,
    delete_vertex,
    delete_vertices,
    disjoint_union,
    forest_canonical_key,
    is_connected,
    is_forest,
    is_tree,
    parse_graph6,
    permute,
    private_neighbors,
    tree_canonical_key,
    tree_from_level_sequence,
    write_graph6,
)
from romandom.solvers import is_dominating


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
    return build_graph(n, edges)


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


def test_build_graph_basic():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.degree_sequence() == (2, 1, 1)
    assert g.edges() == [(0, 1), (1, 2)]
    assert build_graph(3, []).order == 3
    assert len(connected_components(build_graph(3, []))) == 3


def test_build_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        build_graph(4, [(0, 0)])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 5)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 0)])


def test_degree_sum_is_twice_size():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 9))
        assert sum(g.degree(v) for v in range(g.order)) == 2 * g.size


def test_graph6_known_encodings():
    k3 = parse_graph6("Bw")
    assert k3.order == 3 and k3.size == 3
    p3 = parse_graph6("Bg")
    assert p3.edges() == [(0, 1), (1, 2)]
    assert write_graph6(build_graph(1, [])) == "@"
    assert parse_graph6(">>graph6<<Bw") == k3


def test_graph6_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 12))
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_rejects_malformed():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("B")  # missing adjacency characters
    with pytest.raises(Graph6Error):
        parse_graph6("Bww")  # too many characters
    with pytest.raises(Graph6Error):
        parse_graph6("C" + chr(40))  # character below 63
    # nonzero padding: order 3 needs one char with 3 used bits; 'B' + chr(63+1)
    with pytest.raises(Graph6Error):
        parse_graph6("B" + chr(63 + 1))


def test_graph6_long_length_fields():
    for n in (63, 100, 300):
        line = nx.to_graph6_bytes(nx.path_graph(n), header=False).decode("ascii")
        assert line.startswith("~")
        assert parse_graph6(line) == graphs.path_graph(n)
    # '~~' form: order 63 * 64^2, rejected on body length before allocation
    with pytest.raises(Graph6Error, match="258048"):
        parse_graph6("~~???~??")
    for truncated in ("~", "~?", "~~??"):
        with pytest.raises(Graph6Error):
            parse_graph6(truncated)


def test_write_graph6_matches_networkx_to_order_62():
    rng = random.Random(62)
    for n in range(63):
        for p in (0.1, 0.5):
            g = random_graph(rng, n, p)
            want = nx.to_graph6_bytes(to_networkx(g), header=False).decode("ascii").strip()
            assert write_graph6(g) == want, (n, g.edges())
    with pytest.raises(GraphError):
        write_graph6(graphs.path_graph(63))


def _path_graph6(n):
    """graph6 line of the path 0-1-...-(n-1), for 63 <= n < 258048: "~",
    the order in three 6-bit groups, then the upper triangle column by
    column, where edge (j - 1, j) is bit j(j - 1)/2 + j - 1."""
    nbits = n * (n - 1) // 2
    body = bytearray((nbits + 5) // 6)
    for j in range(1, n):
        k = j * (j - 1) // 2 + j - 1
        body[k // 6] |= 32 >> k % 6
    return "~" + "".join(chr(63 + d) for d in (n >> 12, n >> 6 & 63, n & 63, *body))


def test_graph6_parse_memory_is_linear_in_the_line():
    # An order-1000 path: 83 KB of text and 499,500 vertex pairs, which the
    # parser walks with two counters instead of tabulating.  The line is
    # networkx's, written here directly because networkx takes most of a
    # second to write it.
    for n in (63, 100, 300):
        assert _path_graph6(n) == nx.to_graph6_bytes(
            nx.path_graph(n), header=False).decode("ascii").strip()
    line = _path_graph6(1000)
    tracemalloc.start()
    try:
        g = parse_graph6(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == graphs.path_graph(1000)
    assert peak < 4 * 1024 * 1024, peak


def test_private_neighbors_examples():
    p6 = graphs.path_graph(6)
    assert private_neighbors(p6, 1, [1, 4]) == frozenset({0, 1, 2})
    k3 = graphs.complete_graph(3)
    assert private_neighbors(k3, 0, [0, 1]) == frozenset()
    # singleton set: the private neighborhood is the whole closed neighborhood
    assert private_neighbors(p6, 2, [2]) == frozenset({1, 2, 3})
    with pytest.raises(GraphError):
        private_neighbors(p6, 0, [1, 4])


def test_private_neighbors_inside_closed_neighborhood():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        members = [v for v in range(g.order) if rng.random() < 0.5]
        if not members:
            members = [0]
        x = rng.choice(members)
        pn = private_neighbors(g, x, members)
        closed = set(g.neighbors(x)) | {x}
        assert pn <= closed


def test_private_neighbors_match_the_definition():
    # y is a private neighbour of x when N[y] meets the set exactly in {x}
    rng = random.Random(1811)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.4, 0.7)))
        members = {v for v in range(g.order) if rng.random() < 0.4} or {0}
        for x in members:
            want = {y for y in range(g.order) if (set(g.neighbors(y)) | {y}) & members == {x}}
            assert private_neighbors(g, x, members) == want, (g.edges(), members, x)


def test_boundary_examples():
    p3 = graphs.path_graph(3)
    assert boundary(p3, [1]) == frozenset({0, 2})
    assert boundary(p3, []) == frozenset()
    c6 = graphs.cycle_graph(6)
    assert boundary(c6, [0, 3]) == frozenset({1, 2, 4, 5})


@pytest.mark.parametrize(
    "call",
    [
        lambda g: is_dominating(g, [-1]),
        lambda g: boundary(g, [-1]),
        lambda g: private_neighbors(g, -1, [-1]),
        lambda g: private_neighbors(g, 5, [5]),
    ],
    ids=["is_dominating-negative", "boundary-negative", "private-negative", "private-outside"],
)
def test_bad_vertex_ids_raise_graph_error(call):
    with pytest.raises(GraphError):
        call(graphs.path_graph(3))


def test_delete_vertex_relabels_and_maps():
    p3 = graphs.path_graph(3)
    g, old_to_new = delete_vertex(p3, 1)
    assert g.order == 2 and g.size == 0
    assert old_to_new == {0: 0, 2: 1}
    with pytest.raises(GraphError):
        delete_vertex(p3, 9)


def test_delete_edges_preserves_labels():
    c3 = graphs.cycle_graph(3)
    p = delete_edges(c3, [(0, 2)])
    assert p.edges() == [(0, 1), (1, 2)]
    p4 = graphs.path_graph(4)
    two = delete_edges(p4, [(1, 2)])
    assert len(connected_components(two)) == 2
    with pytest.raises(GraphError):
        delete_edges(p4, [(0, 3)])


def test_deletion_then_components_never_raises():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9))
        v = rng.randrange(g.order)
        smaller, _ = delete_vertex(g, v)
        connected_components(smaller)

    for trial in range(100):
        g = random_graph(rng, rng.randint(0, 9), rng.choice((0.15, 0.3, 0.5)))
        if trial % 3 == 0:
            g = disjoint_union(g, random_graph(rng, rng.randint(0, 5)))
        n = g.order
        if n:
            v = rng.randrange(n)
            assert delete_vertex(g, v) == delete_vertices(g, [v])
            with pytest.raises(GraphError):
                delete_vertex(g, -1)
            with pytest.raises(GraphError):
                delete_vertices(g, [0, n])

        # deletions against an edge-list reference
        drop = {u for u in range(n) if rng.random() < 0.3}
        smaller, old_to_new = delete_vertices(g, drop)
        keep = [u for u in range(n) if u not in drop]
        assert old_to_new == {u: i for i, u in enumerate(keep)}
        kept_edges = [(old_to_new[a], old_to_new[b]) for a, b in g.edges()
                      if a not in drop and b not in drop]
        assert smaller == build_graph(len(keep), kept_edges)

        # components relabelled back partition vertices and edges
        for h in (g, smaller):
            comps = connected_components(h)
            firsts = [old_ids[0] for _, old_ids in comps]
            assert firsts == sorted(firsts)
            assert sorted(u for _, old_ids in comps for u in old_ids) == list(range(h.order))
            back = [(old_ids[a], old_ids[b]) for c, old_ids in comps for a, b in c.edges()]
            assert sorted(back) == h.edges()
            assert all(is_connected(c) and list(old_ids) == sorted(old_ids)
                       for c, old_ids in comps)
            if len(comps) == 1:
                assert comps[0][0] is h and comps[0][1] == tuple(range(h.order))

            reference = nx.Graph()
            reference.add_nodes_from(range(h.order))
            reference.add_edges_from(h.edges())
            if h.order:
                assert len(comps) == nx.number_connected_components(reference)
                assert is_connected(h) == nx.is_connected(reference)
                assert is_forest(h) == nx.is_forest(reference)
                assert is_tree(h) == nx.is_tree(reference)
            else:
                assert comps == [] and is_connected(h) and is_forest(h) and not is_tree(h)

            mask = rng.getrandbits(h.order) if h.order else 0
            reach = mask
            for u in range(h.order):
                if mask >> u & 1:
                    reach |= h.adjacency_mask(u)
            assert h.closed_reach(mask) == reach
        with pytest.raises(GraphError):
            g.closed_reach(1 << n)

    connected = graphs.cycle_graph(5)
    assert connected_components(connected)[0][0] is connected


def test_tree_predicates():
    assert is_tree(graphs.path_graph(4))
    assert not is_tree(graphs.cycle_graph(4))
    assert is_connected(graphs.complete_graph(5))
    du = disjoint_union(graphs.path_graph(2), graphs.path_graph(3))
    assert len(connected_components(du)) == 2
    assert not is_tree(build_graph(0, []))


def test_named_constructions():
    fig = graphs.figure3_graph()
    assert fig.order == 8 and fig.size == 8
    assert fig.degree_sequence() == (4, 4, 2, 2, 1, 1, 1, 1)
    join = graphs.join_graph(graphs.complete_graph(2), graphs.edgeless_graph(2))
    assert join.order == 4 and join.size == 5
    two = graphs.two_cliques_bridge(4)
    assert two.order == 8 and two.size == 13
    with pytest.raises(GraphError):
        graphs.two_cliques_bridge(3)
    cube = graphs.cube_graph()
    assert cube.degree_sequence() == (3,) * 8
    assert graphs.star(4).degree_sequence() == (3, 1, 1, 1)
    with pytest.raises(GraphError):
        graphs.cycle_graph(2)


def test_canonical_form_invariance_under_permutation():
    rng = random.Random(23)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8))
        perm = list(range(g.order))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permute(g, perm))


def test_canonical_signature_is_the_canonical_graph():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        perm = list(range(g.order))
        rng.shuffle(perm)
        sig = kernels.canonical_signature(g.open_rows())
        assert kernels.canonical_signature(permute(g, perm).open_rows()) == sig
        canon = Graph(g.order, sig)
        assert nx.is_isomorphic(to_networkx(g), to_networkx(canon))
        assert write_graph6(canon).encode("ascii") == canonical_form(g)


def test_canonical_form_separates():
    assert canonical_form(graphs.path_graph(4)) != canonical_form(graphs.star(4))
    fig = graphs.figure3_graph()
    shuffled = permute(fig, [3, 5, 0, 6, 1, 7, 2, 4])
    assert canonical_form(fig) == canonical_form(shuffled)


def test_canonical_form_order_cap():
    with pytest.raises(LimitExceededError):
        canonical_form(graphs.path_graph(11))


@pytest.mark.parametrize("g", [graphs.complete_graph(10), graphs.edgeless_graph(10),
                               graphs.star(10), graphs.complete_bipartite(5, 5)],
                         ids=["K10", "edgeless10", "star9", "K5,5"])
def test_canonical_form_at_the_order_cap_on_twin_rich_graphs(g):
    # every vertex has a twin (same open or same closed row), which without
    # pruning makes the search try every placement of a twin class
    rng = random.Random(g.size)
    want = None
    for _ in range(4):
        perm = list(range(g.order))
        rng.shuffle(perm)
        start = time.perf_counter()
        form = canonical_form(permute(g, perm))
        assert time.perf_counter() - start < 1.0
        assert want in (None, form)
        want = form
    assert nx.is_isomorphic(to_networkx(g), to_networkx(parse_graph6(want.decode("ascii"))))


def test_are_isomorphic():
    assert are_isomorphic(graphs.path_graph(3), parse_graph6("Bg"))
    assert not are_isomorphic(graphs.path_graph(4), graphs.star(4))
    assert not are_isomorphic(graphs.path_graph(3), graphs.path_graph(4))
    # the forest route works past the brute-force cap
    big = graphs.path_graph(14)
    perm = list(range(14))
    random.Random(1).shuffle(perm)
    assert are_isomorphic(big, permute(big, perm))


def test_tree_canonical_key():
    rng = random.Random(17)
    p12 = graphs.path_graph(12)
    perm = list(range(12))
    rng.shuffle(perm)
    assert tree_canonical_key(p12) == tree_canonical_key(permute(p12, perm))
    assert tree_canonical_key(graphs.path_graph(4)) != tree_canonical_key(graphs.star(4))
    with pytest.raises(GraphError):
        tree_canonical_key(graphs.cycle_graph(4))
    # orders of 255 and more: values past one byte, and no recursion limit
    for _ in range(3):
        edges = [(rng.randrange(v), v) for v in range(1, 300)]
        perm = list(range(300))
        rng.shuffle(perm)
        t = build_graph(300, edges)
        assert tree_canonical_key(t) == tree_canonical_key(permute(t, perm))
    assert tree_canonical_key(graphs.path_graph(300)) != tree_canonical_key(
        graphs.path_graph(301)
    )
    long_path = tree_canonical_key(graphs.path_graph(1500))
    assert long_path.startswith(b"\xff" + (1500).to_bytes(4, "big"))
    f1 = disjoint_union(graphs.path_graph(2), graphs.path_graph(3))
    f2 = disjoint_union(graphs.path_graph(3), graphs.path_graph(2))
    assert forest_canonical_key(f1) == forest_canonical_key(f2)


@pytest.mark.parametrize(
    "order, rows, message",
    [(-1, [], "nonnegative"),
     (2, [0b10], "match order"),
     (2, [0b01, 0b00], "self-loop at vertex 0"),
     (2, [0b110, 0b001], "row 0 mentions out-of-range"),
     (2, [0b10, -3], "row 1 mentions out-of-range"),
     (3, [0b010, 0b000, 0b000], r"not symmetric at \(0, 1\)")],
    ids=["negative-order", "row-count", "self-loop", "out-of-range", "negative-row",
         "asymmetric"],
)
def test_graph_rejects_invalid_rows(order, rows, message):
    with pytest.raises(GraphError, match=message):
        Graph(order, rows)


def test_tree_from_level_sequence_matches_its_parent_edges():
    # Every sequence composed to order 12, its kept and dropped bicentroidal
    # ones included; each vertex's parent is found by a backward search.
    for n in range(1, 13):
        for seq in streams._sequences(streams._rooted_catalogue(n // 2), n):
            parents = [(next(u for u in range(v - 1, -1, -1) if seq[u] == seq[v] - 1), v)
                       for v in range(1, n)]
            tree, built = tree_from_level_sequence(seq), build_graph(n, parents)
            assert tree == built and hash(tree) == hash(built), seq


@pytest.mark.parametrize("seq", [b"", b"\x01", b"\x00\x00", b"\x00\x02", b"\x00\x01\x03"],
                         ids=["empty", "root-at-1", "second-root", "skipped-level",
                              "later-skip"])
def test_tree_from_level_sequence_rejects_invalid_sequences(seq):
    with pytest.raises(GraphError):
        tree_from_level_sequence(seq)
