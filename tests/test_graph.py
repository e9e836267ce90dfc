import json
import random

import numpy as np
import pytest

from rcl.graph import (
    Digraph,
    GraphError,
    graph_from_json,
    graph_to_json,
    load_graph,
    load_graph_json,
    make_k_circulant,
    make_undirected_circulant,
    save_graph,
)


def test_directed_ring_edges():
    g = make_k_circulant(3, 1)
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 1)})


def test_c5_2_in_neighbors():
    g = make_k_circulant(5, 2)
    assert g.in_neighbors(1) == {4, 5}


def test_c10_7_in_neighbors():
    g = make_k_circulant(10, 7)
    assert g.in_neighbors(1) == {4, 5, 6, 7, 8, 9, 10}


@pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (10, 7), (12, 11), (30, 15)])
def test_k_circulant_degrees(n, k):
    g = make_k_circulant(n, k)
    for i in g.vertices:
        assert len(g.in_neighbors(i)) == k
        assert len(g.out_neighbors(i)) == k


@pytest.mark.parametrize("n,k", [(5, 2), (8, 3), (10, 7)])
def test_k_circulant_vertex_transitive(n, k):
    g = make_k_circulant(n, k)
    rotated = frozenset(((i % n) + 1, (j % n) + 1) for i, j in g.edges)
    assert rotated == g.edges


@pytest.mark.parametrize("n,offsets", [(6, [1, 2]), (9, [1, 3])])
def test_undirected_circulant_vertex_transitive(n, offsets):
    g = make_undirected_circulant(n, offsets)
    rotated = frozenset(((i % n) + 1, (j % n) + 1) for i, j in g.edges)
    assert rotated == g.edges


def test_undirected_4_cycle():
    g = make_undirected_circulant(4, [1])
    assert len(g.edges) == 8
    assert all((j, i) in g.edges for i, j in g.edges)


def test_undirected_c5_12_is_complete():
    g = make_undirected_circulant(5, [1, 2])
    assert len(g.edges) == 20
    for i in g.vertices:
        assert g.in_neighbors(i) == set(g.vertices) - {i}


def test_undirected_c6_12_in_degree():
    g = make_undirected_circulant(6, [1, 2])
    for i in g.vertices:
        assert len(g.in_neighbors(i)) == 4


def test_undirected_symmetry_property():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(3, 12)
        count = rng.randrange(1, (n - 1) // 2 + 1)
        offsets = sorted(rng.sample(range(1, n), count))
        g = make_undirected_circulant(n, offsets)
        assert all((j, i) in g.edges for i, j in g.edges)


def test_circulant_rejects_bad_parameters():
    with pytest.raises(GraphError):
        make_k_circulant(1, 1)
    with pytest.raises(GraphError):
        make_k_circulant(5, 0)
    with pytest.raises(GraphError):
        make_k_circulant(5, 5)


def test_undirected_rejects_bad_offsets():
    with pytest.raises(GraphError):
        make_undirected_circulant(5, [2, 1])
    with pytest.raises(GraphError):
        make_undirected_circulant(5, [1, 1])
    with pytest.raises(GraphError):
        make_undirected_circulant(5, [0, 1])
    with pytest.raises(GraphError):
        make_undirected_circulant(5, [5])
    with pytest.raises(GraphError):
        make_undirected_circulant(5, [])


def test_digraph_validation():
    with pytest.raises(GraphError):
        Digraph(3, frozenset({(1, 1)}))
    with pytest.raises(GraphError):
        Digraph(3, frozenset({(0, 1)}))
    with pytest.raises(GraphError):
        Digraph(3, frozenset({(1, 4)}))
    with pytest.raises(GraphError):
        Digraph(1, frozenset())


def test_neighbors_of_edgeless_graph():
    g = Digraph(3, frozenset())
    assert g.in_neighbors(2) == frozenset()
    assert g.inclusive_neighbors(2) == {2}


def test_unknown_vertex_query():
    g = make_k_circulant(4, 1)
    with pytest.raises(GraphError):
        g.in_neighbors(5)
    with pytest.raises(GraphError):
        g.in_neighbors(0)


@pytest.mark.parametrize("query", ["in_neighbors", "out_neighbors", "inclusive_neighbors"])
def test_vertex_queries_take_integer_ids_only(query):
    g = make_k_circulant(5, 2)
    ask = getattr(g, query)
    for bad in (1.5, True, False, "1", None):
        with pytest.raises(GraphError, match="is not an integer id"):
            ask(bad)
    # an integer-like id that is not an int (as NumPy's are) answers as the int
    assert ask(np.int64(3)) == ask(3)
    assert all(type(v) is int for v in g.inclusive_neighbors(np.int64(3)))


def test_digraph_takes_integer_count_and_ids_only():
    for n, edges, message in ((3, {(1.0, 2)}, r"^edge \(1\.0, 2\): vertex must be an integer, got 1\.0$"),
                              (3, {(True, 2)}, r"^edge \(True, 2\): vertex must be an integer, got True$"),
                              (3, {(1, "2")}, "^edge .* must be an integer, got '2'$"),
                              (3, {(2, None)}, "^edge .* must be an integer, got None$"),
                              (5.0, set(), "^agent count must be an integer, got 5.0$"),
                              (True, set(), "^agent count must be an integer, got True$")):
        with pytest.raises(GraphError, match=message):
            Digraph(n, edges)
    # integer-like values (as NumPy's are) become ints, and the edges a frozenset
    g = Digraph(np.int64(3), {(np.int64(1), 2), (3, np.int64(1))})
    assert g == Digraph(3, frozenset({(1, 2), (3, 1)}))
    assert type(g.n) is int and type(g.edges) is frozenset
    assert all(type(v) is int for edge in g.edges for v in edge)
    assert g.in_masks == (0b100, 0b001, 0b000)


def test_circulants_take_integer_parameters_only():
    for n, k in ((6, 2.0), (6, True), (6.0, 2), (True, 1)):
        with pytest.raises(GraphError, match="must be an integer"):
            make_k_circulant(n, k)
    for n, offsets in ((6, [1.0]), (6, [True, 2]), (6.0, [1])):
        with pytest.raises(GraphError, match="must be an integer"):
            make_undirected_circulant(n, offsets)
    assert make_k_circulant(np.int64(6), np.int64(2)) == make_k_circulant(6, 2)
    assert make_undirected_circulant(np.int64(6), [np.int64(1)]) == make_undirected_circulant(6, [1])


def test_save_load_roundtrip(tmp_path):
    rng = random.Random(11)
    graphs = [make_k_circulant(5, 2), make_undirected_circulant(6, [1, 2])]
    for _ in range(10):
        n = rng.randrange(2, 10)
        edges = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and rng.random() < 0.4
        }
        graphs.append(Digraph(n, frozenset(edges)))
    for idx, g in enumerate(graphs):
        path = tmp_path / f"g{idx}.txt"
        save_graph(g, path)
        assert load_graph(path) == g


def test_load_rejects_self_loop(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n 3\n1 1\n")
    with pytest.raises(GraphError, match="self-loop"):
        load_graph(path)


def test_load_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n 3\n0 2\n")
    with pytest.raises(GraphError, match="outside"):
        load_graph(path)


def test_load_rejects_duplicates(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n 3\n1 2\n1 2\n")
    with pytest.raises(GraphError, match="duplicate"):
        load_graph(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n 3\n1 2 3\n")
    with pytest.raises(GraphError):
        load_graph(path)
    path.write_text("vertices 3\n1 2\n")
    with pytest.raises(GraphError, match="header"):
        load_graph(path)


def test_json_roundtrip():
    g = make_k_circulant(7, 3)
    assert graph_from_json(graph_to_json(g)) == g


@pytest.mark.parametrize("obj", [
    {"n": 3, "edges": [[True, 2], [2, 3], [3, 1]]},
    {"n": 3, "edges": [[1, False]]},
    {"n": True, "edges": []},
])
def test_json_rejects_boolean_ids(obj):
    with pytest.raises(GraphError, match="integer"):
        graph_from_json(obj)


@pytest.mark.parametrize("obj, pointer", [
    ({"n": 3, "edges": [[1, 2], [2, 3, 1]]}, "/edges: expected a list of [i, j] pairs of integers"),
    ({"n": "3", "edges": []}, "/n: expected an integer, got '3'"),
    ({"edges": []}, "/n: expected an integer, got None"),
    ({"n": 3, "edges": [[1, 2], [2, 3], [1, 2]]}, "/edges/2: duplicate edge (1, 2)"),
    ({"n": 3, "edges": [[1, 1]]}, ": self-loop (1, 1) not allowed"),
    ([[1, 2]], ": graph JSON must be an object with keys 'n' and 'edges'"),
])
def test_json_errors_name_the_file_and_pointer(tmp_path, obj, pointer):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(GraphError) as exc:
        load_graph_json(path)
    assert str(exc.value).startswith(f"{path}#{pointer}"), exc.value


def test_in_masks_match_in_neighbors():
    g = make_k_circulant(9, 4)
    for i in g.vertices:
        mask = g.in_masks[i - 1]
        members = {v for v in g.vertices if mask >> (v - 1) & 1}
        assert members == g.in_neighbors(i)


@pytest.mark.parametrize("g", [make_k_circulant(9, 4), make_undirected_circulant(70, [1, 3, 33])],
                         ids=["C_9(1..4)", "C_70(+-1,3,33)"])
def test_out_masks_match_out_neighbors(g):
    rng = random.Random(13)
    h = Digraph(g.n, frozenset(e for e in g.edges if rng.random() < 0.7))  # not symmetric
    for graph in (g, h):
        assert len(graph.out_masks) == graph.n
        for i in graph.vertices:
            mask = graph.out_masks[i - 1]
            assert mask >> graph.n == 0
            assert {v for v in graph.vertices if mask >> (v - 1) & 1} == graph.out_neighbors(i)
