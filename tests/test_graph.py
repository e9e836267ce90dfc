import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
                              (True, set(), "^agent count must be an integer, got True$"),
                              (3, {(1, 2, 3)}, r"^edge \(1, 2, 3\): expected a pair of vertices$"),
                              (3, {5}, "^edge 5: expected a pair of vertices$"),
                              # unhashable edges, as JSON writes them
                              (3, [[1, 2]], r"^edge \[1, 2\]: expected a pair of vertices$"),
                              (3, [(1, 2), ([2], 3)], r"^edge \(\[2\], 3\): vertex must be an integer, got \[2\]$"),
                              (3, iter([(1, 2), [2, 3], (3, 1)]), r"^edge \[2, 3\]: expected a pair of vertices$"),
                              # a frozenset is checked edge by edge too
                              (3, frozenset({(1, 2), (2, 3, 1)}), r"^edge \(2, 3, 1\): expected a pair of vertices$"),
                              (3, frozenset({(1, 2), (2.0, 3)}), r"^edge \(2\.0, 3\): vertex must be an integer")):
        with pytest.raises(GraphError, match=message):
            Digraph(n, edges)
    # integer-like values (as NumPy's are) become ints, and the edges a frozenset
    for edges in ({(np.int64(1), 2), (3, np.int64(1))}, frozenset({(np.int64(1), 2), (3, np.int64(1))})):
        g = Digraph(np.int64(3), edges)
        assert g == Digraph(3, frozenset({(1, 2), (3, 1)}))
        assert hash(g) == hash(Digraph(3, frozenset({(1, 2), (3, 1)})))
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
    path.write_text("\n  \n")
    with pytest.raises(GraphError, match=": empty file$"):
        load_graph(path)
    path.write_text("n 1\n")
    with pytest.raises(GraphError, match=f"^{path}:1: agent count must be >= 2, got 1$"):
        load_graph(path)


def test_graph_files_take_ids_only_as_str_writes_them(tmp_path):
    path = tmp_path / "g.txt"
    for text, message in (("n 1_0\n", "agent count"), ("n +3\n", "agent count"), ("n \u0663\n", "agent count"),
                          ("n 3\n1 0_2\n", "vertex id"), ("n 3\n01 2\n", "vertex id"),
                          ("n 3\n1 \u0662\n", "vertex id")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(GraphError, match=f"^{path}:[12]: {message} must be an integer, got '"):
            load_graph(path)
    path.write_text("n 3\n 1  2 \n3 1\n")
    assert load_graph(path) == Digraph(3, frozenset({(1, 2), (3, 1)}))


@pytest.mark.parametrize("text, message", [
    ("n 1\n1 2\n", ":1: agent count must be >= 2, got 1"),
    ("n 3\n\n\n1 2\n2 2\n", ":5: self-loop (2, 2)"),
    ("\n\nn 1\n", ":3: agent count must be >= 2, got 1"),
    ("n 3\r\n \r\n1 2\r\n3 4\r\n", ":4: vertex id outside 1..3 in (3, 4)"),
])
def test_text_errors_name_the_file_and_physical_line(tmp_path, text, message):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    with pytest.raises(GraphError) as exc:
        load_graph(path)
    assert str(exc.value) == f"{path}{message}"


@pytest.mark.parametrize("name, data", [("g.json", b'{"n": 3, "edges": [[1, 2], '), ("g.json", b"\xff"),
                                        ("g.txt", b"n 3\n1 2\xff\n")])
def test_undecodable_files_name_the_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(GraphError, match=f"^{path}: "):
        (load_graph_json if name.endswith(".json") else load_graph)(path)


# ROADMAP item 10, graph files: one mutation of a valid file leaves a file
# refused at the file and the mutated physical line (text) or JSON pointer, or
# its parent (JSON), unless it swapped a token for itself
_NOT_AN_ID = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Z")), min_size=1, max_size=3).filter(
    lambda t: t.split() == [t] and not re.fullmatch(r"-?(0|[1-9][0-9]*)", t))


@st.composite
def _graphs(draw):
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return n, draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))


def _bad_edge(draw, n, edges, kind):
    """A pair that is a self-loop, leaves 1..n or repeats one of ``edges``."""
    i = draw(st.integers(1, n))
    if kind == "self-loop":
        return [i, i]
    if kind == "range":
        return draw(st.permutations([i, draw(st.sampled_from([0, n + 1]))]))
    return list(draw(st.sampled_from(edges)))


@pytest.fixture(scope="module")
def mutant(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "graph"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_text_graph_loads_or_names_the_physical_line(mutant, data):
    n, edges = data.draw(_graphs())
    rows = [["n", str(n)], *([str(i), str(j)] for i, j in edges)]
    valid = [row[:] for row in rows]
    kind = data.draw(st.sampled_from(["token", "count", "self-loop", "range", "duplicate"]))
    if kind == "token":
        fault, token = data.draw(st.sampled_from([(k, t) for k in range(len(rows)) for t in (0, 1)]))
        rows[fault][token] = data.draw(_NOT_AN_ID)
    elif kind == "count":
        fault, rows[0][1] = 0, str(data.draw(st.integers(-3, 1)))
    else:
        row = [str(v) for v in _bad_edge(data.draw, n, edges, kind)]
        rows.insert(data.draw(st.integers(1, len(rows))), row)
        fault = len(rows) - 1 - rows[::-1].index(row)  # of a duplicate, the later line
    blanks = data.draw(st.lists(st.integers(0, 2), min_size=len(rows) + 1, max_size=len(rows) + 1))
    space, newline = data.draw(st.sampled_from([(" ", "\n"), ("  ", "\r\n"), ("\t", "\n")]))
    lines, line_of = [], []
    for row, blank in zip(rows, blanks):
        lines += ["", " \t"][:blank]
        lines.append(space.join(row))
        line_of.append(len(lines))
    path = mutant.with_suffix(".txt")
    path.write_bytes(newline.join(lines + [""] * blanks[-1] + [""]).encode())
    try:
        g = load_graph(path)
    except GraphError as exc:
        assert str(exc).startswith(f"{path}:{line_of[fault]}: "), (path.read_bytes(), exc)
    else:
        assert rows == valid and g == Digraph(n, frozenset(edges)), path.read_bytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_json_graph_loads_or_names_the_pointer(mutant, data):
    n, edges = data.draw(_graphs())
    obj = {"n": n, "edges": [list(e) for e in edges]}
    kind = data.draw(st.sampled_from(["value", "count", "self-loop", "range", "duplicate", "missing", "extra"]))
    if kind == "value":
        where = data.draw(st.sampled_from([["n"], ["edges"], ["edges", len(edges) - 1],
                                           ["edges", 0, data.draw(st.integers(0, 1))]]))
        holder = obj
        for key in where[:-1]:
            holder = holder[key]
        holder[where[-1]] = data.draw(st.sampled_from(["3", 2.0, 1.5, None, True, {}, [1, 2, 3]]))
    elif kind == "count":
        where, obj["n"] = ["n"], data.draw(st.integers(-3, 1))
    elif kind == "missing":
        where = [data.draw(st.sampled_from(["n", "edges"]))]
        del obj[where[0]]
    elif kind == "extra":
        where = [data.draw(st.sampled_from(["N", "edge", "egdes", "k", "leaders"]))]
        obj[where[0]] = data.draw(st.sampled_from([0, [], None]))
    else:
        pair = _bad_edge(data.draw, n, edges, kind)
        obj["edges"].insert(data.draw(st.integers(0, len(edges))), pair)
        where = ["edges", len(edges) - obj["edges"][::-1].index(pair)]  # of a duplicate, the later entry
    path = mutant.with_suffix(".json")
    path.write_text(json.dumps(obj))
    with pytest.raises(GraphError) as exc:
        load_graph_json(path)
    pointers = ["/" + "/".join(map(str, where[:depth])) for depth in range(1, len(where) + 1)]
    assert any(str(exc.value).startswith(f"{path}#{p}: ") for p in pointers), (obj, where, exc.value)


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
    ({"n": 3, "edges": [[1, 1]]}, "/edges/0: self-loop (1, 1)"),
    ([[1, 2]], ": graph JSON must be an object with keys 'n' and 'edges'"),
    ({"n": 4, "edges": [[1, 2], [2, 3]], "egdes": [[1, 3]]}, "/egdes: unexpected key"),
    ({"n": 3, "edges": [[1, 2], [2, 5]]}, "/edges/1: vertex id outside 1..3 in (2, 5)"),
    ({"n": 1, "edges": []}, "/n: agent count must be >= 2, got 1"),
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
