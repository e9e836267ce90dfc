"""Directed graphs over agents 1..n, with circulant constructors and file I/O.

Vertices are labeled 1..n throughout; an edge (i, j) means agent i transmits
to agent j.  Graphs are immutable, and all derived data (neighbor sets,
bitmasks, the hash) is computed at construction, so it is safe to share
across threads.

Every id and integer parameter that rcl takes (n, k, edge ends, r, s, F, a
horizon, a seed) follows one rule, written here once in ``_integer``: it is
taken as ``operator.index`` takes it, bools excepted, and normalised to int.
An id written as text takes only the form ``str`` writes (``_integer_text``);
a real value is any non-bool ``numbers.Real`` a float holds, as a float (``_number``).
"""

from __future__ import annotations

import contextlib
import json
import numbers
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable


class GraphError(ValueError):
    """Malformed graph definition, file, or vertex query."""


def _integer(value, name: str, error: type[Exception] = ValueError) -> int:
    """``value`` as an int: whatever ``operator.index`` takes except bool, else ``error``."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def _integer_text(text: str, name: str, error: type[Exception] = ValueError) -> int:
    """The int whose ``str`` is ``text`` (no "+", "_", space, leading zero or non-ASCII digit), else ``error``."""
    try:
        if str(value := int(text)) == text:
            return value
    except (TypeError, ValueError):
        pass
    raise error(f"{name} must be an integer, got {text!r}")


def _number(value, name: str, error: type[Exception] = ValueError) -> float:
    """``value`` as a float: a ``numbers.Real`` other than a bool that a float
    can hold (NaN and +-inf included), else ``error``."""
    if type(value) is float:
        return value
    if isinstance(value, (int, numbers.Real)) and not isinstance(value, bool):  # int first, as the ABC is slow
        with contextlib.suppress(OverflowError):  # a Fraction too large for a float
            if not isinstance(value, int) or abs(value) <= sys.float_info.max:
                return float(value)
    raise error(f"{name} must be a number, got {value!r}")


def _count(value, name: str) -> int:
    value = _integer(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _vertex_mask(n: int, ids: Iterable[int], what: str = "vertex") -> int:
    """The bitmask of ``ids`` (each as ``_integer`` takes it), vertex v at bit
    v - 1; an id outside 1..n raises GraphError naming the smallest bad id."""
    mask, bad = 0, []
    for v in ids:
        try:
            i = v if type(v) is int else _integer(v, what)
        except ValueError:
            i = None
        if i is not None and 0 < i <= n:
            mask |= 1 << (i - 1)
        else:
            bad.append(v if i is None else i)
    if bad:
        v = min(bad, key=lambda v: (0, v) if isinstance(v, numbers.Real) else (1, repr(v)))
        raise GraphError(f"{what} {v} outside 1..{n}" if type(v) is int else f"{what} {v!r} is not an integer id")
    return mask


def _circulant(n: int, k: int) -> tuple[int, int]:
    """The n and k of C_n(1..k) as ints, with n >= 2 and 1 <= k <= n - 1."""
    n, k = _integer(n, "n", GraphError), _integer(k, "k", GraphError)
    if n < 2 or not 1 <= k <= n - 1:
        raise GraphError(f"invalid circulant parameters n={n}, k={k}: need n >= 2 and 1 <= k <= n - 1")
    return n, k


def _edge(e: Any) -> tuple[int, int]:
    """An edge as a pair of ints by the integer rule, else GraphError naming it."""
    if not isinstance(e, tuple) or len(e) != 2:
        raise GraphError(f"edge {e!r}: expected a pair of vertices")
    return tuple(_integer(v, f"edge {e!r}: vertex", GraphError) for v in e)


def _edge_fault(n: int, i: int, j: int) -> str | None:
    """What is wrong with edge (i, j) on vertices 1..n, worded once for every
    reader: a self-loop, then an id outside 1..n; None for a valid edge."""
    if i == j:
        return f"self-loop ({i}, {j})"
    if not (0 < i <= n and 0 < j <= n):
        return f"vertex id outside 1..{n} in ({i}, {j})"
    return None


def _adjacency(n: int, edges: frozenset) -> tuple[list[list[int]], list[list[int]]] | None:
    """The in- and out-neighbour lists of vertices 0..n (0 stays empty), from
    one pass over ``edges``; None at an edge that is not a pair of ints, and
    GraphError, worded by ``_edge_fault``, at a self-loop or an endpoint
    outside 1..n."""
    ins, outs = [[] for _ in range(n + 1)], [[] for _ in range(n + 1)]
    for e in edges:
        if type(e) is not tuple or len(e) != 2:
            return None
        i, j = e
        if type(i) is not int or type(j) is not int:
            return None
        if i == j or not (0 < i <= n and 0 < j <= n):  # inline, as every graph built passes here
            raise GraphError(_edge_fault(n, i, j))
        ins[j].append(i)
        outs[i].append(j)
    return ins, outs


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph on vertex set {1, .., n}.

    Invariants: n >= 2, every endpoint in 1..n, no self-loops; ``n`` and the
    endpoints are ints and ``edges`` a frozenset, by the integer rule.  What a
    graph derives is computed at construction: ``in_masks`` and ``out_masks``,
    one bitmask per vertex with bit (v-1) set iff v is an in- (out-) neighbor,
    ``max_in_degree``, the neighbor sets and the hash.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = _integer(self.n, "agent count", GraphError)
        if n < 2:
            raise GraphError(f"agent count must be >= 2, got {n}")
        edges = self.edges
        adjacency = _adjacency(n, edges) if isinstance(edges, frozenset) else None
        if adjacency is None:  # any other edges, or a frozenset of edges not pairs of ints
            edges = frozenset(map(_edge, edges))
            adjacency = _adjacency(n, edges)
        ins, outs = (tuple(map(frozenset, lists[1:])) for lists in adjacency)
        bit = [0, *(1 << v for v in range(n))]  # bit[v] is vertex v's bit
        self.__dict__.update(  # frozen, so set past __setattr__
            n=n, edges=edges, _ins=ins, _outs=outs,
            in_masks=tuple(sum(map(bit.__getitem__, s)) for s in ins),
            out_masks=tuple(sum(map(bit.__getitem__, s)) for s in outs),
            max_in_degree=max(map(len, ins)), _hash=hash((n, edges)),
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def _vertex(self, i: int) -> int:
        """``i`` as an int id in 1..n, by ``_vertex_mask``'s rule."""
        return _vertex_mask(self.n, (i,)).bit_length()

    def in_neighbors(self, i: int) -> frozenset[int]:
        """Agents j with an edge (j, i), i.e. those i hears from."""
        return self._ins[self._vertex(i) - 1]

    def inclusive_neighbors(self, i: int) -> frozenset[int]:
        """In-neighbors of i together with i itself."""
        i = self._vertex(i)
        return self._ins[i - 1] | {i}

    def out_neighbors(self, i: int) -> frozenset[int]:
        """Agents j with an edge (i, j), i.e. those i transmits to."""
        return self._outs[self._vertex(i) - 1]


def make_k_circulant(n: int, k: int) -> Digraph:
    """Circulant digraph where each agent i transmits to the next k agents mod n."""
    n, k = _circulant(n, k)
    return Digraph(n, frozenset((i, (i - 1 + a) % n + 1) for i in range(1, n + 1) for a in range(1, k + 1)))


def make_undirected_circulant(n: int, offsets: Iterable[int]) -> Digraph:
    """Undirected circulant graph as a symmetric digraph: edges i <-> i +/- a (mod n)."""
    checked = [_circulant(n, a) for a in offsets]
    if not checked:
        raise GraphError("offset list must be nonempty")
    n, offs = checked[0][0], [a for _, a in checked]
    if offs != sorted(set(offs)):
        raise GraphError(f"offsets must be strictly increasing, got {offs}")
    # 0 < a < n, so no edge is a self-loop, and the set of i -> i +/- a is symmetric
    return Digraph(n, frozenset((i, (i - 1 + d) % n + 1) for i in range(1, n + 1) for a in offs for d in (a, -a)))


def save_graph(g: Digraph, path: str | Path) -> None:
    """Write graph JSON (``graph_to_json``) to a path whose suffix is ".json", else the
    edge-list format: header line "n <count>", then one "i j" line per edge."""
    if Path(path).suffix == ".json":
        text = json.dumps(graph_to_json(g), indent=2)
    else:
        text = "\n".join([f"n {g.n}", *(f"{i} {j}" for i, j in sorted(g.edges))])
    Path(path).write_text(text + "\n")


def _read(path: str | Path, decode: Any = str) -> Any:
    """File ``path`` as UTF-8 text, through ``decode``; else GraphError naming the file."""
    try:
        return decode(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, json.JSONDecodeError
        raise GraphError(f"{path}: {exc}") from None


def _file_graph(n: int, n_at: str, edges: Iterable[tuple[str, int, int]]) -> Digraph:
    """The graph of count ``n`` and edges ``(at, i, j)``, read at ``n_at`` and ``at`` ("g.txt:3",
    "g.json#/edges/1"); GraphError there at a count below 2, then a self-loop, id outside 1..n or repeat."""
    if n < 2:
        raise GraphError(f"{n_at}: agent count must be >= 2, got {n}")
    seen: set[tuple[int, int]] = set()
    for at, i, j in edges:
        if fault := _edge_fault(n, i, j):
            raise GraphError(f"{at}: {fault}")
        if (i, j) in seen:
            raise GraphError(f"{at}: duplicate edge ({i}, {j})")
        seen.add((i, j))
    return Digraph(n, frozenset(seen))


def load_graph(path: str | Path) -> Digraph:
    """Read the format save_graph writes to ``path``: graph JSON (``graph_from_json``)
    where the suffix is ".json", else the edge list, skipping blank lines; errors
    name the file and the JSON pointer or physical line at fault."""
    if Path(path).suffix == ".json":
        return graph_from_json(_read(path, json.loads), f"{path}#")
    lines = [(f"{path}:{no}", ln.strip()) for no, ln in enumerate(_read(path).split("\n"), 1) if ln.strip()]
    if not lines:
        raise GraphError(f"{path}: empty file")
    (n_at, header), *rows = lines
    if (tokens := header.split())[0] != "n" or len(tokens) != 2:
        raise GraphError(f"{n_at}: expected header 'n <count>', got {header!r}")

    def edge(at: str, row: str) -> tuple[str, int, int]:
        if len(ids := row.split()) != 2:
            raise GraphError(f"{at}: expected 'i j', got {row!r}")
        return at, *(_integer_text(v, f"{at}: vertex id", GraphError) for v in ids)

    return _file_graph(_integer_text(tokens[1], f"{n_at}: agent count", GraphError), n_at, (edge(*r) for r in rows))


def graph_to_json(g: Digraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def _fits(value: Any, form: Any) -> bool:
    """Whether a value has ``form``: ``float`` (by the number rule) or ``int``
    (by the integer rule); ``[form]``, a list of such values; or a tuple of
    forms, a list with one value per form."""
    if isinstance(form, tuple):
        return isinstance(value, (list, tuple)) and len(value) == len(form) and all(map(_fits, value, form))
    if isinstance(form, list):
        return isinstance(value, (list, tuple)) and all(_fits(v, form[0]) for v in value)
    try:
        (_integer if form is int else _number)(value, "value")
    except ValueError:
        return False
    return True


def _require(value: Any, path: str, form: Any, shape: str, error: type[Exception] = GraphError) -> Any:
    """``value`` if it has ``form``, else ``error`` naming ``path`` and ``shape``."""
    if not _fits(value, form):
        raise error(f"{path}: expected {shape}, got {value!r}")
    return value


def graph_from_json(obj: Any, path: str = "#") -> Digraph:
    """The graph ``{"n": count, "edges": [[i, j], ...]}``, with no other key.
    Errors name ``path``, a JSON pointer ("/graph") or URI fragment
    ("g.json#"), and the key at fault."""
    if not isinstance(obj, dict):
        raise GraphError(f"{path}: graph JSON must be an object with keys 'n' and 'edges'")
    extra = sorted(set(obj) - {"n", "edges"})
    if extra:
        raise GraphError(f"{path}/{extra[0]}: unexpected key")
    for key, form, shape in (("n", int, "an integer"),
                             ("edges", [(int, int)], "a list of [i, j] pairs of integers")):
        _require(obj.get(key), f"{path}/{key}", form, shape)
    edges = ((f"{path}/edges/{k}", *map(operator.index, e)) for k, e in enumerate(obj["edges"]))
    return _file_graph(operator.index(obj["n"]), f"{path}/n", edges)
