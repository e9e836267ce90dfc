"""Directed graphs over agents 1..n, with circulant constructors and file I/O.

Vertices are labeled 1..n throughout; an edge (i, j) means agent i transmits
to agent j.  Graphs are immutable after construction, so all derived data
(in-neighbor sets, bitmasks) is cached and safe to share across threads.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable


class GraphError(ValueError):
    """Malformed graph definition, file, or vertex query."""


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph on vertex set {1, .., n}.

    Invariants: no self-loops, every endpoint in 1..n.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise GraphError(f"agent count must be >= 2, got {self.n}")
        for i, j in self.edges:
            if i == j:
                raise GraphError(f"self-loop ({i}, {j}) not allowed")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise GraphError(f"edge ({i}, {j}) outside vertex range 1..{self.n}")

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def _neighbor_sets(self) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
        """(in-sets, out-sets) per vertex, from one pass over the edges."""
        ins, outs = [set() for _ in self.vertices], [set() for _ in self.vertices]
        for i, j in self.edges:
            ins[j - 1].add(i)
            outs[i - 1].add(j)
        return tuple(map(frozenset, ins)), tuple(map(frozenset, outs))

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        """Per-vertex in-neighborhood as a bitmask; bit (v-1) set iff v is an in-neighbor."""
        return tuple(sum(1 << (j - 1) for j in s) for s in self._neighbor_sets[0])

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Per-vertex out-neighborhood as a bitmask; bit (v-1) set iff v is an out-neighbor."""
        return tuple(sum(1 << (j - 1) for j in s) for s in self._neighbor_sets[1])

    def _vertex(self, i: int) -> int:
        """``i`` as an int id in 1..n, taken as ``operator.index`` takes it,
        bools excepted; anything else raises GraphError."""
        try:
            v = -1 if isinstance(i, bool) else operator.index(i)
        except TypeError:
            v = -1
        if not (1 <= v <= self.n):
            raise GraphError(f"unknown vertex id {i!r} (valid: 1..{self.n})")
        return v

    def in_neighbors(self, i: int) -> frozenset[int]:
        """Agents j with an edge (j, i), i.e. those i hears from."""
        return self._neighbor_sets[0][self._vertex(i) - 1]

    def inclusive_neighbors(self, i: int) -> frozenset[int]:
        """In-neighbors of i together with i itself."""
        i = self._vertex(i)
        return self._neighbor_sets[0][i - 1] | {i}

    def out_neighbors(self, i: int) -> frozenset[int]:
        """Agents j with an edge (i, j), i.e. those i transmits to."""
        return self._neighbor_sets[1][self._vertex(i) - 1]

    @cached_property
    def max_in_degree(self) -> int:
        return max(len(s) for s in self._neighbor_sets[0])


def make_k_circulant(n: int, k: int) -> Digraph:
    """Circulant digraph where each agent i transmits to the next k agents mod n."""
    if n < 2:
        raise GraphError(f"circulant digraph needs n >= 2, got n={n}")
    if not (1 <= k <= n - 1):
        raise GraphError(f"k must be in [1, n-1]={n - 1}, got k={k}")
    edges = {(i, (i - 1 + a) % n + 1) for i in range(1, n + 1) for a in range(1, k + 1)}
    return Digraph(n, frozenset(edges))


def make_undirected_circulant(n: int, offsets: Iterable[int]) -> Digraph:
    """Undirected circulant graph as a symmetric digraph: edges i <-> i +/- a (mod n)."""
    if n < 2:
        raise GraphError(f"circulant graph needs n >= 2, got n={n}")
    offs = list(offsets)
    if not offs:
        raise GraphError("offset list must be nonempty")
    if offs != sorted(set(offs)):
        raise GraphError(f"offsets must be strictly increasing, got {offs}")
    if offs[0] <= 0 or offs[-1] >= n:
        raise GraphError(f"offsets must lie in (0, n)={n}, got {offs}")
    edges = set()
    for i in range(1, n + 1):
        for a in offs:
            fwd = (i - 1 + a) % n + 1
            bwd = (i - 1 - a) % n + 1
            for j in (fwd, bwd):
                if j != i:
                    edges.add((i, j))
                    edges.add((j, i))
    return Digraph(n, frozenset(edges))


def save_graph(g: Digraph, path: str | Path) -> None:
    """Write edge-list format: header line "n <count>", then one "i j" line per edge."""
    lines = [f"n {g.n}"]
    lines.extend(f"{i} {j}" for i, j in sorted(g.edges))
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph(path: str | Path) -> Digraph:
    """Read the edge-list format written by save_graph.

    Rejects malformed lines, out-of-range ids, self-loops, and duplicate edges.
    """
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "n":
        raise GraphError(f"{path}:1: expected header 'n <count>', got {lines[0]!r}")
    try:
        n = int(header[1])
    except ValueError:
        raise GraphError(f"{path}:1: agent count is not an integer: {header[1]!r}") from None
    edges: set[tuple[int, int]] = set()
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"{path}:{lineno}: expected 'i j', got {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"{path}:{lineno}: non-integer vertex id in {ln!r}") from None
        if i == j:
            raise GraphError(f"{path}:{lineno}: self-loop ({i}, {j})")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphError(f"{path}:{lineno}: vertex id outside 1..{n} in ({i}, {j})")
        if (i, j) in edges:
            raise GraphError(f"{path}:{lineno}: duplicate edge ({i}, {j})")
        edges.add((i, j))
    return Digraph(n, frozenset(edges))


def graph_to_json(g: Digraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def _fits(value: Any, form: Any) -> bool:
    """Whether a JSON value has ``form``: ``float`` (any number a float can
    hold, NaN and +-inf included) or ``int``, never a bool; ``[form]``, a list
    of such values; or a tuple of forms, a list with one value per form."""
    if isinstance(form, tuple):
        return isinstance(value, (list, tuple)) and len(value) == len(form) and all(map(_fits, value, form))
    if isinstance(form, list):
        return isinstance(value, (list, tuple)) and all(_fits(v, form[0]) for v in value)
    if not isinstance(value, int if form is int else (int, float)) or isinstance(value, bool):
        return False
    return isinstance(value, float) or form is int or abs(value) <= sys.float_info.max


def graph_from_json(obj: Any, path: str = "#") -> Digraph:
    """The graph ``{"n": count, "edges": [[i, j], ...]}``.  Errors name ``path``,
    a JSON pointer ("/graph") or URI fragment ("g.json#"), and the key at fault."""
    if not isinstance(obj, dict):
        raise GraphError(f"{path}: graph JSON must be an object with keys 'n' and 'edges'")
    for key, form, shape in (("n", int, "an integer"),
                             ("edges", [(int, int)], "a list of [i, j] pairs of integers")):
        if not _fits(obj.get(key), form):
            raise GraphError(f"{path}/{key}: expected {shape}, got {obj.get(key)!r}")
    edges = set()
    for index, (i, j) in enumerate(obj["edges"]):
        if (i, j) in edges:
            raise GraphError(f"{path}/edges/{index}: duplicate edge ({i}, {j})")
        edges.add((i, j))
    try:
        return Digraph(obj["n"], frozenset(edges))
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None


def save_graph_json(g: Digraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_json(g), indent=2) + "\n")


def load_graph_json(path: str | Path) -> Digraph:
    return graph_from_json(json.loads(Path(path).read_text()), f"{path}#")
