"""In-memory span tracer that instruments rcl's public calls from outside.

Tracing is opt-in.  ``Tracer.installed()`` replaces each public function or
method named in ``LAYERS`` with a wrapper that records a span, in every
``rcl`` module namespace that holds it, and restores the originals on exit.
Nothing under ``src/`` is edited, and an untraced run executes the original
objects with no wrapper at all.

A span is recorded only inside a root span opened by the benchmark (a timed
op, one set-up repetition or the oracle check), so output checks that call
the library between ops leave no trace.  Spans are kept in flat arrays
(name, start, end, parent, root id) and written to a CSV when the run ends.
Self time is a span's duration minus the time its child spans cover.  A call
into a layer from inside a span of the same layer is folded into the outer
span (``make_k_circulant`` building its ``Digraph``, for example), so
``calls`` counts entries into the layer.
"""

from __future__ import annotations

import contextlib
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

import rcl.graph
import rcl.robustness
import rcl.scenarios
import rcl.simulation
import rcl.svgplot


def _path_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.stat(path).st_size}


def _run_counts(args: tuple, kwargs: dict, traj: Any) -> dict[str, int]:
    rounds = traj.horizon
    return {
        "agent_rounds": len(traj.config.normals) * rounds,
        "byzantine_edge_rounds": len(traj.edge_values) * rounds,
    }


def _pair_subsets(args: tuple, kwargs: dict, report: Any) -> dict[str, int]:
    # is_r_robust decides r = 0 without enumerating
    g = args[0]
    skipped = report.property.value == "r_robust" and report.params["r"] == 0
    return {"subsets": 0 if skipped else 1 << g.n}


def _complement_subsets(args: tuple, kwargs: dict, report: Any) -> dict[str, int]:
    # every nonempty C in V \ S; counted whether or not a cached profile is reused
    g = args[0]
    return {"subsets": (1 << (g.n - len(report.params["set"]))) - 1}


def _peeling_admitted(args: tuple, kwargs: dict, report: Any) -> dict[str, int]:
    witness = report.witness
    if report.verdict:
        return {"admitted": len(witness["admission_order"])}
    g = args[0]
    return {"admitted": g.n - len(report.params["set"]) - len(witness["stalled_complement"])}


# (owner, attribute, layer, work counter).  Module-level functions are
# replaced in every rcl namespace that imported them; methods on the class.
LAYERS: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (rcl.graph.Digraph, "__init__", "graph.build", None),
    (rcl.graph, "make_k_circulant", "graph.build", None),
    (rcl.simulation.SimConfig, "__init__", "simulation.config", None),
    (rcl.simulation, "run", "simulation.run", _run_counts),
    (rcl.simulation, "compute_metrics", "simulation.metrics", None),
    (rcl.simulation, "write_trajectory_csv", "simulation.export_csv", _path_bytes),
    (rcl.simulation, "write_edges_csv", "simulation.export_csv", _path_bytes),
    (rcl.simulation, "verify_replay", "simulation.replay", None),
    (rcl.svgplot, "write_trajectory_svg", "svgplot.write_svg", _path_bytes),
    (rcl.scenarios.Scenario, "check_preconditions", "scenarios.preconditions", None),
    (rcl.scenarios.Scenario, "run", "scenarios.run", None),
    (rcl.robustness, "is_r_robust", "robustness.bruteforce_pairs", _pair_subsets),
    (rcl.robustness, "is_rs_robust", "robustness.bruteforce_pairs", _pair_subsets),
    (rcl.robustness, "is_strongly_r_robust_bruteforce", "robustness.bruteforce_complement",
     _complement_subsets),
    (rcl.robustness, "is_tlf_robust_bruteforce", "robustness.bruteforce_complement",
     _complement_subsets),
    (rcl.robustness, "is_strongly_r_robust_peeling", "robustness.peeling", _peeling_admitted),
    (rcl.robustness, "is_tlf_robust_peeling", "robustness.peeling", _peeling_admitted),
    (rcl.robustness, "circulant_certificate", "robustness.certificate", None),
)

# per-layer work counts, in addition to calls and self_s
LAYER_COUNTS: dict[str, tuple[str, ...]] = {
    "simulation.run": ("agent_rounds", "byzantine_edge_rounds"),
    "simulation.export_csv": ("bytes",),
    "svgplot.write_svg": ("bytes",),
    "robustness.bruteforce_pairs": ("subsets",),
    "robustness.bruteforce_complement": ("subsets",),
    "robustness.peeling": ("admitted",),
}

ROOT_LAYERS = ("bench.setup", "bench.op", "bench.check")


def layer_names() -> list[str]:
    names = list(ROOT_LAYERS)
    for _, _, layer, _ in LAYERS:
        if layer not in names:
            names.append(layer)
    return names


class Tracer:
    """Span store plus per-group aggregates (calls, self time, work counts).

    A group is the unit the benchmark reports on: one set-up repetition,
    one pass over the op list, or the oracle check.
    """

    def __init__(self) -> None:
        self.names = layer_names()
        self._index = {name: i for i, name in enumerate(self.names)}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.roots = array("l")
        # open spans: [span id, layer, time covered by children]
        self._stack: list[list] = []
        self._root_id = -1
        self.aggregates: dict[Any, dict[str, defaultdict]] = {}
        self._group: dict[str, defaultdict] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, layer: str, start: float) -> None:
        span = len(self.starts)
        self.name_ids.append(self._index[layer])
        self.starts.append(start)
        self.ends.append(start)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.roots.append(self._root_id)
        self._stack.append([span, layer, 0.0])

    def _close(self, end: float) -> None:
        span, layer, covered = self._stack.pop()
        self.ends[span] = end
        duration = end - self.starts[span]
        if self._stack:
            self._stack[-1][2] += duration
        entry = self._group.get(layer)
        if entry is None:
            entry = self._group[layer] = defaultdict(float)
        entry["calls"] += 1
        entry["self_s"] += duration - covered

    def _count(self, layer: str, counts: dict[str, int]) -> None:
        entry = self._group[layer]
        for key, value in counts.items():
            entry[key] += value

    def begin_root(self, layer: str, group: Any) -> None:
        """Open a root span; its start is fixed by ``end_root``."""
        self._group = self.aggregates.setdefault(group, {})
        self._root_id += 1
        self._open(layer, 0.0)

    def end_root(self, start: float, end: float) -> None:
        """Close the root span over exactly the interval the caller timed."""
        self.starts[self._stack[-1][0]] = start
        self._close(end)

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, counter: Callable | None) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack or stack[-1][1] == layer:
                return fn(*args, **kwargs)
            self._open(layer, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(perf_counter())
            if counter is not None:
                self._count(layer, counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Replace every instrumented callable for the duration of the block."""
        namespaces = [m.__dict__ for name, m in list(sys.modules.items())
                      if m is not None and (name == "rcl" or name.startswith("rcl."))]
        undo: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, layer, counter in LAYERS:
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, layer, counter)
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            undo.append((ns, key, original))
                            ns[key] = wrapper
            yield
        finally:
            for target, key, original in reversed(undo):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    # -- output ------------------------------------------------------------

    def group_total(self, group: Any) -> float:
        return sum((entry["self_s"] for entry in self.aggregates.get(group, {}).values()), 0.0)

    def write_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w") as handle:
            handle.write("span,name,start_s,end_s,parent,root\n")
            for span in range(len(self.starts)):
                handle.write(
                    f"{span},{self.names[self.name_ids[span]]},{self.starts[span]!r},"
                    f"{self.ends[span]!r},{self.parents[span]},{self.roots[span]}\n"
                )
