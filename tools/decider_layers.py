"""Print the median time per call of each layer of the complement deciders.

    PYTHONPATH=src python3 tools/decider_layers.py

Records the decider calls of one pass over perfbench's ``crosscheck`` corpus
at seed 1 (graphs with n <= 10, so at most 9 free vertices), then replays
them ``PASSES`` times and times each call on its own:

- ``peeling``: ``is_strongly_r_robust_peeling`` and ``is_tlf_robust_peeling``;
- ``bruteforce lookup``: a brute-force call whose first-violation table its
  graph already keeps;
- ``table build``: the brute-force call that builds the table of its
  (graph, S), so the build plus its one lookup.

Brute-force calls that need no table (r = 0, or more than 16 free vertices)
count in neither.  A build is told from a lookup by the recorded call
order: the first brute-force call per (graph, S) that reads a table is its
build, every later one a lookup.  One JSON object per line and layer,
``{"<layer>": {"us": <median us per call>, "calls": <calls per pass>}}``,
then ``crosscheck pass``, the median wall of a whole pass over the
workload's ops (certificates included) as ``ms``, with its median
``us_per_query``.  Then two lines time the ops of perfbench's ``exact`` at
seed 1, as the median ``ms`` per call: ``forced complement``, its forced
complement queries (20 and 22 free vertices, above the kept table's reach,
so each call searches the free vertices its anchor leaves unanchored), and
``pair queries``, the ``is_r_robust``, ``is_rs_robust`` and
``max_r_robustness`` calls of its pair batteries (n = 14 and 16).  Each of the two also prints ``ms_per_pass``, the median over passes
of the summed time of its calls in one pass, so one slow call among fast
ones shows in it.

A graph keeps the exact tables built for it, the complement tables and its
pair tables, so every timed pass runs on fresh copies of the recorded
graphs (``Digraph(g.n, g.edges)``, which hold no table) and pays for every
table it reads: ``crosscheck pass`` builds each (graph, S) table once, and
``pair queries`` times each battery with its one pair-table build, not
lookups.  On a checkout that kept its tables in two global caches instead,
those caches are emptied at the start of every pass, so the lines read
alike.

rcl is imported from ``PYTHONPATH``, and perfbench's workloads from the
``perfbench/`` beside this directory, so one copy of the script run on the
``src/`` of two checkouts times the same workloads and gives the layer split
side by side.  The host's speed drifts; compare only runs made one after the
other.  Where ``MALLOC_TRIM_THRESHOLD_`` or ``MALLOC_MMAP_THRESHOLD_`` is
unset, the script first runs itself again with glibc's heap pinned as
``bench_record.py`` pins its steps (``bench_record.MALLOC_ENV``), so a run by
hand reads like a recorded one.
"""

import contextlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from bench_record import pin_heap  # noqa: E402

pin_heap()

import workloads  # noqa: E402
from rcl import robustness  # noqa: E402
from rcl.graph import Digraph  # noqa: E402

PASSES = 5
DECIDERS = (
    "is_strongly_r_robust_peeling",
    "is_tlf_robust_peeling",
    "is_strongly_r_robust_bruteforce",
    "is_tlf_robust_bruteforce",
)
PAIR_DECIDERS = ("is_r_robust", "is_rs_robust", "max_r_robustness")


def _recorded_calls(ops, deciders) -> list:
    """(decider, args, kwargs) of every call of the ``robustness`` functions
    named in ``deciders`` that one pass over ``ops`` makes, in order;
    recording them also warms up the graphs."""
    recorder = mock.Mock()
    with contextlib.ExitStack() as patches:
        for name in deciders:
            decider = patches.enter_context(mock.patch.object(robustness, name, wraps=getattr(robustness, name)))
            recorder.attach_mock(decider, name)
        for op in ops:
            op.fn()
    return [(getattr(robustness, name), args, kwargs) for name, args, kwargs in recorder.mock_calls]


def _fresh(calls) -> list:
    """``calls`` with each recorded graph swapped for one fresh copy of it,
    which holds no table yet."""
    graphs = {id(args[0]): args[0] for _, args, _ in calls}
    copies = {key: Digraph(g.n, g.edges) for key, g in graphs.items()}
    return [(decide, (copies[id(g)], *rest), kwargs) for decide, (g, *rest), kwargs in calls]


def _layers(calls) -> list:
    """The layer each recorded complement call times, by call order: a
    table build is the first brute-force call per (graph, S) that reads a
    table (some free vertex, at most ``_LOW_BITS``, and r > 0 for strong
    r), a lookup every later one; None for a brute-force call that reads
    no table."""
    seen, layers = set(), []
    for decide, (g, leaders, param), _ in calls:
        free, name = g.n - len(set(leaders)), decide.__name__
        if name.endswith("_peeling"):
            layers.append("peeling")
        elif 0 < free <= robustness._LOW_BITS and (param > 0 or name == "is_tlf_robust_bruteforce"):
            key = (id(g), frozenset(leaders))
            layers.append("bruteforce lookup" if key in seen else "table build")
            seen.add(key)
        else:
            layers.append(None)
    return layers


def _clear_caches() -> None:
    for cache in (getattr(robustness, name, None) for name in ("_first_violations", "_pair_table")):
        if hasattr(cache, "cache_clear"):  # a checkout whose tables sit in global caches
            cache.cache_clear()


def main() -> int:
    clock = time.perf_counter
    with tempfile.TemporaryDirectory() as tmp:
        calls = _recorded_calls(workloads.setup_crosscheck(1, Path(tmp)).ops, DECIDERS)
    layers = _layers(calls)
    samples = {"peeling": [], "bruteforce lookup": [], "table build": []}
    passes, queries = [], 0
    for _ in range(PASSES):
        _clear_caches()
        for (decide, args, kwargs), layer in zip(_fresh(calls), layers):
            start = clock()
            decide(*args, **kwargs)
            elapsed = clock() - start
            if layer:
                samples[layer].append(elapsed)
        _clear_caches()
        with tempfile.TemporaryDirectory() as tmp:
            plan = workloads.setup_crosscheck(1, Path(tmp))  # fresh graphs
        start, queries = clock(), 0
        for op in plan.ops:
            queries += op.fn()[0]
        passes.append(clock() - start)
    for name, times in samples.items():
        print(json.dumps({name: {"us": 1e6 * statistics.median(times), "calls": len(times) // PASSES}}))
    wall = statistics.median(passes)
    print(json.dumps({"crosscheck pass": {"ms": 1e3 * wall, "us_per_query": 1e6 * wall / queries}}))
    with tempfile.TemporaryDirectory() as tmp:
        exact = workloads.setup_exact(1, Path(tmp)).ops
    forced = [(op.fn, (), {}) for op in exact if "_bruteforce free=" in op.name]
    pairs = _recorded_calls(exact, PAIR_DECIDERS)
    for name, timed in (("forced complement", lambda: forced), ("pair queries", lambda: _fresh(pairs))):
        times, sums = [], []
        for _ in range(PASSES):
            _clear_caches()
            calls = timed()
            for decide, args, kwargs in calls:
                start = clock()
                decide(*args, **kwargs)
                times.append(clock() - start)
            sums.append(sum(times[-len(calls):]))
        print(json.dumps({name: {"ms": 1e3 * statistics.median(times), "calls": len(calls),
                                 "ms_per_pass": 1e3 * statistics.median(sums)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
