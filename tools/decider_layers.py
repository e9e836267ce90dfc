"""Print the median time per call of each layer of the complement deciders.

    PYTHONPATH=src python3 tools/decider_layers.py

Records the decider calls of one pass over perfbench's ``crosscheck`` corpus
at seed 1 (graphs with n <= 10, so at most 9 free vertices), then replays
them ``PASSES`` times and times each call on its own:

- ``peeling``: ``is_strongly_r_robust_peeling`` and ``is_tlf_robust_peeling``;
- ``bruteforce lookup``: a brute-force call whose first-violation table is
  already cached;
- ``table build``: the brute-force call that builds the table of its
  (graph, S), cache cleared first, so the build plus its one lookup.

Brute-force calls that need no table (r = 0) count in neither.  A call that
reads a table is one that misses on an empty cache, found once before the
timed passes; there, a build is told from a lookup by the misses of
``robustness._first_violations``, read as a number before and after the
call.  One JSON object per line and layer, ``{"<layer>": {"us": <median us
per call>, "calls": <calls per pass>}}``, then ``crosscheck pass``, the
median wall of a whole pass over the workload's ops (certificates included)
as ``ms``, with its median ``us_per_query``.  Then two lines time the ops of
perfbench's ``exact`` at seed 1, as the median ``ms`` per call: ``forced
complement``, its forced complement queries (20 and 22 free vertices, above
the cached table's reach, so each call searches the free vertices its anchor
leaves unanchored), and ``pair queries``, the ``is_r_robust``,
``is_rs_robust`` and ``max_r_robustness`` calls of its pair batteries (n = 14
and 16).  Each of the two also prints ``ms_per_pass``, the median over passes
of the summed time of its calls in one pass, so one slow call among fast
ones shows in it.

Both exact caches, the complement tables and the per-graph pair tables, are
emptied at the start of every timed pass, so a pass pays for every table it
reads: ``crosscheck pass`` builds each (graph, S) table once, and ``pair
queries`` times each battery with its one pair-table build, not cache hits.

rcl is imported from ``PYTHONPATH``, and perfbench's workloads from the
``perfbench/`` beside this directory, so one copy of the script run on the
``src/`` of two checkouts times the same workloads and gives the layer split
side by side.  The host's speed drifts; compare only runs made one after the
other.
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

import workloads  # noqa: E402
from rcl import robustness  # noqa: E402

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


def _clear_caches() -> None:
    # a checkout older than the pair-table cache has only the first
    for name in ("_first_violations", "_pair_table"):
        if hasattr(robustness, name):
            getattr(robustness, name).cache_clear()


def main() -> int:
    clock, cache = time.perf_counter, robustness._first_violations
    with tempfile.TemporaryDirectory() as tmp:
        plan = workloads.setup_crosscheck(1, Path(tmp))
    calls = _recorded_calls(plan.ops, DECIDERS)
    reads = []  # whether each call reads a table: it misses on an empty cache
    for decide, args, kwargs in calls:
        cache.cache_clear()
        decide(*args, **kwargs)
        reads.append(cache.cache_info().misses > 0)
    samples = {"peeling": [], "bruteforce lookup": [], "table build": []}
    passes, queries = [], 0
    for _ in range(PASSES):
        _clear_caches()
        for (decide, args, kwargs), read in zip(calls, reads):
            before = cache.cache_info().misses
            start = clock()
            decide(*args, **kwargs)
            elapsed = clock() - start
            if decide.__name__.endswith("_peeling"):
                samples["peeling"].append(elapsed)
            elif cache.cache_info().misses > before:
                samples["table build"].append(elapsed)
            elif read:
                samples["bruteforce lookup"].append(elapsed)
        _clear_caches()
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
    for name, timed in (("forced complement", forced), ("pair queries", _recorded_calls(exact, PAIR_DECIDERS))):
        times, sums = [], []
        for _ in range(PASSES):
            _clear_caches()
            for decide, args, kwargs in timed:
                start = clock()
                decide(*args, **kwargs)
                times.append(clock() - start)
            sums.append(sum(times[-len(timed):]))
        print(json.dumps({name: {"ms": 1e3 * statistics.median(times), "calls": len(timed),
                                 "ms_per_pass": 1e3 * statistics.median(sums)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
