"""Time each layer of rcl at a base commit and at the rcl on PYTHONPATH, side by side in one process.

    PYTHONPATH=src python3 tools/ab.py BASE

BASE's ``src/`` comes from the git of the checkout that holds the importable
rcl (``git archive``, into a temporary directory).  That tree and the
``src/rcl`` on ``PYTHONPATH`` load as the packages ``rcl_base`` and
``rcl_head`` in this one process; every import inside ``src/rcl`` is
relative, so each runs its own modules.  The A/A set comes first (the head
tree under both names: the noise floor of the shared heap), then the A/B set.

Each row of ``ROWS`` is one layer.  Its inputs come from perfbench's
``setup_*`` at seed 1 (but ``forced walk, large witness``, one forced query
on C_22(1..7), and ``decider calls, c01 slice``, acceptance test c01's loop
over its first 50 graphs, both routes), are built once by the importable rcl
and reach each side as JSON (``graph_to_json``, ``config_to_dict``).  Before
every call, outside the timer, a side loads the call's argument afresh, so a
call on graphs built from JSON finds no tables kept on them (a base older
than ``2281bfc`` kept its exact tables in caches shared by equal graphs, so
there the table build and pair battery rows time reads of cached tables).
So ``complement table build`` times each graph's table M and complement rows
built once plus the lookups of its other calls (a base that built the pair
checks' table P with M builds it here too, and one that kept a table per
(graph, S) builds one per call).
Each side makes one untimed call, then the row's ``pairs`` pairs run
(``PAIRS``, but ``PAIRS_C01`` for the c01 slice), each side first in half of
them, in a shuffled order.  Garbage collection is off inside the timed call,
as in ``timeit``.

Output: ``{"base": <BASE's commit>}``, then one JSON line per set and row,
keyed ``"A/A <row>"`` or ``"A/B <row>"``: ``base_ms`` and ``head_ms`` (each
side's ``q1``, ``median`` and ``q3`` per call), ``ratio`` (the same of the
per-pair ratio head/base), ``head_won`` (ties count for neither), ``n``,
on an A/B line ``aa_ratio`` (the median ratio of the same row's A/A line),
and ``verdict``: ``gain`` or ``loss`` when one side won at least 9 in 10
pairs, the medians differ by more than base's quartile spread and, on an A/B
line, the median ratio lies farther from 1 than ``aa_ratio`` (identical trees
have read ``loss`` on a row, so a move no larger than its A/A one is not
read as the code's), else ``none``.  A row whose API BASE lacks prints
``{"skipped": <reason>}``.

Three rows have a wider A/A floor than the rest, so read their A/A line
beside their A/B line.  ``forced complement query`` (about 1.3 ms a call) read
A/A medians of 0.981 to 1.043 and cannot resolve a claim below about 4%;
``pair battery`` (about 2 ms a call) read A/A quartiles as wide as 1.001 to
1.294 and cannot resolve one below about 15%; ``decider calls, c01 slice``
(about 0.9 s a call, 20 pairs) read medians of 0.977 to 1.017 on identical
trees, with quartiles as wide as 0.941 to 1.080, and cannot resolve one below
about 3%.

``run, wide`` times eight runs of wide's config per call, each config
loaded afresh, as a call of one run (about 30 ms) catches a host stall in
too many pairs: one run a call read x0.898 with head winning only 169 of 200
pairs, and four a call x0.892 and x0.897 with 173 and 186 of 200.  Eight a
call read x0.896 with 194 of 200, its A/A line a median of 0.997 and
quartiles of 0.970 to 1.027: it resolves a move of about 10%, and one
of 6% may read ``none``.
``layout, wide`` times ``simulation._layout`` alone on wide's config (about
2 ms a call, the run's fixed cost before its first round); its A/A lines
read medians of 0.998 and 0.999, quartiles 0.958 to 1.038 at widest.
"""

import argparse
import contextlib
import ctypes
import functools
import gc
import importlib
import importlib.util
import io
import itertools
import json
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

import workloads  # noqa: E402
from bench_record import MALLOC_ENV  # noqa: E402
from digests import distinct_weights, random_digraph  # noqa: E402
from rcl import graph, robustness, scenarios, simulation  # noqa: E402

PAIRS = 200
SEED = 1  # perfbench's seed of every input
SIM2_SEED = 20  # the first op of perfbench track at seed 1
# every STEP-th of crosscheck's brute-force and peeling calls, so a call takes
# tens of ms: a pair's noise hardly shrinks with a longer call, so more pairs do
STEP = 8
C01_GRAPHS = 50  # the first graphs of acceptance test c01's loop
PAIRS_C01 = 20  # a c01 slice takes about 0.9 s a call
COMPLEMENT = ("is_strongly_r_robust_bruteforce", "is_tlf_robust_bruteforce")
PEELING = ("is_strongly_r_robust_peeling", "is_tlf_robust_peeling")
PAIR_DECIDERS = ("is_r_robust", "is_rs_robust", "max_r_robustness")
# the robustness functions whose calls one pass of each workload records
RECORDED = {"crosscheck": (*COMPLEMENT, *PEELING, "circulant_certificate"), "exact": (*COMPLEMENT, *PAIR_DECIDERS)}


@dataclass(frozen=True)
class Row:
    name: str
    inputs: Callable[[Path], Any]  # (scratch directory) -> side-neutral data, built once
    load: Callable[[Any, Any], Any]  # (side, data) -> the argument, loaded before every call
    call: Callable[[Any, Any], Any]  # (side, argument): the timed call
    pairs: int = PAIRS


@functools.cache
def _recorded(workload: str, scratch: Path) -> tuple[list, list]:
    """The JSON of each graph and ``(name, graph index or None, other args,
    kwargs)`` of each call of ``RECORDED[workload]`` in one pass over the
    ops of perfbench ``workload`` at seed 1, in order."""
    recorder, ops = mock.Mock(), workloads.WORKLOADS[workload][0](SEED, scratch / workload).ops
    with contextlib.ExitStack() as patches:
        for name in RECORDED[workload]:
            recorder.attach_mock(patches.enter_context(
                mock.patch.object(robustness, name, wraps=getattr(robustness, name))), name)
        for op in ops:
            op.fn()
    graphs, index, calls = [], {}, []
    for name, args, kwargs in recorder.mock_calls:
        if not isinstance(args[0], graph.Digraph):
            calls.append((name, None, args, kwargs))
            continue
        if id(args[0]) not in index:
            index[id(args[0])] = len(graphs)
            graphs.append(graph.graph_to_json(args[0]))
        calls.append((name, index[id(args[0])], args[1:], kwargs))
    return graphs, calls


def _calls(workload: str, names: tuple[str, ...], step: int = 1) -> Callable[[Path], tuple[list, list]]:
    """The input builder of every ``step``-th recorded ``workload`` call of ``names``."""
    def inputs(scratch: Path) -> tuple[list, list]:
        graphs, calls = _recorded(workload, scratch)
        return graphs, [call for call in calls if call[0] in names][::step]
    return inputs


def _table_builds(scratch: Path) -> tuple[list, list]:
    """The first crosscheck brute-force call with r > 0 (strong r = 0 reads
    no table) of every ``STEP``-th (graph, S).  On graphs loaded afresh, each
    graph builds M and each complement row its calls meet once, and its
    other calls are lookups; a base that kept a table per (graph, S) builds
    one per call."""
    graphs, calls = _calls("crosscheck", COMPLEMENT)(scratch)
    firsts = {}
    for name, at, (leaders, param), kwargs in calls:
        if param > 0:
            firsts.setdefault((at, frozenset(leaders)), (name, at, (leaders, param), kwargs))
    return graphs, list(firsts.values())[::STEP]


def _c01_graphs(scratch: Path) -> list[dict]:
    """The JSON of the first ``C01_GRAPHS`` random digraphs of acceptance
    test c01 (n = 4..10), drawn by its seed and rule."""
    rng = random.Random(20260810)
    return [graph.graph_to_json(random_digraph(rng, 4 + idx % 7, (0.15, 0.3, 0.5, 0.7)[idx % 4]))
            for idx in range(C01_GRAPHS)]


def _c01_loop(side, graphs: list) -> None:
    """c01's calls on ``graphs``: for every S of at most 4 members, strong r
    at every r <= n and TLF at every F <= 3, by brute force and by peeling."""
    decide = side.robustness
    for g in graphs:
        for size in range(1, min(4, g.n) + 1):
            for s in map(frozenset, itertools.combinations(range(1, g.n + 1), size)):
                for r in range(g.n + 1):
                    decide.is_strongly_r_robust_bruteforce(g, s, r)
                    decide.is_strongly_r_robust_peeling(g, s, r)
                for f in range(4):
                    decide.is_tlf_robust_bruteforce(g, s, f)
                    decide.is_tlf_robust_peeling(g, s, f)


def _large_witness(scratch: Path) -> tuple[list, list]:
    """A forced strong query whose walk finds a large first witness, so the
    first chunk's probe of its singletons finds none: C_22(1..7), S = {1, 2},
    r = 3 leaves 20 unanchored free vertices in 16 chunks, and the first
    violating C has 16 members."""
    return [graph.graph_to_json(graph.make_k_circulant(22, 7))], \
        [("is_strongly_r_robust_bruteforce", 0, ([1, 2], 3), {"force": True})]


@functools.cache
def _wide_config() -> simulation.SimConfig:
    """The config of perfbench wide's first op at seed 1 (C_300(1..60), F = 3, horizon 200)."""
    with mock.patch.object(simulation, "run", wraps=simulation.run) as engine, \
            tempfile.TemporaryDirectory() as tmp:
        workloads.setup_wide(SEED, Path(tmp)).ops[0].fn()
    return engine.call_args.args[0]


def _sim2() -> simulation.SimConfig:
    return scenarios.sim2().config(SIM2_SEED)


def _weighted_sim2() -> simulation.SimConfig:
    """``_sim2`` under the table of distinct weights that ``digests.py`` runs."""
    config = _sim2()
    return replace(config, scheme=distinct_weights(config.graph, random.Random(3)))


def _graphs(scratch: Path) -> list[tuple[int, frozenset]]:
    """(n, edges) of every graph perfbench's workloads decide or run at seed 1."""
    graphs = [*_recorded("crosscheck", scratch)[0], *_recorded("exact", scratch)[0],
              *(graph.graph_to_json(config.graph) for config in (_wide_config(), _sim2()))]
    return [(obj["n"], frozenset(map(tuple, obj["edges"]))) for obj in graphs]


def _config(config: Callable[[], simulation.SimConfig]) -> Callable[[Path], tuple[dict, Path]]:
    return lambda scratch: (simulation.config_to_dict(config()), scratch)


def _bound(side, data: tuple[list, list]) -> list:
    """The recorded calls bound to ``side``'s functions and its own graphs."""
    graphs, calls = data
    built = [side.graph.graph_from_json(obj) for obj in graphs]
    return [(getattr(side.robustness, name), args if at is None else (built[at], *args), kwargs)
            for name, at, args, kwargs in calls]


def _replay(side, calls: list) -> None:
    for decide, args, kwargs in calls:
        decide(*args, **kwargs)


def _warmed(side, data: tuple[list, list]) -> list:
    """``_bound``, replayed once so that every graph keeps the tables its calls read."""
    calls = _bound(side, data)
    _replay(side, calls)
    return calls


def _side_config(side, data: tuple[dict, Path]) -> Any:
    return side.simulation.config_from_dict(data[0])


def _run(side, config) -> Any:
    return side.simulation.run(config)


def _trajectory(side, data: tuple[dict, Path]) -> tuple[Any, Path]:
    return _run(side, _side_config(side, data)), data[1]


ROWS = [
    Row("graph build", _graphs, lambda side, graphs: graphs,
        lambda side, graphs: [side.graph.Digraph(n, edges) for n, edges in graphs]),
    Row("window certificate", _calls("crosscheck", ("circulant_certificate",)), _bound, _replay),
    Row("peeling", _calls("crosscheck", PEELING, STEP), _bound, _replay),
    Row("bruteforce lookup", _calls("crosscheck", COMPLEMENT, STEP), _warmed, _replay),
    Row("complement table build", _table_builds, _bound, _replay),
    Row("forced complement query", _calls("exact", COMPLEMENT), _bound, _replay),
    Row("pair battery", _calls("exact", PAIR_DECIDERS), _bound, _replay),
    Row("pair search, kept tables", _calls("exact", PAIR_DECIDERS), _warmed, _replay),
    Row("forced walk, large witness", _large_witness, _bound, _replay),
    Row("decider calls, c01 slice", _c01_graphs,
        lambda side, graphs: [side.graph.graph_from_json(obj) for obj in graphs], _c01_loop, PAIRS_C01),
    Row("run, sim2 seed", _config(_sim2), _side_config, _run),
    Row("run, weight table", _config(_weighted_sim2), _side_config, _run),
    Row("run, wide", _config(_wide_config), lambda side, data: [_side_config(side, data) for _ in range(8)],
        lambda side, configs: [_run(side, config) for config in configs]),  # eight runs a call: see the docstring
    Row("layout, wide", _config(_wide_config), _side_config, lambda side, config: side.simulation._layout(config)),
    Row("compute_metrics", _config(_sim2), _trajectory,
        lambda side, loaded: side.simulation.compute_metrics(loaded[0], tol=scenarios.sim2().expected.tol)),
    Row("CSV export", _config(_sim2), _trajectory,  # sim2 has no Byzantine edges, so no edges.csv
        lambda side, loaded: side.simulation.write_trajectory_csv(loaded[0], loaded[1] / "trajectory.csv")),
    Row("SVG export", _config(_sim2), _trajectory, lambda side, loaded: side.svgplot.write_trajectory_svg(
        loaded[0], loaded[1] / "plot.svg", title=f"sim2 seed {SIM2_SEED}")),
]


def load(name: str, package: Path):
    """The rcl tree ``package`` (the directory of its ``__init__.py``) and
    every module in it, imported as the package ``name`` in place of any
    earlier one."""
    for key in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for stem in sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__"):
        importlib.import_module(f"{name}.{stem}")
    return module


def sides(base_tree: Path, head_tree: Path) -> tuple[Any, Any]:
    """``rcl_base`` loaded from ``base_tree`` and ``rcl_head`` from ``head_tree``."""
    return load("rcl_base", base_tree), load("rcl_head", head_tree)


def _quartiles(values: list[float], scale: float = 1.0) -> dict[str, float]:
    return dict(zip(("q1", "median", "q3"),
                    (round(q * scale, 4) for q in statistics.quantiles(values, n=4, method="inclusive"))))


def compare(row: Row, base, head, scratch: Path, pairs: int = PAIRS, aa_ratio: float | None = None) -> dict:
    """The fields of ``row``'s line, timed on ``base`` and ``head``; an A/B
    line passes its row's A/A median ratio (see the module docstring)."""
    data, shift = row.inputs(scratch), random.Random(1)

    def timed(side) -> float:
        argument = row.load(side, data)
        # a pad of random size moves where the call's arrays land, so no one
        # heap layout favours one side for a whole row (with neither it nor
        # the fresh load, A/A rows read medians of 0.965 and 1.050)
        pad = bytearray(shift.randrange(1 << 20))  # noqa: F841
        gc.disable()  # a collection set off by the other side's garbage is not this call's
        try:
            start = time.perf_counter()
            row.call(side, argument)
            return time.perf_counter() - start
        finally:
            gc.enable()

    try:
        timed(base)
    except AttributeError as missing:
        return {"skipped": f"the base tree lacks what the row calls: {missing}"}
    timed(head)
    orders, times = [(base, head) if i % 2 else (head, base) for i in range(pairs)], {base: [], head: []}
    random.Random(0).shuffle(orders)
    for order in orders:
        for side in order:
            times[side].append(timed(side))
    won = sum(h < b for b, h in zip(times[base], times[head]))
    lost = sum(h > b for b, h in zip(times[base], times[head]))
    base_ms, head_ms = _quartiles(times[base], 1e3), _quartiles(times[head], 1e3)
    ratio = _quartiles([h / b for b, h in zip(*times.values())])
    spread, gap = base_ms["q3"] - base_ms["q1"], base_ms["median"] - head_ms["median"]
    verdict = "gain" if won >= 0.9 * pairs and gap > spread else "loss" if lost >= 0.9 * pairs and -gap > spread \
        else "none"
    line = {"base_ms": base_ms, "head_ms": head_ms, "ratio": ratio, "head_won": won, "n": pairs}
    if aa_ratio is not None:
        line["aa_ratio"] = aa_ratio
        if abs(ratio["median"] - 1) <= abs(aa_ratio - 1):
            verdict = "none"
    return {**line, "verdict": verdict}


def fix_malloc_thresholds() -> None:
    """Set glibc's heap trim and mmap thresholds in this process to
    ``bench_record.MALLOC_ENV``'s; left to glibc, a large free raises the mmap
    threshold, and the pair battery's second call in a pair read 11% faster
    than its first (2-3% with them fixed).  A no-op off glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, int(MALLOC_ENV["MALLOC_TRIM_THRESHOLD_"]))  # M_TRIM_THRESHOLD
    mallopt(-3, int(MALLOC_ENV["MALLOC_MMAP_THRESHOLD_"]))  # M_MMAP_THRESHOLD


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the commit to compare with, as git names it (HEAD^, a hash)")
    rev = parser.parse_args(argv).base
    fix_malloc_thresholds()
    head_tree = Path(graph.__file__).resolve().parent
    git = ["git", "-C", str(head_tree.parents[1])]
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        try:
            commit = subprocess.run([*git, "rev-parse", "--verify", f"{rev}^{{commit}}"], capture_output=True,
                                    check=True, text=True).stdout.strip()
            archive = subprocess.run([*git, "archive", commit, "src"], capture_output=True, check=True).stdout
        except (OSError, subprocess.CalledProcessError) as failed:
            print(f"ab: no commit {rev!r} in the git of {head_tree.parents[1]}: {failed}", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(scratch / "base", filter="data")
        print(json.dumps({"base": commit}), flush=True)
        aa = {}  # each row's A/A median ratio
        for label, base_tree in (("A/A", head_tree), ("A/B", scratch / "base" / "src" / "rcl")):
            base, head = sides(base_tree, head_tree)
            for row in ROWS:
                line = compare(row, base, head, scratch, row.pairs, aa.get(row.name))
                if label == "A/A":
                    aa[row.name] = line["ratio"]["median"]
                print(json.dumps({f"{label} {row.name}": line}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
