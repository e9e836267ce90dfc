"""Print the median time per layer of a tracking run with its full bundle.

    PYTHONPATH=src python3 tools/track_layers.py

Runs ``sim2`` at seeds 20 to 39, three passes after one warm-up run, and times
each layer of what ``rcl scenario sim2`` does per seed: the engine ``run``,
``compute_metrics``, ``write_trajectory_csv`` (with ``write_edges_csv`` when
there are Byzantine edges), ``write_trajectory_svg`` and the JSON dumps of
``metrics.json`` and of a ``report.json`` that holds the metrics.  One JSON
object per line and layer, ``{"<layer>": {"ms": <median>}}`` (``run`` also
gives its median time per round as ``us_per_round``), then the median of the
per-seed totals, then ``run`` alone under a table of distinct weights
(``distinct_weights`` of ``bundle_digests.py``), the rule whose ties the
engine resolves by sender id, timed right after each seed's layers, and last
``run`` alone at the ``wide`` shape: the C_300(1..60) configs, F = 3, horizon
200, that perfbench's ``setup_wide(1)`` builds, each timed once per pass.
The line ``rounds computed`` gives the median number of rounds per sim2 seed
that the engine computed with ``simulation._round`` rather than held at a
fixed point, counted in one more untimed pass by wrapping that function;
``us_per_round`` is always per round of the horizon.  A run that stops midway
leaves the lines it finished.

rcl is imported from ``PYTHONPATH`` and only its public API is used, and
perfbench's workloads from the ``perfbench/`` beside this directory, so one
copy of the script run on the ``src/`` of two checkouts times the same
workloads and gives the layer split side by side.  The host's speed drifts;
compare only runs made one after the other.  Where ``MALLOC_TRIM_THRESHOLD_``
or ``MALLOC_MMAP_THRESHOLD_`` is unset, the script first runs itself again
with glibc's heap pinned as ``bench_record.py`` pins its steps
(``bench_record.MALLOC_ENV``), so a run by hand reads like a recorded one.
"""

import json
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from bench_record import pin_heap  # noqa: E402

pin_heap()

import workloads  # noqa: E402
from bundle_digests import distinct_weights  # noqa: E402
from rcl import scenarios, simulation, svgplot  # noqa: E402

SEEDS = range(20, 40)
PASSES = 3
LAYERS = ("run", "compute_metrics", "write_trajectory_csv", "write_trajectory_svg", "json")


def _one_seed(scenario, seed: int, out_dir: Path) -> dict[str, float]:
    clock = time.perf_counter
    t0 = clock()
    traj = simulation.run(scenario.config(seed))
    t1 = clock()
    metrics = simulation.compute_metrics(traj, tol=scenario.expected.tol)
    t2 = clock()
    simulation.write_trajectory_csv(traj, out_dir / "trajectory.csv")
    if traj.edge_values:
        simulation.write_edges_csv(traj, out_dir / "edges.csv")
    t3 = clock()
    svgplot.write_trajectory_svg(traj, out_dir / "plot.svg", title=f"{scenario.name} seed {seed}")
    t4 = clock()
    metrics_json = simulation.metrics_to_dict(metrics)
    (out_dir / "metrics.json").write_text(json.dumps(metrics_json, indent=2) + "\n")
    report = {"scenario": scenario.name, "seed": seed, "metrics": metrics_json}
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    stamps = (t0, t1, t2, t3, t4, clock())
    return {name: end - start for name, start, end in zip(LAYERS, stamps, stamps[1:])}


def _wide_configs(scratch: Path) -> list:
    """The configs that the ops of perfbench's ``wide`` workload at seed 1 pass
    to ``simulation.run``; running the ops once to record them also warms up."""
    with mock.patch.object(simulation, "run", wraps=simulation.run) as engine:
        for op in workloads.setup_wide(1, scratch).ops:
            op.fn()
    return [call.args[0] for call in engine.call_args_list]


def _per_round(seconds: list[float], rounds: int) -> dict[str, float]:
    median = statistics.median(seconds)
    return {"ms": 1e3 * median, "us_per_round": 1e6 * median / rounds}


def _rounds_computed(scenario) -> float:
    """The median number of ``simulation._round`` calls per seed."""
    counts = []
    with mock.patch.object(simulation, "_round", wraps=simulation._round) as engine_round:
        for seed in SEEDS:
            engine_round.reset_mock()
            simulation.run(scenario.config(seed))
            counts.append(engine_round.call_count)
    return statistics.median(counts)


def main() -> int:
    scenario = scenarios.sim2()
    samples = {name: [] for name in LAYERS}
    totals = []
    scheme = distinct_weights(scenario.base)
    table = {seed: replace(scenario.config(seed), scheme=scheme) for seed in SEEDS}
    table_runs, wide_runs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        _one_seed(scenario, SEEDS[0], out_dir)
        simulation.run(table[SEEDS[0]])
        wide = _wide_configs(out_dir)
        for _ in range(PASSES):
            for seed in SEEDS:
                times = _one_seed(scenario, seed, out_dir)
                for name in LAYERS:
                    samples[name].append(times[name])
                totals.append(sum(times.values()))
                start = time.perf_counter()
                simulation.run(table[seed])
                table_runs.append(time.perf_counter() - start)
            for config in wide:
                start = time.perf_counter()
                simulation.run(config)
                wide_runs.append(time.perf_counter() - start)
    rounds = scenario.base.horizon
    print(json.dumps({"run": _per_round(samples["run"], rounds)}))
    print(json.dumps({"rounds computed": {"rounds": _rounds_computed(scenario)}}))
    for name in LAYERS[1:]:
        print(json.dumps({name: {"ms": 1e3 * statistics.median(samples[name])}}))
    print(json.dumps({"total": {"ms": 1e3 * statistics.median(totals)}}))
    print(json.dumps({"run, weight table": _per_round(table_runs, rounds)}))
    print(json.dumps({"run, wide": _per_round(wide_runs, wide[0].horizon)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
