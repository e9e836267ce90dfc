"""Print the median time per layer of a tracking run with its full bundle.

    python3 tools/track_layers.py

Runs ``sim2`` at seeds 20 to 39, three passes after one warm-up run, and times
each layer of what ``rcl scenario sim2`` does per seed: the engine ``run``,
``compute_metrics``, ``write_trajectory_csv`` (with ``write_edges_csv`` when
there are Byzantine edges), ``write_trajectory_svg`` and the JSON dumps of
``metrics.json`` and of a ``report.json`` that holds the metrics.  One line
per layer, ``<layer>  <median ms>`` (``run`` also gives its median time per
round), then the median of the per-seed totals, then ``run`` alone under a
table of distinct weights (``distinct_weights`` of ``bundle_digests.py``),
the rule whose ties the engine resolves by sender id, timed right after each
seed's layers.

rcl is imported from ``src/`` beside this directory and only its public API is
used, so running the script in two checkouts gives the layer split side by
side.  The host's speed drifts; compare only runs made one after the other.
"""

import json
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

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
    metrics = simulation.compute_metrics(traj, tol=scenarios.outcome_tol(scenario.expected))
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


def _per_round(seconds: list[float], rounds: int) -> str:
    median = statistics.median(seconds)
    return f"{1e3 * median:8.2f} ms {1e6 * median / rounds:8.1f} us/round"


def main() -> int:
    scenario = scenarios.sim2()
    samples = {name: [] for name in LAYERS}
    totals = []
    scheme = distinct_weights(scenario.base)
    table = {seed: replace(scenario.config(seed), scheme=scheme) for seed in SEEDS}
    table_runs = []
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        _one_seed(scenario, SEEDS[0], out_dir)
        simulation.run(table[SEEDS[0]])
        for _ in range(PASSES):
            for seed in SEEDS:
                times = _one_seed(scenario, seed, out_dir)
                for name in LAYERS:
                    samples[name].append(times[name])
                totals.append(sum(times.values()))
                start = time.perf_counter()
                simulation.run(table[seed])
                table_runs.append(time.perf_counter() - start)
    rounds = scenario.base.horizon
    print(f"{'run':<22}{_per_round(samples['run'], rounds)}")
    for name in LAYERS[1:]:
        print(f"{name:<22}{1e3 * statistics.median(samples[name]):8.2f} ms")
    print(f"{'total':<22}{1e3 * statistics.median(totals):8.2f} ms")
    print(f"{'run, weight table':<22}{_per_round(table_runs, rounds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
