"""rcl benchmark: run one named workload and print its metrics.

    python3 perfbench/run.py --workload track [--seed 1] [--seconds 27] [--trace 0]

Run from anywhere; the program under test is imported from ``src/`` next to
this directory, never from site-packages.  One process, one thread, and
``jobs=1`` everywhere, so rcl's caches start cold as in any ``rcl`` command.

A run sets the workload up ``SETUP_REPS`` times (the median counts), then
times as many passes over the workload's op list as fit in ``--seconds`` at
the workload's reference pass time (at least one).  The pass count depends
only on ``--seconds``, not on how fast this run happens to go, so every run
of a workload draws the same samples.  Output checks run between ops,
outside the timed regions; an op that raises, fails its check, or returns a
different result on a later pass counts as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, whose
times are reference seconds (see ``gauge.py``); with
``--trace 1`` it carries per-layer metrics from a traced pass, and passes
alternate untraced/traced so the run also measures the tracing overhead.
Every metric is printed by name with its unit before that line, followed by
a JSON detail record (seed, environment, sample counts).  The exit code is 0
when every check passed, 1 when one failed, and 2 when the program under
test cannot be found.
"""

import time

_STARTED = time.perf_counter()

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("track", "wide", "exact", "crosscheck")
# the seed gains are claimed on, and the one they must also hold on
DEFAULT_SEED = 1
HELD_OUT_SEED = 101
SETUP_REPS = 3
DEFAULT_SECONDS = 27
# a run stops early once it has taken this many times --seconds
OVERRUN = 3.0


def _import_program():
    if not (SRC / "rcl" / "__init__.py").is_file():
        print(f"perfbench: no rcl sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy
    import rcl

    if Path(rcl.__file__).resolve().parent != SRC / "rcl":
        print(f"perfbench: imported rcl from {rcl.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import gauge
    import tracer
    import workloads

    return numpy, gauge, tracer, workloads


def _environment(numpy) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = dirty = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_DIR=str(ROOT / ".git"), GIT_WORK_TREE=str(ROOT))
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                                    capture_output=True, text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env, timeout=30,
                                    capture_output=True, text=True, check=True).stdout
            dirty = bool(status.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def _peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1 << 20) if sys.platform == "darwin" else rss / 1024


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, but not below
    the median: (value, percentile, sample count).  Below 20 samples no
    percentile above the median qualifies, and the median stands in."""
    xs = sorted(samples)
    if len(xs) < 20:
        return statistics.median(xs), 50.0, len(xs)
    idx = len(xs) - 11
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs)


def _lower_median_index(values: list[float]) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


class Runner:
    """Times passes over a plan.  Untraced op times go through the gauge
    (reference seconds); traced passes and walls are kept raw."""

    def __init__(self, plan, tracer, gauge) -> None:
        self.plan = plan
        self.tracer = tracer
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list = [None] * len(plan.ops)
        self.op_times: list[float] = []  # untraced ops, reference seconds
        self.work = 0
        self.walls: list[float] = []  # untraced passes, reference seconds
        self.untraced_walls: list[float] = []  # raw
        self.traced_walls: list[float] = []  # raw, indexed by traced pass number

    def _installed(self, tracing: bool):
        return self.tracer.installed() if tracing else contextlib.nullcontext()

    def run_pass(self, number: int, tracing: bool, run_oracles: bool) -> None:
        wall = 0.0
        scaled: list[float] = []
        failed: dict[int, list[str]] = {}
        outputs: dict[int, object] = {}
        oracle_ops = {idx for idx, _ in self.plan.oracles} if run_oracles else set()
        with self._installed(tracing):
            for idx, op in enumerate(self.plan.ops):
                if self.gauge.due():
                    self.gauge.tick()
                error = None
                if tracing:
                    self.tracer.begin_root("bench.op", ("pass", number))
                t0 = time.perf_counter()
                try:
                    work, output = op.fn()
                except Exception:
                    error = traceback.format_exc(limit=-3)
                t1 = time.perf_counter()
                if tracing:
                    self.tracer.end_root(t0, t1)
                wall += t1 - t0
                self.attempted += 1
                if not tracing:
                    self.gauge.add(t1 - t0, self.op_times, scaled)
                if error is not None:
                    failed[idx] = [f"raised: {error}"]
                    continue
                if not tracing:
                    self.work += work
                digest, problems = op.check(output)
                if self.digests[idx] is None:
                    self.digests[idx] = digest
                elif digest != self.digests[idx]:
                    problems.append("output differs from the first pass")
                if problems:
                    failed[idx] = problems
                if idx in oracle_ops:
                    outputs[idx] = output
            for idx, check in self.plan.oracles:
                if idx not in outputs:
                    continue
                if tracing:
                    self.tracer.begin_root("bench.check", "check")
                t0 = time.perf_counter()
                problems = check(outputs[idx])
                t1 = time.perf_counter()
                if tracing:
                    self.tracer.end_root(t0, t1)
                if problems:
                    failed.setdefault(idx, []).extend(problems)
        self.gauge.tick()
        if tracing:
            self.traced_walls.append(wall)
        else:
            self.untraced_walls.append(wall)
            self.walls.append(sum(scaled))
        self.failed += len(failed)
        for idx, problems in sorted(failed.items()):
            self.failures.append(f"pass {number} {self.plan.ops[idx].name}: {'; '.join(problems)}")


def _setup(setup, seed: int, scratch: Path, tracer) -> tuple[object, list[float]]:
    times = []
    plan = None
    for rep in range(SETUP_REPS):
        with tracer.installed() if tracer else contextlib.nullcontext():
            if tracer:
                tracer.begin_root("bench.setup", ("setup", rep))
            t0 = time.perf_counter()
            try:
                plan = setup(seed, scratch)
            finally:
                t1 = time.perf_counter()
                if tracer:
                    tracer.end_root(t0, t1)
        times.append(t1 - t0)
    return plan, times


def _end_to_end(runner: Runner, import_s: float, setup_times: list[float], setup_s: float,
                plan) -> tuple[dict, dict]:
    tail, pct, count = _tail(runner.op_times)
    work_per_s = runner.work / sum(runner.op_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(runner.walls), "s"),
        "work_per_s": (work_per_s, "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(runner.op_times), "ms"),
        "op_tail_ms": (1000.0 * tail, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    detail = {
        "raw_import_s": import_s,
        "raw_setup_construction_s": setup_times,
        "raw_pass_walls_s": runner.untraced_walls,
        "gauge_kernel_s": {"kernel": runner.gauge.kind, "nominal": runner.gauge.nominal_s, "min": min(runner.gauge.samples),
                           "median": statistics.median(runner.gauge.samples),
                           "max": max(runner.gauge.samples), "timings": len(runner.gauge.samples)},
        "work_unit": plan.work_unit,
        f"{plan.work_unit}_per_s": work_per_s,
        "op_tail_percentile": pct,
        "op_samples": count,
        "fail_ratio": runner.failed / runner.attempted,
    }
    return metrics, detail


def _per_layer(runner: Runner, tracer, layer_counts: dict, setup_times: list[float]) -> tuple[dict, dict]:
    setup_rep = _lower_median_index(setup_times)
    traced = runner.traced_walls
    pass_rep = 2 * _lower_median_index(traced) + 1  # traced passes are the odd ones
    groups = [("setup", setup_rep), ("pass", pass_rep), "check"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in tracer.names:
        entries = [tracer.aggregates.get(g, {}).get(layer, {}) for g in groups]
        metrics[f"{layer}.calls"] = (int(sum(e.get("calls", 0) for e in entries)), "count")
        metrics[f"{layer}.self_s"] = (sum(e.get("self_s", 0.0) for e in entries), "s")
        for key in layer_counts.get(layer, ()):
            unit = "bytes" if key == "bytes" else "count"
            metrics[f"{layer}.{key}"] = (int(sum(e.get(key, 0) for e in entries)), unit)
    wall = traced[(pass_rep - 1) // 2]
    setup_s = setup_times[setup_rep]
    check_s = tracer.group_total("check")
    untraced = statistics.median(runner.untraced_walls)
    metrics["trace.setup_s"] = (setup_s, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.check_s"] = (check_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (wall - untraced, "s")
    metrics["trace.spans"] = (len(tracer.starts), "count")
    # self times telescope: every span's duration is its self time plus its
    # children's, so the layers must add up to the root spans exactly
    total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    if abs(total - (setup_s + wall + check_s)) > 1e-6 * max(1.0, total):
        raise RuntimeError(f"self times {total} do not account for {setup_s + wall + check_s}")
    return metrics, {"traced_pass_walls_s": traced, "representative_pass": pass_rep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}); a claimed gain must also "
                             f"hold on the held-out seed {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    numpy, gauge, tracer_mod, workloads = _import_program()
    import_s = time.perf_counter() - _STARTED
    tracer = tracer_mod.Tracer() if args.trace else None
    setup, kernel = workloads.WORKLOADS[args.workload]
    speed = gauge.Gauge(kernel)

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    scratch.mkdir()
    try:
        plan, setup_times = _setup(setup, args.seed, scratch, tracer)
        setup_s: list[float] = []
        speed.add(import_s + statistics.median(setup_times), setup_s)
        speed.tick()
        # the inputs live for the whole run; keep the cyclic collector from
        # re-walking them, which made pass times swing by up to 60%
        gc.collect()
        gc.freeze()
        runner = Runner(plan, tracer, speed)
        planned = max(2 if tracer else 1, int(args.seconds // plan.pass_s))
        started = time.perf_counter()
        passes = 0
        while passes < planned:
            tracing = tracer is not None and passes % 2 == 1
            first_checked = passes == (1 if tracer else 0)
            runner.run_pass(passes, tracing, run_oracles=first_checked)
            passes += 1
            if passes >= 2 and time.perf_counter() - started > OVERRUN * args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer:
        metrics, detail = _per_layer(runner, tracer, tracer_mod.LAYER_COUNTS, setup_times)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, detail = _end_to_end(runner, import_s, setup_times, setup_s[0], plan)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "ops_per_pass": len(plan.ops),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures[:20],
        "environment": _environment(numpy),
    })

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value!r} {unit}")
    print(f"{'fail_ratio':45s} {runner.failed / runner.attempted!r} ({runner.failed}/{runner.attempted})")
    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
