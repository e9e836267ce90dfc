"""Command-line interface.

Subcommands: ``check`` (robustness properties of a graph), ``gen-graph``
(write circulant graphs to disk), ``run`` (simulate a JSON configuration),
``scenario`` (run a built-in scenario), and ``sweep`` (grid of circulant
configurations).

Machine-readable results go to stdout as JSON (CSV for sweep); progress and
errors go to stderr.  Exit codes: 0 verdict-true/converged, 1 verdict-false/
not-converged, 2 usage or configuration error, 3 scenario precondition
failure.  ``rcl check --cap`` overrides the default enumeration caps of the
brute-force checkers, and ``--force`` ignores them.  ``rcl check`` refuses
(exit 2) a companion option that the chosen property does not read, and
``rcl scenario --list`` takes no name and no other option.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .graph import (
    Digraph,
    GraphError,
    _integer_text,
    _number,
    load_graph,
    load_graph_json,
    make_k_circulant,
    make_undirected_circulant,
    save_graph,
    save_graph_json,
)
from .protocol import ConfigError, Leader, ReferenceSignal
from .robustness import (
    EnumerationCapError,
    circulant_certificate,
    is_r_robust,
    is_rs_robust,
    is_strongly_r_robust_bruteforce,
    is_strongly_r_robust_peeling,
    is_tlf_robust_bruteforce,
    is_tlf_robust_peeling,
    max_r_robustness,
)
from .scenarios import (
    SCENARIO_NAMES,
    PreconditionError,
    ScenarioError,
    build_scenario,
)
from .simulation import (
    DEFAULT_TOL,
    SimConfig,
    check_tol,
    compute_metrics,
    config_from_dict,
    config_to_dict,
    metrics_to_dict,
    run as run_simulation,
    write_edges_csv,
    write_trajectory_csv,
)
from .svgplot import write_trajectory_svg


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, allow_nan=False))


def parse_id_set(text: str) -> list[int]:
    """Parse agent id lists like "1,4,5" or "22-28" (ranges inclusive)."""
    ids: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = (_integer_text(v, "agent id") for v in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"empty id range {part!r}")
            ids.update(range(lo, hi + 1))
        else:
            ids.add(_integer_text(part, "agent id"))
    if not ids:
        raise ValueError(f"no agent ids in {text!r}")
    return sorted(ids)


def integer(text: str, name: str = "value") -> int:
    """An integer given on the command line, by ``rcl.graph``'s rule for
    integers written as text: decimal digits as ``str`` writes them, so not
    "1_0", "+1" or "01".  Every integer option's argparse ``type``."""
    return _integer_text(text, name)


def number(text: str) -> float:
    """A real number as ``float`` reads it, but with no "_", surrounding space or
    non-ASCII character, then by ``rcl.graph``'s number rule; ``--tol``'s type."""
    if "_" in text or text.strip() != text or not text.isascii():
        raise ValueError(f"value must be a number, got {text!r}")
    return _number(float(text), "value")


def _parse_int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    return parse_id_set(text)


def _graph_from_args(args) -> Digraph:
    if args.graph is not None:
        path = Path(args.graph)
        if path.suffix == ".json":
            return load_graph_json(path)
        return load_graph(path)
    if args.circulant is not None:
        n, k = args.circulant
        return make_k_circulant(n, k)
    n, offsets_text = args.undirected_circulant
    return make_undirected_circulant(integer(n, "N"), parse_id_set(offsets_text))


# ---------------------------------------------------------------------------
# check


# (--strong or --tlf, --method) -> decider(graph, set, parameter); brute force also takes cap=, force=
SET_DECIDERS = {
    ("strong", "peeling"): is_strongly_r_robust_peeling,
    ("strong", "bruteforce"): is_strongly_r_robust_bruteforce,
    ("tlf", "peeling"): is_tlf_robust_peeling,
    ("tlf", "bruteforce"): is_tlf_robust_bruteforce,
}

# property -> the companion options it reads (--strong/--tlf also --cap, --force with brute force)
CHECK_READS = {"r_robust": ("cap", "force"), "rs_robust": ("cap", "force"), "strong": ("set", "method"),
               "tlf": ("set", "method"), "certificate": ("set", "f"), "max_r": ("cap", "force")}


def _property(args) -> str:
    """The chosen property's dest; raise ConfigError at a companion option given that it does not read."""
    given = {name for name, value in vars(args).items() if value is not None and value is not False}
    prop = next(p for p in CHECK_READS if p in given)
    route, reads = "--" + prop.replace("_", "-"), CHECK_READS[prop]
    if "method" in reads:
        route += f" with --method {args.method or 'peeling'}"
        reads += ("cap", "force") if args.method == "bruteforce" else ()
    for option in ("set", "f", "method", "cap", "force"):
        if option in given and option not in reads:
            raise ConfigError(f"--{option} is not read by {route}")
    return prop


def cmd_check(args) -> int:
    prop = _property(args)
    graph = None if prop == "certificate" else _graph_from_args(args)
    started = time.perf_counter()

    if prop == "r_robust":
        report = is_r_robust(graph, args.r_robust, cap=args.cap, force=args.force)
    elif prop == "rs_robust":
        r, s = args.rs_robust
        report = is_rs_robust(graph, r, s, cap=args.cap, force=args.force)
    elif prop in ("strong", "tlf"):
        if args.set is None:
            raise ConfigError(f"--{prop} requires --set")
        decide = SET_DECIDERS[prop, args.method or "peeling"]
        caps = {"cap": args.cap, "force": args.force} if args.method == "bruteforce" else {}
        report = decide(graph, parse_id_set(args.set), getattr(args, prop), **caps)
    elif prop == "certificate":
        if args.circulant is None:
            raise ConfigError("--certificate needs --circulant N K (window conditions use n and k)")
        if args.set is None or args.f is None:
            raise ConfigError("--certificate requires --set and --f")
        n, k = args.circulant
        report = circulant_certificate(n, k, parse_id_set(args.set), args.f, args.certificate)
    else:
        value = max_r_robustness(graph, cap=args.cap, force=args.force)
        elapsed = 1000.0 * (time.perf_counter() - started)
        _emit({"property": "max_r_robustness", "params": {}, "value": value,
               "elapsed_ms": round(elapsed, 3)})
        return 0

    elapsed = 1000.0 * (time.perf_counter() - started)
    payload = report.to_json()
    payload["elapsed_ms"] = round(elapsed, 3)
    _emit(payload)
    return 0 if report.verdict else 1


# ---------------------------------------------------------------------------
# gen-graph


def cmd_gen_graph(args) -> int:
    graph = _graph_from_args(args)
    if args.format == "json":
        save_graph_json(graph, args.output)
    else:
        save_graph(graph, args.output)
    _log(f"wrote {args.format} graph with n={graph.n}, {len(graph.edges)} edges to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# run / scenario bundles


def _write_bundle(out_dir: Path, traj, metrics, report: dict, title: str, print_report: bool) -> int:
    """Add the metrics to ``report``, write the bundle into ``out_dir``, print
    the report (or only its metrics) and return the exit code."""
    report["metrics"] = metrics_to_dict(metrics)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out_dir / "trajectory.csv")
    if traj.edge_values:
        write_edges_csv(traj, out_dir / "edges.csv")
    (out_dir / "metrics.json").write_text(json.dumps(report["metrics"], indent=2, allow_nan=False) + "\n")
    write_trajectory_svg(traj, out_dir / "plot.svg", title=title)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    _log(f"bundle written to {out_dir}/")
    _emit(report if print_report else report["metrics"])
    return 0 if metrics.converged else 1


def cmd_run(args) -> int:
    check_tol(args.tol)
    try:
        obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{args.config}: not valid JSON: {exc}") from None
    config = config_from_dict(obj)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    traj = run_simulation(config)
    metrics = compute_metrics(traj, tol=args.tol)
    report = {"config": config_to_dict(config)}
    return _write_bundle(Path(args.out), traj, metrics, report, Path(args.config).stem, print_report=False)


def cmd_scenario(args) -> int:
    if args.list:
        given = [o for o in ("name", "f", "seed", "horizon", "out") if getattr(args, o) is not None]
        if given:
            raise ConfigError(f"--list takes no {'scenario name' if given[0] == 'name' else '--' + given[0]}")
        _emit(list(SCENARIO_NAMES))
        return 0
    if args.name is None:
        raise ConfigError("scenario name required (or use --list)")
    scenario = build_scenario(args.name, f=args.f)
    result = scenario.run(seed=args.seed, horizon=args.horizon)
    report = {
        "scenario": scenario.name,
        "description": scenario.description,
        "seed": args.seed if args.seed is not None else scenario.base.seed,
        "preconditions": [
            {"name": p.name, "ok": p.ok, "detail": p.detail} for p in result.preconditions
        ],
        "expected": repr(scenario.expected),
        "outcome_ok": result.outcome_ok,
        "outcome_detail": result.outcome_detail,
    }
    out_dir = Path(args.out) if args.out else Path("out") / scenario.name
    return _write_bundle(out_dir, result.trajectory, result.metrics, report, scenario.name, print_report=True)


# ---------------------------------------------------------------------------
# sweep


# the most grid cells a sweep runs without --force
SWEEP_CELL_CAP = 512

SWEEP_COLUMNS = [
    "n", "k", "f", "window_start", "window_size",
    "cert_strong", "cert_tlf", "peel_strong", "peel_tlf",
    "converged", "convergence_round", "final_error",
]


def _sweep_cell(n: int, k: int, f: int, start: int, size: int, horizon: int, seed: int) -> dict:
    graph = make_k_circulant(n, k)
    window = [((start - 1 + j) % n) + 1 for j in range(size)]
    cert_strong = circulant_certificate(n, k, window, f, "strong").verdict
    cert_tlf = circulant_certificate(n, k, window, f, "tlf").verdict
    peel_strong = is_strongly_r_robust_peeling(graph, window, 2 * f + 1).verdict
    peel_tlf = is_tlf_robust_peeling(graph, window, f).verdict
    config = SimConfig(
        graph=graph,
        f=f,
        horizon=horizon,
        roles={i: Leader() for i in window},
        reference=ReferenceSignal.constant(40.0),
        seed=seed,
    )
    metrics = compute_metrics(run_simulation(config))
    return {
        "n": n, "k": k, "f": f, "window_start": start, "window_size": size,
        "cert_strong": cert_strong, "cert_tlf": cert_tlf,
        "peel_strong": peel_strong, "peel_tlf": peel_tlf,
        "converged": metrics.converged,
        "convergence_round": metrics.convergence_round,
        "final_error": metrics.final_error,
    }


def cmd_sweep(args) -> int:
    ns = _parse_int_list(args.n)
    ks = _parse_int_list(args.k)
    fs = _parse_int_list(args.f)
    sizes = _parse_int_list(args.window_sizes)
    starts = _parse_int_list(args.window_starts)
    cells = [
        (n, k, f, start, size)
        for n in ns for k in ks for f in fs for size in sizes for start in starts
    ]
    valid = [(n, k, f, start, size) for n, k, f, start, size in cells
             if 1 <= k <= n - 1 and 1 <= size <= n and 1 <= start <= n]
    skipped = len(cells) - len(valid)
    if skipped:
        _log(f"skipping {skipped} structurally invalid grid cells")
    if len(valid) > SWEEP_CELL_CAP and not args.force:
        raise ConfigError(
            f"grid has {len(valid)} cells, above the cap {SWEEP_CELL_CAP}; use --force"
        )
    rows = [_sweep_cell(n, k, f, start, size, args.horizon, args.seed)
            for n, k, f, start, size in valid]

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buffer.getvalue()
    if args.output:
        Path(args.output).write_text(text)
        _log(f"wrote {len(rows)} rows to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="FILE", help="edge-list or .json graph file")
    group.add_argument("--circulant", nargs=2, type=integer, metavar=("N", "K"),
                       help="k-circulant digraph C_n(1..k)")
    group.add_argument("--undirected-circulant", nargs=2, metavar=("N", "OFFSETS"),
                       help="undirected circulant, offsets like '1,2'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcl",
        description="Robustness certification and resilient leader-follower consensus simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide a robustness property")
    _add_graph_source(p_check)
    props = p_check.add_mutually_exclusive_group(required=True)
    props.add_argument("--r-robust", type=integer, metavar="R")
    props.add_argument("--rs-robust", nargs=2, type=integer, metavar=("R", "S"))
    props.add_argument("--strong", type=integer, metavar="R",
                       help="strong r-robustness w.r.t. --set")
    props.add_argument("--tlf", type=integer, metavar="F",
                       help="TLF robustness with parameter F w.r.t. --set")
    props.add_argument("--certificate", choices=("strong", "tlf"),
                       help="circulant window certificate (needs --circulant, --set, --f)")
    props.add_argument("--max-r", action="store_true",
                       help="largest r for which the graph is r-robust")
    p_check.add_argument("--set", metavar="IDS", help="agent id set, e.g. '1,4,5' or '22-28'")
    p_check.add_argument("--f", type=integer, help="F parameter for --certificate")
    p_check.add_argument("--method", choices=("peeling", "bruteforce"),
                         help="decision procedure for --strong/--tlf (default peeling)")
    p_check.add_argument("--cap", type=integer, help="enumeration cap override")
    p_check.add_argument("--force", action="store_true", help="ignore enumeration caps")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen-graph", help="write a circulant graph to a file")
    _add_graph_source(p_gen)
    p_gen.add_argument("-o", "--output", required=True, metavar="FILE")
    p_gen.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    p_gen.set_defaults(func=cmd_gen_graph)

    p_run = sub.add_parser("run", help="simulate a JSON configuration")
    p_run.add_argument("config", metavar="CONFIG.json")
    p_run.add_argument("--seed", type=integer)
    p_run.add_argument("--tol", type=number, default=DEFAULT_TOL)
    p_run.add_argument("--out", default="out/run", metavar="DIR")
    p_run.set_defaults(func=cmd_run)

    p_scen = sub.add_parser("scenario", help="run a built-in scenario")
    p_scen.add_argument("name", nargs="?", choices=SCENARIO_NAMES)
    p_scen.add_argument("--f", type=integer, help="F override for parametric scenarios")
    p_scen.add_argument("--seed", type=integer)
    p_scen.add_argument("--horizon", type=integer)
    p_scen.add_argument("--out", metavar="DIR")
    p_scen.add_argument("--list", action="store_true", help="list scenario names")
    p_scen.set_defaults(func=cmd_scenario)

    p_sweep = sub.add_parser("sweep", help="grid of circulant leader-window configurations")
    p_sweep.add_argument("--n", required=True, help="agent counts, e.g. '10' or '10,12'")
    p_sweep.add_argument("--k", required=True, help="circulant parameters, e.g. '5-7'")
    p_sweep.add_argument("--f", required=True, help="F values")
    p_sweep.add_argument("--window-sizes", required=True, help="leader window sizes")
    p_sweep.add_argument("--window-starts", default="1", help="leader window start ids")
    p_sweep.add_argument("--horizon", type=integer, default=200)
    p_sweep.add_argument("--seed", type=integer, default=0)
    p_sweep.add_argument("-o", "--output", metavar="FILE", help="write CSV here instead of stdout")
    p_sweep.add_argument("--force", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        _log(f"precondition failure: {exc}")
        return 3
    except (GraphError, ConfigError, ScenarioError, EnumerationCapError, ValueError, MemoryError,
            OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
