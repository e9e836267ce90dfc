"""Print the SHA-256 digests that pin rcl's observable output and its exact decider reports.

    PYTHONPATH=src python3 tools/digests.py

rcl is imported from ``PYTHONPATH``, so running the script with it naming the
``src/`` of two checkouts and comparing the output tells whether a change kept
every output byte for byte.  ``tests/test_tools.py`` computes both totals in
process and pins them; a change that alters bytes on purpose updates the
pinned totals and says which lines changed and why.

The bundle lines come first, one per item, ``<sha256>  <label>``:

- every bundle file, the stdout (with any ``elapsed_ms`` removed) and the exit
  code of ``rcl scenario NAME`` for each built-in scenario;
- the same at ``--f 2`` (the fixed-F scenarios exit 2 there), and for the
  two counterexample scenarios also at ``--f 3`` and ``--f 4``;
- the same for ``rcl run`` on ``five_strategies.json``, which has a constant,
  a sinusoid, a ramp, a scripted and a per-edge Byzantine adversary;
- the stdout (with ``elapsed_ms`` removed) and exit code of ``rcl check`` for
  every property flag, true and false verdicts, both ``--method`` values,
  graph files in both formats and the usage errors that exit 2;
- the bytes of every file ``rcl gen-graph`` writes, under an ``.edgelist``
  and a ``.json`` name;
- the stdout and exit code of ``rcl scenario --list`` and of ``rcl sweep``
  over a 96-cell grid (``SWEEP``) in which some runs do not converge;
- the engine states of every scenario at seeds 0 and 7, and of that config
  under a table of distinct weights at seeds 0 to 2;
- the engine states of a tie-heavy config (``tie_heavy_config``) under the
  equal rule and under a table of distinct weights;
- for each config of a fixed corpus of JSON configs (``config_corpus``), the
  digest of ``config_to_dict(config_from_dict(obj))`` when the reader accepts
  it, or the exception class and the pointer (the text before the first
  ``:``) when it refuses it, so the line reads ``<class> <pointer>  config
  <label>``.

Then ``<sha256>  total`` digests the bundle lines.  The report lines follow,
one per exact decider, ``<sha256>  <name> <calls> calls``, digesting
``json.dumps(report.to_json())`` of each call, the integer that
``max_r_robustness`` returns, or the exception type and message of a call
that raises.  The corpus is fixed (seeded generators only):

- 400 random digraphs with 2 <= n <= 11, and every C_n(1..k) with n <= 10,
  under every pair parameter and three leader sets each;
- enumeration cap cases (refused, raised cap, ``force=True``) and invalid
  parameters;
- forced pair calls at n = 14..16 and forced complement calls with 17..20
  free vertices, so the enumeration counter is split into low and high bits;
- forced pair calls at n = 14..18 with true verdicts (the worst case of the
  O(B^2) pair scan the subset DP replaced) and with s > 1.

The last line, ``<sha256>  total``, digests the report lines.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from rcl import cli, robustness, scenarios, simulation
from rcl.graph import Digraph, make_k_circulant
from rcl.protocol import (
    Adversary, ByzantinePerEdge, ConstantHold, Leader, ReferenceSignal, Scripted, WeightScheme,
)

CONFIG = Path(__file__).resolve().parent / "five_strategies.json"
SWEEP = ["--n", "8,9", "--k", "3-4", "--f", "0,1", "--window-sizes", "1-4", "--window-starts", "1-3",
         "--horizon", "40"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def _cli_digests(label: str, argv: list[str], out_dir: Path | None = None) -> list[str]:
    """Digests of ``rcl ARGV``'s stdout, its exit code and the files it wrote
    into ``out_dir``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = stdout.getvalue()
    try:
        text = json.dumps(_strip_elapsed(json.loads(text)), indent=2)
    except json.JSONDecodeError:
        pass
    lines = [f"{_sha(text.encode())}  {label} stdout", f"{_sha(str(code).encode())}  {label} exit"]
    if out_dir is not None and out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            lines.append(f"{_sha(path.read_bytes())}  {label} {path.name}")
    return lines


def _check_argvs(edgelist: str, graph_json: str) -> list[list[str]]:
    """``rcl check`` argument lists over every property flag; the two files
    hold C_10(1..7)."""
    c10 = ["--circulant", "10", "7"]
    argvs = [
        [*c10, "--r-robust", "3"], ["--circulant", "6", "1", "--r-robust", "2"],
        [*c10, "--rs-robust", "3", "2"], ["--circulant", "6", "1", "--rs-robust", "1", "6"],
        ["--undirected-circulant", "8", "1,2", "--max-r"], ["--circulant", "7", "3", "--max-r"],
        [*c10, "--certificate", "strong", "--set", "1-5", "--f", "1"],
        [*c10, "--certificate", "tlf", "--set", "1,4,5", "--f", "2"],
        [*c10, "--certificate", "strong", "--set", "1,4,5", "--f", "2"],
        [*c10, "--certificate", "tlf"],
        ["--graph", edgelist, "--certificate", "tlf", "--set", "1", "--f", "1"],
        [*c10, "--strong", "3"],
        [*c10, "--tlf", "2"],
    ]
    for prop, value in (("strong", "5"), ("tlf", "2")):
        for method in ("peeling", "bruteforce"):
            for ids in ("1,4,5", "1-3", "2"):
                argvs.append([*c10, f"--{prop}", value, "--set", ids, "--method", method])
            argvs.append(["--graph", graph_json, f"--{prop}", value,
                          "--set", "1-5", "--method", method])
    argvs.append(["--graph", edgelist, "--strong", "3", "--set", "1,4,5",
                  "--method", "bruteforce", "--cap", "1"])
    return argvs


def distinct_weights(g: Digraph, rng: random.Random) -> WeightScheme:
    """A table of distinct weights over every inclusive neighbourhood of ``g``,
    drawn from ``rng``, with the floor alpha its smallest weight (at most 0.5)."""
    table = {}
    for i in g.vertices:
        row = sorted(g.inclusive_neighbors(i))
        raw = rng.sample(range(1, 4 * len(row) + 1), len(row))
        for j, w in zip(row, raw):
            table[(i, j)] = w / sum(raw)
    return WeightScheme(min(min(table.values()), 0.5), table)


def tie_heavy_config() -> simulation.SimConfig:
    """C_16(1..7) at F = 2 whose inits, reference and adversary values are all
    drawn from {-1, -0.0, 0.0, 1, +-inf, NaN}, so that tied values, signed
    zeros among them, sit on the cut points of the filter."""
    sends = (-1.0, -0.0, 0.0, 1.0, math.inf, -math.inf, math.nan)
    g, horizon = make_k_circulant(16, 7), 40

    def script(step: int) -> Scripted:
        return Scripted(tuple(sends[(step * (t + 1)) % len(sends)] for t in range(horizon)))

    roles = {1: Leader(), 5: Leader(), 9: Leader(), 3: Adversary(ConstantHold(math.nan)),
             12: Adversary(ByzantinePerEdge({j: script(j) for j in g.out_neighbors(12)}))}
    return simulation.SimConfig(
        graph=g, f=2, horizon=horizon, roles=roles,
        reference=ReferenceSignal(tuple((t, sends[t % 4]) for t in range(0, horizon, 3))),
        init={i: sends[i % 4] for i in g.vertices},
    )


def config_corpus() -> list[tuple[str, dict]]:
    """(label, JSON object) pairs that cover every form of the configuration
    format, and for each value rule one config that breaks it alone."""
    nan, inf, huge = float("nan"), float("inf"), 10**400
    base = {"graph": {"circulant": [8, 3]}, "f": 1, "horizon": 12,
            "roles": {"1": "leader", "2": "leader", "5": {"adversary": {"type": "constant", "value": 7}}},
            "reference": {"constant": 3}, "init": {"range": [-4, 6]}, "alpha": 0.2}
    values = {str(i): i / 4 for i in range(1, 9)}
    # every weight 1/4 over the inclusive in-neighbours i - 3..i (mod 8) of C_8(1..3)
    table = {str(i): {str((j - 1) % 8 + 1): 0.25 for j in range(i - 3, i + 1)} for i in range(1, 9)}
    byzantine = {"type": "byzantine", "edges": {"6": {"type": "ramp", "slope": -1.5, "intercept": 2},
                                                "7": {"type": "scripted", "values": [1, "NaN", -3.25]},
                                                "8": {"type": "sinusoid", "amplitude": 4, "period": 3.5}}}

    def role(strategy):
        return {"roles": {"1": "leader", "5": {"adversary": strategy}}}

    def const(value):
        return role({"type": "constant", "value": value})

    accepted = [
        ("range init, constant reference, alpha alone", {}),
        ("values init, breakpoints reference, table without alpha",
         {"init": {"values": values}, "reference": {"breakpoints": [[0, 1], [5, -2.5], [9, 0.125]]},
          "alpha": None, "weight_table": table}),
        ("table with alpha", {"alpha": 0.125, "weight_table": table, "seed": 4}),
        ("null roles and reference", {"roles": None, "reference": None}),
        ("NaN and Infinity strategy fields", {"strict_f_local": False, "roles": {
            "1": "leader", "3": {"adversary": {"type": "constant", "value": "NaN"}},
            "4": {"adversary": {"type": "ramp", "slope": "Infinity", "intercept": "-Infinity"}},
            "6": {"adversary": {"type": "scripted", "values": ["NaN", 1, "Infinity", "-Infinity"]}},
            "7": {"adversary": {"type": "sinusoid", "amplitude": 2, "period": "Infinity", "phase": "NaN"}}}}),
        ("byzantine adversary", role(byzantine)),
        ("integer and extreme strategy fields", {"roles": {"1": "leader", "4": {"adversary": {
            "type": "sinusoid", "amplitude": 10**300, "period": 1.7976931348623157e308, "phase": -2,
            "offset": 5e-324}}}}),
        ("explicit edges", {"graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}, "roles": {"1": "leader"},
                            "alpha": None}),
        ("undirected circulant", {"graph": {"undirected_circulant": [8, [1, 2]]}, "horizon": 3}),
    ]
    refused = [
        ("f text", {"f": "three"}), ("f float", {"f": 1.5}), ("f bool", {"f": True}), ("f negative", {"f": -1}),
        ("f null", {"f": None}), ("horizon zero", {"horizon": 0}), ("horizon text", {"horizon": "10"}),
        ("seed float", {"seed": 1.5}), ("seed null", {"seed": None}),
        ("strict_f_local 0", {"strict_f_local": 0}), ("strict_f_local text", {"strict_f_local": "true"}),
        ("strict_f_local null", {"strict_f_local": None}),
        ("role name", {"roles": {"2": "boss"}}), ("role id", {"roles": {"x": "leader"}}),
        ("role id out of range", {"roles": {"9": "leader"}}), ("roles list", {"roles": [1]}),
        ("constant text", const("5")), ("constant inf text", const("inf")), ("constant bool", const(True)),
        ("constant huge", const(huge)), ("constant null", const(None)),
        ("sinusoid period text", role({"type": "sinusoid", "amplitude": 1, "period": "3"})),
        ("sinusoid period zero", role({"type": "sinusoid", "amplitude": 1, "period": 0})),
        ("sinusoid amplitude list", role({"type": "sinusoid", "amplitude": [1], "period": 2})),
        ("ramp slope text", role({"type": "ramp", "slope": "ab"})),
        ("ramp intercept bool", role({"type": "ramp", "slope": 1, "intercept": False})),
        ("scripted text value", role({"type": "scripted", "values": ["1"]})),
        ("scripted empty", role({"type": "scripted", "values": []})),
        ("scripted not a list", role({"type": "scripted", "values": "abc"})),
        ("strategy unknown field", role({"type": "ramp", "slope": 1, "curve": 2})),
        ("strategy missing field", role({"type": "sinusoid", "amplitude": 1})),
        ("strategy type", role({"type": "nope"})), ("strategy without type", role({"value": 1})),
        ("byzantine edge field", role({**byzantine, "edges": {**byzantine["edges"],
                                                              "8": {"type": "constant", "value": "x"}}})),
        ("byzantine edges cover", role({**byzantine, "edges": {"6": {"type": "constant", "value": 1}}})),
        ("byzantine edges list", role({"type": "byzantine", "edges": [1]})),
        ("reference constant text", {"reference": {"constant": "5"}}),
        ("reference constant NaN", {"reference": {"constant": nan}}),
        ("reference constant inf", {"reference": {"constant": inf}}),
        ("reference constant -inf", {"reference": {"constant": -inf}}),
        ("reference constant bool", {"reference": {"constant": True}}),
        ("reference constant huge", {"reference": {"constant": huge}}),
        ("reference constant NaN text", {"reference": {"constant": "NaN"}}),
        ("breakpoint value text", {"reference": {"breakpoints": [[0, "40"]]}}),
        ("breakpoint without value", {"reference": {"breakpoints": [[0]]}}),
        ("breakpoint round float", {"reference": {"breakpoints": [[0.5, 1]]}}),
        ("breakpoint value NaN", {"reference": {"breakpoints": [[0, 1], [5, nan]]}}),
        ("breakpoint value inf", {"reference": {"breakpoints": [[0, inf]]}}),
        ("breakpoint value bool", {"reference": {"breakpoints": [[0, True]]}}),
        ("breakpoint first round", {"reference": {"breakpoints": [[1, 1]]}}),
        ("breakpoints empty", {"reference": {"breakpoints": []}}),
        ("breakpoint rounds order", {"reference": {"breakpoints": [[0, 1], [0, 2]]}}),
        ("breakpoints text", {"reference": {"breakpoints": "abc"}}),
        ("reference two forms", {"reference": {"constant": 1, "breakpoints": [[0, 1]]}}),
        ("leaders without reference", {"reference": None}),
        ("range text", {"init": {"range": ["-1", "2"]}}), ("range of three", {"init": {"range": [1, 2, 3]}}),
        ("range -inf", {"init": {"range": [-inf, 1]}}), ("range inf", {"init": {"range": [0, inf]}}),
        ("range NaN", {"init": {"range": [nan, 1]}}), ("range order", {"init": {"range": [2, 1]}}),
        ("range bool", {"init": {"range": [True, 1]}}), ("range huge", {"init": {"range": [0, huge]}}),
        ("range text value", {"init": {"range": "x"}}),
        ("init value text", {"init": {"values": {**values, "3": "1.5"}}}),
        ("init value NaN", {"init": {"values": {**values, "3": nan}}}),
        ("init value huge", {"init": {"values": {**values, "3": -huge}}}),
        ("init value null", {"init": {"values": {**values, "3": None}}}),
        ("init missing agent", {"init": {"values": {k: v for k, v in values.items() if k != "6"}}}),
        ("init id out of range", {"init": {"values": {**values, "9": 0}}}),
        ("init values list", {"init": {"values": [1]}}),
        ("alpha text", {"alpha": "0.1"}), ("alpha NaN", {"alpha": nan}), ("alpha zero", {"alpha": 0}),
        ("alpha one", {"alpha": 1}), ("alpha bool", {"alpha": True}), ("alpha huge", {"alpha": huge}),
        ("alpha infeasible", {"alpha": 0.3}),
        ("weight text", {"weight_table": {**table, "4": {**table["4"], "2": "0.25"}}}),
        ("weight NaN", {"weight_table": {**table, "4": {**table["4"], "2": nan}}}),
        ("weight inf", {"weight_table": {**table, "4": {**table["4"], "2": inf}}}),
        ("weight bool", {"weight_table": {**table, "4": {**table["4"], "2": True}}}),
        ("weight huge", {"weight_table": {**table, "4": {**table["4"], "2": huge}}}),
        ("weight below floor", {"weight_table": {**table, "4": {"1": 0.1, "2": 0.3, "3": 0.3, "4": 0.3}}}),
        ("weight row sum", {"weight_table": {**table, "4": {"1": 0.3, "2": 0.3, "3": 0.3, "4": 0.3}}}),
        ("weight missing", {"weight_table": {**table, "4": {"1": 0.25, "2": 0.25, "3": 0.5}}}),
        ("weight table list", {"weight_table": [1]}), ("weight row list", {"weight_table": {**table, "4": [1]}}),
        ("not F-local", {"roles": {"1": "leader", "4": {"adversary": {"type": "constant", "value": 1}},
                                   "5": {"adversary": {"type": "constant", "value": 2}}}}),
        ("unknown key", {"extra": 1}), ("circulant parameters", {"graph": {"circulant": [1, 5]}}),
    ]
    return [(label, {**base, **patch}) for label, patch in accepted + refused]


def config_lines() -> list[str]:
    lines = []
    for label, obj in config_corpus():
        try:
            config = simulation.config_from_dict(obj)
        except (ValueError, TypeError) as exc:
            lines.append(f"{type(exc).__name__} {str(exc).split(':')[0]}  config {label}")
        else:
            text = json.dumps(simulation.config_to_dict(config), allow_nan=False)
            lines.append(f"{_sha(text.encode())}  config {label}")
    return lines


def bundle_lines(tmp_dir: Path) -> list[str]:
    lines = []
    for name in scenarios.SCENARIO_NAMES:
        out_dir, out_f2 = tmp_dir / name, tmp_dir / f"{name}-f2"
        lines += _cli_digests(f"scenario {name}", ["scenario", name, "--out", str(out_dir)], out_dir)
        lines += _cli_digests(f"scenario {name} --f 2", ["scenario", name, "--f", "2", "--out", str(out_f2)],
                              out_f2)
    for name in ("counterexample-rs", "counterexample-2f1"):
        for f in ("3", "4"):
            out_dir = tmp_dir / f"{name}-f{f}"
            lines += _cli_digests(f"scenario {name} --f {f}", ["scenario", name, "--f", f, "--out", str(out_dir)],
                                  out_dir)
    out_dir = tmp_dir / "run"
    lines += _cli_digests("run five_strategies", ["run", str(CONFIG), "--out", str(out_dir)], out_dir)
    graphs = tmp_dir / "graphs"
    for name, source in (("c10", ["--circulant", "10", "7"]), ("u8", ["--undirected-circulant", "8", "1,3"])):
        for fmt in ("edgelist", "json"):
            out_dir = graphs / f"{name}-{fmt}"
            out_dir.mkdir(parents=True)
            argv = ["gen-graph", *source, "-o", str(out_dir / f"{name}.{fmt}")]
            lines += _cli_digests(f"gen-graph {name} {fmt}", argv, out_dir)
    for argv in _check_argvs(str(graphs / "c10-edgelist" / "c10.edgelist"), str(graphs / "c10-json" / "c10.json")):
        label = " ".join(argv).replace(str(graphs) + "/", "")
        lines += _cli_digests(f"check {label}", ["check", *argv])
    lines += _cli_digests("scenario --list", ["scenario", "--list"])
    lines += _cli_digests(f"sweep {' '.join(SWEEP)}", ["sweep", *SWEEP])
    for name in scenarios.SCENARIO_NAMES:
        scenario = scenarios.build_scenario(name)
        for seed in (0, 7):
            states = simulation.run(scenario.config(seed)).states
            lines.append(f"{_sha(states.tobytes())}  states {name} seed {seed}")
    config = simulation.config_from_dict(json.loads(CONFIG.read_text()))
    config = replace(config, scheme=distinct_weights(config.graph, random.Random(3)))
    for seed in (0, 1, 2):
        states = simulation.run(replace(config, seed=seed)).states
        lines.append(f"{_sha(states.tobytes())}  states five_strategies weight table seed {seed}")
    ties = tie_heavy_config()
    for rule, scheme in (("equal weights", None), ("weight table", distinct_weights(ties.graph, random.Random(3)))):
        states = simulation.run(replace(ties, scheme=scheme)).states
        lines.append(f"{_sha(states.tobytes())}  states tie-heavy {rule}")
    return lines + config_lines()


# the exact decider reports, in this order of deciders
PAIR = ("is_r_robust", "is_rs_robust", "max_r_robustness")
COMPLEMENT = (
    "is_strongly_r_robust_bruteforce",
    "is_tlf_robust_bruteforce",
    "is_strongly_r_robust_peeling",
    "is_tlf_robust_peeling",
)


class Corpus:
    """Calls deciders and records each outcome under the decider's name."""

    def __init__(self):
        self.lines = defaultdict(list)

    def call(self, name: str, g: Digraph, *args, **kwargs) -> None:
        try:
            result = getattr(robustness, name)(g, *args, **kwargs)
            out = json.dumps(result if isinstance(result, int) else result.to_json(), sort_keys=True)
        except (ValueError, RuntimeError) as exc:
            out = f"{type(exc).__name__}: {exc}"
        self.lines[name].append(f"n={g.n} edges={sorted(g.edges)} args={args} {kwargs} -> {out}")

    def pairs(self, g: Digraph, rs, **kwargs) -> None:
        for r in rs:
            self.call("is_r_robust", g, r, **kwargs)
            for s in sorted({1, 2, 3, g.n} & set(range(1, g.n + 1))):
                self.call("is_rs_robust", g, r, s, **kwargs)

    def complement(self, g: Digraph, leaders, rs, fs, **kwargs) -> None:
        for r in rs:
            self.call("is_strongly_r_robust_bruteforce", g, leaders, r, **kwargs)
            self.call("is_strongly_r_robust_peeling", g, leaders, r)
        for f in fs:
            self.call("is_tlf_robust_bruteforce", g, leaders, f, **kwargs)
            self.call("is_tlf_robust_peeling", g, leaders, f)


def random_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    """A digraph on 1..n holding each edge (i, j), i != j, with probability
    ``p``: one draw from ``rng`` per pair, i then j ascending.  The tests draw
    their random digraphs here too."""
    edges = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j and rng.random() < p}
    return Digraph(n, frozenset(edges))


def _relabeled_circulant(rng: random.Random, n: int, k: int, extra_p: float) -> Digraph:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = {(perm[i - 1], perm[j - 1]) for i, j in make_k_circulant(n, k).edges}
    edges.update((i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if i != j and rng.random() < extra_p)
    return Digraph(n, frozenset(edges))


def _build(corpus: Corpus) -> None:
    rng = random.Random(2024)
    small = [random_digraph(rng, rng.randrange(2, 12), rng.choice((0.2, 0.35, 0.5, 0.7)))
             for _ in range(400)]
    small += [make_k_circulant(n, k) for n in range(2, 11) for k in range(1, n)]
    for g in small:
        corpus.pairs(g, range(0, 5))
        corpus.call("max_r_robustness", g)
        for size in (1, max(1, g.n // 3), g.n - 1):
            leaders = sorted(rng.sample(g.vertices, size))
            corpus.complement(g, leaders, range(0, g.n + 2), range(0, 4))
    # parameter errors
    g = small[0]
    corpus.pairs(g, (-1,))
    corpus.call("is_rs_robust", g, 1, 0)
    corpus.call("is_rs_robust", g, 1, g.n + 1)
    corpus.complement(g, [1], (-1,), (-1,))
    corpus.complement(g, [], (1,), (1,))
    corpus.complement(g, [g.n + 1], (1,), (1,))
    # enumeration caps: refused, raised, forced
    g = _relabeled_circulant(rng, 14, 5, 0.1)
    corpus.pairs(g, (3,))
    corpus.pairs(g, (3,), cap=14)
    corpus.pairs(g, (2, 3), cap=12, force=True)
    g = make_k_circulant(23, 6)
    corpus.complement(g, [1, 2], (3,), (1,))
    corpus.complement(g, [1, 2], (3,), (1,), cap=21)
    corpus.complement(g, [1, 2, 3], (3,), (1,), cap=19)
    # forced pair scans at n = 14..16
    for n, k in ((14, 6), (15, 5), (16, 6)):
        g = _relabeled_circulant(rng, n, k, 0.05)
        corpus.pairs(g, ((k + 1) // 2, k, k + 1), force=True)
        corpus.call("max_r_robustness", g, force=True)
    for n in (14, 15, 16):
        g = random_digraph(rng, n, 0.4)
        corpus.pairs(g, (1, 2, 3), force=True)
    # forced complement tables with 17..20 free vertices
    for n, k, free in ((21, 6, 17), (22, 7, 18), (23, 8, 19), (24, 8, 20)):
        g = _relabeled_circulant(rng, n, k, 0.05)
        for leaders in (sorted(rng.sample(g.vertices, n - free)), list(range(1, n - free + 1))):
            corpus.complement(g, leaders, (1, 3, 5, k + 1), (0, 1, 2), force=True)
        g = random_digraph(rng, n, 0.3)
        leaders = sorted(rng.sample(g.vertices, n - free))
        corpus.complement(g, leaders, range(1, 9), (0, 1, 2, 3), force=True)
    # forced pair calls at n = 14..18 with true verdicts, C_n(1..k) being
    # ceil(k/2)-robust (more edges keep it so), and (r, s) calls with s > 1
    for n, k in ((14, 6), (15, 7), (16, 8), (17, 8), (18, 8), (18, 10)):
        g = _relabeled_circulant(rng, n, k, 0.02)
        r = (k + 1) // 2
        corpus.call("is_r_robust", g, r, force=True)
        for r_s in ((r, 2), (r, 3), (r, r), (r + 1, 2), (r - 1, n // 2)):
            corpus.call("is_rs_robust", g, *r_s, force=True)
        corpus.call("max_r_robustness", g, force=True)
    for n in (17, 18):
        g = random_digraph(rng, n, 0.5)
        corpus.call("max_r_robustness", g, force=True)
        for r in (2, 3, 4):
            for s in (2, 3, n // 2):
                corpus.call("is_rs_robust", g, r, s, force=True)


def report_lines() -> list[str]:
    corpus = Corpus()
    _build(corpus)
    return [f"{_sha(chr(10).join(corpus.lines[name]).encode())}  {name} {len(corpus.lines[name])} calls"
            for name in PAIR + COMPLEMENT]


def _totalled(lines: list[str]) -> list[str]:
    return [*lines, f"{_sha(chr(10).join(lines).encode())}  total"]


def digest_lines(tmp_dir: Path) -> list[str]:
    """Every line the script prints: the bundle lines and their total, then
    the report lines and theirs."""
    return _totalled(bundle_lines(tmp_dir)) + _totalled(report_lines())


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digest_lines(Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
