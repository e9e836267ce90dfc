"""Print the SHA-256 digests that pin rcl's observable output.

    python3 tools/bundle_digests.py

rcl is imported from ``src/`` beside this directory, so running the script in
two checkouts and comparing the last line tells whether a change kept every
output byte for byte.  One line per item, ``<sha256>  <label>``:

- every bundle file, the stdout (with any ``elapsed_ms`` removed) and the exit
  code of ``rcl scenario NAME`` for each built-in scenario;
- the same at ``--f 2`` (the fixed-F scenarios exit 2 there), and for the
  two counterexample scenarios also at ``--f 3`` and ``--f 4``;
- the same for ``rcl run`` on ``five_strategies.json``, which has a constant,
  a sinusoid, a ramp, a scripted and a per-edge Byzantine adversary;
- the stdout (with ``elapsed_ms`` removed) and exit code of ``rcl check`` for
  every property flag, true and false verdicts, both ``--method`` values,
  graph files in both formats and the usage errors that exit 2;
- the bytes of every file ``rcl gen-graph`` writes in ``edgelist`` and
  ``json`` format;
- the engine states of every scenario at seeds 0 and 7, and of that config
  under a table of distinct weights at seeds 0 to 2;
- the engine states of a tie-heavy config (``tie_heavy_config``) under the
  equal rule and under a table of distinct weights.

The last line, ``<sha256>  total``, digests all the lines before it.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rcl import cli, scenarios, simulation  # noqa: E402
from rcl.graph import make_k_circulant  # noqa: E402
from rcl.protocol import (  # noqa: E402
    Adversary, ByzantinePerEdge, ConstantHold, Leader, ReferenceSignal, Scripted, WeightScheme,
)

CONFIG = HERE / "five_strategies.json"


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


def distinct_weights(config: simulation.SimConfig) -> WeightScheme:
    """A table of distinct weights over every inclusive neighbourhood."""
    g, rng, table = config.graph, random.Random(3), {}
    for i in g.vertices:
        row = sorted(g.inclusive_neighbors(i))
        raw = rng.sample(range(1, 4 * len(row) + 1), len(row))
        for j, w in zip(row, raw):
            table[(i, j)] = w / sum(raw)
    return WeightScheme(min(table.values()), table)


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


def digest_lines(tmp_dir: Path) -> list[str]:
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
            argv = ["gen-graph", *source, "--format", fmt, "-o", str(out_dir / f"{name}.{fmt}")]
            lines += _cli_digests(f"gen-graph {name} {fmt}", argv, out_dir)
    for argv in _check_argvs(str(graphs / "c10-edgelist" / "c10.edgelist"), str(graphs / "c10-json" / "c10.json")):
        label = " ".join(argv).replace(str(graphs) + "/", "")
        lines += _cli_digests(f"check {label}", ["check", *argv])
    for name in scenarios.SCENARIO_NAMES:
        scenario = scenarios.build_scenario(name)
        for seed in (0, 7):
            states = simulation.run(scenario.config(seed)).states
            lines.append(f"{_sha(states.tobytes())}  states {name} seed {seed}")
    config = simulation.config_from_dict(json.loads(CONFIG.read_text()))
    config = replace(config, scheme=distinct_weights(config))
    for seed in (0, 1, 2):
        states = simulation.run(replace(config, seed=seed)).states
        lines.append(f"{_sha(states.tobytes())}  states five_strategies weight table seed {seed}")
    ties = tie_heavy_config()
    for rule, scheme in (("equal weights", None), ("weight table", distinct_weights(ties))):
        states = simulation.run(replace(ties, scheme=scheme)).states
        lines.append(f"{_sha(states.tobytes())}  states tie-heavy {rule}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(Path(tmp))
    lines.append(f"{_sha(chr(10).join(lines).encode())}  total")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
