"""Print the SHA-256 digests that pin rcl's observable output.

    python3 tools/bundle_digests.py

rcl is imported from ``src/`` beside this directory, so running the script in
two checkouts and comparing the last line tells whether a change kept every
output byte for byte.  One line per item, ``<sha256>  <label>``:

- every bundle file, the stdout (with any ``elapsed_ms`` removed) and the exit
  code of ``rcl scenario NAME`` for each built-in scenario;
- the same at ``--f 2`` (the fixed-F scenarios exit 2 there);
- the same for ``rcl run`` on ``five_strategies.json``, which has a constant,
  a sinusoid, a ramp, a scripted and a per-edge Byzantine adversary;
- the engine states of every scenario at seeds 0 and 7, and of that config
  under a table of distinct weights at seeds 0 to 2.

The last line, ``<sha256>  total``, digests all the lines before it.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rcl import cli, scenarios, simulation  # noqa: E402
from rcl.protocol import WeightScheme  # noqa: E402

CONFIG = HERE / "five_strategies.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def _cli_digests(label: str, argv: list[str], out_dir: Path) -> list[str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--out", str(out_dir)])
    text = stdout.getvalue()
    try:
        text = json.dumps(_strip_elapsed(json.loads(text)), indent=2)
    except json.JSONDecodeError:
        pass
    lines = [f"{_sha(text.encode())}  {label} stdout", f"{_sha(str(code).encode())}  {label} exit"]
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            lines.append(f"{_sha(path.read_bytes())}  {label} {path.name}")
    return lines


def _distinct_weights(config: simulation.SimConfig) -> WeightScheme:
    g, rng, table = config.graph, random.Random(3), {}
    for i in g.vertices:
        row = sorted(g.inclusive_neighbors(i))
        raw = rng.sample(range(1, 4 * len(row) + 1), len(row))
        for j, w in zip(row, raw):
            table[(i, j)] = w / sum(raw)
    return WeightScheme(min(table.values()), table)


def digest_lines(tmp_dir: Path) -> list[str]:
    lines = []
    for name in scenarios.SCENARIO_NAMES:
        lines += _cli_digests(f"scenario {name}", ["scenario", name], tmp_dir / name)
        lines += _cli_digests(f"scenario {name} --f 2", ["scenario", name, "--f", "2"],
                              tmp_dir / f"{name}-f2")
    lines += _cli_digests("run five_strategies", ["run", str(CONFIG)], tmp_dir / "run")
    for name in scenarios.SCENARIO_NAMES:
        scenario = scenarios.build_scenario(name)
        for seed in (0, 7):
            states = simulation.run(scenario.config(seed)).states
            lines.append(f"{_sha(states.tobytes())}  states {name} seed {seed}")
    config = simulation.config_from_dict(json.loads(CONFIG.read_text()))
    config = replace(config, scheme=_distinct_weights(config))
    for seed in (0, 1, 2):
        states = simulation.run(replace(config, seed=seed)).states
        lines.append(f"{_sha(states.tobytes())}  states five_strategies weight table seed {seed}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(Path(tmp))
    lines.append(f"{_sha(chr(10).join(lines).encode())}  total")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
