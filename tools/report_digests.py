"""Print the SHA-256 digests that pin rcl's exact decider reports.

    PYTHONPATH=src python3 tools/report_digests.py

rcl is imported from ``PYTHONPATH``, so running the script with it naming the
``src/`` of two checkouts and comparing the output tells whether a change kept
every verdict and witness.  One line per decider, ``<sha256>  <name> <calls>
calls``, digesting ``json.dumps(report.to_json())`` of each call, the integer
that ``max_r_robustness`` returns, or the exception type and message of a
call that raises.  The corpus is fixed (seeded generators only):

- 400 random digraphs with 2 <= n <= 11, and every C_n(1..k) with n <= 10,
  under every pair parameter and three leader sets each;
- enumeration cap cases (refused, raised cap, ``force=True``) and invalid
  parameters;
- forced pair calls at n = 14..16 and forced complement calls with 17..20
  free vertices, so the enumeration counter is split into low and high bits;
- forced pair calls at n = 14..18 with true verdicts (the worst case of the
  O(B^2) pair scan the subset DP replaced) and with s > 1.

The last line, ``<sha256>  total``, digests all the lines before it.
"""

import hashlib
import json
import random
import sys
from collections import defaultdict

from rcl import robustness
from rcl.graph import Digraph, make_k_circulant

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


def _random_digraph(rng: random.Random, n: int, p: float) -> Digraph:
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


def build(corpus: Corpus) -> None:
    rng = random.Random(2024)
    small = [_random_digraph(rng, rng.randrange(2, 12), rng.choice((0.2, 0.35, 0.5, 0.7)))
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
        g = _random_digraph(rng, n, 0.4)
        corpus.pairs(g, (1, 2, 3), force=True)
    # forced complement tables with 17..20 free vertices
    for n, k, free in ((21, 6, 17), (22, 7, 18), (23, 8, 19), (24, 8, 20)):
        g = _relabeled_circulant(rng, n, k, 0.05)
        for leaders in (sorted(rng.sample(g.vertices, n - free)), list(range(1, n - free + 1))):
            corpus.complement(g, leaders, (1, 3, 5, k + 1), (0, 1, 2), force=True)
        g = _random_digraph(rng, n, 0.3)
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
        g = _random_digraph(rng, n, 0.5)
        corpus.call("max_r_robustness", g, force=True)
        for r in (2, 3, 4):
            for s in (2, 3, n // 2):
                corpus.call("is_rs_robust", g, r, s, force=True)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    corpus = Corpus()
    build(corpus)
    lines = [f"{_sha(chr(10).join(corpus.lines[name]).encode())}  {name} {len(corpus.lines[name])} calls"
             for name in PAIR + COMPLEMENT]
    lines.append(f"{_sha(chr(10).join(lines).encode())}  total")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
