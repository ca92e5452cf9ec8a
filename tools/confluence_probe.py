"""Cost of the exhaustive confluence search and of its state key, per search shape.

    python3 tools/confluence_probe.py [--repeat N]

Run from the root of a checkout; the package is imported from ``src/``.
The rows follow the confluence-exhaust workload's shapes: the fixtures t0
and t2, and 5-circle bases on ``build_standard(2)``, ``random_cubic(3, 1)``
and ``build_standard(4)``, each perturbed by ``k`` inverse moves with seeds
0 to 7; one reach row perturbs t2 by 9 moves, to 12 circles, the bound of
acceptance criterion 3, with seeds 0 to 2.  Each row prints its number of
searches, the state keys computed (one per state popped, counted by
wrapping ``oracle._state_key``), the states explored, the share of popped
states that were duplicates, and the best of ``--repeat`` runs in
milliseconds per search and in microseconds per key, the key timed alone
on the row's popped states.  The counts line depends only on the code, so
runs under two hash seeds print the same one; the timings depend on the
machine.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normaltori import oracle  # noqa: E402
from normaltori.fixtures import make_t0, make_t2  # noqa: E402
from normaltori.graphs import build_standard, random_cubic  # noqa: E402
from normaltori.oracle import confluence_search, perturb, random_normal_torus  # noqa: E402


def _five_circles(g):
    """The first of ``random_normal_torus(g, seed, 5)``, seed 0 up, with 5 circles."""
    return next(t for t in (random_normal_torus(g, seed, 5) for seed in range(64)) if len(t.circles) == 5)


# (label, base maker, k, perturb seeds)
ROWS = (
    ("t0", make_t0, 3, range(8)), ("t0", make_t0, 4, range(8)), ("t0", make_t0, 5, range(8)),
    ("t2", make_t2, 3, range(8)), ("t2", make_t2, 4, range(8)),
    ("rank2-std", lambda: _five_circles(build_standard(2)), 2, range(8)),
    ("rank2-std", lambda: _five_circles(build_standard(2)), 3, range(8)),
    ("rank3-rnd", lambda: _five_circles(random_cubic(3, 1)), 2, range(8)),
    ("rank3-rnd", lambda: _five_circles(random_cubic(3, 1)), 3, range(8)),
    ("rank4-std", lambda: _five_circles(build_standard(4)), 2, range(8)),
    ("rank4-std", lambda: _five_circles(build_standard(4)), 3, range(8)),
    ("t2 reach", make_t2, 9, range(3)),
)


def _repeat(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _best_s(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        call()
        best = min(best, perf_counter() - start)
    return best


def _popped(inputs) -> tuple[list, int]:
    """(every state whose key the searches of ``inputs`` computed, states they explored)."""
    popped = []
    real = oracle._state_key

    def counting(t):
        popped.append(t)
        return real(t)

    oracle._state_key = counting
    try:
        explored = sum(confluence_search(t).explored for t in inputs)
    finally:
        oracle._state_key = real
    return popped, explored


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=_repeat, default=3, help="timed runs per row; the best is printed")
    args = parser.parse_args(argv)
    print("row           k  circles  searches   keys  explored  dup share  ms/search  us/key")
    counts = []
    for label, make, k, seeds in ROWS:
        base = make()
        inputs = [perturb(base, seed, k) for seed in seeds]
        popped, explored = _popped(inputs)
        per_search = _best_s(lambda: [confluence_search(t) for t in inputs], args.repeat) / len(inputs)
        per_key = _best_s(lambda: [oracle._state_key(t) for t in popped], args.repeat) / len(popped)
        share = 1 - explored / len(popped)
        circles = max(len(t.circles) for t in inputs)
        print(f"{label:<12} {k:>2} {circles:>8} {len(inputs):>9} {len(popped):>6} {explored:>9} {share:>10.3f}"
              f" {1e3 * per_search:>10.2f} {1e6 * per_key:>7.1f}")
        counts.append(f"{label}/{k} {len(inputs)}/{len(popped)}/{explored}")
    print("counts (searches/keys/explored): " + ", ".join(counts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
