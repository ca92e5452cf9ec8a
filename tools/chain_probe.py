"""Per-move cost of ``perturb`` and ``normalize`` along one chain, as the torus grows.

    python3 tools/chain_probe.py [--repeat N]

Run from the root of a checkout; the package is imported from ``src/``.
Each row draws ``random_normal_torus(build_standard(12), 1, bound)``,
perturbs it by ``k`` inverse moves with seed 7 and normalizes the result;
it prints the base's circles, ``k``, and the best of ``--repeat`` runs of
each call in milliseconds per move.  One more run of each row, outside the
timings, counts the step checks whose certificate (``position._certified``)
proved the step and those that fell back to the full walk.  The counts
line depends only on the code, so runs under two hash seeds print the
same one; the timings depend on the machine.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normaltori import position  # noqa: E402
from normaltori.graphs import build_standard  # noqa: E402
from normaltori.moves import normalize  # noqa: E402
from normaltori.oracle import perturb, random_normal_torus  # noqa: E402

ROWS = ((16, 64), (64, 64), (256, 64), (256, 256))  # (size bound, k): bases of 4, 65, 256 and 256 circles


def _repeat(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _best_ms(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        call()
        best = min(best, perf_counter() - start)
    return 1000 * best


def _counted(call) -> tuple[int, int]:
    """(certified, fell back) over the step checks of one ``call()``."""
    seen = [0, 0]
    real = position._certified

    def counting(*args):
        bits = real(*args)
        seen[bits is None] += 1
        return bits

    position._certified = counting
    try:
        call()
    finally:
        position._certified = real
    return seen[0], seen[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=_repeat, default=3, help="timed runs per call; the best is printed")
    args = parser.parse_args(argv)
    g = build_standard(12)
    print("base circles  k    perturb ms/move  normalize ms/move")
    counts = []
    for bound, k in ROWS:
        base = random_normal_torus(g, 1, bound)
        messy = perturb(base, 7, k)
        per_perturb = _best_ms(lambda: perturb(base, 7, k), args.repeat) / k
        per_normalize = _best_ms(lambda: normalize(messy), args.repeat) / k
        print(f"{len(base.circles):>12}  {k:<4} {per_perturb:>15.2f}  {per_normalize:>17.2f}")
        for name, call in (("perturb", lambda: perturb(base, 7, k)), ("normalize", lambda: normalize(messy))):
            counts.append(f"{len(base.circles)}/{k} {name} {'/'.join(map(str, _counted(call)))}")
    print("counts (certified/fell back): " + ", ".join(counts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
