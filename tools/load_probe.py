"""Cost of loading position, normal_torus and decorated_graph files, as the torus grows.

    python3 tools/load_probe.py [--repeat N]

Run from the root of a checkout; the package is imported from ``src/``.
Each row draws ``random_normal_torus(build_standard(rank), 3, bound)`` at
the sizes of the cli-files bench workload's bases (ranks 3, 4, 6 and 8,
bounds 16, 32, 64 and 128), writes it as each file kind and prints the
best of ``--repeat`` runs, in milliseconds, of three calls on that text:
``json.loads``, the typed reader of the file's position
(``serialize._position`` on the parsed position object) and the whole
``serialize.load_any``, which for a normal_torus or decorated_graph file
also derives the torus and checks the written sections.  One more
``load_any`` of each row, outside the timings, counts the calls of
``serialize._field``, the function that words a wrong or missing value;
a valid file needs none.  The counts line depends only on the code, so
runs under two hash seeds print the same one; the timings depend on the
machine.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normaltori import serialize  # noqa: E402
from normaltori.graphs import build_standard  # noqa: E402
from normaltori.normal_graph import decorate, to_normal_torus  # noqa: E402
from normaltori.oracle import random_normal_torus  # noqa: E402

ROWS = ((3, 16), (4, 32), (6, 64), (8, 128))  # (rank, size bound), as cli-files draws its bases
KINDS = {
    "position": serialize.position_to_json,
    "normal_torus": lambda t: serialize.normal_torus_to_json(to_normal_torus(t)),
    "decorated_graph": lambda t: serialize.decorated_to_json(decorate(to_normal_torus(t))),
}


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


def _field_calls(call) -> int:
    """The ``serialize._field`` calls of one ``call()``."""
    seen = [0]
    real = serialize._field

    def counting(*args):
        seen[0] += 1
        return real(*args)

    serialize._field = counting
    try:
        call()
    finally:
        serialize._field = real
    return seen[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=_repeat, default=20, help="timed runs per call; the best is printed")
    args = parser.parse_args(argv)
    print("kind             circles  json.loads ms  reader ms  load_any ms")
    counts = []
    for rank, bound in ROWS:
        t = random_normal_torus(build_standard(rank), 3, bound)
        for kind, to_json in KINDS.items():
            text = serialize.dumps(to_json(t))
            obj = json.loads(text)
            position = obj if kind == "position" else obj["position"]
            parse = _best_ms(lambda: json.loads(text), args.repeat)
            read = _best_ms(lambda: serialize._position(position, kind), args.repeat)
            load = _best_ms(lambda: serialize.load_any(text), args.repeat)
            print(f"{kind:<16} {len(t.circles):>7}  {parse:>13.3f}  {read:>9.3f}  {load:>11.3f}")
            counts.append(f"{kind}/{len(t.circles)} {_field_calls(lambda: serialize.load_any(text))}")
    print("counts (_field calls per load): " + ", ".join(counts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
