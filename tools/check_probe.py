"""Cost of the full check on inputs like the normalize-ladder bench workload's, and its wording on them.

    python3 tools/check_probe.py [--repeat N] [--against PATH]

Run from the root of a checkout; the package is imported from ``src/``.
Each row takes a rung of the normalize-ladder workload (rank, size bound
and k), draws ``random_normal_torus(build_standard(rank), 1, bound)``,
perturbs it by ``k`` inverse moves with seed 7 and prints the best of
``--repeat`` runs, in milliseconds, of ``validate_position`` and of
``position._checked`` on the result.  One more check of each row, outside
the timings, counts the calls of the four functions that word a problem
(``_piece_problems``, ``_circle_problems``, ``_validate_trees`` and
``_validate_side_anchors``); a valid input needs none.  The counts line
depends only on the code, so runs under two hash seeds print the same
one; the timings depend on the machine.

``--against PATH`` loads the ``src/normaltori`` of a second checkout at
PATH under another module name.  Each tree draws the row's input with its
own generator, at the same seeds, and the two trees' calls are timed in
turn, interleaved, run by run; each cell then prints this tree's time,
the other's and their ratio (this over the other).  Comparing two trees
in one process this way keeps the machine's speed swings out of the
ratio.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normaltori import position  # noqa: E402
from normaltori.graphs import build_standard  # noqa: E402
from normaltori.oracle import perturb, random_normal_torus  # noqa: E402

RUNGS = ((2, 8, 4), (3, 16, 16), (4, 16, 24), (6, 48, 8), (8, 96, 4), (10, 160, 2), (12, 256, 1))  # (rank, bound, k)
WORDING = ("_piece_problems", "_circle_problems", "_validate_trees", "_validate_side_anchors")


def _repeat(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _against(path: str):
    """The ``position`` module and the two generators of the checkout at ``path``, imported as ``normaltori_against``."""
    package = Path(path).resolve() / "src" / "normaltori"
    if not (package / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no package at {package}")
    name = "normaltori_against"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    graphs, oracle = (importlib.import_module(f"{name}.{part}") for part in ("graphs", "oracle"))
    return importlib.import_module(f"{name}.position"), graphs.build_standard, oracle.random_normal_torus, oracle.perturb


def _best_ms(calls, repeat: int) -> list[float]:
    """The best of ``repeat`` runs of each call, in ms, the calls taking turns within each run, first one first, then last."""
    best = [float("inf")] * len(calls)
    for run in range(repeat):
        for i in range(len(calls)) if run % 2 == 0 else reversed(range(len(calls))):
            start = perf_counter()
            calls[i]()
            best[i] = min(best[i], perf_counter() - start)
    return [1000 * b for b in best]


def _wording_calls(call) -> int:
    """The calls of the wording functions in ``position`` during one ``call()``."""
    seen = [0]
    real = {name: getattr(position, name) for name in WORDING}

    def counting(wording):
        def counted(*args):
            seen[0] += 1
            return wording(*args)
        return counted

    for name, wording in real.items():
        setattr(position, name, counting(wording))
    try:
        call()
    finally:
        for name, wording in real.items():
            setattr(position, name, wording)
    return seen[0]


def _cell(times: list[float]) -> str:
    if len(times) == 1:
        return f"{times[0]:>8.3f}"
    return f"{times[0]:>8.3f} {times[1]:>8.3f} {times[0] / times[1]:>6.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=_repeat, default=15, help="timed runs per call; the best is printed")
    parser.add_argument("--against", type=_against, metavar="PATH",
                        help="a second checkout, timed in turn with this one")
    args = parser.parse_args(argv)
    trees = [(position, build_standard, random_normal_torus, perturb)]
    if args.against:
        trees.append(args.against)
        print("each cell: this tree's ms, the other's and their ratio")
    print("rank  circles  k    validate_position ms        _checked ms")
    counts = []
    for rank, bound, k in RUNGS:
        inputs = [(check, perturb_k(draw(graph(rank), 1, bound), 7, k)) for check, graph, draw, perturb_k in trees]
        validate = _best_ms([lambda check=check, t=t: check.validate_position(t) for check, t in inputs], args.repeat)
        checked = _best_ms([lambda check=check, t=t: check._checked(t) for check, t in inputs], args.repeat)
        t = inputs[0][1]
        print(f"{rank:>4}  {len(t.circles):>7}  {k:<3}  {_cell(validate):>24}  {_cell(checked):>24}")
        counts.append(f"{rank}/{len(t.circles)}/{k} {_wording_calls(lambda: position._checked(t))}")
    print("counts (wording calls per full check): " + ", ".join(counts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
