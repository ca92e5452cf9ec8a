"""Layer probes: the step checks along a chain, the full check, the canonical code, the confluence search, the loader, planted bugs and embeddability.

    python3 tools/probe.py {chain,check,code,confluence,load} [--repeat N] [--against PATH]
    python3 tools/probe.py {bugs,embed}

Run from the root of a checkout; the package is imported from ``src/``,
and then the call recorder (``recorded``) and the planted move bugs
(``PLANTS``) from ``tests/conftest.py``, which the tests import too.
A timed probe prints a row per input shape, with the best of ``--repeat``
runs of each timed call (by default chain 3, check 15, code 15,
confluence 3, load 20), then a counts line, taken in one more run of
each row, outside the timings, with a module function swapped for a
recording version.  The counts depend only on the code, so runs under
two hash seeds print the same counts line; the timings depend on the
machine.

``--against PATH`` also loads the ``src/normaltori`` of the checkout at
PATH, under another module name.  Each tree draws a row's inputs with its
own generator, at the same seeds, and the two trees' calls are timed in
turn, interleaved, run by run; each timed cell prints this tree's time,
the other's and their ratio (this over the other).  Timing two trees in
one process this way keeps the machine's speed swings out of the ratio.
The counts come from this tree only.  ``bugs`` and ``embed`` have no timed
cells and take neither option.
"""

import argparse
import contextlib
import importlib.util
import json
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from time import perf_counter

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / part) for part in ("src", "tests")]
from conftest import PLANTS, recorded, swapped  # noqa: E402  (imports normaltori from src/)

# chain: (size bound, k), bases of 4, 65, 256, 256, 256 and 1 024 circles
CHAIN_ROWS = ((16, 64), (64, 64), (256, 64), (256, 256), (256, 1024), (1024, 256))
# check and code: (rank, size bound, k), the normalize-ladder workload's rungs
CHECK_ROWS = ((2, 8, 4), (3, 16, 16), (4, 16, 24), (6, 48, 8), (8, 96, 4), (10, 160, 2), (12, 256, 1))
# confluence: (label, k, perturb seeds); the label's first word names the base
CONFLUENCE_ROWS = (
    ("t0", 3, range(8)), ("t0", 4, range(8)), ("t0", 5, range(8)), ("t2", 3, range(8)), ("t2", 4, range(8)),
    ("rank2-std", 2, range(8)), ("rank2-std", 3, range(8)), ("rank3-rnd", 2, range(8)), ("rank3-rnd", 3, range(8)),
    ("rank4-std", 2, range(8)), ("rank4-std", 3, range(8)), ("t2 reach", 9, range(3)))
BASES = {"t0": lambda tree: tree.fixtures.make_t0(), "t2": lambda tree: tree.fixtures.make_t2(),
         "rank2-std": lambda tree: _five_circles(tree, tree.graphs.build_standard(2)),
         "rank3-rnd": lambda tree: _five_circles(tree, tree.graphs.random_cubic(3, 1)),
         "rank4-std": lambda tree: _five_circles(tree, tree.graphs.build_standard(4))}
LOAD_ROWS = ((3, 16), (4, 32), (6, 64), (8, 128))  # load: (rank, size bound), as cli-files draws its bases
KINDS = {"position": lambda tree, t: tree.serialize.position_to_json(t),
         "normal_torus": lambda tree, t: tree.serialize.normal_torus_to_json(tree.normal_graph.to_normal_torus(t)),
         "decorated_graph": lambda tree, t: tree.serialize.decorated_to_json(
             tree.normal_graph.decorate(tree.normal_graph.to_normal_torus(t)))}
RANKS, SEEDS, BOUND, KS = (2, 3, 4, 6), range(10), 8, (4, 16, 48)  # bugs: the grid of round trips
# embed: the grid's ranks, bounds and seeds, and the bound ladder's
GRID_RANKS, GRID_BOUNDS, GRID_SEEDS = range(2, 7), (2, 4, 6), range(30)
LADDER_RANKS, LADDER_BOUNDS, LADDER_SEEDS = (3, 6, 12), (4, 8, 16, 32, 64, 128), range(20)


def _tree(package: str):
    """The package named ``package``, with each module that the probes call imported."""
    for part in ("fixtures", "graphs", "moves", "normal_graph", "oracle", "position", "serialize"):
        importlib.import_module(f"{package}.{part}")
    return sys.modules[package]


THIS = _tree("normaltori")


def _repeat(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _against(path: str):
    """The ``src/normaltori`` package of the checkout at ``path``, imported as ``normaltori_against``."""
    package = Path(path).resolve() / "src" / "normaltori"
    if not (package / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no package at {package}")
    spec = importlib.util.spec_from_file_location("normaltori_against", package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return _tree(spec.name)


def _best(calls, repeat: int, scale: float = 1000) -> list[float]:
    """The best of ``repeat`` runs of each call, in s times ``scale``; calls take turns, first one first, then last."""
    best = [float("inf")] * len(calls)
    for run in range(repeat):
        for i in range(len(calls)) if run % 2 == 0 else reversed(range(len(calls))):
            start = perf_counter()
            calls[i]()
            best[i] = min(best[i], perf_counter() - start)
    return [scale * b for b in best]


def _cell(times: list[float], width: int, digits: int) -> str:
    """This tree's time in ``width`` columns; with a second tree, also the other's time and the ratio of the two."""
    cell = f"{times[0]:>{width}.{digits}f}"
    if len(times) == 2:
        cell += f" {times[1]:>{width}.{digits}f} {times[0] / times[1]:>6.3f}"
    return cell


def _each(call, items) -> None:
    for item in items:
        call(item)


def chain(trees, repeat: int) -> None:
    """Per-move cost of ``perturb`` and ``normalize`` along one chain, as the torus grows.

    Each row draws ``random_normal_torus(build_standard(12), 1, bound)``,
    perturbs it by ``k`` inverse moves with seed 7 and normalizes the result;
    it prints the base's circles, ``k`` and each call's time in ms per move.
    Counted, per call: the step checks whose certificate
    (``position._certified``) proved the step, and those that fell back to
    the full walk.
    """
    print("base circles  k    perturb ms/move  normalize ms/move")
    counts = []
    for bound, k in CHAIN_ROWS:
        bases = [tree.oracle.random_normal_torus(tree.graphs.build_standard(12), 1, bound) for tree in trees]
        perturbs = [partial(tree.oracle.perturb, base, 7, k) for tree, base in zip(trees, bases)]
        normalizes = [partial(tree.moves.normalize, messy()) for tree, messy in zip(trees, perturbs)]
        circles = len(bases[0].circles)
        print(f"{circles:>12}  {k:<4} {_cell(_best(perturbs, repeat, 1000 / k), 15, 2)}"
              f"  {_cell(_best(normalizes, repeat, 1000 / k), 17, 2)}")
        for name, call in (("perturb", perturbs[0]), ("normalize", normalizes[0])):
            with recorded(THIS.position._certified, lambda args, bits: bits is not None) as certified:
                call()
            counts.append(f"{circles}/{k} {name} {certified.count(True)}/{certified.count(False)}")
    print("counts (certified/fell back): " + ", ".join(counts))


def check(trees, repeat: int) -> None:
    """Cost of the full check on inputs like the normalize-ladder bench workload's, and its wording on them.

    Each row takes a rung of the normalize-ladder workload (rank, size bound
    and k), draws ``random_normal_torus(build_standard(rank), 1, bound)`` and
    perturbs it by ``k`` inverse moves with seed 7; ``validate_position`` and
    ``position._checked`` are timed on the result, in ms.  Counted, in one
    ``_checked`` per row: the calls of ``_validate_side_anchors``, the one
    function that words a problem apart from its test (every other rule
    words its own); a valid input needs none.
    """
    print("rank  circles  k    validate_position ms        _checked ms")
    counts = []
    for rank, bound, k in CHECK_ROWS:
        bases = [tree.oracle.random_normal_torus(tree.graphs.build_standard(rank), 1, bound) for tree in trees]
        inputs = [tree.oracle.perturb(base, 7, k) for tree, base in zip(trees, bases)]
        validate = _best([partial(tree.position.validate_position, t) for tree, t in zip(trees, inputs)], repeat)
        checked = _best([partial(tree.position._checked, t) for tree, t in zip(trees, inputs)], repeat)
        t = inputs[0]
        print(f"{rank:>4}  {len(t.circles):>7}  {k:<3}  {_cell(validate, 8, 3):>24}  {_cell(checked, 8, 3):>24}")
        with recorded(THIS.position._validate_side_anchors) as wordings:
            THIS.position._checked(t)
        counts.append(f"{rank}/{len(t.circles)}/{k} {len(wordings)}")
    print("counts (wording calls per full check): " + ", ".join(counts))


def code(trees, repeat: int) -> None:
    """Cost of the last leg of the pipeline: the normal torus, its decoration and its canonical code.

    Each row takes the ``check`` probe's input (a normalize-ladder rung,
    perturbed by ``k`` inverse moves with seed 7) and normalizes it; on the
    normal position it times ``NormalTorus(position, index)``, with a fresh
    ``circle_slots()`` index, ``decorate`` on that torus and ``canonicalize``
    on the decorated graph, in ms.  Counted, per row: the axis nodes, the
    nodes and the leaves of the torus, and the calls of ``normal_graph._code``
    in one ``canonicalize``.
    """
    print("rank  circles  k     NormalTorus ms            decorate ms        canonicalize ms")
    counts = []
    for rank, bound, k in CHECK_ROWS:
        bases = [tree.oracle.random_normal_torus(tree.graphs.build_standard(rank), 1, bound) for tree in trees]
        normal = [tree.moves.normalize(tree.oracle.perturb(base, 7, k)).position for tree, base in zip(trees, bases)]
        indexes = [t.circle_slots() for t in normal]
        tori = [tree.normal_graph.NormalTorus(t, index) for tree, t, index in zip(trees, normal, indexes)]
        decorated = [tree.normal_graph.decorate(nt) for tree, nt in zip(trees, tori)]
        build = _best([partial(tree.normal_graph.NormalTorus, t, index)
                       for tree, t, index in zip(trees, normal, indexes)], repeat)
        signs = _best([partial(tree.normal_graph.decorate, nt) for tree, nt in zip(trees, tori)], repeat)
        spell = _best([partial(tree.normal_graph.canonicalize, d) for tree, d in zip(trees, decorated)], repeat)
        t, nt = normal[0], tori[0]
        print(f"{rank:>4}  {len(t.circles):>7}  {k:<3} {_cell(build, 8, 3):>22} {_cell(signs, 8, 3):>22}"
              f" {_cell(spell, 8, 3):>22}")
        with recorded(THIS.normal_graph._code) as walks:
            THIS.normal_graph.canonicalize(decorated[0])
        counts.append(f"{rank}/{len(t.circles)}/{k} {len(nt.axis[0])}/{len(nt.nodes)}/{len(nt.leaves)}/{len(walks)}")
    print("counts (axis nodes/nodes/leaves/_code calls per canonicalize): " + ", ".join(counts))


def _five_circles(tree, g):
    """The first of ``random_normal_torus(g, seed, 5)``, seed 0 up, with 5 circles."""
    return next(t for t in (tree.oracle.random_normal_torus(g, seed, 5) for seed in range(64)) if len(t.circles) == 5)


def confluence(trees, repeat: int) -> None:
    """Cost of the exhaustive confluence search and of its state key, per search shape.

    The rows follow the confluence-exhaust workload's shapes: the fixtures t0
    and t2, and 5-circle bases on ``build_standard(2)``, ``random_cubic(3, 1)``
    and ``build_standard(4)``, each perturbed by ``k`` inverse moves with seeds
    0 to 7; one reach row perturbs t2 by 9 moves, to 12 circles, the bound of
    acceptance criterion 3, with seeds 0 to 2.  A row prints its searches,
    the state keys computed (one per state popped, recorded at
    ``oracle._state_key``), the states explored, the share of popped states
    that were duplicates, and the time in ms per search and in us per key,
    the key timed alone on the row's popped states.
    """
    print("row           k  circles  searches   keys  explored  dup share  ms/search  us/key")
    counts = []
    for label, k, seeds in CONFLUENCE_ROWS:
        rows = []
        for tree in trees:
            inputs = [tree.oracle.perturb(BASES[label.split()[0]](tree), seed, k) for seed in seeds]
            with recorded(tree.oracle._state_key, lambda args, key: args[0]) as popped:
                explored = sum(tree.oracle.confluence_search(t).explored for t in inputs)
            rows.append((tree, inputs, popped, explored))
        searches = _best([partial(_each, tree.oracle.confluence_search, inputs) for tree, inputs, _, _ in rows],
                         repeat, 1e3 / len(seeds))
        keys = _best([partial(_each, tree.oracle._state_key, popped) for tree, _, popped, _ in rows], repeat, 1e6)
        per_key = [s / len(popped) for s, (_, _, popped, _) in zip(keys, rows)]
        _, inputs, popped, explored = rows[0]
        circles = max(len(t.circles) for t in inputs)
        print(f"{label:<12} {k:>2} {circles:>8} {len(inputs):>9} {len(popped):>6} {explored:>9}"
              f" {1 - explored / len(popped):>10.3f} {_cell(searches, 10, 2)} {_cell(per_key, 7, 1)}")
        counts.append(f"{label}/{k} {len(inputs)}/{len(popped)}/{explored}")
    print("counts (searches/keys/explored): " + ", ".join(counts))


def load(trees, repeat: int) -> None:
    """Cost of loading position, normal_torus and decorated_graph files, as the torus grows.

    Each row draws ``random_normal_torus(build_standard(rank), 3, bound)`` at
    the sizes of the cli-files bench workload's bases (ranks 3, 4, 6 and 8,
    bounds 16, 32, 64 and 128), writes it as each file kind and times three
    calls on that text, in ms: ``json.loads``, the typed reader of the file's
    position (``serialize._position`` on the parsed position object) and
    ``serialize.load_any``, which for a normal_torus or decorated_graph file
    also derives the torus and checks the written sections.  Both trees
    parse the same bytes with the same standard library, so ``json.loads``
    is timed for this tree only.  Counted, in one ``load_any`` per row: the
    calls of ``serialize._field``, which words a wrong or missing value; a
    valid file needs none.
    """
    parse_header = "json.loads ms" if len(trees) == 1 else "json.loads ms (this tree only)"
    print(f"kind             circles  {parse_header}  reader ms  load_any ms")
    counts = []
    for rank, bound in LOAD_ROWS:
        bases = [tree.oracle.random_normal_torus(tree.graphs.build_standard(rank), 3, bound) for tree in trees]
        circles = len(bases[0].circles)
        for kind, to_json in KINDS.items():
            texts = [tree.serialize.dumps(to_json(tree, t)) for tree, t in zip(trees, bases)]
            positions = [obj if kind == "position" else obj["position"] for obj in map(json.loads, texts)]
            parse = _best([partial(json.loads, texts[0])], repeat)
            read = _best([partial(tree.serialize._position, p, kind) for tree, p in zip(trees, positions)], repeat)
            loaded = _best([partial(tree.serialize.load_any, text) for tree, text in zip(trees, texts)], repeat)
            print(f"{kind:<16} {circles:>7}  {_cell(parse, len(parse_header), 3)}  {_cell(read, 9, 3)}  {_cell(loaded, 11, 3)}")
            with recorded(THIS.serialize._field) as fields:
                THIS.serialize.load_any(texts[0])
            counts.append(f"{kind}/{circles} {len(fields)}")
    print("counts (_field calls per load): " + ", ".join(counts))


def _cases():
    """(base, its canonical code, seed, k) of every case, drawn and coded unplanted."""
    for rank in RANKS:
        for seed in SEEDS:
            for g in (THIS.graphs.build_standard(rank), THIS.graphs.random_cubic(rank, seed)):
                base = THIS.oracle.random_normal_torus(g, seed, BOUND)
                torus = THIS.normal_graph.to_normal_torus(base)
                code = THIS.normal_graph.canonicalize(THIS.normal_graph.decorate(torus))
                for k in KS:
                    yield base, code, seed, k


def _outcome(base, code, seed: int, k: int) -> str:
    try:
        torus = THIS.moves.normalize(THIS.oracle.perturb(base, seed, k)).torus
    except THIS.position.PositionError:
        return "raised"
    return "same" if THIS.normal_graph.canonicalize(THIS.normal_graph.decorate(torus)) == code else "silent"


def bugs() -> int:
    """How the step checks meet two planted move bugs, over a fixed grid of round trips.

    Each case draws ``random_normal_torus(g, seed, 8)`` on ``build_standard(rank)``
    or ``random_cubic(rank, seed)``, for ranks 2, 3, 4 and 6 and seeds 0-9,
    perturbs it by ``k`` inverse moves (4, 16 and 48) with that seed, and
    normalizes the result: 240 cases.  A case either raises, or ends in a
    torus with the base's canonical code ("same"), or ends in another code
    with no error ("silent").  The grid runs once unplanted and once with each
    bug of ``PLANTS`` (``tests/conftest.py``, which
    ``tests/test_oracle.py::test_the_experiments_catch_planted_bugs`` plants
    too) swapped into ``moves``: a slide that gives its merged circle the
    inverted transport bit, and a cap that takes the disk's other side for its ball.
    One row per plant; the rows depend only on the code.  Exit status 1 when
    the unplanted row is not every case the same.
    """
    cases = list(_cases())
    rows = {}
    print(f"{'plant':<20} raised  same  silent  (of {len(cases)})")
    for plant in ("unplanted", *PLANTS):
        with swapped(*PLANTS[plant]) if plant in PLANTS else contextlib.nullcontext():
            outcomes = [_outcome(*case) for case in cases]
        rows[plant] = [outcomes.count(kind) for kind in ("raised", "same", "silent")]
        print(f"{plant:<20} {rows[plant][0]:>6} {rows[plant][1]:>5} {rows[plant][2]:>7}")
    return 0 if rows["unplanted"] == [0, len(cases), 0] else 1


def _embedded(t) -> bool:
    """Whether every pants of ``t`` holds one more complementary component than pieces."""
    pieces = Counter(piece.pants for piece in t.pieces.values())
    return all(THIS.position._pants_components(t, pants) == pieces[pants] + 1 for pants in t.graph.by_pants)


def embed() -> int:
    """How many drawn tori embed: each pants holds pieces + 1 complementary components (``position._pants_components``).

    The grid draws ``random_normal_torus(g, seed, bound)`` on ``build_standard(rank)``
    and ``random_cubic(rank, rank)``, for ranks 2-6, bounds 2, 4 and 6 and seeds
    0-29: 900 draws, of which it prints how many fail.  The bound ladder
    draws on ``build_standard(rank)`` and ``random_cubic(rank, seed)``, each at
    seeds 0-19, for ranks 3, 6 and 12 and bounds 4 to 128, and prints how
    many of each cell's 40 draws embed.  Both depend only on the code.
    """
    graphs = [g for rank in GRID_RANKS for g in (THIS.graphs.build_standard(rank), THIS.graphs.random_cubic(rank, rank))]
    draws = [THIS.oracle.random_normal_torus(g, seed, bound) for g in graphs for bound in GRID_BOUNDS for seed in GRID_SEEDS]
    print(f"failing draws on the grid: {sum(not _embedded(t) for t in draws)} of {len(draws)}")
    print(f"embedded draws of {2 * len(LADDER_SEEDS)} per cell")
    print("rank / bound" + "".join(f"{bound:>6}" for bound in LADDER_BOUNDS))
    for rank in LADDER_RANKS:
        standard = THIS.graphs.build_standard(rank)
        cells = [sum(_embedded(THIS.oracle.random_normal_torus(g, seed, bound))
                     for seed in LADDER_SEEDS for g in (standard, THIS.graphs.random_cubic(rank, seed)))
                 for bound in LADDER_BOUNDS]
        print(f"{rank:>12}" + "".join(f"{cell:>6}" for cell in cells))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    probes = parser.add_subparsers(dest="name", required=True, metavar="PROBE")
    for probe, repeat in ((chain, 3), (check, 15), (code, 15), (confluence, 3), (load, 20)):
        sub = probes.add_parser(probe.__name__, help=probe.__doc__.splitlines()[0])
        sub.add_argument("--repeat", type=_repeat, default=repeat, help="timed runs per call; the best is printed")
        sub.add_argument("--against", type=_against, metavar="PATH",
                         help="a second checkout, timed in turn with this one")
        sub.set_defaults(probe=probe)
    for probe in (bugs, embed):
        probes.add_parser(probe.__name__, help=probe.__doc__.splitlines()[0]).set_defaults(probe=probe)
    args = parser.parse_args(argv)
    if "repeat" not in vars(args):  # a probe with no timed cells
        return args.probe()
    trees = [THIS]
    if args.against:
        trees.append(args.against)
        print("each timed cell: this tree's time, the other's and their ratio (this over the other)")
    args.probe(trees, args.repeat)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
