"""Command-line interface.

Exit codes: 0 success, 1 validation or diagnostic failure, 2 usage error,
3 when ``compare`` finds the inputs inequivalent.  Output files are only
written after their content validated; identical inputs and seeds produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import serialize
from .graphs import GraphError, build_standard, label_generators, random_cubic, validate_graph
from .moves import normalize
from .normal_graph import (
    axis_word,
    bounds_solid_torus,
    decorate,
    equivalent,
    format_word,
    sides,
    to_normal_torus,
)
from .oracle import confluence_search, minimality_experiment, perturb, random_normal_torus, roundtrip_report
from .position import PositionError, _checked, intersection_vector, validate_position
from .serialize import SchemaError

EXIT_OK = 0
EXIT_DIAGNOSTIC = 1
EXIT_USAGE = 2
EXIT_DISTINCT = 3


def _read(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    return serialize.load_any(text)


def _write_file(path: str, text: str) -> None:
    """Every file the CLI writes goes through here, so a failed write is an error line."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def _emit(path: str | None, text: str) -> None:
    """``text`` to the file at ``path``, or to standard output without one or for ``-``."""
    if not path or path == "-":
        sys.stdout.write(text)
    else:
        _write_file(path, text)


def _write(path: str | None, payload: dict) -> None:
    _emit(path, serialize.dumps(payload))


def _want_position(kind, value, what="this command"):
    if kind != "position":
        raise SchemaError(f"{what} needs a position file, got {kind}")
    return value


def non_negative_int(text: str) -> int:
    """An int of at least 0, as an argparse ``type``."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _normal_torus(kind, value, what):
    """The checked normal torus of a position, normal_torus or decorated_graph file.

    A position must validate and be normal (``to_normal_torus``); the other
    two kinds were derived from their own position when they were loaded.
    """
    if kind == "position":
        return to_normal_torus(value)
    if kind == "normal_torus":
        return value
    if kind == "decorated_graph":
        return value.torus
    raise SchemaError(f"{what} needs a position, normal torus or decorated graph, got {kind}")


def _as_decorated(kind, value):
    """Positions and normal tori are decorated on the fly for comparison."""
    if kind == "decorated_graph":
        return value
    return decorate(_normal_torus(kind, value, "compare"))


def cmd_graph(args) -> int:
    if args.random_seed is not None:
        g = random_cubic(args.rank, args.random_seed)
    else:
        g = build_standard(args.rank)
    _write(args.output, serialize.graph_to_json(g))
    return EXIT_OK


def cmd_validate(args) -> int:
    kind, value = _read(args.input)
    if kind == "sphere_graph":
        problems = validate_graph(value)
    elif kind == "position":
        problems = validate_position(value)
    else:
        problems = []
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_DIAGNOSTIC
    print(f"{kind} OK")
    return EXIT_OK


def cmd_normalize(args) -> int:
    t = _want_position(*_read(args.input), "normalize")
    result = normalize(t)
    lines = []
    for record in result.trace:
        before = " ".join(f"{s}:{n}" for s, n in sorted(record.counts_before.items()))
        after = " ".join(f"{s}:{n}" for s, n in sorted(record.counts_after.items()))
        lines.append(f"{record.description} | before {before} | after {after}")
    trace_text = "\n".join(lines) + ("\n" if lines else "")
    if args.trace:  # before the output, so a failed trace write leaves no output file
        _write_file(args.trace, trace_text)
    _write(args.output, serialize.normal_torus_to_json(result.torus))
    if not args.trace:
        sys.stderr.write(trace_text)
    print(f"normalized in {len(result.trace)} moves")
    return EXIT_OK


def cmd_decorate(args) -> int:
    nt = _normal_torus(*_read(args.input), "decorate")
    d = decorate(nt, args.base_piece, args.base_side)
    _write(args.output, serialize.decorated_to_json(d))
    pos, neg = sides(d)
    print(f"leaves +{len(pos)} -{len(neg)}; bounds solid torus: {bounds_solid_torus(d)}")
    return EXIT_OK


def cmd_compare(args) -> int:
    d1 = _as_decorated(*_read(args.first))
    d2 = _as_decorated(*_read(args.second))
    if equivalent(d1, d2):
        print("EQUIVALENT")
        return EXIT_OK
    print("DISTINCT")
    return EXIT_DISTINCT


def cmd_axis_word(args) -> int:
    nt = _normal_torus(*_read(args.input), "axis-word")
    word = axis_word(nt, label_generators(nt.graph))
    print(format_word(word))
    return EXIT_OK


def cmd_fuzz(args) -> int:
    graphs = []
    for rank in args.rank:
        graphs.append(build_standard(rank))
        graphs.append(random_cubic(rank, args.seed + rank))
    failures = 0
    trials = 0
    reports = []
    batch = 0
    while trials < args.trials:
        g = graphs[batch % len(graphs)]
        base = random_normal_torus(g, args.seed + batch, 4)
        size = min(10, args.trials - trials)
        rep = roundtrip_report(base, size, args.depth, seed=args.seed + 1_000 * batch)
        reports.append(rep.to_json())
        failures += len(rep.failures)
        trials += rep.trials
        batch += 1
    payload = {
        "format": 1,
        "kind": "fuzz_summary",
        "seed": args.seed,
        "trials": trials,
        "failures": failures,
        "reports": reports,
    }
    if args.output:
        _write(args.output, payload)
    print(f"fuzz: {trials} trials, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_DIAGNOSTIC


def cmd_confluence(args) -> int:
    result = confluence_search(_want_position(*_read(args.input), "confluence"), args.depth)
    print(
        f"confluent: {result.confluent}; outcomes: {len(result.outcomes)}; "
        f"stuck: {result.stuck}; states explored: {result.explored}"
    )
    return EXIT_OK if result.confluent else EXIT_DIAGNOSTIC


def cmd_minimality(args) -> int:
    t = _want_position(*_read(args.input), "minimality")
    report = minimality_experiment(t, args.trials, args.depth, seed=args.seed)
    if args.output:
        _write(args.output, report.to_json())
    print(f"minimality: {report.trials} trials, {len(report.failures)} failures")
    return EXIT_OK if report.passed() else EXIT_DIAGNOSTIC


def cmd_perturb(args) -> int:
    t = _want_position(*_read(args.input), "perturb")
    _checked(t)  # its problems unprefixed, as ``validate`` words them
    out = perturb(t, args.seed, args.count)
    _write(args.output, serialize.position_to_json(out))
    print("counts: " + " ".join(f"{s}:{n}" for s, n in sorted(intersection_vector(out).items())))
    return EXIT_OK


def cmd_export_dot(args) -> int:
    kind, value = _read(args.input)
    if kind == "sphere_graph":
        problems = validate_graph(value)
        if problems:
            raise GraphError("; ".join(problems))
        dot = serialize.graph_to_dot(value)
    elif kind == "position":
        _checked(value)
        dot = serialize.position_to_dot(value)
    elif kind == "normal_torus":
        dot = serialize.normal_torus_to_dot(value)
    else:  # decorated_graph, the last kind load_any returns
        dot = serialize.normal_torus_to_dot(value.torus, value.signs)
    _emit(args.output, dot)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` leaves it unchanged, so calls share it."""
    parser = argparse.ArgumentParser(
        prog="normaltori",
        description="Normal forms and decorated-graph invariants of essential tori "
        "relative to a maximal sphere system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="emit a sphere-system dual graph")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--random-seed", type=int, default=None, help="sample a random cubic graph")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("validate", help="check a graph or position file")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("normalize", help="drive a position to normal form")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--trace", default=None, help="write the move trace to a file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("decorate", help="sign the leaves of a normal torus")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--base-piece", default=None)
    p.add_argument("--base-side", choices=["A", "B"], default="A")
    p.set_defaults(func=cmd_decorate)

    p = sub.add_parser("compare", help="decide normal-homotopy equivalence")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("axis-word", help="cyclic free-group word of the axis")
    p.add_argument("input")
    p.set_defaults(func=cmd_axis_word)

    p = sub.add_parser("perturb", help="apply inverse moves to a position")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=non_negative_int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("fuzz", help="randomized perturb/normalize round trips")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=non_negative_int, default=100)
    p.add_argument("--depth", type=non_negative_int, default=5, help="max inverse moves per trial")
    p.add_argument("--rank", type=int, nargs="+", default=[2, 3])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("confluence", help="exhaust all move orders of a position")
    p.add_argument("input")
    p.add_argument("--depth", type=non_negative_int, default=12)
    p.set_defaults(func=cmd_confluence)

    p = sub.add_parser("minimality", help="perturbation cannot beat the normal counts")
    p.add_argument("input")
    p.add_argument("--trials", type=non_negative_int, default=100)
    p.add_argument("--depth", type=non_negative_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_minimality)

    p = sub.add_parser("export-dot", help="GraphViz rendering of any file kind")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, GraphError, PositionError) as exc:  # MoveError, NormalizeError and KleinBottleError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC


if __name__ == "__main__":
    sys.exit(main())
