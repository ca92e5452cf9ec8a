"""The four benchmark workloads: inputs from a seed, one op, its check.

Every input is built through the package's public generators
(``build_standard``, ``random_cubic``, ``random_normal_torus``,
``perturb``), so each op has ground truth known from the generator: an
inverse move raises the count by exactly one and keeps the homotopy class,
so normalizing a position perturbed ``k`` times takes ``k`` moves and lands
on the base's intersection vector and canonical code.

A workload is an object with

* ``setup(seed, scale, workdir)`` - builds the op inputs and the size
  ladder it drew; the only place the oracle runs outside the ops;
* ``op(item)`` - one unit of user work, the only code that is timed;
* ``check(item, result, exc)`` - ``(ok, correct, material)``: whether the
  op succeeded, whether its outputs were right where ground truth exists,
  and the bytes it contributes to the output digest.

Library calls go through the ``normaltori`` namespace at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import normaltori as N
from normaltori import cli, fixtures, serialize

# Scales: "full" is what the benchmark measures, "tiny" is for the smoke check.
FULL, TINY = "full", "tiny"


def _graph(kind: str, rank: int, rng: random.Random):
    if kind == "std":
        return N.build_standard(rank)
    return N.random_cubic(rank, rng.randrange(2**31))


def _pick_base(g, rng: random.Random, size: int):
    """A random normal torus whose circle count is within ~3 % of ``size``.

    The generator's piece budget usually, not always, turns into that many
    circles; holding the count steady keeps an op's cost comparable from
    one seed to the next.
    """
    slack = max(1, size // 32)
    best = None
    for _ in range(64):
        seed = rng.randrange(2**31)
        try:
            t = N.random_normal_torus(g, seed, size)
        except N.PositionError:
            continue
        gap = abs(len(t.circles) - size)
        if gap <= slack:
            return t
        if best is None or gap < best[0]:
            best = (gap, t)
    if best is None:
        raise N.PositionError(f"no normal torus of about {size} circles on this graph")
    return best[1]


def _perturb(t, rng: random.Random, k: int):
    """``k`` inverse moves from a seed drawn off ``rng``."""
    for _ in range(8):
        seed = rng.randrange(2**31)
        try:
            return N.perturb(t, seed, k)
        except N.PositionError:
            continue
    raise N.PositionError(f"no perturbation by {k} moves found")


def _code(t) -> str:
    return N.canonicalize(N.decorate(N.to_normal_torus(t)))


def _shuffled(rng: random.Random, items: list) -> list:
    """Inputs in a seeded order, so that a run ending mid-pass still ran a fair mix."""
    rng.shuffle(items)
    return items


def _text(lines) -> bytes:
    return ("\n".join(str(x) for x in lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# normalize-ladder


@dataclass
class LadderItem:
    messy: object
    k: int
    base_vector: dict
    base_code: str


class NormalizeLadder:
    name = "normalize-ladder"
    why = (
        "the paper's main path, normalize (checked) + decorate + canonicalize over 8-256 circles; "
        "bypasses confluence search, serialize and the CLI"
    )
    tail_pct = 90
    # (rank, base circles, inverse moves, inputs per graph kind): small k on
    # large bases is mostly normal, large k on small bases mostly messy.  The
    # large rungs have more inputs, so that the tail percentile falls inside
    # a group of like inputs rather than on one of them.
    RUNGS = {
        FULL: [
            (2, 8, 4, 1), (3, 16, 16, 1), (4, 16, 24, 1), (6, 48, 8, 1),
            (8, 96, 4, 2), (10, 160, 2, 2), (12, 256, 1, 3),
        ],
        TINY: [(2, 4, 2, 1)],
    }

    def setup(self, seed: int, scale: str, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        items, ladder = [], []
        for rank, size, k, copies in self.RUNGS[scale]:
            for kind in ("std", "rnd"):
                for _ in range(copies):
                    base = _pick_base(_graph(kind, rank, rng), rng, size)
                    messy = _perturb(base, rng, k)
                    items.append(LadderItem(messy, k, N.intersection_vector(base), _code(base)))
                    ladder.append({"rank": rank, "graph": kind, "base_circles": len(base.circles), "k": k})
        return _shuffled(rng, items), ladder

    def op(self, item: LadderItem):
        res = N.normalize(item.messy)
        return res, N.canonicalize(N.decorate(res.torus))

    def check(self, item: LadderItem, result, exc):
        if exc is not None:
            return False, False, _text(["raised", type(exc).__name__])
        res, code = result
        ok = (
            len(res.trace) == item.k
            and N.intersection_vector(res.position) == item.base_vector
            and code == item.base_code
        )
        return ok, ok, _text([code, len(res.trace)] + [rec.description for rec in res.trace])


# ---------------------------------------------------------------------------
# perturb-roundtrip


@dataclass
class Base:
    position: object
    vector: dict
    decorated: object
    solid: bool


@dataclass
class RoundtripItem:
    base: Base
    seed: int
    k: int


class PerturbRoundtrip:
    name = "perturb-roundtrip"
    why = (
        "the oracle's count-raising direction: perturb by 1-16 inverse moves, then normalize, decorate, equivalent; "
        "bypasses confluence search, serialize and the CLI"
    )
    tail_pct = 90
    BASES = {FULL: [(2, 8), (3, 16), (4, 24), (5, 32), (6, 48), (8, 64)], TINY: [(2, 4)]}
    KS = {FULL: (1, 3, 5, 7, 9, 11, 13, 16), TINY: (1, 2)}

    def setup(self, seed: int, scale: str, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        items, ladder = [], []
        for (rank, size), kind in ((base, kind) for base in self.BASES[scale] for kind in ("std", "rnd")):
            t = _pick_base(_graph(kind, rank, rng), rng, size)
            dec = N.decorate(N.to_normal_torus(t))
            base = Base(t, N.intersection_vector(t), dec, N.bounds_solid_torus(dec))
            for k in self.KS[scale]:
                items.append(RoundtripItem(base, rng.randrange(2**31), k))
            ladder.append({"rank": rank, "graph": kind, "base_circles": len(t.circles), "k": list(self.KS[scale])})
        return _shuffled(rng, items), ladder

    def op(self, item: RoundtripItem):
        messy = N.perturb(item.base.position, item.seed, item.k)
        res = N.normalize(messy)
        dec = N.decorate(res.torus)
        return messy, res, N.equivalent(dec, item.base.decorated), N.bounds_solid_torus(dec)

    def check(self, item: RoundtripItem, result, exc):
        if exc is not None:
            return False, False, _text(["raised", type(exc).__name__])
        messy, res, same, solid = result
        base = item.base
        ok = (
            len(messy.circles) == len(base.position.circles) + item.k
            and len(res.trace) == item.k
            and N.intersection_vector(res.position) == base.vector
            and same
            and solid == base.solid
        )
        counts = sorted(N.intersection_vector(messy).items())
        return ok, ok, _text([counts, same, solid] + [rec.description for rec in res.trace])


# ---------------------------------------------------------------------------
# confluence-exhaust


@dataclass
class ConfluenceItem:
    messy: object
    base_code: str


class ConfluenceExhaust:
    name = "confluence-exhaust"
    why = (
        "exhaustive confluence search on 5-8 circle positions, where the state key, find_moves and apply_move "
        "dominate; bypasses validate_position, serialize and the CLI"
    )
    tail_pct = 90
    DEPTH_BOUND = 12
    # (source, inverse moves, copies): fixtures t0/t2, or (rank, graph, circles)
    SPECS = {
        FULL: [
            ("t0", 3, 36), ("t0", 4, 24), ("t0", 5, 6),
            ("t2", 3, 36), ("t2", 4, 18),
            ((2, "std", 5), 2, 30), ((2, "std", 5), 3, 24),
            ((3, "rnd", 5), 2, 30), ((3, "rnd", 5), 3, 24),
            ((4, "std", 5), 2, 30), ((4, "std", 5), 3, 24),
        ],
        TINY: [("t0", 2, 1), ((2, "std", 3), 1, 1)],
    }

    def setup(self, seed: int, scale: str, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        items, ladder = [], []
        for source, k, copies in self.SPECS[scale]:
            for _ in range(copies):
                if source == "t0":
                    base = fixtures.make_t0()
                elif source == "t2":
                    base = fixtures.make_t2()
                else:
                    rank, kind, size = source
                    base = _pick_base(_graph(kind, rank, rng), rng, size)
                messy = _perturb(base, rng, k)
                items.append(ConfluenceItem(messy, _code(base)))
                name = source if isinstance(source, str) else f"rank{source[0]}-{source[1]}"
                ladder.append({"base": name, "base_circles": len(base.circles), "k": k})
        return _shuffled(rng, items), ladder

    def op(self, item: ConfluenceItem):
        return N.confluence_search(item.messy, self.DEPTH_BOUND)

    def check(self, item: ConfluenceItem, result, exc):
        if exc is not None:
            return False, False, _text(["raised", type(exc).__name__])
        ok = result.confluent and result.stuck == 0 and result.outcomes == [item.base_code]
        return ok, ok, _text([result.outcomes, result.stuck, result.explored])


# ---------------------------------------------------------------------------
# cli-files


COMMANDS = ("validate", "normalize", "decorate", "compare", "axis-word", "export-dot", "perturb")
MUTANT_COMMANDS = ("validate", "normalize", "decorate", "axis-word")
# cycled, not drawn, so every seed has the same mix of edits
MUTATIONS = ("truncate", "drop", "null", "string", "number", "list", "object")


@dataclass
class CliItem:
    command: str
    argv: list
    mutant: bool = False
    stdout: str | None = None
    output: Path | None = None
    expected_output: bytes | None = None
    check_stdout: object = None  # callable on stdout, for outputs known only in part


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class CliOutcomes:
    """Per-command counts of handled rejections and uncaught exceptions."""

    ops: dict = field(default_factory=lambda: {c: 0 for c in COMMANDS})
    rejected: dict = field(default_factory=lambda: {c: 0 for c in COMMANDS})
    uncaught: dict = field(default_factory=lambda: {c: 0 for c in COMMANDS})


def _mutate(text: str, rng: random.Random, action: str) -> str:
    """One structural edit of a valid JSON document at a random place."""
    if action == "truncate":
        return text[: rng.randrange(1, len(text))]
    obj = json.loads(text)
    paths = []

    def walk(node, path):
        if path:
            paths.append(path)
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], path + (key,))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, path + (i,))

    walk(obj, ())
    path = rng.choice(paths)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = {"null": None, "string": "zz", "number": 7, "list": [], "object": {}}[action]
    return serialize.dumps(obj)


class CliFiles:
    name = "cli-files"
    why = (
        "in-process cli.main on files of 16-128 circles, 2 in 9 of them seeded mutants; the only workload "
        "that loads/dumps JSON and hits the CLI error boundary"
    )
    tail_pct = 95
    BASES = {FULL: [(3, 16), (4, 32), (6, 64), (8, 128)] * 2, TINY: [(2, 4)]}
    K = {FULL: 4, TINY: 2}
    MUTANTS_PER_BASE = {FULL: 2, TINY: 4}

    def __init__(self):
        self.outcomes = CliOutcomes()

    def setup(self, seed: int, scale: str, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        items, ladder = [], []
        mutant_sources = []
        bases = [(rank, size, kind) for rank, size in self.BASES[scale] for kind in ("std", "rnd")]
        for i, (rank, size, kind) in enumerate(bases):
            base = _pick_base(_graph(kind, rank, rng), rng, size)
            k = self.K[scale]
            messy = _perturb(base, rng, k)
            f = {name: workdir / f"{name}{i}.json" for name in ("base", "messy", "nt")}
            base_text = serialize.dumps(serialize.position_to_json(base))
            f["base"].write_text(base_text, encoding="utf-8")
            f["messy"].write_text(serialize.dumps(serialize.position_to_json(messy)), encoding="utf-8")
            normal = N.normalize(messy).torus
            f["nt"].write_text(serialize.dumps(serialize.normal_torus_to_json(normal)), encoding="utf-8")
            mutant_sources.append(base_text)

            dec = N.decorate(N.to_normal_torus(base))
            pos, neg = N.sides(dec)
            word = N.format_word(N.axis_word(N.to_normal_torus(base), N.label_generators(base.graph)))
            out = workdir / f"out{i}"
            total = len(base.circles)

            def perturbed_total(stdout, want=total + 1):
                pairs = stdout.split()[1:]
                return stdout.startswith("counts: ") and sum(int(p.split(":")[1]) for p in pairs) == want

            items += [
                CliItem("validate", ["validate", str(f["messy"])], stdout="position OK\n"),
                CliItem(
                    "normalize",
                    ["normalize", str(f["messy"]), "-o", f"{out}.nt.json", "--trace", f"{out}.trace"],
                    stdout=f"normalized in {k} moves\n",
                    output=Path(f"{out}.nt.json"),
                    expected_output=f["nt"].read_bytes(),
                ),
                CliItem(
                    "decorate",
                    ["decorate", str(f["base"]), "-o", f"{out}.dec.json"],
                    stdout=f"leaves +{len(pos)} -{len(neg)}; bounds solid torus: {N.bounds_solid_torus(dec)}\n",
                    output=Path(f"{out}.dec.json"),
                    expected_output=serialize.dumps(serialize.decorated_to_json(dec)).encode("utf-8"),
                ),
                CliItem("compare", ["compare", str(f["base"]), str(f["nt"])], stdout="EQUIVALENT\n"),
                CliItem("axis-word", ["axis-word", str(f["base"])], stdout=word + "\n"),
                CliItem(
                    "export-dot",
                    ["export-dot", str(f["base"]), "-o", f"{out}.dot"],
                    output=Path(f"{out}.dot"),
                    # DOT edge order follows the loaded file, so render what the CLI loads
                    expected_output=serialize.position_to_dot(serialize.load_any(base_text)[1]).encode("utf-8"),
                ),
                CliItem(
                    "perturb",
                    ["perturb", str(f["base"]), "--seed", str(rng.randrange(2**31)), "--count", "1",
                     "-o", f"{out}.perturbed.json"],
                    check_stdout=perturbed_total,
                ),
            ]
            ladder.append({"rank": rank, "graph": kind, "base_circles": total, "k": k})

        for j in range(self.MUTANTS_PER_BASE[scale] * len(mutant_sources)):
            path = workdir / f"mutant{j}.json"
            action = MUTATIONS[j % len(MUTATIONS)]
            path.write_text(_mutate(mutant_sources[j % len(mutant_sources)], rng, action), encoding="utf-8")
            command = MUTANT_COMMANDS[j % len(MUTANT_COMMANDS)]
            argv = [command, str(path)]
            if command in ("normalize", "decorate"):
                argv += ["-o", str(workdir / f"mutant{j}.out.json")]
            if command == "normalize":
                argv += ["--trace", str(workdir / f"mutant{j}.trace")]
            items.append(CliItem(command, argv, mutant=True))
        return _shuffled(rng, items), ladder

    def op(self, item: CliItem) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(item.argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return CliResult(code, out.getvalue(), err.getvalue())

    def check(self, item: CliItem, result: CliResult | None, exc):
        o = self.outcomes
        o.ops[item.command] += 1
        if exc is not None:
            o.uncaught[item.command] += 1
            # an exception escaping cli.main is a failed op, not a wrong answer
            return False, True, _text([item.command, "uncaught", type(exc).__name__, exc])
        # stderr stays out of the digest: for a malformed region tree the
        # validator's list of problems follows set iteration order, which
        # changes from one process to the next
        material = [item.command, result.code, result.stdout]
        if result.code == 1:
            o.rejected[item.command] += 1
        if item.mutant:
            # a malformed file may be accepted or rejected, but a rejection names the problem
            ok = result.code in (0, 1, 3) and (result.code != 1 or bool(result.stderr.strip()))
            return ok, ok, _text(material)
        ok = result.code == 0
        if ok and item.stdout is not None:
            ok = result.stdout == item.stdout
        if ok and item.check_stdout is not None:
            ok = item.check_stdout(result.stdout)
        if item.output is not None:
            data = item.output.read_bytes() if item.output.exists() else b""
            item.output.unlink(missing_ok=True)  # the next pass must write it afresh
            material.append(data.decode("utf-8"))
            if ok and item.expected_output is not None:
                ok = data == item.expected_output
        return ok, ok, _text(material)


WORKLOADS = {w.name: w for w in (NormalizeLadder, PerturbRoundtrip, ConfluenceExhaust, CliFiles)}
