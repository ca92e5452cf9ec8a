"""Seeded mutation fuzz of every file kind through ``cli.main``.

Each mutant is a valid sphere_graph, position, normal_torus or
decorated_graph file of t0-t2 with one edit: a junk value, a deleted key, a
suffixed id, or a subtree spliced in from elsewhere in the same file.
Whatever the edit, the CLI must answer with an exit code, never a
traceback, and a rejection must say why and write nothing.
"""

from __future__ import annotations

import copy
import json
import random
from collections import Counter

from normaltori.cli import main
from normaltori.fixtures import make_t0, make_t1, make_t2
from normaltori.moves import normalize
from normaltori.normal_graph import decorate
from normaltori.serialize import (
    decorated_to_json,
    dumps,
    graph_to_json,
    normal_torus_to_json,
    position_to_json,
)

COMMANDS = ("validate", "normalize", "decorate", "compare", "axis-word", "export-dot", "perturb")
OPERATORS = ("junk", "delete", "suffix", "splice")
JUNK = (None, "zz", "", 7, -1, 1.5, True, False, [], {}, [1, 2], {"a": 1})
MUTANTS = 600


def _sources() -> list[dict]:
    sources = []
    for maker in (make_t0, make_t1, make_t2):
        t = maker()
        nt = normalize(t).torus
        sources += [
            graph_to_json(t.graph),
            position_to_json(t),
            normal_torus_to_json(nt),
            decorated_to_json(decorate(nt, max(nt.nodes), "B")),
        ]
    return sources


def _paths(node, path=()):
    """Every key or index path into a JSON value, parents before children."""
    if path:
        yield path
    if isinstance(node, dict):
        items = sorted(node.items())
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutate(source: dict, rng: random.Random, operator: str) -> dict:
    obj = copy.deepcopy(source)
    paths = list(_paths(obj))
    if operator == "suffix":
        paths = [p for p in paths if isinstance(_get(obj, p), str)]
    path = rng.choice(paths)
    parent, key = _get(obj, path[:-1]), path[-1]
    if operator == "junk":
        parent[key] = copy.deepcopy(rng.choice(JUNK))
    elif operator == "delete":
        del parent[key]
    elif operator == "suffix":
        parent[key] += rng.choice(("x", "9", "_1"))
    else:
        parent[key] = copy.deepcopy(_get(obj, rng.choice(paths)))
    return obj


def test_mutants_never_escape_the_cli(tmp_path, capsys):
    rng = random.Random(6)
    sources = _sources()
    other = tmp_path / "t0.json"
    other.write_text(dumps(position_to_json(make_t0())), encoding="utf-8")
    src, out = tmp_path / "mutant.json", tmp_path / "out"
    codes = Counter()
    for i in range(MUTANTS):
        source = sources[i % len(sources)]
        operator = OPERATORS[(i // len(sources)) % len(OPERATORS)]
        # a mutant may hold a float, which the package's writer refuses, so the stdlib writes it
        mutant = json.dumps(_mutate(source, rng, operator), sort_keys=True, indent=2) + "\n"
        src.write_text(mutant, encoding="utf-8")
        command = rng.choice(COMMANDS)
        argv = [command, str(src)]
        if command == "compare":
            argv.append(str(other))
        if command in ("normalize", "decorate", "export-dot", "perturb"):
            argv += ["-o", str(out)]
        out.unlink(missing_ok=True)
        what = f"mutant {i} ({operator} of {source['kind']}), {command}"
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the failure under test
            raise AssertionError(f"{what}: {type(exc).__name__}: {exc}") from exc
        err = capsys.readouterr().err
        assert code in (0, 1, 3), what
        if code == 1:
            assert err.strip(), what
            assert command == "validate" or err.startswith("error: "), what
            assert not out.exists(), what
        codes[code] += 1
    assert codes[0] and codes[1], codes
