"""The file loaders against a frozen reference of the typed reader they replaced.

The loaders check each value where they read it and word a message only
where a check fails, so a slip in their reading order would change which
problem a malformed file reports first, and a slip in what they build
would change an order that DOT exports and leaf names follow.  This
module keeps a copy of ``_at``, ``_field``, ``_items``, ``_put``,
``_half_edge``, ``_graph``, ``_position``, ``_derived_torus`` and
``decorated_from_json`` as they read when every value went through one
``_field`` call, and pins ``load_any`` to them, message for message, on
every single-value edit of four small files: each JSON path dropped, set
to null, ``"zz"``, 7, true, 1.5, ``[]`` or ``{}``, and each list item
listed twice; on pairs of edits of one position, which pin which of two
problems is reported first; and on that position with its lists and
transport bits in reverse order, which pins the order of what it builds.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping

import pytest
from conftest import recorded

from normaltori import cli, serialize
from normaltori.fixtures import make_t0, make_t2
from normaltori.graphs import Attachment, HalfEdge, SphereGraph, build_standard
from normaltori.normal_graph import DecoratedGraph, NormalTorus, decorate, to_normal_torus
from normaltori.position import SIDE_A, SIDE_B, BoundarySlot, Circle, Piece, RegionTree, TorusPosition, position_of
from normaltori.serialize import (
    _MISSING,
    SchemaError,
    _check_written,
    _derived_json,
    _expect,
    _shown,
    _signs_json,
)


def _at(path, what: str) -> str:
    """``malformed <kind>: <json path>: <what>``; a path is the file kind or ``(path, key or index)``."""
    where = ""
    while type(path) is tuple:
        path, key = path
        where = (f"[{key}]" if type(key) is int else f".{key}") + where
    return f"malformed {path}: {where.lstrip('.')}: {what}"


def _field(obj, key, kind: type, path):
    """``obj[key]`` if it is exactly a ``kind``; ``path`` leads to ``obj``.

    ``obj`` is a dict, or a list read by index.  Nothing is coerced (a bool
    is not an int), and the message is only built when the value is rejected.
    """
    try:
        value = obj[key]
    except (KeyError, IndexError):
        value = _MISSING
    if type(value) is not kind:
        got = "nothing" if value is _MISSING else "null" if value is None else type(value).__name__
        raise SchemaError(_at((path, key), f"expected {kind.__name__}, got {got}"))
    return value


def _items(obj, key, kind: type, path, count: int | None = None) -> list:
    """The ``kind`` items of the list ``obj[key]`` (``count`` of them if given), each with its path."""
    items = _field(obj, key, list, path)
    if count is not None and len(items) != count:
        raise SchemaError(_at((path, key), f"expected {count} items, got {len(items)}"))
    path = (path, key)
    return [(_field(items, i, kind, path), (path, i)) for i in range(len(items))]


def _put(into: dict, key, value, path) -> None:
    """``into[key] = value``, or ``SchemaError`` at ``path``, where ``key`` was read, if ``into`` has it."""
    if key in into:
        raise SchemaError(_at(path, f"repeats {_shown(key._asdict() if type(key) is HalfEdge else key)}"))
    into[key] = value


def _half_edge(obj: dict, path) -> HalfEdge:
    he = _field(obj, "half_edge", dict, path)
    path = (path, "half_edge")
    return HalfEdge(_field(he, "sphere", str, path), _field(he, "end", int, path))


def _graph(obj: dict, path) -> SphereGraph:
    _expect(obj, "sphere_graph")
    incidence: dict[HalfEdge, Attachment] = {}
    sphere_edges: dict[str, None] = {}
    for edge, at in _items(obj, "edges", dict, path):
        s = _field(edge, "id", str, at)
        _put(sphere_edges, s, None, (at, "id"))
        for end, (e, e_at) in enumerate(_items(edge, "ends", dict, at, 2)):
            incidence[HalfEdge(s, end)] = Attachment(_field(e, "p", str, e_at), _field(e, "slot", int, e_at))
    p_vertices: dict[str, None] = {}
    for p, p_at in _items(obj, "p_vertices", str, path):
        _put(p_vertices, p, None, p_at)
    return SphereGraph(_field(obj, "rank", int, path), tuple(p_vertices), tuple(sphere_edges), incidence)


def _position(obj: dict, path) -> TorusPosition:
    _expect(obj, "position")
    g = _graph(_field(obj, "graph", dict, path), (path, "graph"))
    circles: dict[str, Circle] = {}
    for c, at in _items(obj, "circles", dict, path):
        cid = _field(c, "id", str, at)
        _put(circles, cid, Circle(cid, _field(c, "sphere", str, at)), (at, "id"))
    pieces: dict[str, Piece] = {}
    for p, at in _items(obj, "pieces", dict, path):
        boundary = [
            BoundarySlot(_field(s, "circle", str, s_at), _half_edge(s, s_at), _field(s, "region_a", str, s_at))
            for s, s_at in _items(p, "boundary", dict, at)
        ]
        sides: dict[HalfEdge, str] = {}
        for u, u_at in _items(p, "uncrossed", dict, at):
            _put(sides, _half_edge(u, u_at), _field(u, "side", str, u_at), (u_at, "half_edge"))
        pid, pants, genus = _field(p, "id", str, at), _field(p, "pants", str, at), _field(p, "genus", int, at)
        _put(pieces, pid, Piece(pid, pants, genus, boundary, sides), (at, "id"))
    trees: dict[str, RegionTree] = {}
    for tr, at in _items(obj, "region_trees", dict, path):
        edges: dict[str, tuple[str, str]] = {}
        for e, e_at in _items(tr, "edges", dict, at):
            (a, _), (b, _) = _items(e, "regions", str, e_at, 2)
            _put(edges, _field(e, "circle", str, e_at), (a, b), (e_at, "circle"))
        s = _field(tr, "sphere", str, at)
        regions: dict[str, None] = {}
        for r, r_at in _items(tr, "regions", str, at):
            _put(regions, r, None, r_at)
        if s not in g.sphere_edges:
            raise SchemaError(_at((at, "sphere"), f"no sphere {_shown(s)} in the graph"))
        _put(trees, s, RegionTree(s, regions.keys(), edges), (at, "sphere"))
    bits = _field(obj, "side_transport", dict, path)
    transport = {cid: _field(bits, cid, bool, (path, "side_transport")) for cid in bits}
    return position_of(g, pieces, circles, trees, transport)


def _derived_torus(obj: dict, path) -> NormalTorus:
    """The normal torus of the position embedded in ``obj``, once that validates."""
    return to_normal_torus(_position(_field(obj, "position", dict, path), (path, "position")))


def decorated_from_json(obj: dict) -> DecoratedGraph:
    _expect(obj, "decorated_graph")
    path = "decorated_graph"
    nt = _derived_torus(obj, path)
    base = _field(obj, "base", dict, path)
    piece, side = _field(base, "piece", str, (path, "base")), _field(base, "side", str, (path, "base"))
    if piece not in nt.nodes or side not in (SIDE_A, SIDE_B):
        raise SchemaError(_at((path, "base"), f"needs a node and side A or B, got {_shown(base)}"))
    d = decorate(nt, piece, side)
    _check_written(obj, {**_derived_json(nt), "signs": _signs_json(d)}, path)
    return d


FROZEN = {
    "_graph": _graph,
    "_position": _position,
    "_derived_torus": _derived_torus,
    "decorated_from_json": decorated_from_json,
}
EDITS = ("drop", None, "zz", 7, True, 1.5, [], {})
COMMANDS = ("validate", "decorate", "axis-word", "export-dot", "normalize", "perturb")


def _files() -> list[dict]:
    nt = to_normal_torus(make_t0())
    return [
        serialize.graph_to_json(build_standard(3)),
        serialize.position_to_json(make_t2()),
        serialize.normal_torus_to_json(nt),
        serialize.decorated_to_json(decorate(nt)),
    ]


def _paths(node, path=()):
    """Every JSON path below ``node``, parents before children."""
    keys = sorted(node) if type(node) is dict else range(len(node)) if type(node) is list else ()
    for key in keys:
        yield path + (key,)
        yield from _paths(node[key], path + (key,))


def _edited(text: str, edits) -> str:
    """``text`` with each ``(path, edit)`` of ``edits`` made in turn, written with sorted keys as the package writes.

    ``"drop"`` deletes the value and ``"repeat"`` lists a list item twice;
    any other edit is the new value.
    """
    obj = json.loads(text)
    for path, edit in edits:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if edit == "drop":
            del parent[path[-1]]
        elif edit == "repeat":
            parent.insert(path[-1], parent[path[-1]])
        else:
            parent[path[-1]] = edit
    return json.dumps(obj, sort_keys=True)


def _edited_texts() -> list[str]:
    """Every file with one value edited: each edit of ``EDITS`` at every path, and each list item repeated."""
    texts = []
    for obj in _files():
        text = json.dumps(obj)
        for path in _paths(obj):
            texts += [_edited(text, [(path, edit)]) for edit in EDITS + ("repeat",) * (type(path[-1]) is int)]
    return texts


def _twice_edited_texts() -> list[str]:
    """t2's position with two values edited, a path and one 1, 2, 4, 8 or 16 paths after it, each way round.

    The later path is edited first, so an edit inside the earlier path's
    value is overwritten by it; the pairs pin which of two problems a file
    reports first.
    """
    obj = _files()[1]
    text, paths = json.dumps(obj), list(_paths(obj))
    return [
        _edited(text, [(paths[i + k], later), (paths[i], earlier)])
        for i in range(len(paths))
        for k in (1, 2, 4, 8, 16)
        if i + k < len(paths)
        for earlier, later in (("drop", 7), (7, "drop"))
    ]


def _reordered_text() -> str:
    """t2's position with every list and its ``side_transport`` in reverse order, which sorted keys would undo."""
    obj = _files()[1]
    for node in (obj, *obj["pieces"], *obj["region_trees"]):
        for value in node.values():
            if type(value) is list:
                value.reverse()
    obj["side_transport"] = dict(reversed(obj["side_transport"].items()))
    return json.dumps(obj)


def _spelled(value):
    """``value`` as nested tuples that keep every dict's item order (a set's items are sorted)."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(_spelled(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, Mapping):
        return ("dict", *((_spelled(k), _spelled(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, *map(_spelled, value))
    if isinstance(value, (set, frozenset)):
        return ("set", *sorted(map(_spelled, value)))
    return value


def _outcome(text: str):
    """What ``load_any`` makes of ``text``: its exception's type and message, or the spelled value."""
    try:
        kind, value = serialize.load_any(text)
    except Exception as exc:  # noqa: BLE001 - every exception, as the reference raised it
        return type(exc).__name__, str(exc)
    return kind, _spelled(value)


@pytest.fixture(scope="module")
def texts() -> list[str]:
    return _edited_texts() + _twice_edited_texts() + [_reordered_text()]


def test_every_edit_loads_as_the_frozen_reader_loads_it(texts, monkeypatch):
    """Same exception and message, or equal values with the same dict orders, on every edited file."""
    got = [_outcome(text) for text in texts]
    for name, frozen in FROZEN.items():
        monkeypatch.setattr(serialize, name, frozen)
    want = [_outcome(text) for text in texts]
    mismatches = [(text, g, w) for text, g, w in zip(texts, got, want) if g != w]
    assert mismatches == []
    rejected = sum(type(w) is tuple and len(w) == 2 and w[0] == "SchemaError" for w in want)
    assert len(texts) > 6000 and rejected > len(texts) // 2  # the edits reach the reader, most to a message
    print(f"{len(texts)} edited files, {rejected} rejected with a schema message")


def test_a_valid_file_words_no_message():
    """Each valid file loads with no call of ``_field``, which only words a rejected value."""
    with recorded(serialize._field) as calls:
        for obj in _files() + [json.loads(_reordered_text())]:
            serialize.load_any(json.dumps(obj))
    assert calls == []


def test_the_console_boundary_keeps_every_edit_to_a_message(texts, tmp_path, capsys):
    """A sample of the edited files through ``cli.main``: each command exits 0, 1 or 3, never raising."""
    codes = set()
    for i, text in enumerate(texts[::23]):
        path = tmp_path / f"edit{i}.json"
        path.write_text(text, encoding="utf-8")
        command = COMMANDS[i % len(COMMANDS)]
        argv = [command, str(path)]
        if command != "validate" and command != "axis-word":
            argv += ["-o", str(tmp_path / f"out{i}")]
        codes.add(cli.main(argv))
    capsys.readouterr()
    assert codes <= {0, 1, 3} and 1 in codes
