"""Versioned JSON round-trips and DOT exports for every data kind.

All payloads carry ``"format": 1`` and a ``"kind"`` tag so CLI commands can
sniff what they were given.  Serialization is deterministic: keys sorted,
lists in id order.  Loaders take every value through one typed reader,
``_field``; a normal torus or decorated graph is derived from its position.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Any

from .graphs import Attachment, HalfEdge, SphereGraph
from .normal_graph import DecoratedGraph, NormalTorus, decorate, to_normal_torus
from .position import (
    SIDE_A,
    SIDE_B,
    BoundarySlot,
    Circle,
    Piece,
    RegionTree,
    TorusPosition,
    _piece_edges,
)

FORMAT = 1

_MISSING = object()


class SchemaError(ValueError):
    pass


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


def _he_json(he: HalfEdge) -> dict:
    return {"sphere": he.sphere, "end": he.end}


def _half_edge(obj: dict, path) -> HalfEdge:
    he = _field(obj, "half_edge", dict, path)
    path = (path, "half_edge")
    return HalfEdge(_field(he, "sphere", str, path), _field(he, "end", int, path))


def graph_to_json(g: SphereGraph) -> dict:
    edges = []
    for s in g.sphere_edges:
        ends = (g.incidence[HalfEdge(s, 0)], g.incidence[HalfEdge(s, 1)])
        edges.append({"id": s, "ends": [{"p": att.pants, "slot": att.slot} for att in ends]})
    return {
        "format": FORMAT,
        "kind": "sphere_graph",
        "rank": g.rank,
        "p_vertices": list(g.p_vertices),
        "edges": edges,
    }


def graph_from_json(obj: dict) -> SphereGraph:
    return _graph(obj, "sphere_graph")


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


def position_to_json(t: TorusPosition) -> dict:
    pieces = [
        {
            "id": p.id,
            "pants": p.pants,
            "genus": p.genus,
            "boundary": [
                {"circle": slot.circle, "half_edge": _he_json(slot.half_edge), "region_a": slot.region_a}
                for slot in p.boundary
            ],
            "uncrossed": [{"half_edge": _he_json(he), "side": v} for he, v in sorted(p.uncrossed.items())],
        }
        for _, p in sorted(t.pieces.items())
    ]
    trees = [
        {
            "sphere": s,
            "regions": sorted(t.trees[s].regions),
            "edges": [{"circle": c, "regions": list(ends)} for c, ends in sorted(t.trees[s].edges.items())],
        }
        for s in t.graph.sphere_edges
    ]
    return {
        "format": FORMAT,
        "kind": "position",
        "graph": graph_to_json(t.graph),
        "pieces": pieces,
        "circles": [{"id": cid, "sphere": t.circles[cid].sphere} for cid in sorted(t.circles)],
        "region_trees": trees,
        "side_transport": {cid: t.transport[cid] for cid in sorted(t.transport)},
    }


def position_from_json(obj: dict) -> TorusPosition:
    return _position(obj, "position")


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
    return TorusPosition(g, pieces, circles, trees, transport)


def normal_torus_to_json(nt: NormalTorus) -> dict:
    position = position_to_json(nt.position)
    return {"format": FORMAT, "kind": "normal_torus", **_derived_json(nt), "position": position}


def _derived_json(nt: NormalTorus) -> dict:
    """The sections of a normal_torus file that its position determines."""
    return {
        "graph": graph_to_json(nt.graph),
        "nodes": [{"id": n, "pants": p, "node_kind": kind} for n, (p, kind) in sorted(nt.nodes.items())],
        "crossings": [
            {"id": cid, "sphere": sphere, "node0": n0, "node1": n1}
            for cid, (sphere, n0, n1) in sorted(nt.crossings.items())
        ],
        "leaves": [
            {"node": leaf.node, "half_edge": _he_json(leaf.half_edge)}
            for leaf in sorted(nt.leaves)
        ],
    }


def normal_torus_from_json(obj: dict) -> NormalTorus:
    _expect(obj, "normal_torus")
    nt = _derived_torus(obj, "normal_torus")
    _check_written(obj, _derived_json(nt), "normal_torus")
    return nt


def _derived_torus(obj: dict, path) -> NormalTorus:
    """The normal torus of the position embedded in ``obj``, once that validates."""
    return to_normal_torus(_position(_field(obj, "position", dict, path), (path, "position")))


def _check_written(obj: dict, written: dict, path) -> None:
    """``SchemaError`` at the first place where ``obj`` differs from ``written``, section by section."""
    for key, want in written.items():
        got = obj.get(key, _MISSING)
        # a whole section first; its JSON text tells 1 from true and 1.0, which == does not
        if got == want and json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True):
            continue
        found = _first_difference(got, want, (path, key))
        if found is not None:
            where, got, want = found
            raise SchemaError(_at(where, f"has {_shown(got)}, the position gives {_shown(want)}"))


def _first_difference(got, want, path):
    """``(path, got, want)`` where two JSON values first differ, in key and list order; else None.

    Types must match too, so ``1`` differs from ``true`` and ``1.0``.
    """
    if type(got) is type(want) is list:
        got, want = dict(enumerate(got)), dict(enumerate(want))
    elif type(got) is not type(want) or type(want) is not dict:
        return None if type(got) is type(want) and got == want else (path, got, want)
    for key in sorted(got.keys() | want.keys()):
        found = _first_difference(got.get(key, _MISSING), want.get(key, _MISSING), (path, key))
        if found is not None:
            return found
    return None


def _shown(value) -> str:
    return "nothing" if value is _MISSING else json.dumps(value, sort_keys=True)


def decorated_to_json(d: DecoratedGraph) -> dict:
    base = {"piece": d.base_piece, "side": d.base_side}
    return {**normal_torus_to_json(d.torus), "kind": "decorated_graph", "base": base, "signs": _signs_json(d)}


def _signs_json(d: DecoratedGraph) -> list:
    return [
        {"node": leaf.node, "half_edge": _he_json(leaf.half_edge), "sign": d.signs[leaf]}
        for leaf in sorted(d.signs)
    ]


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


def _expect(obj: Any, kind: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object for {kind}")
    if type(obj.get("format")) is not int or obj["format"] != FORMAT:
        raise SchemaError(f"unsupported format {obj.get('format')!r} (want {FORMAT})")
    if obj.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, got {obj.get('kind')!r}")


def dumps(obj: dict) -> str:
    """``obj`` as JSON with sorted keys and two-space indents, then a newline.

    The text is byte for byte ``json.dumps(obj, sort_keys=True, indent=2)``,
    which runs the pure-Python encoder whenever it indents; here strings are
    quoted by the C quoting function and the rest is one recursive walk.  It
    takes dicts with str keys, lists, str, int, bool and None, and raises
    ``TypeError`` on anything else.
    """
    out: list[str] = []
    _dump(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii


def _dump(value, newline: str, put) -> None:
    """Append the JSON text of ``value`` to ``put``; nested lines start with ``newline``."""
    if isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep)
            put(_quote(key))
            put(": ")
            _dump(value[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, list):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _dump(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def load_any(text: str):
    """Parse any known payload kind; returns (kind, value)."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("top-level JSON value must be an object")
    kind = obj.get("kind")
    loaders = {
        "sphere_graph": graph_from_json,
        "position": position_from_json,
        "normal_torus": normal_torus_from_json,
        "decorated_graph": decorated_from_json,
    }
    if type(kind) is not str or kind not in loaders:
        raise SchemaError(f"unknown kind {kind!r}")
    position = obj if kind == "position" else obj.get("position")
    if isinstance(position, dict) and type(position.get("side_transport")) is dict:
        path = kind if position is obj else (kind, "position")
        _no_repeat(text, position["side_transport"], (path, "side_transport"))
    return kind, loaders[kind](obj)


_SIDE_TRANSPORT = re.compile(r'"side_transport"\s*:\s*(?=\{)')
_PAIRS = json.JSONDecoder(object_pairs_hook=list)


def _no_repeat(text: str, bits: dict, path) -> None:
    """``SchemaError`` at ``path`` if the ``side_transport`` object that ``json.loads`` read as ``bits`` repeats a key.

    ``json.loads`` keeps a repeated key's last value, so the object is read
    again from ``text`` as a list of pairs.  A key can be spelled other than
    plainly only with a backslash escape, so a text without one has its
    objects under plain ``side_transport`` keys read again; any other is
    read whole, once, down ``path``.
    """
    if "\\" not in text:
        found = (_PAIRS.raw_decode(text, match.end())[0] for match in _SIDE_TRANSPORT.finditer(text))
    else:
        keys, at = [], path
        while type(at) is tuple:
            at, key = at
            keys.insert(0, key)
        pairs = _PAIRS.decode(text)
        for key in keys:
            pairs = dict(pairs)[key]  # a repeated key's last value, as ``json.loads`` keeps it
        found = [pairs]
    for pairs in found:
        if len(pairs) > len(bits) and dict(pairs) == bits:
            seen: dict[str, None] = {}
            for key, _ in pairs:
                _put(seen, key, None, path)


def _dot(text: str) -> str:
    """``text`` as a DOT quoted string: backslash and quote escaped, a newline as ``\\n``."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def graph_to_dot(g: SphereGraph) -> str:
    lines = ["graph sphere_system {", "  node [shape=circle];"]
    for p in g.p_vertices:
        lines.append(f"  {_dot(p)};")
    for s in g.sphere_edges:
        a, b = g.ends_of(s)
        lines.append(f"  {_dot(a)} -- {_dot(b)} [label={_dot(s)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def position_to_dot(t: TorusPosition) -> str:
    """Piece graph: pieces as nodes, intersection circles as edges."""
    lines = ["graph piece_graph {", "  node [shape=box];"]
    for pid, piece in sorted(t.pieces.items()):
        label = _dot(f"{pid}\n{piece.pants} g={piece.genus}")
        lines.append(f"  {_dot(pid)} [label={label}];")
    for cid, a, b, _ in _piece_edges(t, t.circle_slots()):
        label = _dot(f"{cid}@{t.circles[cid].sphere}")
        lines.append(f"  {_dot(a)} -- {_dot(b)} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_SHAPES = {"disk": "triangle", "cylinder": "ellipse", "pants": "hexagon"}


def normal_torus_to_dot(nt: NormalTorus, signs=None) -> str:
    lines = ["graph normal_torus {"]
    for nid, (pants, kind) in sorted(nt.nodes.items()):
        shape = _SHAPES.get(kind, "box")
        label = _dot(f"{nid}\n{pants} {kind}")
        lines.append(f"  {_dot(nid)} [shape={shape} label={label}];")
    for cid, (sphere, n0, n1) in sorted(nt.crossings.items()):
        label = _dot(f"{cid}@{sphere}")
        lines.append(f"  {_dot(n0)} -- {_dot(n1)} [label={label}];")
    # leaf0, leaf1, ... in one pass, skipping node ids; fresh_id per leaf would rescan from leaf0
    names = (f"leaf{k}" for k in itertools.count() if f"leaf{k}" not in nt.nodes)
    for leaf, name in zip(sorted(nt.leaves), names):
        sign = signs.get(leaf, "") if signs else ""
        label, name = _dot(f"{leaf.half_edge.label()} {sign}".strip()), _dot(name)
        lines.append(f"  {name} [shape=plaintext label={label}];")
        lines.append(f"  {_dot(leaf.node)} -- {name} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
