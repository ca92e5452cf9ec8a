"""Versioned JSON round-trips and DOT exports for every data kind.

All payloads carry ``"format": 1`` and a ``"kind"`` tag so CLI commands can
sniff what they were given.  Serialization is deterministic: keys sorted,
lists in id order.  Loaders check every value's exact JSON type where they
read it, and word a message (``_field``) only where a check fails; a normal
torus or decorated graph is derived from its position.
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
    is not an int).  The readers below check each value in place and call
    this only where a check fails, so that it words the message.
    """
    try:
        value = obj[key]
    except (KeyError, IndexError):
        value = _MISSING
    if type(value) is not kind:
        got = "nothing" if value is _MISSING else "null" if value is None else type(value).__name__
        raise SchemaError(_at((path, key), f"expected {kind.__name__}, got {got}"))
    return value


def _items(obj: dict, key, kind: type, path, count: int | None = None) -> list:
    """The list ``obj[key]`` if it holds only ``kind`` items (``count`` of them if given).

    A wrong list is rejected at its own type, then its item count, then
    its first item of the wrong type.
    """
    items = obj.get(key)
    if type(items) is list and (count is None or len(items) == count) and all(type(v) is kind for v in items):
        return items
    items = _field(obj, key, list, path)
    if count is not None and len(items) != count:
        raise SchemaError(_at((path, key), f"expected {count} items, got {len(items)}"))
    for i in range(len(items)):
        _field(items, i, kind, (path, key))
    return items


def _put(into: dict, key, value, path) -> None:
    """``into[key] = value``, or ``SchemaError`` at ``path``, where ``key`` was read, if ``into`` has it."""
    if key in into:
        raise SchemaError(_at(path, f"repeats {_shown(key._asdict() if type(key) is HalfEdge else key)}"))
    into[key] = value


def _no_repeats(values: list, path) -> dict:
    """``values`` as the keys of a dict, or ``SchemaError`` at the first item that repeats one before it."""
    seen = dict.fromkeys(values)
    if len(seen) < len(values):
        seen = {}
        for i, value in enumerate(values):
            _put(seen, value, None, (path, i))
    return seen


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
    for i, edge in enumerate(_items(obj, "edges", dict, path)):
        if type(s := edge.get("id")) is not str or s in sphere_edges:
            at = ((path, "edges"), i)
            _put(sphere_edges, _field(edge, "id", str, at), None, (at, "id"))
        sphere_edges[s] = None
        for end, e in enumerate(_items(edge, "ends", dict, ((path, "edges"), i), 2)):
            if type(p := e.get("p")) is not str or type(slot := e.get("slot")) is not int:
                at = ((((path, "edges"), i), "ends"), end)
                _field(e, "p", str, at), _field(e, "slot", int, at)
            incidence[HalfEdge(s, end)] = Attachment(p, slot)
    p_vertices = _no_repeats(_items(obj, "p_vertices", str, path), (path, "p_vertices"))
    if type(rank := obj.get("rank")) is not int:
        _field(obj, "rank", int, path)
    return SphereGraph(rank, tuple(p_vertices), tuple(sphere_edges), incidence)


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
    """The position ``obj``, each value checked in place as it is read.

    Where a check fails, the values it covers are read again, left to right,
    through ``_items``, ``_field`` and ``_put``, and the first that fails
    raises: a list's type, item count and item types come before any item's
    fields, and the sections go graph, circles, pieces, region trees, transport.
    """
    _expect(obj, "position")
    if type(g := obj.get("graph")) is not dict:
        _field(obj, "graph", dict, path)
    g = _graph(g, (path, "graph"))
    circles: dict[str, Circle] = {}
    for i, c in enumerate(_items(obj, "circles", dict, path)):
        if type(cid := c.get("id")) is not str or type(sphere := c.get("sphere")) is not str or cid in circles:
            at = ((path, "circles"), i)
            _field(c, "id", str, at), _field(c, "sphere", str, at), _put(circles, cid, None, (at, "id"))
        circles[cid] = Circle(cid, sphere)
    pieces: dict[str, Piece] = {}
    for i, p in enumerate(_items(obj, "pieces", dict, path)):
        # a slot or uncrossed entry that fails a check words the first problem of its list, then its own
        if type(slots := p.get("boundary")) is not list:
            _items(p, "boundary", dict, ((path, "pieces"), i))
        boundary = []
        for j, slot in enumerate(slots):
            if not (type(slot) is dict and type(cid := slot.get("circle")) is str
                    and type(he := slot.get("half_edge")) is dict and type(sphere := he.get("sphere")) is str
                    and type(end := he.get("end")) is int and type(region_a := slot.get("region_a")) is str):
                _items(p, "boundary", dict, ((path, "pieces"), i))
                at = ((((path, "pieces"), i), "boundary"), j)
                _field(slot, "circle", str, at), _half_edge(slot, at), _field(slot, "region_a", str, at)
            boundary.append(BoundarySlot(cid, HalfEdge(sphere, end), region_a))
        if type(uncrossed := p.get("uncrossed")) is not list:
            _items(p, "uncrossed", dict, ((path, "pieces"), i))
        sides: dict[HalfEdge, str] = {}
        for j, u in enumerate(uncrossed):
            if not (type(u) is dict and type(he := u.get("half_edge")) is dict
                    and type(sphere := he.get("sphere")) is str and type(end := he.get("end")) is int
                    and type(side := u.get("side")) is str and (sphere, end) not in sides):
                _items(p, "uncrossed", dict, ((path, "pieces"), i))
                at = ((((path, "pieces"), i), "uncrossed"), j)
                _put(sides, _half_edge(u, at), _field(u, "side", str, at), (at, "half_edge"))
            sides[HalfEdge(sphere, end)] = side
        pid, pants, genus = p.get("id"), p.get("pants"), p.get("genus")
        if type(pid) is not str or type(pants) is not str or type(genus) is not int or pid in pieces:
            at = ((path, "pieces"), i)
            _field(p, "id", str, at), _field(p, "pants", str, at), _field(p, "genus", int, at)
            _put(pieces, pid, None, (at, "id"))
        pieces[pid] = Piece(pid, pants, genus, boundary, sides)
    trees: dict[str, RegionTree] = {}
    for i, tr in enumerate(_items(obj, "region_trees", dict, path)):
        at = ((path, "region_trees"), i)
        edges: dict[str, tuple[str, str]] = {}
        for j, e in enumerate(_items(tr, "edges", dict, at)):
            ends, cid = e.get("regions"), e.get("circle")
            if not (type(ends) is list and len(ends) == 2 and type(a := ends[0]) is str and type(b := ends[1]) is str
                    and type(cid) is str and cid not in edges):
                e_at = ((at, "edges"), j)
                _items(e, "regions", str, e_at, 2), _field(e, "circle", str, e_at)
                _put(edges, cid, None, (e_at, "circle"))
            edges[cid] = (a, b)
        if type(s := tr.get("sphere")) is not str:
            _field(tr, "sphere", str, at)
        regions = _no_repeats(_items(tr, "regions", str, at), (at, "regions"))
        if s not in g.sphere_edges:
            raise SchemaError(_at((at, "sphere"), f"no sphere {_shown(s)} in the graph"))
        _put(trees, s, RegionTree(s, regions.keys(), edges), (at, "sphere"))
    if type(bits := obj.get("side_transport")) is not dict or not all(type(v) is bool for v in bits.values()):
        bits = _field(obj, "side_transport", dict, path)
        for cid in bits:
            _field(bits, cid, bool, (path, "side_transport"))
    return TorusPosition(g, pieces, circles, trees, dict(bits))


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
    if type(position := obj.get("position")) is not dict:
        _field(obj, "position", dict, path)
    return to_normal_torus(_position(position, (path, "position")))


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
    base = obj.get("base")
    if type(base) is not dict or type(base.get("piece")) is not str or type(base.get("side")) is not str:
        base = _field(obj, "base", dict, path)
        _field(base, "piece", str, (path, "base")), _field(base, "side", str, (path, "base"))
    piece, side = base["piece"], base["side"]
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
