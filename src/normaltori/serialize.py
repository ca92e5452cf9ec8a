"""Versioned JSON round-trips and DOT exports for every data kind.

All payloads carry ``"format": 1`` and a ``"kind"`` tag so CLI commands can
sniff what they were given.  Serialization is deterministic: keys sorted,
lists in id order.
"""

from __future__ import annotations

import json
from typing import Any

from .graphs import Attachment, HalfEdge, SphereGraph
from .normal_graph import DecoratedGraph, LeafStub, NormalTorus
from .position import (
    BoundarySlot,
    Circle,
    Piece,
    RegionTree,
    TorusPosition,
)

FORMAT = 1


class SchemaError(ValueError):
    pass


def _he_json(he: HalfEdge) -> dict:
    return {"sphere": he.sphere, "end": he.end}


def _he_load(obj: dict, where: str) -> HalfEdge:
    try:
        return HalfEdge(str(obj["sphere"]), int(obj["end"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad half-edge in {where}: {obj!r}") from exc


def graph_to_json(g: SphereGraph) -> dict:
    edges = []
    for s in g.sphere_edges:
        ends = []
        for end in (0, 1):
            att = g.incidence[HalfEdge(s, end)]
            ends.append({"p": att.pants, "slot": att.slot})
        edges.append({"id": s, "ends": ends})
    return {
        "format": FORMAT,
        "kind": "sphere_graph",
        "rank": g.rank,
        "p_vertices": list(g.p_vertices),
        "edges": edges,
    }


def graph_from_json(obj: dict) -> SphereGraph:
    _expect(obj, "sphere_graph")
    try:
        rank = int(obj["rank"])
        p_vertices = [str(p) for p in obj["p_vertices"]]
        incidence: dict[HalfEdge, Attachment] = {}
        sphere_edges = []
        for edge in obj["edges"]:
            s = str(edge["id"])
            sphere_edges.append(s)
            for end, e in enumerate(edge["ends"]):
                incidence[HalfEdge(s, end)] = Attachment(str(e["p"]), int(e["slot"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed sphere graph: {exc}") from exc
    return SphereGraph(rank, p_vertices, sphere_edges, incidence)


def position_to_json(t: TorusPosition) -> dict:
    pieces = []
    for pid in sorted(t.pieces):
        piece = t.pieces[pid]
        pieces.append(
            {
                "id": piece.id,
                "pants": piece.pants,
                "genus": piece.genus,
                "boundary": [
                    {
                        "circle": slot.circle,
                        "half_edge": _he_json(slot.half_edge),
                        "region_a": slot.region_a,
                    }
                    for slot in piece.boundary
                ],
                "uncrossed": [
                    {"half_edge": _he_json(he), "side": side}
                    for he, side in sorted(piece.uncrossed.items())
                ],
            }
        )
    trees = []
    for s in t.graph.sphere_edges:
        tree = t.trees[s]
        trees.append(
            {
                "sphere": s,
                "regions": sorted(tree.regions),
                "edges": [
                    {"circle": cid, "regions": list(tree.edges[cid])}
                    for cid in sorted(tree.edges)
                ],
            }
        )
    return {
        "format": FORMAT,
        "kind": "position",
        "graph": graph_to_json(t.graph),
        "pieces": pieces,
        "circles": [
            {"id": cid, "sphere": t.circles[cid].sphere} for cid in sorted(t.circles)
        ],
        "region_trees": trees,
        "side_transport": {cid: t.transport[cid] for cid in sorted(t.transport)},
    }


def position_from_json(obj: dict) -> TorusPosition:
    _expect(obj, "position")
    g = graph_from_json(obj["graph"])
    try:
        circles = {
            str(c["id"]): Circle(str(c["id"]), str(c["sphere"])) for c in obj["circles"]
        }
        pieces = {}
        for p in obj["pieces"]:
            boundary = [
                BoundarySlot(
                    str(s["circle"]),
                    _he_load(s["half_edge"], f"piece {p['id']}"),
                    str(s["region_a"]),
                )
                for s in p["boundary"]
            ]
            uncrossed = {
                _he_load(u["half_edge"], f"piece {p['id']}"): str(u["side"])
                for u in p["uncrossed"]
            }
            pieces[str(p["id"])] = Piece(
                str(p["id"]), str(p["pants"]), int(p["genus"]), boundary, uncrossed
            )
        trees = {}
        for tr in obj["region_trees"]:
            edges = {
                str(e["circle"]): (str(e["regions"][0]), str(e["regions"][1]))
                for e in tr["edges"]
            }
            trees[str(tr["sphere"])] = RegionTree(
                str(tr["sphere"]), {str(r) for r in tr["regions"]}, edges
            )
        transport = {str(c): bool(v) for c, v in obj["side_transport"].items()}
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"malformed position: {exc}") from exc
    return TorusPosition(g, pieces, circles, trees, transport)


def normal_torus_to_json(nt: NormalTorus) -> dict:
    out = {
        "format": FORMAT,
        "kind": "normal_torus",
        "graph": graph_to_json(nt.graph),
        "nodes": [
            {"id": nid, "pants": pants, "node_kind": kind}
            for nid, (pants, kind) in sorted(nt.nodes.items())
        ],
        "crossings": [
            {"id": cid, "sphere": sphere, "node0": n0, "node1": n1}
            for cid, (sphere, n0, n1) in sorted(nt.crossings.items())
        ],
        "leaves": [
            {"node": leaf.node, "half_edge": _he_json(leaf.half_edge)}
            for leaf in sorted(nt.leaves, key=lambda l: (l.node, l.half_edge))
        ],
    }
    if nt.position is not None:
        out["position"] = position_to_json(nt.position)
    return out


def normal_torus_from_json(obj: dict) -> NormalTorus:
    _expect(obj, "normal_torus")
    g = graph_from_json(obj["graph"])
    nodes = {str(n["id"]): (str(n["pants"]), str(n["node_kind"])) for n in obj["nodes"]}
    crossings = {
        str(c["id"]): (str(c["sphere"]), str(c["node0"]), str(c["node1"]))
        for c in obj["crossings"]
    }
    leaves = [
        LeafStub(str(l["node"]), _he_load(l["half_edge"], "leaf")) for l in obj["leaves"]
    ]
    position = position_from_json(obj["position"]) if "position" in obj else None
    return NormalTorus(g, nodes, crossings, leaves, position)


def decorated_to_json(d: DecoratedGraph) -> dict:
    out = normal_torus_to_json(d.torus)
    out["kind"] = "decorated_graph"
    out["base"] = {"piece": d.base_piece, "side": d.base_side}
    out["signs"] = [
        {
            "node": leaf.node,
            "half_edge": _he_json(leaf.half_edge),
            "sign": d.signs[leaf],
        }
        for leaf in sorted(d.signs, key=lambda l: (l.node, l.half_edge))
    ]
    return out


def decorated_from_json(obj: dict) -> DecoratedGraph:
    _expect(obj, "decorated_graph")
    inner = dict(obj)
    inner["kind"] = "normal_torus"
    nt = normal_torus_from_json(inner)
    signs = {}
    for s in obj["signs"]:
        signs[LeafStub(str(s["node"]), _he_load(s["half_edge"], "sign"))] = str(s["sign"])
    base = obj.get("base", {})
    return DecoratedGraph(nt, signs, str(base.get("piece", "")), str(base.get("side", "A")))


def _expect(obj: Any, kind: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object for {kind}")
    if obj.get("format") != FORMAT:
        raise SchemaError(f"unsupported format {obj.get('format')!r} (want {FORMAT})")
    if obj.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, got {obj.get('kind')!r}")


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_any(text: str):
    """Parse any known payload kind; returns (kind, value)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
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
    if kind not in loaders:
        raise SchemaError(f"unknown kind {kind!r}")
    return kind, loaders[kind](obj)


def graph_to_dot(g: SphereGraph) -> str:
    lines = ["graph sphere_system {", "  node [shape=circle];"]
    for p in g.p_vertices:
        lines.append(f'  "{p}";')
    for s in g.sphere_edges:
        a, b = g.ends_of(s)
        lines.append(f'  "{a}" -- "{b}" [label="{s}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def position_to_dot(t: TorusPosition) -> str:
    """Piece graph: pieces as nodes, intersection circles as edges."""
    lines = ["graph piece_graph {", "  node [shape=box];"]
    for pid in sorted(t.pieces):
        piece = t.pieces[pid]
        lines.append(f'  "{pid}" [label="{pid}\\n{piece.pants} g={piece.genus}"];')
    index = t.circle_slots()
    for cid in sorted(t.circles):
        slots = index.get(cid, [])
        if len(slots) == 2:
            (pa, _), (pb, _) = slots
            lines.append(f'  "{pa.id}" -- "{pb.id}" [label="{cid}@{t.circles[cid].sphere}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_SHAPES = {"disk": "triangle", "cylinder": "ellipse", "pants": "hexagon"}


def normal_torus_to_dot(nt: NormalTorus, signs=None) -> str:
    lines = ["graph normal_torus {"]
    for nid in sorted(nt.nodes):
        pants, kind = nt.nodes[nid]
        shape = _SHAPES.get(kind, "box")
        lines.append(f'  "{nid}" [shape={shape} label="{nid}\\n{pants} {kind}"];')
    for cid in sorted(nt.crossings):
        sphere, n0, n1 = nt.crossings[cid]
        lines.append(f'  "{n0}" -- "{n1}" [label="{cid}@{sphere}"];')
    for i, leaf in enumerate(sorted(nt.leaves, key=lambda l: (l.node, l.half_edge))):
        stub = f"leaf{i}"
        sign = ""
        if signs is not None:
            sign = signs.get(leaf, "")
        label = f"{leaf.half_edge.label()} {sign}".strip()
        lines.append(f'  "{stub}" [shape=plaintext label="{label}"];')
        lines.append(f'  "{leaf.node}" -- "{stub}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
