"""Dual-graph picture of a normal torus and its decorated-graph invariant.

A normal torus defines a graph immersed in the sphere graph: one node per
piece (sitting over its pants), one crossing edge per intersection circle
(running through both ends of its sphere), and one leaf stub per boundary
sphere a piece does not cross.  The graph is connected with first Betti
number one; its unique cycle is the projection of the invariant axis of
the covering translation the torus carries, and the hanging trees are
finite decorations on that axis.

A choice of transverse orientation signs every leaf stub; the resulting
decorated graph, up to graph isomorphism over the sphere graph and a
global sign flip, classifies normal tori up to normal homotopy.  The
canonical code computed here is a complete invariant for that relation:
immersedness pins every node's half-edge assignment, so only the axis
rotation, its direction, and the global flip remain to minimize over.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from .graphs import GeneratorLabeling, HalfEdge, SphereGraph
from .position import (
    SIDE_A,
    PositionError,
    TorusPosition,
    end_slot,
    is_normal,
    piece_kind,
    xor_side,
)

PLUS = "+"
MINUS = "-"


class KleinBottleError(PositionError):
    """Side transport has nontrivial monodromy: the surface is one-sided."""


@dataclass(frozen=True)
class LeafStub:
    node: str
    half_edge: HalfEdge


@dataclass
class NormalTorus:
    """Betti-1 graph of a normal torus, immersed into the sphere graph.

    ``nodes`` maps a node id to (pants, kind); ``crossings`` maps a circle
    id to (sphere, node at end 0, node at end 1).  ``position`` keeps the
    underlying data for decoration.
    """

    graph: SphereGraph
    nodes: dict[str, tuple[str, str]]
    crossings: dict[str, tuple[str, str, str]]
    leaves: list[LeafStub]
    position: TorusPosition | None = None

    def attachments(self) -> dict[str, dict[HalfEdge, tuple[str, str]]]:
        """Node -> half-edge -> ("crossing"|"leaf", id); must fill all three.

        Built afresh on each call and never stored, since graphs are edited
        in place; a node with nothing attached maps to an empty dict.
        """
        att: dict[str, dict[HalfEdge, tuple[str, str]]] = defaultdict(dict)
        for cid, (sphere, n0, n1) in self.crossings.items():
            att[n0][HalfEdge(sphere, 0)] = ("crossing", cid)
            att[n1][HalfEdge(sphere, 1)] = ("crossing", cid)
        for leaf in self.leaves:
            att[leaf.node][leaf.half_edge] = ("leaf", leaf.node + "/" + leaf.half_edge.label())
        return att


def to_normal_torus(t: TorusPosition) -> NormalTorus:
    ok, violations = is_normal(t)
    if not ok:
        raise PositionError("not normal: " + "; ".join(violations))
    nodes = {}
    for pid, piece in t.pieces.items():
        kind = piece_kind(piece)
        assert kind is not None
        nodes[pid] = (piece.pants, kind)
    index = t.circle_slots()
    crossings = {}
    for cid, circle in t.circles.items():
        n0 = end_slot(t, index, cid, 0)[0].id
        n1 = end_slot(t, index, cid, 1)[0].id
        crossings[cid] = (circle.sphere, n0, n1)
    leaves = [
        LeafStub(pid, he)
        for pid, piece in t.pieces.items()
        for he in sorted(piece.uncrossed)
    ]
    nt = NormalTorus(t.graph, nodes, crossings, leaves, t)
    _check_normal_torus(nt)
    return nt


def _check_normal_torus(nt: NormalTorus) -> None:
    by_kind = defaultdict(int)
    att = nt.attachments()
    for node, (pants, kind) in nt.nodes.items():
        want = set(nt.graph.half_edges_at(pants))
        if set(att[node]) != want:
            raise PositionError(f"node {node} does not immerse onto its pants tripod")
        by_kind[kind] += 1
    if by_kind["disk"] != by_kind["pants"]:
        raise PositionError("disk and pants node counts differ")
    if len(nt.crossings) - len(nt.nodes) + 1 != 1:
        raise PositionError("normal torus graph is not betti 1")


@dataclass
class DecoratedGraph:
    """Normal torus plus a sign on every leaf stub."""

    torus: NormalTorus
    signs: dict[LeafStub, str]
    base_piece: str
    base_side: str


def decorate(nt: NormalTorus, base_piece: str | None = None, base_side: str = SIDE_A) -> DecoratedGraph:
    """Propagate a transverse orientation and sign the leaves.

    The base piece's chosen side is declared positive; side transport
    carries that across every circle.  Fails with ``KleinBottleError`` when
    the bits have nontrivial monodromy.  Flipping ``base_side`` flips every
    sign.
    """
    t = nt.position
    if t is None:
        raise PositionError("decoration needs the underlying position")
    if base_piece is None:
        base_piece = min(nt.nodes)
    if base_piece not in nt.nodes:
        raise PositionError(f"unknown base piece {base_piece}")
    att = nt.attachments()
    plus: dict[str, str] = {base_piece: base_side}
    queue = deque([base_piece])
    while queue:
        pid = queue.popleft()
        for cid in _crossings_at(att, pid):
            _, n0, n1 = nt.crossings[cid]
            flip = not t.transport[cid]
            if n0 == n1:
                if flip:
                    raise KleinBottleError(f"nontrivial monodromy on circle {cid} (Klein bottle)")
                continue
            other = n1 if pid == n0 else n0
            want = xor_side(plus[pid], flip)
            if other not in plus:
                plus[other] = want
                queue.append(other)
            elif plus[other] != want:
                raise KleinBottleError(f"nontrivial monodromy through circle {cid} (Klein bottle)")
    signs = {}
    for leaf in nt.leaves:
        label = t.pieces[leaf.node].uncrossed[leaf.half_edge]
        signs[leaf] = PLUS if label == plus[leaf.node] else MINUS
    return DecoratedGraph(nt, signs, base_piece, base_side)


def sides(d: DecoratedGraph) -> tuple[list[LeafStub], list[LeafStub]]:
    """The leaves on the positive and the negative side of the torus."""
    pos = sorted((l for l in d.signs if d.signs[l] == PLUS), key=_leaf_key)
    neg = sorted((l for l in d.signs if d.signs[l] == MINUS), key=_leaf_key)
    return pos, neg


def _leaf_key(leaf: LeafStub):
    return (leaf.node, leaf.half_edge)


def bounds_solid_torus(d: DecoratedGraph) -> bool:
    """All leaf labels equal: one complementary side is empty."""
    pos, neg = sides(d)
    return not pos or not neg


def _crossings_at(att, node: str) -> list[str]:
    """Crossing ids attached to ``node``, ascending; a self-loop is listed once per end."""
    return sorted(ident for what, ident in att.get(node, {}).values() if what == "crossing")


def _axis_cycle(nt: NormalTorus) -> tuple[list[str], list[str]]:
    """The unique cycle: alternating node and crossing ids, aligned.

    Returns (nodes, edges) with edges[i] joining nodes[i] to nodes[i+1]
    (cyclically).  Found by pruning crossing-degree-1 nodes until none is
    left, then walking the rest from its least node along least crossings.
    """
    att = nt.attachments()
    incident = {n: _crossings_at(att, n) for n in nt.nodes}
    degree = {n: len(cids) for n, cids in incident.items()}
    alive_edges = set(nt.crossings)
    pruned: set[str] = set()
    queue = deque(n for n in sorted(nt.nodes) if degree[n] == 1)
    while queue:
        n = queue.popleft()
        if degree[n] != 1:
            continue
        cid = next(c for c in incident[n] if c in alive_edges)
        alive_edges.discard(cid)
        pruned.add(n)
        _, n0, n1 = nt.crossings[cid]
        for m in dict.fromkeys((n0, n1)):
            if m in degree:
                degree[m] -= incident[m].count(cid)
                if degree[m] == 1:
                    queue.append(m)
    alive_nodes = set(nt.nodes) - pruned
    if not alive_nodes or not alive_edges:
        raise PositionError("no cycle found: graph is a tree")
    start = min(alive_nodes)
    nodes = [start]
    edges: list[str] = []
    current = start
    used: set[str] = set()
    while True:
        options = [cid for cid in incident.get(current, ()) if cid in alive_edges and cid not in used]
        if not options:
            break
        cid = options[0]
        used.add(cid)
        _, n0, n1 = nt.crossings[cid]
        nxt = n1 if current == n0 else n0
        edges.append(cid)
        if nxt == start and len(used) == len(alive_edges):
            break
        nodes.append(nxt)
        current = nxt
    if len(edges) != len(alive_edges) or len(nodes) != len(alive_nodes):
        raise PositionError("cycle extraction failed")
    return nodes, edges


def _oriented_steps(nt: NormalTorus, nodes: list[str], edges: list[str], direction: int) -> tuple[list[str], list[tuple[str, int]]]:
    """Cycle traversal as (node sequence, [(crossing, from_end), ...]).

    Step i runs from node i to node i+1 (cyclically) leaving through the
    sphere end ``from_end``.  Self-loop crossings take their direction from
    the requested orientation.
    """
    if direction == 0:
        ns, es = list(nodes), list(edges)
    else:
        ns = [nodes[0]] + nodes[1:][::-1]
        es = edges[::-1]
    steps = []
    for i, cid in enumerate(es):
        sphere, n0, n1 = nt.crossings[cid]
        if n0 == n1:
            from_end = 0 if direction == 0 else 1
        else:
            from_end = 0 if n0 == ns[i] else 1
        steps.append((cid, from_end))
    return ns, steps


def _payload(nt: NormalTorus, att, signs, node: str, he: HalfEdge, flip: bool) -> str:
    """Code of what hangs off ``node`` at ``he``; leaves read ``leaf`` when ``signs`` is None."""
    what, ident = att[node][he]
    if what == "leaf":
        if signs is None:
            return f"{he.label()}:leaf"
        sign = signs[LeafStub(node, he)]
        if flip:
            sign = MINUS if sign == PLUS else PLUS
        return f"{he.label()}:{sign}"
    sphere, n0, n1 = nt.crossings[ident]
    child = n1 if n0 == node else n0
    child_entry = HalfEdge(sphere, 1 if n0 == node else 0)
    return f"{he.label()}:({_subtree_code(nt, att, child, child_entry, signs, flip)})"


def _subtree_code(nt: NormalTorus, att, node: str, entry: HalfEdge, signs, flip: bool) -> str:
    parts = [_payload(nt, att, signs, node, he, flip) for he in sorted(k for k in att[node] if k != entry)]
    pants, _ = nt.nodes[node]
    return f"{pants}<{entry.label()}|{';'.join(parts)}>"


def _axis_tokens(nt: NormalTorus, att, signs, ns: list[str], steps, flip: bool) -> list[str]:
    """Token per axis node for one direction of the cycle."""
    k = len(ns)
    tokens = []
    for i, node in enumerate(ns):
        cid_in, from_in = steps[(i - 1) % k]
        cid_out, from_out = steps[i]
        he_in = HalfEdge(nt.crossings[cid_in][0], 1 - from_in)
        he_out = HalfEdge(nt.crossings[cid_out][0], from_out)
        rest = [he for he in sorted(att[node]) if he not in (he_in, he_out)]
        payloads = [_payload(nt, att, signs, node, he, flip) for he in rest]
        pants, _ = nt.nodes[node]
        tokens.append(f"{pants}[{he_in.label()}>{he_out.label()}|{';'.join(payloads)}]")
    return tokens


def _direction_codes(d: DecoratedGraph) -> tuple[str, str]:
    """Min code over rotations and global flips, one per axis direction."""
    nt = d.torus
    nodes, edges = _axis_cycle(nt)
    att = nt.attachments()
    k = len(nodes)
    out = []
    for direction in (0, 1):
        ns, steps = _oriented_steps(nt, nodes, edges, direction)
        best = None
        for flip in (False, True):
            tokens = _axis_tokens(nt, att, d.signs, ns, steps, flip)
            for r in range(k):
                rotated = tokens[r:] + tokens[:r]
                code = "|".join(rotated)
                if best is None or code < best:
                    best = code
        out.append(best)
    return out[0], out[1]


def canonicalize(d: DecoratedGraph, allow_reversal: bool = True) -> str:
    """Complete invariant code of the decorated graph.

    Invariant under node relabeling (the immersion into the sphere graph is
    kept fixed), rotation of the axis, global sign flip, and - unless
    disabled - reversal of the axis direction.
    """
    fwd, bwd = _direction_codes(d)
    if allow_reversal:
        return min(fwd, bwd)
    return fwd


def equivalent(d1: DecoratedGraph, d2: DecoratedGraph, allow_reversal: bool = True) -> bool:
    """Same normal homotopy class: equal decorated graphs up to orientation."""
    if d1.torus.graph != d2.torus.graph:
        raise PositionError("decorated graphs live over different sphere graphs")
    if allow_reversal:
        return canonicalize(d1) == canonicalize(d2)
    return bool(set(_direction_codes(d1)) & set(_direction_codes(d2)))


def fundamental_domain(nt: NormalTorus) -> tuple[list[str], dict[str, list[str]]]:
    """Axis cycle nodes plus, per axis node, its hanging branch codes.

    Branch codes here are unsigned (structure only); signs live on the
    decorated graph.
    """
    nodes, edges = _axis_cycle(nt)
    att = nt.attachments()
    branches: dict[str, list[str]] = {}
    for node in nodes:
        subtrees = []
        for he in sorted(att[node]):
            what, ident = att[node][he]
            if what != "crossing" or ident in edges:
                continue
            sphere, n0, n1 = nt.crossings[ident]
            child = n1 if n0 == node else n0
            entry = HalfEdge(sphere, 1 if n0 == node else 0)
            subtrees.append(_subtree_code(nt, att, child, entry, None, False))
        if subtrees:
            branches[node] = subtrees
    return nodes, branches


def axis_word(nt: NormalTorus, labeling: GeneratorLabeling) -> list[tuple[int, int]]:
    """Conjugacy class of the axis in the free group, as a cyclic word.

    Reads the axis cycle's crossings; spanning-tree spheres contribute
    nothing, labeled spheres contribute their generator with the sign of
    the crossing direction.  The walk is immersed, so the word comes out
    cyclically reduced and nonempty; it is normalized to the least rotation
    of itself or its inverse.
    """
    nodes, edges = _axis_cycle(nt)
    _, steps = _oriented_steps(nt, nodes, edges, 0)
    word: list[tuple[int, int]] = []
    for cid, from_end in steps:
        sphere = nt.crossings[cid][0]
        letter = labeling.word_letter(sphere, from_end)
        if letter is not None:
            word.append(letter)
    reduced = _cyclic_reduce(word)
    if reduced != word or not reduced:
        raise PositionError("axis word failed to be cyclically reduced and nonempty")
    return _least_rotation(word)


def _cyclic_reduce(word: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out = list(word)
    changed = True
    while changed and out:
        changed = False
        for i in range(len(out)):
            j = (i + 1) % len(out)
            if i != j and out[i][0] == out[j][0] and out[i][1] == -out[j][1]:
                for k in sorted((i, j), reverse=True):
                    del out[k]
                changed = True
                break
    return out


def _letter_key(letter: tuple[int, int]) -> tuple[int, int]:
    idx, sign = letter
    return (idx, 0 if sign > 0 else 1)


def _least_rotation(word: list[tuple[int, int]]) -> list[tuple[int, int]]:
    inverse = [(idx, -s) for idx, s in reversed(word)]
    candidates = []
    for w in (word, inverse):
        for r in range(len(w)):
            candidates.append(tuple(w[r:] + w[:r]))
    best = min(candidates, key=lambda w: [_letter_key(x) for x in w])
    return list(best)


def format_word(word: list[tuple[int, int]]) -> str:
    parts = []
    for idx, sign in word:
        parts.append(f"x{idx}" if sign > 0 else f"x{idx}^-1")
    return " ".join(parts)
