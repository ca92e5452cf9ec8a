"""Dual-graph picture of a normal torus and its decorated-graph invariant.

A normal torus defines a graph immersed in the sphere graph: one node per
piece (sitting over its pants), one crossing edge per intersection circle
(running through both ends of its sphere), and one leaf stub per boundary
sphere a piece does not cross.  The graph is connected with first Betti
number one; its unique cycle is the projection of the invariant axis of
the covering translation the torus carries, and the hanging trees are
finite decorations on that axis.  A ``NormalTorus`` is an immutable value
that derives all of this once, from a valid normal position, when it is
built: what is attached to each node, the side bits of the one walk over
its piece graph, and the axis.  ``to_normal_torus`` checks the position,
and one stack walker, ``_code``, reads the trees hanging off the axis.

A choice of transverse orientation signs every leaf stub; the resulting
decorated graph, up to graph isomorphism over the sphere graph and a
global sign flip, classifies normal tori up to normal homotopy.  The
canonical code computed here is a complete invariant for that relation:
immersedness pins every node's half-edge assignment, so only the axis
rotation, its direction, and the global flip remain to minimize over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .graphs import GeneratorLabeling, HalfEdge, SphereGraph, tree_path, walk
from .position import (
    SIDE_A,
    SIDE_B,
    _KINDS,
    KleinBottleError,  # re-exported: ``to_normal_torus`` raises it
    PositionError,
    TorusPosition,
    _checked,
    is_normal,
    xor_side,
)

PLUS = "+"
MINUS = "-"
_FLIPPED = {PLUS: MINUS, MINUS: PLUS, "leaf": "leaf"}


class LeafStub(NamedTuple):
    """A sphere end a piece does not cross; leaves sort by node, then half-edge."""

    node: str
    half_edge: HalfEdge


@dataclass(frozen=True)
class NormalTorus:
    """Betti-1 graph of a normal torus, immersed into the sphere graph.

    Derived from ``position``, which must be valid and normal
    (``to_normal_torus`` builds one checked), and its ``index``,
    ``circle_slots()``, built when not given, as ``normalize`` and
    ``to_normal_torus`` hand on theirs.  An immutable value that derives
    once, in one pass over the pieces and one over the circles (which lists
    the piece graph's edges for one ``graphs.walk``): its ``graph``;
    ``nodes``, node id -> (pants, kind), one per piece;
    ``crossings``, circle id -> (sphere, node at end 0, node at end 1);
    ``leaves``, a stub per sphere end a piece does not cross;
    ``attachments`` (node -> half-edge -> ("crossing", circle id) or
    ("leaf", stub)); the walk's ``side`` bits, flipped where transport is
    False; and the ``axis`` (nodes, crossings), crossing i joining node i
    to node i+1: the one crossing outside the walk's tree (the piece graph
    is connected with betti number one) closed through it, from its least
    node along the lesser of that node's axis crossings.
    """

    position: TorusPosition
    index: dict | None = field(default=None, repr=False, compare=False)
    graph: SphereGraph = field(init=False, repr=False, compare=False)
    nodes: Mapping[str, tuple[str, str]] = field(init=False, repr=False, compare=False)
    crossings: Mapping[str, tuple[str, str, str]] = field(init=False, repr=False, compare=False)
    leaves: tuple[LeafStub, ...] = field(init=False, repr=False, compare=False)
    attachments: Mapping[str, Mapping[HalfEdge, tuple]] = field(init=False, repr=False, compare=False)
    side: Mapping[str, bool] = field(init=False, repr=False, compare=False)
    axis: tuple[tuple[str, ...], tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = self.position
        index = t.circle_slots() if self.index is None else self.index
        nodes, leaves, att, crossings, edges = {}, [], {}, {}, []
        for pid, piece in t.pieces.items():
            nodes[pid] = (piece.pants, _KINDS[len(piece.boundary)])  # a normal piece's kind, by its circles
            here = att[pid] = {}
            for he in sorted(piece.uncrossed):
                leaves.append(LeafStub(pid, he))
                here[he] = ("leaf", leaves[-1])
        for cid in t.circles:
            (p, at_p), (q, at_q) = index[cid]
            n0, n1 = (q.id, p.id) if at_p.half_edge.end else (p.id, q.id)
            crossings[cid] = (at_p.half_edge.sphere, n0, n1)
            att[p.id][at_p.half_edge] = att[q.id][at_q.half_edge] = ("crossing", cid)
            edges.append((cid, n0, n1, not t.transport.get(cid, True)))
        edges.sort()  # the walk reads the edges in circle id order
        _, side, parent, _ = walk(nodes, edges)
        tree = {link[1] for link in parent.values() if link is not None}
        extra = next(cid for cid, _, _, _ in edges if cid not in tree)
        _, a, b = crossings[extra]
        cycle, cut = tree_path(parent, b, a)
        cut.append(extra)
        i = cycle.index(min(cycle))
        cycle, cut = cycle[i:] + cycle[:i], cut[i:] + cut[:i]
        if cut[-1] < cut[0]:
            cycle, cut = cycle[:1] + cycle[:0:-1], cut[::-1]
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "graph", t.graph)
        object.__setattr__(self, "nodes", MappingProxyType(nodes))
        object.__setattr__(self, "crossings", MappingProxyType(crossings))
        object.__setattr__(self, "leaves", tuple(leaves))
        object.__setattr__(self, "attachments", MappingProxyType({n: MappingProxyType(a) for n, a in att.items()}))
        object.__setattr__(self, "side", MappingProxyType(side))
        object.__setattr__(self, "axis", (tuple(cycle), tuple(cut)))

    def __reduce__(self):  # a read-only mapping cannot be pickled; the position can
        return NormalTorus, (self.position,)


def to_normal_torus(t: TorusPosition) -> NormalTorus:
    """The checked way to build a ``NormalTorus``: ``t`` must pass ``validate_position``, then be normal.

    ``KleinBottleError`` if nontrivial monodromy is the only problem.
    """
    index, tally = _checked(t)
    if tally.abnormal:
        raise PositionError("not normal: " + "; ".join(is_normal(t)[1]))
    return NormalTorus(t, index)


@dataclass
class DecoratedGraph:
    """Normal torus plus a sign on every leaf stub."""

    torus: NormalTorus
    signs: dict[LeafStub, str]
    base_piece: str
    base_side: str


def decorate(nt: NormalTorus, base_piece: str | None = None, base_side: str = SIDE_A) -> DecoratedGraph:
    """Propagate a transverse orientation and sign the leaves.

    The base piece's chosen side, A or B, is declared positive; the torus's
    side bits carry that across every crossing.  A ``NormalTorus`` comes
    from a valid position, whose transport has trivial monodromy, so this
    fails only on a base piece the torus lacks or a base side other than A
    or B.  Flipping ``base_side`` flips every sign.
    """
    t, side = nt.position, nt.side
    if base_piece is None:
        base_piece = min(nt.nodes)
    if base_piece not in nt.nodes:
        raise PositionError(f"unknown base piece {base_piece}")
    if base_side not in (SIDE_A, SIDE_B):
        raise PositionError(f"base side must be {SIDE_A} or {SIDE_B}, got {base_side!r}")
    signs = {}
    for leaf in nt.leaves:
        plus = xor_side(base_side, side[leaf.node] != side[base_piece])
        signs[leaf] = PLUS if t.pieces[leaf.node].uncrossed[leaf.half_edge] == plus else MINUS
    return DecoratedGraph(nt, signs, base_piece, base_side)


def sides(d: DecoratedGraph) -> tuple[list[LeafStub], list[LeafStub]]:
    """The leaves on the positive and the negative side of the torus."""
    pos = sorted(l for l in d.signs if d.signs[l] == PLUS)
    neg = sorted(l for l in d.signs if d.signs[l] == MINUS)
    return pos, neg


def bounds_solid_torus(d: DecoratedGraph) -> bool:
    """All leaf labels equal: one complementary side is empty."""
    pos, neg = sides(d)
    return not pos or not neg


def _across(nt: NormalTorus, node: str, cid: str) -> tuple[str, HalfEdge]:
    """The node at the far end of crossing ``cid`` from ``node``, and the half-edge it is entered by."""
    sphere, n0, n1 = nt.crossings[cid]
    return (n1, HalfEdge(sphere, 1)) if n0 == node else (n0, HalfEdge(sphere, 0))


def _leaf(sep: str, label: str, sign: str) -> tuple[str, str]:
    """A leaf stub's fragment of both codes: ``label:sign`` and ``label:flipped sign``, after ``sep``."""
    return f"{sep}{label}:{sign}", f"{sep}{label}:{_FLIPPED[sign]}"


def _code(nt: NormalTorus, labels, signs, node: str, entry: HalfEdge) -> tuple[str, str]:
    """Both codes of the tree hanging from ``node``, entered by ``entry``, as (code, code with every sign flipped).

    ``pants<entry|payloads>``, the payloads per half-edge in sorted order
    other than ``entry``: ``he:sign`` at a leaf stub (``he:leaf`` when
    ``signs`` is None) or ``he:(code)`` through a crossing, joined by
    ``;``.  ``labels`` maps each half-edge to its ``label()``.  A hanging
    tree meets the axis only at its entry, so no other crossing leads back.

    The walk keeps its own stack, so deep branches cost no recursion.  It
    emits each fragment once, in order: a string common to both codes, a
    (plain, flipped) pair at a leaf stub, or a child (node, entry) that
    stands for its whole code.  The strings are joined once, so a deep
    chain costs linear time.
    """
    att = nt.attachments
    plain, flipped = [], []
    stack: list = [(node, entry)]
    while stack:
        top = stack.pop()
        if type(top) is str:  # common to both codes
            plain.append(top)
            flipped.append(top)
            continue
        if type(top[1]) is str:  # a leaf stub's (plain, flipped) pair
            plain.append(top[0])
            flipped.append(top[1])
            continue
        node, entry = top
        parts: list = [f"{nt.nodes[node][0]}<{labels[entry]}|"]
        sep = ""
        for he, (what, ident) in sorted(att[node].items()):
            if what == "leaf":
                parts.append(_leaf(sep, labels[he], "leaf" if signs is None else signs[ident]))
            elif he != entry:
                parts += (f"{sep}{labels[he]}:(", _across(nt, node, ident), ")")
            else:
                continue
            sep = ";"
        parts.append(">")
        stack.extend(reversed(parts))
    return "".join(plain), "".join(flipped)


def canonicalize(d: DecoratedGraph) -> str:
    """Complete invariant code of the decorated graph.

    Invariant under node relabeling (the immersion into the sphere graph is
    kept fixed), rotation of the axis, global sign flip and reversal of the
    axis direction: the least code over both directions, both sign flips
    and every rotation.  An axis has no intrinsic direction, since g and
    g^-1 generate the same edge group of its Z-splitting.  Reversing the
    axis reverses its node order and swaps each token's in and out
    half-edges.  Each axis node spells its own leaf stubs and hanging
    crossings, ``_code`` walking the tree beyond each of the latter, and
    ``_least_code`` compares only the rotations at least tokens.
    """
    nt, signs = d.torus, d.signs
    labels = {he: he.label() for he in nt.graph.incidence}
    nodes, cut = nt.axis
    heads = []
    for i, node in enumerate(nodes):
        he_in, he_out, plain, flipped = None, None, [], []
        for he, (what, ident) in sorted(nt.attachments[node].items()):
            sep = ";" if plain else ""
            if what == "leaf":
                fragment = _leaf(sep, labels[he], signs[ident])
            elif ident == cut[i] and he_out is None:  # a self-loop axis leaves through end 0, which sorts first
                he_out = labels[he]
                continue
            elif ident == cut[i - 1]:
                he_in = labels[he]
                continue
            else:  # a hanging crossing
                child = _code(nt, labels, signs, *_across(nt, node, ident))
                fragment = tuple(f"{sep}{labels[he]}:({code})" for code in child)
            plain.append(fragment[0])
            flipped.append(fragment[1])
        heads.append((nt.nodes[node][0], he_in, he_out, ("".join(plain), "".join(flipped))))
    codes = []
    for flip in (0, 1):
        forward = [f"{pants}[{he_in}>{he_out}|{payloads[flip]}]" for pants, he_in, he_out, payloads in heads]
        backward = [f"{pants}[{he_out}>{he_in}|{payloads[flip]}]" for pants, he_in, he_out, payloads in heads]
        codes += map(_least_code, (forward, backward[:1] + backward[:0:-1]))
    return min(codes)


def _least_code(tokens: list[str]) -> str:
    """The least rotation of ``tokens`` joined by ``|``, a slice of the doubled string.

    Only the starts at tokens that begin with the least token are compared:
    a start at any other token differs from one at the least token within
    that token, and is greater.
    """
    least, doubled = min(tokens), "|".join(tokens + tokens)
    size, start, best = len(doubled) // 2, 0, None
    for token in tokens:
        if token.startswith(least):
            code = doubled[start:start + size]
            if best is None or code < best:
                best = code
        start += len(token) + 1
    return best


def equivalent(d1: DecoratedGraph, d2: DecoratedGraph) -> bool:
    """Same normal homotopy class: equal canonical codes over one sphere graph."""
    if d1.torus.graph != d2.torus.graph:
        raise PositionError("decorated graphs live over different sphere graphs")
    return canonicalize(d1) == canonicalize(d2)


def fundamental_domain(nt: NormalTorus) -> tuple[list[str], dict[str, list[str]]]:
    """Axis cycle nodes plus, per axis node, its hanging branch codes.

    Branch codes here are unsigned (structure only); signs live on the
    decorated graph.
    """
    nodes, edges = nt.axis
    labels, axis = {he: he.label() for he in nt.graph.incidence}, set(edges)
    branches: dict[str, list[str]] = {}
    for node in nodes:
        hanging = [ident for _, (what, ident) in sorted(nt.attachments[node].items()) if what == "crossing" and ident not in axis]
        subtrees = [_code(nt, labels, None, *_across(nt, node, ident))[0] for ident in hanging]
        if subtrees:
            branches[node] = subtrees
    return list(nodes), branches


def axis_word(nt: NormalTorus, labeling: GeneratorLabeling) -> list[tuple[int, int]]:
    """Conjugacy class of the axis in the free group, as a cyclic word.

    Reads the axis cycle's crossings; spanning-tree spheres contribute
    nothing, labeled spheres contribute their generator with the sign of
    the crossing direction.  The walk is immersed, so the word comes out
    cyclically reduced and nonempty; it is normalized to the least rotation
    of itself or its inverse.
    """
    word: list[tuple[int, int]] = []
    for node, cid in zip(*nt.axis):  # leaving ``node`` through its end; a self-loop through end 0
        sphere, n0, _ = nt.crossings[cid]
        if (letter := labeling.word_letter(sphere, 0 if n0 == node else 1)) is not None:
            word.append(letter)
    if not word or any(a == (b[0], -b[1]) for a, b in zip(word, word[1:] + word[:1])):
        raise PositionError("axis word failed to be cyclically reduced and nonempty")
    return _least_rotation(word)


def _least_rotation(word: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The least rotation of ``word`` or its inverse, letters ordered by index and then x before x^-1."""
    inverse = [(idx, -sign) for idx, sign in reversed(word)]
    rotations = (w[r:] + w[:r] for w in (word, inverse) for r in range(len(w)))
    return min(rotations, key=lambda w: [(idx, -sign) for idx, sign in w])


def format_word(word: list[tuple[int, int]]) -> str:
    return " ".join(f"x{idx}" if sign > 0 else f"x{idx}^-1" for idx, sign in word)
