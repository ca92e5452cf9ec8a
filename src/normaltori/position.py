"""Torus positions relative to a sphere system.

A position records how a closed surface sits relative to the spheres:
connected pieces inside each pants, intersection circles on each sphere,
the tree of complementary regions each sphere's circles cut out, and the
side bookkeeping needed to transport a co-orientation across circles.

Positions are treated as immutable values.  A move builds its result
from one ``shallow_copy`` of its input and replaces each piece, circle
or region tree it changes with a new object, never editing one; the
result shares every unchanged item with its input.  Region trees are
immutable values that copies share, so code that edits a position in
place (the tests do) edits the pieces, circles and dicts of a ``clone``.
Nothing here assumes the surface is in normal form - transient states
mid-normalization (several circles of one piece on one sphere end,
positive genus, boundary-parallel disks) are all representable.

``_step`` is the one step routine of ``normalize`` and ``perturb``.  It
takes a move's or an inverse move's raw result, which reports the ids of
the pieces, circles and region tree it replaced, and returns the
result's ``circle_slots()`` index and its ``Tally``, each updated from
the step before over those ids, with the result's problems from
``_validate_delta``, the one check of a step's result, the last one and
a normal one included.  That check takes its scope from the move's
report (``_delta_scope``); the tests pin that scope equal to the one
found by comparing every id of the two positions by value.  For
connectivity and monodromy it carries the tally's side bits, the last
walk's, over the edges the step changed (``_certified``), and walks the
whole piece graph, as the full check does, only when that certificate
cannot prove there is no problem.

The full check of an input, ``validate_position`` (through ``_checked``),
shares ``_validate`` with the step check, where each rule of a piece,
circle or region tree is one test that words its own problem; the same
passes sum the input's ``Tally`` and pick the few pieces whose side anchors
can conflict, so a valid input costs no message and one pass over each kind.
"""

from __future__ import annotations

import copy
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .graphs import HalfEdge, SphereGraph, validate_graph, walk

SIDE_A = "A"
SIDE_B = "B"


class PositionError(ValueError):
    """Raised when an operation's structural precondition fails."""


class KleinBottleError(PositionError):
    """Side transport has nontrivial monodromy: the surface is one-sided."""


class _Monodromy(str):
    """The problem of a bad cycle that the piece-graph walk found, as ``_checked`` tells it from the others."""


class _Problems(list):
    """A check's problems; a check that finds nothing also leaves the position's ``tally``, with its side bits."""

    tally = None


def flip_side(side: str) -> str:
    return SIDE_B if side == SIDE_A else SIDE_A


def xor_side(side: str, flip: bool) -> str:
    return flip_side(side) if flip else side


_NAMES: dict[str, tuple[str, ...]] = {}  # prefix -> (prefix0, prefix1, ...), as far as any call has needed


def fresh_id(prefix: str, used) -> str:
    """Smallest ``prefix<k>`` not in ``used``; deterministic allocation.

    ``used`` is probed by membership only, so pass a set or a dict.  The
    names are scanned from ``prefix0`` in a tuple kept per prefix, built
    once and replaced by a longer one only when a scan runs past its end,
    so a probe formats no name.  A tuple depends on its prefix alone, so
    every caller may share it.
    """
    names = _NAMES.get(prefix, ())
    while True:
        for name in names:
            if name not in used:
                return name
        names = _NAMES[prefix] = names + tuple(f"{prefix}{k}" for k in range(len(names), 2 * len(names) + 16))


@dataclass
class Circle:
    """One intersection circle of the surface with one sphere."""

    id: str
    sphere: str


@dataclass
class BoundarySlot:
    """One boundary curve of a piece, glued to a circle at a sphere end.

    ``region_a`` pins down the circle's adjacent region that lies on side A
    of this piece; the region on the other side of the circle is then on
    side B.  This anchors the piece's two complementary sides to the region
    tree, which the cap move and the inverse moves need.
    """

    circle: str
    half_edge: HalfEdge
    region_a: str


@dataclass
class Piece:
    """A connected component of the surface inside one pants.

    ``uncrossed`` maps every half-edge of the pants that carries none of
    this piece's boundary circles to the side (A or B) of the piece on
    which that boundary sphere lies.  Euler characteristic is
    2 - 2*genus - len(boundary).
    """

    id: str
    pants: str
    genus: int
    boundary: list[BoundarySlot]
    uncrossed: dict[HalfEdge, str] = field(default_factory=dict)

    def euler(self) -> int:
        return 2 - 2 * self.genus - len(self.boundary)

    def circles(self) -> set[str]:
        return {slot.circle for slot in self.boundary}

    def replacing_slot(self, cid: str, he: HalfEdge, slots) -> "Piece":
        """A new piece with its slot of ``cid`` at ``he`` replaced by ``slots``."""
        boundary = []
        for slot in self.boundary:
            boundary.extend(slots if slot.circle == cid and slot.half_edge == he else (slot,))
        return Piece(self.id, self.pants, self.genus, boundary, self.uncrossed)


@dataclass(frozen=True)
class RegionTree:
    """Complementary regions of one sphere's circles; circles are the edges.

    An immutable value, which ``copy.deepcopy`` returns as is, with a
    frozenset of ``regions`` and a read-only copy of ``edges``.  Built once:
    ``neighbors``, region -> ((circle, region across it), ...) in edge
    order, and ``walk``, the breadth-first walk from the least region as
    (parent, circle, region) steps, the root's (None, None, root) first.
    Building never raises; ``validate_position`` reports a malformed tree.
    """

    sphere: str
    regions: frozenset[str]
    edges: Mapping[str, tuple[str, str]] = field(default_factory=dict)
    neighbors: Mapping[str, tuple[tuple[str, str], ...]] = field(init=False, repr=False, compare=False)
    walk: tuple[tuple[str | None, str | None, str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        regions, edges = frozenset(self.regions), MappingProxyType(dict(self.edges))
        nbrs: dict[str, list[tuple[str, str]]] = {}
        for cid, (a, b) in edges.items():
            nbrs.setdefault(a, []).append((cid, b))
            if b != a:
                nbrs.setdefault(b, []).append((cid, a))
        walk = [(None, None, min(regions))] if regions else []
        seen = {r for _, _, r in walk}
        for _, _, r in walk:  # breadth first: the list grows as it is read
            for cid, q in nbrs.get(r, ()):
                if q not in seen:
                    seen.add(q)
                    walk.append((r, cid, q))
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "neighbors", MappingProxyType({r: tuple(across) for r, across in nbrs.items()}))
        object.__setattr__(self, "walk", tuple(walk))

    def __deepcopy__(self, memo) -> "RegionTree":
        return self

    def __reduce__(self):  # a read-only mapping cannot be pickled; its dict can
        return RegionTree, (self.sphere, self.regions, dict(self.edges))

    def adjacent(self, circle: str) -> tuple[str, str]:
        return self.edges[circle]

    def other_region(self, circle: str, region: str) -> str:
        a, b = self.edges[circle]
        return b if region == a else a

    def is_leaf(self, region: str) -> bool:
        """Whether exactly one circle borders ``region``."""
        return len(self.neighbors.get(region, ())) == 1


@dataclass
class TorusPosition:
    """A surface position: pieces, circles, region trees and side transport.

    ``transport`` holds one bit per circle: True when side A of the piece
    at end 0 of the circle's sphere continues to side A of the piece at
    end 1.  The product of these bits around any cycle of the piece graph
    must be trivial, otherwise the glued surface is one-sided.
    """

    graph: SphereGraph
    pieces: dict[str, Piece]
    circles: dict[str, Circle]
    trees: dict[str, RegionTree]
    transport: dict[str, bool]

    def clone(self) -> "TorusPosition":
        """A deep copy, safe to edit in place; it shares the graph, an immutable value."""
        return copy.deepcopy(self)

    def shallow_copy(self) -> "TorusPosition":
        """New dicts holding the same items, for a move to replace some of them."""
        return TorusPosition(
            self.graph, dict(self.pieces), dict(self.circles), dict(self.trees), dict(self.transport)
        )

    def circle_slots(self) -> dict[str, list[tuple[Piece, BoundarySlot]]]:
        """Circle id -> every (piece, slot) glued to it, in piece then slot order.

        Built afresh on each call and never stored on the position: tests edit
        the pieces of a clone in place, so a kept index would go stale.
        Callers that look up many circles build it once and read it with
        ``end_slot``.  Inside ``normalize`` and ``perturb`` each ``_step``
        updates the index (``_reindexed``) instead of building it again; the
        tests pin the update equal to a fresh build, up to the order of a
        circle's pairs.
        """
        index: dict[str, list[tuple[Piece, BoundarySlot]]] = {}
        for piece in self.pieces.values():
            for slot in piece.boundary:
                index.setdefault(slot.circle, []).append((piece, slot))
        return index

    def half_edge_label(self, he: HalfEdge) -> str:
        """Human-facing ``sphere@pants`` name of a sphere end."""
        return f"{he.sphere}@{self.graph.pants_of(he)}"


def end_slot(
    t: TorusPosition, index: dict[str, list[tuple[Piece, BoundarySlot]]], cid: str, end: int
) -> tuple[Piece, BoundarySlot]:
    """The (piece, slot) at one end of a circle, read from a ``circle_slots`` index."""
    he = HalfEdge(t.circles[cid].sphere, end)
    for piece, slot in index.get(cid, ()):
        if slot.half_edge == he:
            return piece, slot
    raise PositionError(f"circle {cid} has no piece at {he.label()}")


def _all_regions(t: TorusPosition) -> set[str]:
    """Every region id of every sphere's tree, for allocating a fresh one."""
    return {r for tree in t.trees.values() for r in tree.regions}


def euler_characteristic(t: TorusPosition) -> int:
    return sum(piece.euler() for piece in t.pieces.values())


def intersection_vector(t: TorusPosition) -> dict[str, int]:
    counts = {s: 0 for s in t.graph.sphere_edges}
    for c in t.circles.values():
        counts[c.sphere] += 1
    return counts


def total_intersections(t: TorusPosition) -> int:
    return len(t.circles)


def _piece_edges(t: TorusPosition, index) -> list[tuple[str, str, str, bool]]:
    """(circle, piece, piece, flip) per circle of ``t`` with two slots, in circle order."""
    edges = []
    for cid in sorted(t.circles):
        pair = index.get(cid, ())
        if len(pair) == 2:
            (piece_a, _), (piece_b, _) = pair
            edges.append((cid, piece_a.id, piece_b.id, not t.transport.get(cid, True)))
    return edges


def validate_position(t: TorusPosition, index=None) -> list[str]:
    """All structural invariants; empty list when the position is valid.  ``index``: ``t.circle_slots()``.

    Once the check gets past the graph, the list is a ``_Problems``: when it
    finds nothing, it holds ``t``'s ``Tally``, summed in the same per-item
    passes, with the side bits of its walk over the piece graph.
    """
    problems = validate_graph(t.graph)
    if problems:
        return problems
    if not t.pieces:
        return ["position has no pieces"]
    return _validate(t, t.circle_slots() if index is None else index, t.pieces, t.circles, t.graph.sphere_edges)


def _checked(t: TorusPosition, prefix: str = "", error: type = PositionError) -> tuple[dict, "Tally"]:
    """The one validation boundary: ``t.circle_slots()`` and ``t``'s ``Tally``, for the caller to hand on, once ``t`` is valid.

    The tally is the one that the check's passes summed (equal to
    ``Tally.of``), with the side bits of its walk.  Else ``error`` of
    ``prefix`` and the problems, or ``KleinBottleError`` if the walk's bad
    cycle is the only one.
    """
    index = t.circle_slots()
    if problems := validate_position(t, index):
        one_sided = len(problems) == 1 and type(problems[0]) is _Monodromy
        raise (KleinBottleError if one_sided else error)(prefix + "; ".join(problems))
    return index, problems.tally


def _delta_scope(before: TorusPosition, after: TorusPosition, index, pieces, circles, spheres):
    """(pieces, circles, spheres, ends) of ``after`` whose checks can differ from ``before``'s.

    ``pieces``, ``circles`` and ``spheres`` are the ids a step replaced, as
    a move reports them, or every id; only these are compared by value, so
    every other id must hold the same item in both positions.  Each check
    reads only its own item and what the item references, so an item
    outside the scope reads what it read in the valid ``before`` and finds
    nothing:

    * pieces: added, or changed in more than their slots' anchors (a piece
      check reads no anchor), or referencing a circle that was added,
      removed or changed (``index``, ``after.circle_slots()``, finds the
      unchanged ones, which reference it in ``after`` too);
    * circles: added, changed or with a changed transport bit, every
      circle that a changed piece gained or lost a slot of at some sphere
      end (its holders changed), and every circle of a piece added,
      removed or moved to another pants, before or after (a circle check
      reads its slots' ends and their pieces' pants);
    * spheres: a changed region tree, or an added, removed or changed
      circle on it before or after (a tree check reads the tree and the
      circles on its sphere);
    * ends: (piece, sphere end) pairs of added or changed pieces whose
      slots at that end changed, each mapped to those slots' (circle,
      anchor) in ``after``.  A side-anchor check reads one piece's slots at
      one end and that sphere's tree, so it runs on these ends and on every
      end at a scoped sphere.
    """
    scope, circle_scope, ends = set(), set(), {}
    for pid in pieces:
        old, new = before.pieces.get(pid), after.pieces.get(pid)
        if old is new:
            continue
        if _reshaped(old, new):
            scope.add(pid)
            if old is None or new is None or old.pants != new.pants:
                circle_scope.update(cid for piece in (old, new) if piece for cid in piece.circles())
        old_at, new_at = (_anchors_by_end(piece) if piece else {} for piece in (old, new))
        for he in old_at.keys() | new_at.keys():
            a, b = old_at.get(he, []), new_at.get(he, [])
            if a == b:
                continue
            if b:
                ends[pid, he] = b
            a, b = [cid for cid, _ in a], [cid for cid, _ in b]
            if a != b:  # a circle listed twice changes its slot count, so take all then
                circle_scope.update(set(a) ^ set(b) if len(set(a)) == len(a) and len(set(b)) == len(b) else {*a, *b})
    changed = {cid for cid in circles if before.circles.get(cid) != after.circles.get(cid)}
    circle_scope |= changed | {cid for cid in circles if before.transport.get(cid) != after.transport.get(cid)}
    sphere_scope = {s for s in spheres if before.trees.get(s) != after.trees.get(s)}
    for t in (before, after):
        sphere_scope.update(t.circles[cid].sphere for cid in changed & t.circles.keys())
    for cid in changed:
        scope.update(piece.id for piece, _ in index.get(cid, ()))
    return scope & after.pieces.keys(), circle_scope & after.circles.keys(), sphere_scope, ends


def _reshaped(old: Piece | None, new: Piece | None) -> bool:
    """Whether ``old`` and ``new`` differ in what a piece check reads of a piece: all of it but its slots' anchors."""
    if old is None or new is None:
        return True
    if old.id != new.id or old.pants != new.pants or old.genus != new.genus or old.uncrossed != new.uncrossed:
        return True
    return len(old.boundary) != len(new.boundary) or any(
        a.circle != b.circle or a.half_edge != b.half_edge for a, b in zip(old.boundary, new.boundary))


def _anchors_by_end(piece: Piece) -> dict[HalfEdge, list[tuple[str, str]]]:
    """Sphere end -> (circle, anchor) of each of the piece's slots there, in slot order."""
    by_he: dict[HalfEdge, list[tuple[str, str]]] = {}
    for slot in piece.boundary:
        by_he.setdefault(slot.half_edge, []).append((slot.circle, slot.region_a))
    return by_he


def _reindexed(index, before: TorusPosition, after: TorusPosition, pieces) -> dict:
    """``after.circle_slots()``, updated from ``before``'s ``index`` over the pieces a step replaced.

    ``pieces`` must hold every piece id whose item differs between the two
    positions.  Each circle gets the same (piece, slot) pairs as a fresh
    build, though a changed circle's pairs may come in another order; the
    step's readers find a slot by its sphere end, never by its place.
    """
    out = dict(index)
    fresh: dict[str, list[tuple[Piece, BoundarySlot]]] = {}
    for pid in sorted(pieces):
        for slot in before.pieces[pid].boundary if pid in before.pieces else ():
            fresh.setdefault(slot.circle, [])
        piece = after.pieces.get(pid)
        for slot in piece.boundary if piece is not None else ():
            fresh.setdefault(slot.circle, []).append((piece, slot))
    for cid, added in fresh.items():
        entry = [pair for pair in index.get(cid, ()) if pair[0].id not in pieces] + added
        if entry:
            out[cid] = entry
        else:
            out.pop(cid, None)
    return out


@dataclass
class Tally:
    """Sums over a whole position that a step updates from the ids its move replaced.

    ``counts`` is the intersection vector, ``euler`` the Euler sum, and
    ``abnormal`` holds the ids of the pieces that break the normal-piece
    rule (``is_normal_piece``).  An input's tally is summed by the passes
    of its full check (``_checked``); ``of`` sums one afresh.  ``side``
    (piece -> bit; a removed piece's may linger) holds the side bits of the
    last walk over the piece graph, carried from step to step; a tally is
    never edited.  ``stepped`` hands the bits on as they are, and a step
    check that finds nothing hands back a new tally with its own, walked or
    certified (``_certified``).  None when not known; they take no part in
    equality.
    """

    counts: dict[str, int]
    euler: int
    abnormal: set[str]
    side: dict[str, bool] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, t: TorusPosition, side=None) -> "Tally":
        abnormal = {p.id for p in t.pieces.values() if not is_normal_piece(p)}
        return cls(intersection_vector(t), euler_characteristic(t), abnormal, side)

    def stepped(self, before: TorusPosition, after: TorusPosition, pieces, circles) -> "Tally":
        """The tally of ``after``, from this one of ``before``; ``pieces`` and ``circles`` hold every id that differs.

        Each id is taken out as it was and put back as it is, so an unchanged one adds nothing.
        The side bits are handed on as they are, still ``before``'s.
        """
        counts = dict(self.counts)
        for cid in circles:
            if cid in before.circles:
                counts[before.circles[cid].sphere] -= 1
            if cid in after.circles:
                sphere = after.circles[cid].sphere
                counts[sphere] = counts.get(sphere, 0) + 1
        euler, abnormal = self.euler, self.abnormal - pieces
        for pid in pieces:
            for piece, sign in ((before.pieces.get(pid), -1), (after.pieces.get(pid), 1)):
                if piece is not None:
                    euler += sign * piece.euler()
            if pid in after.pieces and not is_normal_piece(after.pieces[pid]):
                abnormal.add(pid)
        return Tally(counts, euler, abnormal, self.side)


def _validate_delta(before: TorusPosition, after: TorusPosition, index, pieces, circles, spheres,
                    tally: Tally) -> list[str]:
    """``validate_position(after)`` for a step from a valid ``before`` that replaced the given ids.

    The one step check: it returns the same list, in the same order, but
    skips the graph check and re-checks per item only what the step can
    have changed.  ``pieces``, ``circles`` and ``spheres`` are a move's
    report of what it replaced (or every id); ``index`` and ``tally`` are
    ``after``'s ``circle_slots()`` and ``Tally``, whose side bits are still
    ``before``'s.  The scope comes from the report (``_delta_scope``), the
    per-sphere counts and the Euler sum from the tally, and connectivity
    and monodromy from a certificate (``_certified``) that carries the side
    bits over the edges the step changed, or, when it cannot prove there
    is no problem, from the full walk of the piece graph that
    ``validate_position`` makes.
    """
    return _validate(after, index, *_delta_scope(before, after, index, pieces, circles, spheres), tally, before)


def _step(before: TorusPosition, index, tally: Tally, moved):
    """(after, its index, its ``Tally``, its problems) of one step from a valid ``before``.

    The one step routine of ``normalize`` and ``perturb``.  ``moved`` is a
    move's or an inverse move's raw result, its report of what it changed:
    (after, ids of the pieces and circles it replaced, the sphere whose
    tree it replaced).  ``index`` and ``tally`` are ``before``'s
    ``circle_slots()`` and ``Tally``; the result's are updated from them
    over the reported ids.  The problems are ``validate_position(after)``,
    found by ``_validate_delta``, scoped by the report, for every step, the
    last one and a normal result included.  A valid result's tally is the
    one its check hands back, with the side bits that the check carried.
    """
    after, pieces, circles, sphere = moved
    after_index = _reindexed(index, before, after, pieces)
    after_tally = tally.stepped(before, after, pieces, circles)
    problems = _validate_delta(before, after, after_index, pieces, circles, (sphere,), after_tally)
    return after, after_index, problems.tally or after_tally, problems


def _certified(before: TorusPosition, pieces, circles, t: TorusPosition, index, side) -> dict | None:
    """``t``'s side bits, carried from ``before``'s ``side`` over a step, once they prove ``t``'s piece graph sound; else None.

    ``pieces`` and ``circles`` are the step's scope (``_delta_scope``),
    whose per-item checks passed, and ``index`` is ``t.circle_slots()``.
    An edge is a circle's two holders and its flip (``_piece_edges``).  The
    scope holds every circle whose edge changed and every piece that is new
    or gained or lost a circle, so any other edge joins two kept pieces as
    in ``before``, where it agreed with the bits.  One breadth-first search
    of ``t`` from the least kept target (a scoped piece or a holder of a
    scoped edge) must meet every target: a path of ``before`` that the step
    cut leaves the kept part at a target.  Each new piece takes its bit
    across the edge that first reaches it, a scoped one, and every scoped
    edge must agree with the bits.  Anything else gives None, and the full
    walk decides.
    """
    if side is None:
        return None
    targets = set(pieces)
    for cid in circles:
        targets.update(piece.id for piece, _ in index[cid])
    start = min((pid for pid in targets if pid in before.pieces), default=None)
    if start is None:  # no kept target; no target at all when the step changed no edge
        return None if targets else side
    bits, left, seen, queue = side, targets - {start}, {start}, [start]
    for pid in queue:
        if not left:
            break
        for slot in t.pieces[pid].boundary:
            for piece, _ in index[slot.circle]:
                if piece.id in seen:
                    continue
                seen.add(piece.id)
                left.discard(piece.id)
                queue.append(piece.id)
                if piece.id not in before.pieces:  # new: a copy, so that no earlier tally's bits change
                    bits = dict(bits) if bits is side else bits
                    bits[piece.id] = bits[pid] ^ (not t.transport[slot.circle])
    if left or any(bits[index[cid][0][0].id] ^ bits[index[cid][1][0].id] == t.transport[cid] for cid in circles):
        return None  # a target not met, or a scoped edge that disagrees: its flip is ``not transport``
    return bits


def _validate(t: TorusPosition, index, pieces, circles, spheres, ends=None,
              tally: Tally | None = None, before: TorusPosition | None = None) -> _Problems:
    """Every check after the graph's: per item over the given scope, globally over ``t``.

    ``index`` is ``t.circle_slots()``.  The passes run in this order: per piece
    and per circle in id order, per tree in graph order, then, only once those
    found nothing, the Euler sum, the stray transport bits and the piece
    graph's connectivity and monodromy, and last the side anchors, piece by
    piece.  Each rule is one test that words its own problem where it fails;
    only the side anchors are tested first (``_anchor_faults``) and worded
    after (``_validate_side_anchors``), so any scope that holds every item
    with a problem gives the same list.  Without ``tally``, the full check: the
    passes also sum ``t``'s ``Tally``, which the list holds if it finds
    nothing, and the walk's edges, and the anchors are read only at the ends
    of pieces with a non-adjacent anchor or two slots at one end.  With
    ``tally``, ``t``'s for a step from a valid ``before`` with ``before``'s
    side bits, the step check: counts and Euler sum come from the tally, trees
    are checked at ``spheres`` and where an added region id is shared
    (``_sharing``), a certificate (``_certified``) carries the bits, or else
    the walk decides, and anchors are read at every end of the given
    spheres, off the index in one pass over each tree's circles, and at
    the other ``ends``, as ``_delta_scope`` maps them.  Either check's list,
    when it finds nothing, holds ``t``'s tally with the bits it walked or
    certified.

    Once the per-item checks pass, each circle has two slots and its bit:
    the Euler sum is 2 * (pieces - total genus - circles), so with genus 0
    it fixes betti number 1, and a stray bit shows as more bits than circles.
    """
    full = tally is None
    problems = _Problems()
    by_pants, circle_of, trees, transport = t.graph.by_pants, t.circles, t.trees, t.transport
    euler, abnormal, loud, adjacent = 0, set(), [], {}
    if full:  # each circle's two regions, read in the piece pass to find the anchors worth checking
        for s in t.graph.sphere_edges:
            if s in trees:
                adjacent.update(trees[s].edges)
    for pid in sorted(pieces):
        piece = t.pieces[pid]
        boundary, uncrossed, hes = piece.boundary, piece.uncrossed, by_pants.get(piece.pants)
        crossed = {slot.half_edge for slot in boundary}
        astray = False  # an anchor at a region that its circle does not border
        if piece.id != pid:
            problems.append(f"piece key {pid} disagrees with id {piece.id}")
        if hes is None:
            problems.append(f"piece {pid} in unknown pants {piece.pants}")
        else:
            if piece.genus < 0:
                problems.append(f"piece {pid} has negative genus")
            if not boundary:
                problems.append(f"piece {pid} is closed (no boundary)")
            for slot in boundary:
                he, circle = slot.half_edge, circle_of.get(slot.circle)
                if circle is None:
                    problems.append(f"piece {pid} references unknown circle {slot.circle}")
                    continue
                if he not in hes:
                    problems.append(f"piece {pid} boundary at {he.label()} outside its pants")
                if circle.sphere != he.sphere:
                    problems.append(f"piece {pid} attaches circle {slot.circle} to the wrong sphere")
                if full and slot.region_a not in adjacent.get(slot.circle, ()):
                    astray = True
            for he in hes:
                if he not in crossed and he not in uncrossed:
                    problems.append(f"piece {pid} missing uncrossed side at {t.half_edge_label(he)}")
            for he, side in uncrossed.items():
                if he in crossed:
                    problems.append(f"piece {pid} has uncrossed entry at crossed {he.label()}")
                if he not in hes:
                    problems.append(f"piece {pid} uncrossed entry at {he.label()} outside its pants")
                if side not in (SIDE_A, SIDE_B):
                    problems.append(f"piece {pid} side label {side!r} invalid")
        if full:
            euler += piece.euler()
            if _fault(piece, crossed) is not None:
                abnormal.add(pid)
            if astray or len(crossed) < len(boundary):
                loud.append(pid)

    known, edges = set(t.graph.sphere_edges), []
    counts = dict.fromkeys(t.graph.sphere_edges, 0) if full else tally.counts
    for cid in sorted(circles):
        circle, pairs = circle_of[cid], index.get(cid, ())
        if circle.sphere not in known:
            problems.append(f"circle {cid} on unknown sphere {circle.sphere}")
            continue
        if full:
            counts[circle.sphere] += 1
        if len(pairs) != 2 or pairs[0][0].pants not in by_pants or pairs[1][0].pants not in by_pants:
            # slots of pieces in an unknown pants are not counted, as their piece check stops before reading them
            pairs = [pair for pair in pairs if pair[0].pants in by_pants]
        if len(pairs) == 1:
            problems.append(f"circle {cid} has one incident piece")
        elif len(pairs) != 2:
            problems.append(f"circle {cid} has {len(pairs)} incident boundary slots")
        else:
            (a, slot_a), (b, slot_b) = pairs
            if (slot_a.half_edge.end, slot_b.half_edge.end) not in ((0, 1), (1, 0)):  # as a set, not {0, 1}
                problems.append(f"circle {cid} does not pass through sphere {circle.sphere}")
            elif full and cid in transport:
                edges.append((cid, a.id, b.id, not transport[cid]))
        if cid not in transport:
            problems.append(f"circle {cid} missing side transport bit")

    order = t.graph.sphere_edges
    sharing, seen = set() if full else _sharing(before, t, spheres), set()
    for i, s in enumerate(order):
        if not (full or s in spheres or s in sharing):
            continue
        tree = trees.get(s)
        if tree is None:
            problems.append(f"sphere {s} missing region tree")
            continue
        regions, tree_edges = tree.regions, tree.edges
        if not seen.isdisjoint(regions) if full else s in sharing:  # name each shared id at its later sphere
            for r in sorted(regions):
                owner = next((e for e in order[:i] if e in trees and r in trees[e].regions), None)
                if owner is not None:
                    problems.append(f"region {r} of {s} also in the tree of {owner}")
        if full:
            seen.update(regions)
        listed, malformed = len(tree_edges) == counts.get(s, 0), []
        for cid, (x, y) in tree_edges.items() if listed else ():
            circle = circle_of.get(cid)
            if circle is None or circle.sphere != s:
                listed = False
                break
            if x == y or x not in regions or y not in regions:
                malformed.append(cid)
        if not listed:
            problems.append(f"region tree of {s} does not list exactly its circles")
        elif len(regions) != len(tree_edges) + 1:
            problems.append(f"region tree of {s} has {len(regions)} regions for {len(tree_edges)} circles")
        else:
            problems.extend(f"region tree edge {cid} of {s} malformed" for cid in malformed)
            # with no malformed edge the walk stays inside the regions, so only a short walk misses one
            if regions - {r for _, _, r in tree.walk} if malformed else len(tree.walk) != len(regions):
                problems.append(f"region tree of {s} disconnected")
    if problems:
        return problems

    chi = euler if full else tally.euler
    if chi != 0:
        problems.append(f"total euler characteristic {chi} nonzero")

    if len(t.transport) > len(t.circles):
        stray = sorted(t.transport.keys() - t.circles.keys())
        problems.extend(f"side transport bit of unknown circle {cid}" for cid in stray)

    side = None if full else _certified(before, pieces, circles, t, index, tally.side)
    if side is None:
        reached, side, _, bad_cycle = walk(t.pieces, edges if full else _piece_edges(t, index))
    else:
        reached, bad_cycle = len(t.pieces), None
    if reached != len(t.pieces):
        problems.append("piece graph disconnected")

    if bad_cycle is not None:
        problems.append(_Monodromy("monodromy nontrivial on cycle (" + ",".join(bad_cycle) + ")"))

    if full:
        anchors = {(pid, he): pairs for pid in loud for he, pairs in _anchors_by_end(t.pieces[pid]).items()}
    else:  # the trees are valid by now, so a sphere's edges are its circles, and the index holds their slots
        anchors = {end: pairs for end, pairs in ends.items() if end[1].sphere not in spheres}
        for s in spheres:
            for cid in t.trees[s].edges:
                for piece, slot in index[cid]:
                    anchors.setdefault((piece.id, slot.half_edge), []).append((cid, slot.region_a))
    if faults := _anchor_faults(t, anchors):
        problems.extend(_validate_side_anchors(t, faults))
    if not problems:
        problems.tally = Tally(counts, chi, abnormal if full else tally.abnormal, side)
    return problems


def _sharing(before: TorusPosition, t: TorusPosition, spheres) -> set[str]:
    """Every sphere whose tree shares a region id that a step from the valid ``before`` added to a tree at ``spheres``.

    ``before``'s trees share no id, so only such an id can be shared in ``t``.
    """
    out = set()
    for s in spheres:
        tree, old = t.trees.get(s), before.trees.get(s)
        if tree is None or tree is old:
            continue
        for r in tree.regions - old.regions if old is not None else tree.regions:
            holders = [e for e in t.graph.sphere_edges if e in t.trees and r in t.trees[e].regions]
            if len(holders) > 1:
                out.update(holders)
    return out


def _anchor_faults(t: TorusPosition,
                   anchors: dict[tuple[str, HalfEdge], list[tuple[str, str]]]) -> set[tuple[str, HalfEdge]]:
    """The (piece, sphere end) pairs whose region-side anchors are inconsistent: the test that ``_validate_side_anchors`` words.

    ``anchors`` maps each pair to test to every (circle, ``region_a``) of
    the piece's slots at that end, in any order.  Walking on a sphere, seen
    from the collar on one of its two sides, crosses a piece's wall exactly
    at that piece's circles attached on that side; so every ``region_a``
    must border its circle and read A in the piece's side map at that end.
    A lone anchor cannot conflict; the others are read off one
    ``side_masks`` pass per sphere end for all its pieces, each with its own
    bit.  Runs only on positions whose circles and trees passed the other
    checks, where each circle end holds one slot, so the pieces' bits never
    share a circle, and a pair's verdict does not depend on the other pairs
    given.
    """
    faults, bits = set(), defaultdict(dict)
    for (pid, he), pairs in anchors.items():
        edges = t.trees[he.sphere].edges
        if any(region not in edges[cid] for cid, region in pairs):
            faults.add((pid, he))
        elif len(pairs) > 1:
            bits[he][pid] = 1 << len(bits[he])
    for he, mates in bits.items():
        masks = side_masks(t, he, mates)
        faults.update((pid, he) for pid, bit in mates.items() if any(masks[r] & bit for _, r in anchors[pid, he]))
    return faults


def _validate_side_anchors(t: TorusPosition, faults: set[tuple[str, HalfEdge]]) -> list[str]:
    """The anchor problems of the given (piece, sphere end) pairs, each of which failed ``_anchor_faults``.

    Piece by piece in id order and each piece's ends in half-edge order:
    each non-adjacent anchor in slot order, or else one conflict.
    """
    problems = []
    for pid, he in sorted(faults):
        edges = t.trees[he.sphere].edges
        strays = [slot.circle for slot in t.pieces[pid].boundary
                  if slot.half_edge == he and slot.region_a not in edges[slot.circle]]
        problems.extend(f"piece {pid} slot at {cid} anchors a non-adjacent region" for cid in strays)
        if not strays:
            problems.append(f"piece {pid} side anchors conflict at {he.label()}")
    return problems


def side_masks(t: TorusPosition, he: HalfEdge, bits: dict[str, int]) -> dict[str, int]:
    """Region -> sides of many pieces of ``he``'s pants at once, as an int.

    ``bits`` gives each piece its own bit, set in a region's mask when the
    collar over that region at ``he`` lies on the piece's B side.  One pass
    over the tree's ``walk`` flips a piece's bit across each circle it owns
    at ``he``.  Each piece that crosses ``he`` is then re-based so that its
    first anchor there reads A; a piece that does not takes its
    ``uncrossed`` label.  The region tree must be a tree.
    """
    flips: dict[str, int] = {}
    anchors: dict[str, str] = {}
    for pid, bit in bits.items():
        for slot in t.pieces[pid].boundary:
            if slot.half_edge == he:
                flips[slot.circle] = bit
                anchors.setdefault(pid, slot.region_a)
    mask: dict[str, int] = {}
    for parent, cid, r in t.trees[he.sphere].walk:  # the root comes first, with no parent and no circle
        mask[r] = mask.get(parent, 0) ^ flips.get(cid, 0)
    base = 0
    for pid, bit in bits.items():
        if pid in anchors:
            base |= mask.get(anchors[pid], 0) & bit
            continue
        label = t.pieces[pid].uncrossed.get(he)
        if label is None:
            raise PositionError(f"piece {pid} has no side data at {he.label()}")
        if label == SIDE_B:
            base |= bit
    return {r: m ^ base for r, m in mask.items()}


def side_of_region(t: TorusPosition, piece: Piece, he: HalfEdge, region: str) -> str:
    """Which side of ``piece`` the collar over ``region`` at ``he`` lies on.

    The collar is taken just inside the piece's pants, on the ``he`` side
    of the sphere.  Seen from there, the piece's side flips exactly across
    its own circles attached at ``he``, and reads A at its first anchor
    there.  A sphere end the piece does not cross carries its ``uncrossed``
    label over every region.
    """
    mask = side_masks(t, he, {piece.id: 1}).get(region)
    if mask is None:
        raise PositionError(f"region {region} not on sphere {he.sphere}")
    return SIDE_B if mask else SIDE_A


def _pants_components(t: TorusPosition, pants: str) -> int:
    """How many complementary components the pieces in ``pants`` cut it into, as seen at its three sphere ends.

    Each piece gets its own bit, and each distinct ``side_masks`` value over
    the ends' regions is one component.  An embedded torus has pieces + 1.
    """
    bits = {pid: 1 << i for i, pid in enumerate(sorted(pid for pid, p in t.pieces.items() if p.pants == pants))}
    return len({mask for he in t.graph.by_pants[pants] for mask in side_masks(t, he, bits).values()})


DISK = "disk"
CYLINDER = "cylinder"
PANTS = "pants"
_KINDS = {1: DISK, 2: CYLINDER, 3: PANTS}


def _fault(piece: Piece, crossed: set[HalfEdge] | None = None) -> str | None:
    """The first normal-piece rule that ``piece`` breaks, or None; the one statement of the rule.

    In order: genus 0 (``"genus"``); no sphere end met twice (``"doubled"``);
    a disk separates the two boundary spheres it misses, with opposite
    uncrossed labels, or it is parallel into its own sphere (``"parallel"``);
    one to three boundary circles (``"count"``).  ``crossed``, the set of
    the piece's slots' sphere ends, is built here unless the caller has it.
    """
    if piece.genus != 0:
        return "genus"
    n = len(piece.boundary)
    if n == 1:  # one slot meets no end twice
        return None if len(set(piece.uncrossed.values())) == 2 else "parallel"
    if len({slot.half_edge for slot in piece.boundary} if crossed is None else crossed) != n:
        return "doubled"
    return None if n == 2 or n == 3 else "count"


def piece_kind(piece: Piece) -> str | None:
    """Normal-form kind of a piece, or None when it fits none of them; a boundary-parallel disk is a disk."""
    return None if _fault(piece) in ("genus", "doubled") else _KINDS.get(len(piece.boundary))


def is_normal_piece(piece: Piece) -> bool:
    """Whether ``piece`` keeps the normal-piece rule (``_fault``), the verdict ``is_normal`` names violations of."""
    return _fault(piece) is None


def is_normal(t: TorusPosition) -> tuple[bool, list[str]]:
    """Normal form: every piece keeps the normal-piece rule (``_fault``).

    Violations name pieces by key, in key order: each doubled end, or else the one rule broken.
    """
    violations = []
    for pid, piece in sorted(t.pieces.items()):
        fault = _fault(piece)
        if fault == "genus":
            violations.append(f"piece {pid} has genus {piece.genus}")
        elif fault == "doubled":
            seen = Counter(slot.half_edge for slot in piece.boundary)
            violations.extend(f"piece {pid} meets half-edge ({t.half_edge_label(he)}) twice"
                              for he, k in sorted(seen.items()) if k > 1)
        elif fault == "parallel":
            violations.append(f"disk {pid} boundary-parallel")
        elif fault == "count":
            violations.append(f"piece {pid} has {len(piece.boundary)} boundary circles")
    return (not violations, violations)


def is_boundary_parallel_disk(piece: Piece) -> bool:
    """A disk that breaks the normal-piece rule only by being parallel into its sphere, with both other ends labelled."""
    return _fault(piece) == "parallel" and len(piece.uncrossed) == 2
