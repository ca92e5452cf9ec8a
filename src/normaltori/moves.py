"""Terminating rewriting system that normalizes a torus position.

Two moves, each dropping exactly one intersection circle on one sphere and
touching no other sphere's count:

* Slide - the tube-slide homotopy.  A piece meeting one sphere end in two
  circles that share a complementary region gets those circles band-merged
  into one; the pieces beyond the sphere are banded together (or gain genus
  when they coincide).  Only the net effect of the homotopy is modeled.
* Cap - removal of a boundary-parallel disk.  Applicable once the disk's
  circle is innermost on the disk's product side, so that retracting it
  drags no other sheet; the neighbor piece across the sphere is capped.

Each move strictly decreases the total intersection count, so every
maximal move sequence has at most (initial total) steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .graphs import HalfEdge
from .normal_graph import NormalTorus
from .position import (
    SIDE_A,
    SIDE_B,
    BoundarySlot,
    Circle,
    Piece,
    PositionError,
    RegionTree,
    Tally,
    TorusPosition,
    _all_regions,
    _checked,
    _step,
    end_slot,
    fresh_id,
    is_boundary_parallel_disk,
    is_normal,
    xor_side,
)


class MoveError(PositionError):
    """Inapplicable move or side bookkeeping that cannot be realized."""


class NormalizeError(PositionError):
    pass


@dataclass(frozen=True)
class Slide:
    """Band-merge circles ``circle1``/``circle2`` of ``piece`` at ``half_edge``.

    ``region`` is the complementary region of the sphere that both circles
    border; the merged circle is attached to it.
    """

    piece: str
    half_edge: HalfEdge
    circle1: str
    circle2: str
    region: str

    def describe(self, t: TorusPosition) -> str:
        he = t.half_edge_label(self.half_edge)
        return f"slide {self.piece} {he} {self.circle1}+{self.circle2} via {self.region}"


@dataclass(frozen=True)
class Cap:
    """Remove boundary-parallel disk ``disk`` and its circle ``circle``."""

    disk: str
    circle: str

    def describe(self, t: TorusPosition) -> str:
        return f"cap {self.disk} {self.circle}"


Move = Union[Slide, Cap]


def _flip(t: TorusPosition, cid: str) -> bool:
    return not t.transport[cid]


def find_moves(t: TorusPosition) -> list[Move]:
    """All applicable moves, deterministically ordered.

    Slides come first (piece id, half-edge, then circle-id pairs), caps
    after (piece id).
    """
    return list(_moves(t, t.circle_slots(), t.pieces))


def _moves(t: TorusPosition, index, pieces) -> Iterator[Move]:
    """The moves of ``find_moves`` from the given piece ids, lazily and in its order; ``index`` is ``t.circle_slots()``.

    Only a non-normal piece (``Tally.abnormal``) has a move.
    """
    pieces = sorted(pieces)
    for pid in pieces:
        yield from _slides(t, pid)
    for pid in pieces:
        cap = _cap(t, index, pid)
        if cap is not None:
            yield cap


def _slides(t: TorusPosition, pid: str) -> Iterator[Slide]:
    """The slides of one piece, in ``find_moves`` order."""
    by_he: dict[HalfEdge, list[str]] = {}
    for slot in t.pieces[pid].boundary:
        by_he.setdefault(slot.half_edge, []).append(slot.circle)
    for he in sorted(by_he):
        cids = sorted(by_he[he])
        tree = t.trees[he.sphere]
        for i, c1 in enumerate(cids):
            for c2 in cids[i + 1 :]:
                shared = set(tree.adjacent(c1)) & set(tree.adjacent(c2))
                if shared:  # unique in a tree; min for determinism
                    yield Slide(pid, he, c1, c2, min(shared))


def _cap(t: TorusPosition, index, pid: str) -> Cap | None:
    """The cap of one piece, or None."""
    piece = t.pieces[pid]
    if not is_boundary_parallel_disk(piece):
        return None
    slot = piece.boundary[0]
    cid = slot.circle
    tree = t.trees[t.circles[cid].sphere]
    if not tree.is_leaf(_ball_region(t, piece)):
        # sheets between the disk and the sphere would be dragged along
        return None
    far, _ = end_slot(t, index, cid, 1 - slot.half_edge.end)
    if len(far.boundary) < 2:
        # capping would close the neighbor piece off; never a torus move
        return None
    return Cap(pid, cid)


def apply_move(t: TorusPosition, move: Move) -> TorusPosition:
    return _move(t, move, t.circle_slots())[0]


def _move(t: TorusPosition, move: Move, index):
    """(result, ids of the pieces and circles it replaced, the sphere whose tree it replaced)."""
    if isinstance(move, Slide):
        return _apply_slide(t, move, index)
    if isinstance(move, Cap):
        return _apply_cap(t, move, index)
    raise MoveError(f"unknown move {move!r}")


def _apply_slide(t: TorusPosition, m: Slide, index):
    if m.piece not in t.pieces or m.circle1 not in t.circles or m.circle2 not in t.circles:
        raise MoveError("inapplicable move: missing piece or circle")
    if m.circle1 == m.circle2:
        raise MoveError("inapplicable move: need two distinct circles")
    sphere = t.circles[m.circle1].sphere
    if t.circles[m.circle2].sphere != sphere or m.half_edge.sphere != sphere:
        raise MoveError("inapplicable move: circles on different spheres")
    near = t.pieces[m.piece]
    near_slots = {
        slot.circle: slot
        for slot in near.boundary
        if slot.half_edge == m.half_edge and slot.circle in (m.circle1, m.circle2)
    }
    if set(near_slots) != {m.circle1, m.circle2}:
        raise MoveError(f"inapplicable move: {m.piece} lacks both circles at {m.half_edge.label()}")
    tree = t.trees[sphere]
    if m.region not in set(tree.adjacent(m.circle1)) & set(tree.adjacent(m.circle2)):
        raise MoveError("inapplicable move: region not shared by both circles")

    far_end = 1 - m.half_edge.end
    far_he = HalfEdge(sphere, far_end)
    g1, g1_slot = end_slot(t, index, m.circle1, far_end)
    g2, g2_slot = end_slot(t, index, m.circle2, far_end)
    f1, f2 = _flip(t, m.circle1), _flip(t, m.circle2)

    # Gauge relation of each touched piece to the near piece, read through
    # the two circles.  A conflict means the input was not two-sided.
    rel: dict[str, bool] = {near.id: False}
    for pid, f in ((g1.id, f1), (g2.id, f2)):
        if pid in rel and rel[pid] != f:
            raise MoveError("side transport mismatch on slide")
        rel[pid] = f

    region_far1 = tree.other_region(m.circle1, m.region)
    region_far2 = tree.other_region(m.circle2, m.region)
    x1 = near_slots[m.circle1].region_a == m.region
    x2 = near_slots[m.circle2].region_a == m.region
    if x1 != x2:
        raise MoveError("side transport mismatch on slide")
    y1 = g1_slot.region_a == m.region
    y2 = g2_slot.region_a == m.region
    if (y1 != y2) != (f1 != f2):
        raise MoveError("side transport mismatch on slide")

    combined = near.id in (g1.id, g2.id)
    far_anchor = near.id if combined else g1.id
    rho = {pid: rel[pid] ^ rel[far_anchor] for pid in rel}
    rho[near.id] = False  # near piece always keeps its own gauge

    out = t.shallow_copy()
    new_cid = fresh_id("c", out.circles)
    merged_region = fresh_id("r", _all_regions(out))

    # an anchor lies next to its own circle, so the anchors on the merged
    # regions all sit at circles of this tree; the pieces holding them get
    # remapped copies, which the banding below reads
    gone = {region_far1, region_far2}
    edges = {}
    stale: set[str] = set()
    for cid, (a, b) in tree.edges.items():
        if cid in (m.circle1, m.circle2):
            continue
        edges[cid] = (merged_region if a in gone else a, merged_region if b in gone else b)
        stale.update(piece.id for piece, slot in index[cid] if slot.region_a in gone)
    edges[new_cid] = (m.region, merged_region)
    out.trees[sphere] = RegionTree(sphere, (tree.regions - gone) | {merged_region}, edges)
    for pid in stale:
        old = t.pieces[pid]
        boundary = [
            BoundarySlot(s.circle, s.half_edge, merged_region) if s.circle in edges and s.region_a in gone else s
            for s in old.boundary
        ]
        out.pieces[pid] = Piece(pid, old.pants, old.genus, boundary, old.uncrossed)

    far_group = {g1.id, g2.id}
    groups = [far_group | {near.id}] if combined else [{near.id}, far_group]

    consumed = {
        (near.id, m.circle1, m.half_edge): "near_new",
        (near.id, m.circle2, m.half_edge): None,
        (g1.id, m.circle1, far_he): "far_new",
        (g2.id, m.circle2, far_he): None,
    }
    near_ptr = m.region if x1 else merged_region
    far_ptr = m.region if (y1 ^ rho[g1.id]) else merged_region

    del out.circles[m.circle1]
    del out.circles[m.circle2]
    out.circles[new_cid] = Circle(new_cid, sphere)

    for group in groups:
        anchor = near.id if near.id in group else g1.id
        members = [anchor] + sorted(pid for pid in group if pid != anchor)
        new_boundary: list[BoundarySlot] = []
        chi = 0
        for pid in members:
            old = out.pieces[pid]
            chi += old.euler()
            for slot in old.boundary:
                tag = consumed.get((pid, slot.circle, slot.half_edge), "keep")
                if tag is None:
                    continue
                if tag == "near_new":
                    new_boundary.append(BoundarySlot(new_cid, m.half_edge, near_ptr))
                    continue
                if tag == "far_new":
                    new_boundary.append(BoundarySlot(new_cid, far_he, far_ptr))
                    continue
                ra = slot.region_a
                if rho.get(pid, False):
                    ra = out.trees[t.circles[slot.circle].sphere].other_region(slot.circle, ra)
                new_boundary.append(BoundarySlot(slot.circle, slot.half_edge, ra))
        if near.id in group:
            chi += 1  # cutting the near piece along the sliding arc
        if g1.id in group:
            chi -= 1  # the band joining the far pieces
        b = len(new_boundary)
        if (2 - chi - b) % 2 != 0 or (2 - chi - b) < 0:
            raise MoveError("side transport mismatch: banding is not orientable here")
        genus = (2 - chi - b) // 2
        pants = t.pieces[anchor].pants
        crossed = {slot.half_edge for slot in new_boundary}
        if near.id in group:
            uncrossed = {
                he: side
                for he, side in t.pieces[anchor].uncrossed.items()
                if he not in crossed
            }
            for he in out.graph.half_edges_at(pants):
                if he not in crossed and he not in uncrossed:
                    raise MoveError(f"cannot derive uncrossed side at {he.label()}")
        else:
            # A sphere untouched by the banded piece lies on the side claimed
            # by whichever material separates it from the other one; a
            # material whose sphere-side label equals its region-facing side
            # does not separate (the sphere could sit beyond its partner).
            mats = [(g1, y1), (g2, y2)] if g1.id != g2.id else [(g1, y1)]
            uncrossed = {}
            for he in out.graph.half_edges_at(pants):
                if he in crossed:
                    continue
                claims = []
                fallback = None
                for mat, y in mats:
                    label = mat.uncrossed.get(he)
                    if label is None:
                        raise MoveError(f"cannot derive uncrossed side at {he.label()}")
                    facing = SIDE_A if y else SIDE_B
                    value = xor_side(label, rho[mat.id])
                    if fallback is None:
                        fallback = value
                    if label != facing:
                        claims.append(value)
                if claims and any(c != claims[0] for c in claims):
                    raise MoveError("side transport mismatch on slide")
                uncrossed[he] = claims[0] if claims else fallback
        for pid in group:
            del out.pieces[pid]
        out.pieces[anchor] = Piece(anchor, pants, genus, new_boundary, uncrossed)

    del out.transport[m.circle1]
    del out.transport[m.circle2]
    regauged = {slot.circle for pid, r in rho.items() if r for slot in t.pieces[pid].boundary}
    for cid in regauged - {m.circle1, m.circle2}:
        owners = {slot.half_edge.end: piece.id for piece, slot in index.get(cid, ())}
        flips = rho.get(owners.get(0), False) ^ rho.get(owners.get(1), False)
        if flips:
            out.transport[cid] = not out.transport[cid]
    out.transport[new_cid] = not (f1 ^ rho[g1.id])
    return out, stale | rel.keys(), regauged | {m.circle1, m.circle2, new_cid}, sphere


def _ball_region(t: TorusPosition, disk: Piece) -> str:
    """The region under a boundary-parallel disk (its product side)."""
    slot = disk.boundary[0]
    label = next(iter(disk.uncrossed.values()))
    tree = t.trees[t.circles[slot.circle].sphere]
    if label == SIDE_A:
        return tree.other_region(slot.circle, slot.region_a)
    return slot.region_a


def _apply_cap(t: TorusPosition, m: Cap, index):
    disk = t.pieces.get(m.disk)
    if disk is None or not is_boundary_parallel_disk(disk):
        raise MoveError(f"inapplicable move: {m.disk} is not a boundary-parallel disk")
    slot = disk.boundary[0]
    if slot.circle != m.circle:
        raise MoveError(f"inapplicable move: {m.disk} not attached to {m.circle}")
    sphere = t.circles[m.circle].sphere
    tree = t.trees[sphere]
    ball = _ball_region(t, disk)
    away = tree.other_region(m.circle, ball)
    if not tree.is_leaf(ball):
        raise MoveError("inapplicable move: circle not innermost on the disk's product side")
    contracted = ball

    far, far_slot = end_slot(t, index, m.circle, 1 - slot.half_edge.end)
    if far.id == disk.id or len(far.boundary) < 2:
        raise MoveError("inapplicable move: capping would close the neighbor piece")
    new_label = SIDE_A if far_slot.region_a == away else SIDE_B

    out = t.shallow_copy()
    del out.pieces[m.disk]
    del out.circles[m.circle]
    del out.transport[m.circle]
    edges = {cid: ends for cid, ends in tree.edges.items() if cid != m.circle}
    out.trees[sphere] = RegionTree(sphere, tree.regions - {contracted}, edges)
    neighbor = out.pieces[far.id] = far.replacing_slot(m.circle, far_slot.half_edge, ())
    if not any(s.half_edge == far_slot.half_edge for s in neighbor.boundary):
        neighbor.uncrossed = {**far.uncrossed, far_slot.half_edge: new_label}
    return out, {disk.id, far.id}, {m.circle}, sphere


@dataclass
class MoveRecord:
    move: Move
    description: str
    counts_before: dict[str, int]
    counts_after: dict[str, int]


@dataclass
class NormalizeResult:
    position: TorusPosition
    torus: NormalTorus
    trace: list[MoveRecord]


def normalize(t: TorusPosition) -> NormalizeResult:
    """Drive the position to normal form with the first applicable move.

    Raises when the input is invalid (a valid position has a piece, so it
    meets the sphere system), when a fixpoint is reached that is not normal,
    or when a step breaks a preserved invariant (which would be a bug or a
    geometrically inconsistent input).  The input gets
    ``validate_position``; every move's result, the normal one included,
    is checked by the one step routine, ``position._step``, with
    ``_validate_delta``, scoped by the ids the move reports it replaced,
    which finds the same problems.
    """
    return _normalize(t, *_checked(t, "invalid position: ", NormalizeError))


def _normalize(t: TorusPosition, index, tally: Tally) -> NormalizeResult:
    """``normalize`` of a position already known to be valid; ``index`` and ``tally`` are its ``circle_slots()`` and ``Tally``.

    Takes each move afresh as the first of ``_moves`` from the non-normal
    pieces of the ``Tally``, over the index, both carried by ``position._step``
    from the step before; the normal torus is built from the last index and
    walks its piece graph itself.
    A move must lower the total by one and raise no sphere's count; those
    counts are checked before the step's problems.  Once no move is left,
    the stuck verdict is the tally's set of non-normal pieces; ``is_normal``
    runs only to name them.
    """
    trace: list[MoveRecord] = []
    current = t
    while (move := next(_moves(current, index, tally.abnormal), None)) is not None:
        nxt, nxt_index, nxt_tally, problems = _step(current, index, tally, _move(current, move, index))
        before, after = tally.counts, nxt_tally.counts
        if sum(after.values()) != sum(before.values()) - 1:
            raise NormalizeError(f"move {move} changed the total by {sum(after.values()) - sum(before.values())}")
        for s, n in after.items():
            if n > before[s]:
                raise NormalizeError(f"move {move} increased the count on {s}")
        if problems:
            raise NormalizeError(f"move {move} broke invariants: " + "; ".join(problems))
        trace.append(MoveRecord(move, move.describe(current), before, after))
        current, index, tally = nxt, nxt_index, nxt_tally
    if tally.abnormal:  # exactly the pieces ``is_normal`` finds a violation in
        raise NormalizeError("stuck non-normal: " + "; ".join(is_normal(current)[1]))
    return NormalizeResult(current, NormalTorus(current, index), trace)
