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
from .normal_graph import NormalTorus, to_normal_torus
from .position import (
    SIDE_A,
    SIDE_B,
    BoundarySlot,
    Circle,
    Piece,
    PositionError,
    TorusPosition,
    end_slot,
    fresh_id,
    intersection_vector,
    is_boundary_parallel_disk,
    is_normal,
    is_normal_piece,
    total_intersections,
    validate_position,
    validate_step,
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

    Slides come first (piece id, half-edge, then pairs with distinct far
    pieces before self-banding pairs, each in circle-id order), caps after
    (piece id).
    """
    return list(_moves(t))


def _moves(t: TorusPosition) -> Iterator[Move]:
    """The moves of ``find_moves``, lazily and in its order."""
    index = t.circle_slots()
    for pid in sorted(t.pieces):
        piece = t.pieces[pid]
        by_he: dict[HalfEdge, list[str]] = {}
        for slot in piece.boundary:
            by_he.setdefault(slot.half_edge, []).append(slot.circle)
        for he in sorted(by_he):
            cids = sorted(by_he[he])
            tree = t.trees[he.sphere]
            self_banding: list[Slide] = []
            for i, c1 in enumerate(cids):
                for c2 in cids[i + 1 :]:
                    shared = set(tree.adjacent(c1)) & set(tree.adjacent(c2))
                    if not shared:
                        continue
                    region = min(shared)  # unique in a tree; min for determinism
                    slide = Slide(pid, he, c1, c2, region)
                    far1, _ = end_slot(t, index, c1, 1 - he.end)
                    far2, _ = end_slot(t, index, c2, 1 - he.end)
                    if far1.id == far2.id:
                        self_banding.append(slide)
                    else:
                        yield slide
            yield from self_banding
    for pid in sorted(t.pieces):
        piece = t.pieces[pid]
        if not is_boundary_parallel_disk(piece):
            continue
        slot = piece.boundary[0]
        cid = slot.circle
        tree = t.trees[t.circles[cid].sphere]
        if not tree.is_leaf(_ball_region(t, piece)):
            # sheets between the disk and the sphere would be dragged along
            continue
        far, _ = end_slot(t, index, cid, 1 - slot.half_edge.end)
        if len(far.boundary) < 2:
            # capping would close the neighbor piece off; never a torus move
            continue
        yield Cap(pid, cid)


def apply_move(t: TorusPosition, move: Move) -> TorusPosition:
    if isinstance(move, Slide):
        return _apply_slide(t, move)
    if isinstance(move, Cap):
        return _apply_cap(t, move)
    raise MoveError(f"unknown move {move!r}")


def _apply_slide(t: TorusPosition, m: Slide) -> TorusPosition:
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
    index = t.circle_slots()
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

    out = t.clone()
    new_cid = fresh_id("c", out.circles)
    merged_region = fresh_id("r", (r for tr in out.trees.values() for r in tr.regions))

    new_tree = out.trees[sphere]
    del new_tree.edges[m.circle1]
    del new_tree.edges[m.circle2]
    new_tree.regions -= {region_far1, region_far2}
    new_tree.regions.add(merged_region)
    for cid, (a, b) in list(new_tree.edges.items()):
        a2 = merged_region if a in (region_far1, region_far2) else a
        b2 = merged_region if b in (region_far1, region_far2) else b
        new_tree.edges[cid] = (a2, b2)
    new_tree.edges[new_cid] = (m.region, merged_region)

    # region ids are global, so remap stale anchors on every piece; the
    # rewritten groups get rebuilt from the old data below anyway
    for piece in out.pieces.values():
        for i, slot in enumerate(piece.boundary):
            if slot.region_a in (region_far1, region_far2):
                piece.boundary[i] = BoundarySlot(slot.circle, slot.half_edge, merged_region)

    groups: list[set[str]] = []
    far_group = {g1.id, g2.id}
    if combined:
        far_group.add(near.id)
        groups.append(far_group)
    else:
        groups.append({near.id})
        groups.append(far_group)

    consumed = {
        (near.id, m.circle1, m.half_edge): "near_new",
        (near.id, m.circle2, m.half_edge): None,
        (g1.id, m.circle1, far_he): "far_new",
        (g2.id, m.circle2, far_he): None,
    }
    near_ptr = m.region if x1 else merged_region
    far_ptr = m.region if (y1 ^ rho[g1.id]) else merged_region

    old_circles = dict(out.circles)
    del out.circles[m.circle1]
    del out.circles[m.circle2]
    out.circles[new_cid] = Circle(new_cid, sphere)

    for group in groups:
        anchor = near.id if near.id in group else g1.id
        members = [anchor] + sorted(pid for pid in group if pid != anchor)
        new_boundary: list[BoundarySlot] = []
        chi = 0
        for pid in members:
            old = t.pieces[pid]
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
                if old_circles[slot.circle].sphere == sphere and ra in (region_far1, region_far2):
                    ra = merged_region
                if rho.get(pid, False):
                    ra = _other_region(out, slot.circle, ra)
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
    for cid in list(out.transport):
        owners = {slot.half_edge.end: piece.id for piece, slot in index.get(cid, ())}
        flips = rho.get(owners.get(0), False) ^ rho.get(owners.get(1), False)
        if flips:
            out.transport[cid] = not out.transport[cid]
    out.transport[new_cid] = not (f1 ^ rho[g1.id])
    return out


def _other_region(t: TorusPosition, cid: str, region: str) -> str:
    tree = t.trees[t.circles[cid].sphere]
    return tree.other_region(cid, region)


def _ball_region(t: TorusPosition, disk: Piece) -> str:
    """The region under a boundary-parallel disk (its product side)."""
    slot = disk.boundary[0]
    label = next(iter(disk.uncrossed.values()))
    tree = t.trees[t.circles[slot.circle].sphere]
    if label == SIDE_A:
        return tree.other_region(slot.circle, slot.region_a)
    return slot.region_a


def _apply_cap(t: TorusPosition, m: Cap) -> TorusPosition:
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

    far, far_slot = t.slot_at(m.circle, 1 - slot.half_edge.end)
    if far.id == disk.id or len(far.boundary) < 2:
        raise MoveError("inapplicable move: capping would close the neighbor piece")
    new_label = SIDE_A if far_slot.region_a == away else SIDE_B

    out = t.clone()
    del out.pieces[m.disk]
    del out.circles[m.circle]
    del out.transport[m.circle]
    newtree = out.trees[sphere]
    del newtree.edges[m.circle]
    newtree.regions.discard(contracted)
    neighbor = out.pieces[far.id]
    neighbor.boundary = [
        s for s in neighbor.boundary if not (s.circle == m.circle and s.half_edge == far_slot.half_edge)
    ]
    if not any(s.half_edge == far_slot.half_edge for s in neighbor.boundary):
        neighbor.uncrossed[far_slot.half_edge] = new_label
    return out


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

    Raises when the input is invalid or disjoint from the sphere system
    (nothing to normalize), when a fixpoint is reached that is not normal,
    or when a step breaks a preserved invariant (which would be a bug or a
    geometrically inconsistent input).  The input and the normal result get
    ``validate_position`` and every move before the last gets
    ``validate_step``, which finds the same problems.
    """
    problems = validate_position(t)
    if problems:
        raise NormalizeError("invalid position: " + "; ".join(problems))
    return _normalize(t)


def _normalize(t: TorusPosition) -> NormalizeResult:
    """``normalize`` of a position already known to be valid."""
    if total_intersections(t) == 0:
        raise NormalizeError("disjoint from the sphere system: nothing to normalize")
    trace: list[MoveRecord] = []
    current = t
    while (move := next(_moves(current), None)) is not None:
        before = intersection_vector(current)
        nxt = apply_move(current, move)
        after = intersection_vector(nxt)
        if sum(after.values()) != sum(before.values()) - 1:
            raise NormalizeError(f"move {move} changed the total by {sum(after.values()) - sum(before.values())}")
        for s, n in after.items():
            if n > before[s]:
                raise NormalizeError(f"move {move} increased the count on {s}")
        # a move that reaches normal form is the last one, so its result
        # gets the full check; the ones before it are checked by step
        last = all(map(is_normal_piece, nxt.pieces.values()))
        problems = validate_position(nxt) if last else validate_step(current, nxt)
        if problems:
            raise NormalizeError(f"move {move} broke invariants: " + "; ".join(problems))
        trace.append(MoveRecord(move, move.describe(current), before, after))
        current = nxt
    ok, violations = is_normal(current)
    if not ok:
        raise NormalizeError("stuck non-normal: " + "; ".join(violations))
    return NormalizeResult(current, to_normal_torus(current), trace)
