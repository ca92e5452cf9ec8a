"""Torus positions relative to a sphere system.

A position records how a closed surface sits relative to the spheres:
connected pieces inside each pants, intersection circles on each sphere,
the tree of complementary regions each sphere's circles cut out, and the
side bookkeeping needed to transport a co-orientation across circles.

Positions are treated as immutable values.  A move builds its result from
one ``shallow_copy`` of its input and replaces each piece, circle or
region tree it changes with a new object, never editing one; the result
shares every unchanged item with its input.  Code that edits a position
in place (the tests do) must edit a ``clone`` of it.  Nothing here
assumes the surface is in normal form - transient states
mid-normalization (several circles of one piece on one sphere end,
positive genus, boundary-parallel disks) are all representable.
"""

from __future__ import annotations

import copy
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .graphs import HalfEdge, SphereGraph, reachable, validate_graph

SIDE_A = "A"
SIDE_B = "B"


class PositionError(ValueError):
    """Raised when an operation's structural precondition fails."""


def flip_side(side: str) -> str:
    return SIDE_B if side == SIDE_A else SIDE_A


def xor_side(side: str, flip: bool) -> str:
    return flip_side(side) if flip else side


def fresh_id(prefix: str, used) -> str:
    """Smallest ``prefix<k>`` not in ``used``; deterministic allocation.

    ``used`` is probed by membership only, so pass a set or a dict.
    """
    k = 0
    while f"{prefix}{k}" in used:
        k += 1
    return f"{prefix}{k}"


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

    def crossed_half_edges(self) -> set[HalfEdge]:
        return {slot.half_edge for slot in self.boundary}

    def circles(self) -> set[str]:
        return {slot.circle for slot in self.boundary}

    def replacing_slot(self, cid: str, he: HalfEdge, slots) -> "Piece":
        """A new piece with its slot of ``cid`` at ``he`` replaced by ``slots``."""
        boundary = []
        for slot in self.boundary:
            boundary.extend(slots if slot.circle == cid and slot.half_edge == he else (slot,))
        return Piece(self.id, self.pants, self.genus, boundary, self.uncrossed)


@dataclass
class RegionTree:
    """Complementary regions of one sphere's circles; circles are the edges."""

    sphere: str
    regions: set[str]
    edges: dict[str, tuple[str, str]] = field(default_factory=dict)

    def adjacent(self, circle: str) -> tuple[str, str]:
        return self.edges[circle]

    def other_region(self, circle: str, region: str) -> str:
        a, b = self.edges[circle]
        return b if region == a else a

    def neighbors(self) -> dict[str, list[tuple[str, str]]]:
        """Region -> [(circle, region across it)], in edge order."""
        nbrs: dict[str, list[tuple[str, str]]] = defaultdict(list)
        for cid, (a, b) in self.edges.items():
            nbrs[a].append((cid, b))
            if b != a:
                nbrs[b].append((cid, a))
        return nbrs

    def degree(self, region: str) -> int:
        return sum(1 for a, b in self.edges.values() if region in (a, b))

    def is_leaf(self, region: str) -> bool:
        return self.degree(region) == 1


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
        """A deep copy that shares only the graph, safe to edit in place."""
        return copy.deepcopy(self, {id(self.graph): self.graph})

    def shallow_copy(self) -> "TorusPosition":
        """New dicts holding the same items, for a move to replace some of them."""
        return TorusPosition(
            self.graph, dict(self.pieces), dict(self.circles), dict(self.trees), dict(self.transport)
        )

    def circle_slots(self) -> dict[str, list[tuple[Piece, BoundarySlot]]]:
        """Circle id -> every (piece, slot) glued to it, in piece then slot order.

        Built afresh on each call and never stored: tests edit positions in
        place, so a kept index would go stale.  Callers that look up many
        circles build it once and read it with ``end_slot``.
        """
        index: dict[str, list[tuple[Piece, BoundarySlot]]] = {}
        for piece in self.pieces.values():
            for slot in piece.boundary:
                index.setdefault(slot.circle, []).append((piece, slot))
        return index

    def piece_at(self, cid: str, end: int) -> Piece:
        """The piece attached at the given end of the circle's sphere."""
        return self.slot_at(cid, end)[0]

    def slot_at(self, cid: str, end: int) -> tuple[Piece, BoundarySlot]:
        return end_slot(self, self.circle_slots(), cid, end)

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


def euler_characteristic(t: TorusPosition) -> int:
    return sum(piece.euler() for piece in t.pieces.values())


def intersection_vector(t: TorusPosition) -> dict[str, int]:
    counts = {s: 0 for s in t.graph.sphere_edges}
    for c in t.circles.values():
        counts[c.sphere] += 1
    return counts


def total_intersections(t: TorusPosition) -> int:
    return len(t.circles)


def piece_graph_betti(t: TorusPosition) -> int:
    return len(t.circles) - len(t.pieces) + 1


def monodromy_certificate(t: TorusPosition, index=None) -> list[str] | None:
    """None when a global co-orientation exists, else pieces of a bad cycle.

    Flip bits (not transport) form a Z/2 cochain on the piece graph; the
    surface is two-sided exactly when it is a coboundary.  A failure on a
    self-loop circle or a non-tree edge is reported as the pieces along the
    offending cycle.  ``index`` is the position's ``circle_slots()``, for
    callers that already built it.
    """
    index = t.circle_slots() if index is None else index
    return _walk_piece_graph(t.pieces, _piece_edges(t, index))[3]


def _piece_edges(t: TorusPosition, index) -> list[tuple[str, str, str, bool]]:
    """(circle, piece, piece, flip) per circle with two slots, in circle order."""
    edges = []
    for cid in sorted(t.circles):
        pair = index.get(cid, ())
        if len(pair) == 2:
            (piece_a, _), (piece_b, _) = pair
            edges.append((cid, piece_a.id, piece_b.id, not t.transport.get(cid, True)))
    return edges


def _walk_piece_graph(nodes, edges):
    """(nodes reached from the least node, side bits, BFS tree, first bad cycle).

    The one walk over a piece graph: ``_validate`` and
    ``monodromy_certificate`` read it off a position's circles,
    ``normal_graph.decorate`` and ``normal_graph._axis_cycle`` off a normal
    torus's crossings.  ``edges`` holds
    (circle, node, node, flip) in circle order.  A node's side bit is its
    flip parity along the tree path from its component's least node; the
    tree maps a node to (its parent, the circle joining them), or None at
    that least node.  The bad cycle is the nodes of the first cycle with an
    odd flip count, or None.  The walk finishes the least node's component
    past a bad cycle, so the count stays exact, and stops there.
    """
    adj: dict[str, list[tuple[str, bool, str]]] = {n: [] for n in nodes}
    bad = None
    for cid, a, b, flip in edges:
        if a == b:
            if flip and bad is None:
                bad = [a]
            continue
        adj[a].append((b, flip, cid))
        adj[b].append((a, flip, cid))
    side: dict[str, bool] = {}
    parent: dict[str, tuple[str, str] | None] = {}
    reached = 0
    for start in sorted(adj):
        if start in side:
            continue
        if reached and bad is not None:
            break
        side[start] = False
        parent[start] = None
        queue = deque([start])
        while queue:
            n = queue.popleft()
            for other, flip, cid in adj[n]:
                want = side[n] ^ flip
                if other not in side:
                    side[other] = want
                    parent[other] = (n, cid)
                    queue.append(other)
                elif side[other] != want and bad is None:
                    bad = _tree_cycle(parent, n, other)[0]
        reached = reached or len(side)
    return reached, side, parent, bad


def _tree_cycle(parent, a: str, b: str) -> tuple[list[str], list[str]]:
    """The tree path from ``a`` to ``b``: its nodes, and the circle joining each to the next."""
    def chain(x: str) -> list[str]:
        out = [x]
        while parent[x] is not None:
            x = parent[x][0]
            out.append(x)
        return out
    ca, cb = chain(a), chain(b)
    seen = set(ca)
    common = next(x for x in cb if x in seen)
    up, down = ca[: ca.index(common)], cb[: cb.index(common)][::-1]
    nodes = up + [common] + down
    return nodes, [parent[x][1] for x in up] + [parent[x][1] for x in down]


def validate_position(t: TorusPosition) -> list[str]:
    """All structural invariants; empty list when the position is valid."""
    problems = validate_graph(t.graph)
    if problems:
        return problems
    everything = set(t.pieces), set(t.circles), set(t.graph.sphere_edges), set()
    return _validate(t, t.circle_slots(), *everything)


def validate_step(before: TorusPosition, after: TorusPosition) -> list[str]:
    """``validate_position(after)``, re-checking only what differs from ``before``.

    ``before`` must be valid.  When both share one graph object the graph
    is not re-checked, and the per-piece, per-circle, per-tree and
    side-anchor checks run only over the scope that ``_step_scope`` reads
    off a comparison of the two positions by value; the global checks
    (Euler sum, connectivity, betti, monodromy) still cover all of
    ``after``.  The result is the same list, in the same order, that
    ``validate_position(after)`` returns.  A different graph object gets the
    full check.
    """
    if after.graph is not before.graph:
        return validate_position(after)
    index = after.circle_slots()
    return _validate(after, index, *_step_scope(before, after, index))


def _step_scope(before: TorusPosition, after: TorusPosition, index):
    """(pieces, circles, spheres, ends) of ``after`` whose checks can differ from ``before``'s.

    Found by comparing the two positions by value.  Each check reads only
    its own item and what the item references, so an item outside the
    scope reads what it read in the valid ``before`` and finds nothing:

    * pieces: added or changed, or referencing a circle that was added,
      removed or changed (``index``, ``after.circle_slots()``, finds the
      unchanged ones, which reference it in ``after`` too);
    * circles: added, changed or with a changed transport bit, and every
      circle that an added, changed or removed piece references before or
      after (their slot counts are read off all pieces);
    * spheres: a changed region tree, or an added, removed or changed
      circle on it before or after (a tree check reads the tree and the
      circles on its sphere);
    * ends: (piece, sphere end) pairs of added or changed pieces whose
      slots at that end changed.  A side-anchor check reads one piece's
      slots at one end and that sphere's tree, so it runs on these ends
      and on every end at a scoped sphere.
    """
    pieces = {pid for pid, piece in after.pieces.items() if before.pieces.get(pid) != piece}
    ends = set()
    for pid in pieces:
        old = _slots_by_end(before.pieces[pid]) if pid in before.pieces else {}
        ends.update((pid, he) for he, slots in _slots_by_end(after.pieces[pid]).items()
                    if old.get(he) != slots)
    pieces |= before.pieces.keys() - after.pieces.keys()
    moved = {cid for cid, circle in after.circles.items() if before.circles.get(cid) != circle}
    moved |= before.circles.keys() - after.circles.keys()
    circles = moved | {cid for cid in after.circles
                       if before.transport.get(cid) != after.transport.get(cid)}
    spheres = {s for s in after.graph.sphere_edges if before.trees.get(s) != after.trees.get(s)}
    for t in (before, after):
        for pid in pieces & t.pieces.keys():
            circles |= t.pieces[pid].circles()
        spheres.update(t.circles[cid].sphere for cid in moved & t.circles.keys())
    for cid in moved:
        pieces.update(piece.id for piece, _ in index.get(cid, ()))
    return pieces & after.pieces.keys(), circles & after.circles.keys(), spheres, ends


def _slots_by_end(piece: Piece) -> dict[HalfEdge, list[BoundarySlot]]:
    by_he: dict[HalfEdge, list[BoundarySlot]] = {}
    for slot in piece.boundary:
        by_he.setdefault(slot.half_edge, []).append(slot)
    return by_he


def _validate(t: TorusPosition, index, pieces: set, circles: set, spheres: set, ends: set) -> list[str]:
    """Every check after the graph's: per item over the given scope, globally over ``t``.

    ``index`` is ``t.circle_slots()``.  The per-item checks run in id
    order (spheres in graph order), and the global checks and the side
    anchors at ``ends`` and at every end on a given sphere only once those
    found nothing, so any scope that holds every item with a problem gives
    the same list.
    """
    hes_at = t.graph.half_edges_by_pants()
    problems = []
    for pid in sorted(pieces):
        problems.extend(_piece_problems(t, pid, hes_at))
    for cid in sorted(circles):
        problems.extend(_circle_problems(t, cid, index, hes_at))
    problems.extend(_validate_trees(t, [s for s in t.graph.sphere_edges if s in spheres]))
    if problems:
        return problems

    chi = euler_characteristic(t)
    if chi != 0:
        problems.append(f"total euler characteristic {chi} nonzero")

    reached, _, _, bad_cycle = _walk_piece_graph(t.pieces, _piece_edges(t, index))
    if t.pieces and reached != len(t.pieces):
        problems.append("piece graph disconnected")

    if all(p.genus == 0 for p in t.pieces.values()) and not problems:
        if piece_graph_betti(t) != 1:
            problems.append(f"piece graph betti {piece_graph_betti(t)} not 1")

    if bad_cycle is not None:
        problems.append("monodromy nontrivial on cycle (" + ",".join(bad_cycle) + ")")

    # the trees are valid by now, so a sphere's edges are its circles
    ends = ends | {
        (piece.id, slot.half_edge) for s in spheres for cid in t.trees[s].edges
        for piece, slot in index[cid]
    }
    problems.extend(_validate_side_anchors(t, ends))
    return problems


def _piece_problems(t: TorusPosition, pid: str, hes_at) -> list[str]:
    piece = t.pieces[pid]
    problems = []
    if piece.id != pid:
        problems.append(f"piece key {pid} disagrees with id {piece.id}")
    if piece.pants not in hes_at:
        problems.append(f"piece {pid} in unknown pants {piece.pants}")
        return problems
    if piece.genus < 0:
        problems.append(f"piece {pid} has negative genus")
    if not piece.boundary:
        problems.append(f"piece {pid} is closed (no boundary)")
    pants_hes = hes_at[piece.pants]
    for slot in piece.boundary:
        if slot.circle not in t.circles:
            problems.append(f"piece {pid} references unknown circle {slot.circle}")
            continue
        if slot.half_edge not in pants_hes:
            problems.append(
                f"piece {pid} boundary at {slot.half_edge.label()} outside its pants"
            )
        if t.circles[slot.circle].sphere != slot.half_edge.sphere:
            problems.append(
                f"piece {pid} attaches circle {slot.circle} to the wrong sphere"
            )
    crossed = piece.crossed_half_edges()
    for he in pants_hes:
        if he not in crossed and he not in piece.uncrossed:
            problems.append(f"piece {pid} missing uncrossed side at {t.half_edge_label(he)}")
    for he, side in piece.uncrossed.items():
        if he in crossed:
            problems.append(f"piece {pid} has uncrossed entry at crossed {t.half_edge_label(he)}")
        if he not in pants_hes:
            problems.append(f"piece {pid} uncrossed entry at {he.label()} outside its pants")
        if side not in (SIDE_A, SIDE_B):
            problems.append(f"piece {pid} side label {side!r} invalid")
    return problems


def _circle_problems(t: TorusPosition, cid: str, index, hes_at) -> list[str]:
    circle = t.circles[cid]
    if circle.sphere not in t.graph.sphere_edges:
        return [f"circle {cid} on unknown sphere {circle.sphere}"]
    problems = []
    # slots of pieces in an unknown pants are not counted, as their piece
    # check stops before reading them
    ends = [slot.half_edge for piece, slot in index.get(cid, ()) if piece.pants in hes_at]
    if len(ends) == 1:
        problems.append(f"circle {cid} has one incident piece")
    elif len(ends) != 2:
        problems.append(f"circle {cid} has {len(ends)} incident boundary slots")
    elif {he.end for he in ends} != {0, 1}:
        problems.append(f"circle {cid} does not pass through sphere {circle.sphere}")
    if cid not in t.transport:
        problems.append(f"circle {cid} missing side transport bit")
    return problems


def _validate_trees(t: TorusPosition, spheres: list[str]) -> list[str]:
    problems = []
    want: dict[str, set[str]] = {s: set() for s in spheres}
    for cid, c in t.circles.items():
        if c.sphere in want:
            want[c.sphere].add(cid)
    for s in spheres:
        tree = t.trees.get(s)
        if tree is None:
            problems.append(f"sphere {s} missing region tree")
            continue
        if set(tree.edges) != want[s]:
            problems.append(f"region tree of {s} does not list exactly its circles")
            continue
        if len(tree.regions) != len(tree.edges) + 1:
            problems.append(f"region tree of {s} has {len(tree.regions)} regions for {len(tree.edges)} circles")
            continue
        if not tree.regions:
            problems.append(f"region tree of {s} empty")
            continue
        for cid, (a, b) in tree.edges.items():
            if a not in tree.regions or b not in tree.regions or a == b:
                problems.append(f"region tree edge {cid} of {s} malformed")
        adj = {r: [q for _, q in pairs] for r, pairs in tree.neighbors().items()}
        if tree.regions - reachable(adj, min(tree.regions)):
            problems.append(f"region tree of {s} disconnected")
    return problems


def _validate_side_anchors(t: TorusPosition, ends: set[tuple[str, HalfEdge]]) -> list[str]:
    """Per piece and sphere end, region-side anchors must be consistent.

    Walking on a sphere, seen from the collar on one of its two sides,
    crosses a piece's wall exactly at that piece's circles attached on
    that side; so every ``region_a`` must read A in the piece's side map
    at that end.  Checks the given (piece, end) pairs, in order.  Runs only
    on positions whose circles and trees passed the other checks.
    """
    problems = []
    nbrs: dict[str, dict] = {}
    for pid, he in sorted(ends):
        piece = t.pieces[pid]
        slots = [slot for slot in piece.boundary if slot.half_edge == he]
        tree = t.trees[he.sphere]
        stray = [slot for slot in slots if slot.region_a not in tree.edges[slot.circle]]
        for slot in stray:
            problems.append(f"piece {pid} slot at {slot.circle} anchors a non-adjacent region")
        if stray or len(slots) == 1:  # a lone anchor cannot conflict
            continue
        if he.sphere not in nbrs:
            nbrs[he.sphere] = tree.neighbors()
        side = side_map(t, piece, he, nbrs[he.sphere])
        if any(side.get(slot.region_a) != SIDE_A for slot in slots):
            problems.append(f"piece {pid} side anchors conflict at {he.label()}")
    return problems


def side_map(t: TorusPosition, piece: Piece, he: HalfEdge, nbrs) -> dict[str, str]:
    """Region -> side of ``piece`` over it, seen from the collar at ``he``.

    The collar is taken just inside the piece's pants, on the ``he`` side
    of the sphere.  Seen from there, the piece's side flips exactly across
    its own circles attached at ``he``, and reads A at its first anchor
    there.  A sphere end the piece does not cross carries its ``uncrossed``
    label over every region.  ``nbrs`` is the tree's ``neighbors()``, so
    callers that walk one tree many times build it once.
    """
    masks = side_masks(t, he, {piece.id: 1}, nbrs)
    return {r: SIDE_B if m else SIDE_A for r, m in masks.items()}


def side_masks(t: TorusPosition, he: HalfEdge, bits: dict[str, int], nbrs) -> dict[str, int]:
    """Region -> sides of many pieces of ``he``'s pants at once, as an int.

    ``bits`` gives each piece its own bit, set in a region's mask when the
    collar over that region at ``he`` lies on the piece's B side.  One walk
    from the least region flips a piece's bit across each circle it owns at
    ``he``.  Each piece that crosses ``he`` is then re-based so that its
    first anchor there reads A; a piece that does not takes its
    ``uncrossed`` label.  The region tree must be a tree.
    """
    tree = t.trees[he.sphere]
    flips: dict[str, int] = {}
    anchors: dict[str, str] = {}
    for pid, bit in bits.items():
        for slot in t.pieces[pid].boundary:
            if slot.half_edge == he:
                flips[slot.circle] = bit
                anchors.setdefault(pid, slot.region_a)
    start = min(tree.regions)
    mask = {start: 0}
    queue = deque([start])
    while queue:
        r = queue.popleft()
        for cid, q in nbrs.get(r, ()):
            if q not in mask:
                mask[q] = mask[r] ^ flips.get(cid, 0)
                queue.append(q)
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
    """Which side of ``piece`` the collar over ``region`` at ``he`` lies on."""
    side = side_map(t, piece, he, t.trees[he.sphere].neighbors()).get(region)
    if side is None:
        raise PositionError(f"region {region} not on sphere {he.sphere}")
    return side


DISK = "disk"
CYLINDER = "cylinder"
PANTS = "pants"


def piece_kind(piece: Piece) -> str | None:
    """Normal-form kind of a piece, or None when it fits none of them."""
    if piece.genus != 0:
        return None
    crossed = [slot.half_edge for slot in piece.boundary]
    if len(crossed) != len(set(crossed)):
        return None
    if len(crossed) == 1:
        return DISK
    if len(crossed) == 2:
        return CYLINDER
    if len(crossed) == 3:
        return PANTS
    return None


def is_normal_piece(piece: Piece) -> bool:
    """A disk, cylinder or pants piece, and an essential one if a disk.

    True exactly for the pieces ``is_normal`` finds no violation in; it
    skips building the messages, for callers that only need the verdict.
    """
    kind = piece_kind(piece)
    return kind is not None and (kind != DISK or len(set(piece.uncrossed.values())) == 2)


def is_normal(t: TorusPosition) -> tuple[bool, list[str]]:
    """Normal form: every piece a disk, a cylinder or a pants piece.

    Disks must additionally be essential, i.e. separate the two boundary
    spheres they miss (opposite uncrossed side labels); a disk with both
    of them on one side is parallel into its own sphere.
    """
    violations = []
    for pid, piece in sorted(t.pieces.items()):
        if piece.genus != 0:
            violations.append(f"piece {pid} has genus {piece.genus}")
            continue
        seen: dict[HalfEdge, int] = defaultdict(int)
        for slot in piece.boundary:
            seen[slot.half_edge] += 1
        doubled = False
        for he, k in sorted(seen.items()):
            if k > 1:
                violations.append(f"piece {pid} meets half-edge ({t.half_edge_label(he)}) twice")
                doubled = True
        if doubled:
            continue
        b = len(piece.boundary)
        if b == 1:
            sides = sorted(piece.uncrossed.values())
            if len(set(sides)) != 2:
                violations.append(f"disk {pid} boundary-parallel")
        elif b not in (2, 3):
            violations.append(f"piece {pid} has {b} boundary circles")
    return (not violations, violations)


def is_boundary_parallel_disk(piece: Piece) -> bool:
    return (
        piece.genus == 0
        and len(piece.boundary) == 1
        and len(set(piece.uncrossed.values())) == 1
        and len(piece.uncrossed) == 2
    )
