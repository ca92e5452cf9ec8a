"""Torus positions relative to a sphere system.

A position records how a closed surface sits relative to the spheres:
connected pieces inside each pants, intersection circles on each sphere,
the tree of complementary regions each sphere's circles cut out, and the
side bookkeeping needed to transport a co-orientation across circles.

Positions are treated as immutable values; the move engine copies before
rewriting.  Nothing here assumes the surface is in normal form - transient
states mid-normalization (several circles of one piece on one sphere end,
positive genus, boundary-parallel disks) are all representable.
"""

from __future__ import annotations

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
    """Smallest ``prefix<k>`` not in ``used``; deterministic allocation."""
    taken = set()
    for name in used:
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            taken.add(int(name[len(prefix):]))
    k = 0
    while k in taken:
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

    def clone(self) -> "Piece":
        return Piece(
            self.id,
            self.pants,
            self.genus,
            [BoundarySlot(s.circle, s.half_edge, s.region_a) for s in self.boundary],
            dict(self.uncrossed),
        )


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

    def clone(self) -> "RegionTree":
        return RegionTree(self.sphere, set(self.regions), dict(self.edges))


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
        return TorusPosition(
            self.graph,
            {pid: piece.clone() for pid, piece in self.pieces.items()},
            {cid: Circle(c.id, c.sphere) for cid, c in self.circles.items()},
            {s: t.clone() for s, t in self.trees.items()},
            dict(self.transport),
        )

    def circle_slots(self) -> dict[str, list[tuple[Piece, BoundarySlot]]]:
        """Circle id -> every (piece, slot) glued to it, in piece then slot order.

        Built afresh on each call and never stored: positions are edited in
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


def monodromy_certificate(t: TorusPosition) -> list[str] | None:
    """None when a global co-orientation exists, else pieces of a bad cycle.

    Flip bits (not transport) form a Z/2 cochain on the piece graph; the
    surface is two-sided exactly when it is a coboundary.  A failure on a
    self-loop circle or a non-tree edge is reported as the pieces along the
    offending cycle.
    """
    index = t.circle_slots()
    adj: dict[str, list[tuple[str, bool, str]]] = {pid: [] for pid in t.pieces}
    for cid in sorted(t.circles):
        pair = index.get(cid, [])
        if len(pair) != 2:
            continue
        a, b = (piece.id for piece, _ in pair)
        flip = not t.transport.get(cid, True)
        if a == b:
            if flip:
                return [a]
            continue
        adj[a].append((b, flip, cid))
        adj[b].append((a, flip, cid))
    potential: dict[str, bool] = {}
    parent: dict[str, tuple[str, str] | None] = {}
    for start in sorted(t.pieces):
        if start in potential:
            continue
        potential[start] = False
        parent[start] = None
        queue = deque([start])
        while queue:
            pid = queue.popleft()
            for other, flip, cid in adj[pid]:
                want = potential[pid] ^ flip
                if other not in potential:
                    potential[other] = want
                    parent[other] = (pid, cid)
                    queue.append(other)
                elif potential[other] != want:
                    return _tree_cycle(parent, pid, other)
    return None


def _tree_cycle(parent, a: str, b: str) -> list[str]:
    def chain(x: str) -> list[str]:
        out = [x]
        while parent[x] is not None:
            x = parent[x][0]
            out.append(x)
        return out
    ca, cb = chain(a), chain(b)
    common = None
    seen = set(ca)
    for x in cb:
        if x in seen:
            common = x
            break
    cycle = ca[: ca.index(common) + 1]
    cycle += list(reversed(cb[: cb.index(common)]))
    return cycle


def validate_position(t: TorusPosition) -> list[str]:
    """All structural invariants; empty list when the position is valid."""
    problems = validate_graph(t.graph)
    if problems:
        return problems

    slot_count: dict[str, list[HalfEdge]] = defaultdict(list)
    for pid, piece in sorted(t.pieces.items()):
        if piece.id != pid:
            problems.append(f"piece key {pid} disagrees with id {piece.id}")
        if piece.pants not in t.graph.p_vertices:
            problems.append(f"piece {pid} in unknown pants {piece.pants}")
            continue
        if piece.genus < 0:
            problems.append(f"piece {pid} has negative genus")
        if not piece.boundary:
            problems.append(f"piece {pid} is closed (no boundary)")
        pants_hes = t.graph.half_edges_at(piece.pants)
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
            slot_count[slot.circle].append(slot.half_edge)
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

    for cid, circle in sorted(t.circles.items()):
        if circle.sphere not in t.graph.sphere_edges:
            problems.append(f"circle {cid} on unknown sphere {circle.sphere}")
            continue
        ends = slot_count.get(cid, [])
        if len(ends) == 1:
            problems.append(f"circle {cid} has one incident piece")
        elif len(ends) != 2:
            problems.append(f"circle {cid} has {len(ends)} incident boundary slots")
        elif {he.end for he in ends} != {0, 1}:
            problems.append(f"circle {cid} does not pass through sphere {circle.sphere}")
        if cid not in t.transport:
            problems.append(f"circle {cid} missing side transport bit")

    problems.extend(_validate_trees(t))
    if problems:
        return problems

    chi = euler_characteristic(t)
    if chi != 0:
        problems.append(f"total euler characteristic {chi} nonzero")

    if t.pieces:
        adj: dict[str, list[str]] = defaultdict(list)
        for pair in t.circle_slots().values():
            if len(pair) == 2:
                (a, _), (b, _) = pair
                adj[a.id].append(b.id)
                adj[b.id].append(a.id)
        if len(reachable(adj, min(t.pieces))) != len(t.pieces):
            problems.append("piece graph disconnected")

    if all(p.genus == 0 for p in t.pieces.values()) and not problems:
        if piece_graph_betti(t) != 1:
            problems.append(f"piece graph betti {piece_graph_betti(t)} not 1")

    bad_cycle = monodromy_certificate(t)
    if bad_cycle is not None:
        problems.append("monodromy nontrivial on cycle (" + ",".join(bad_cycle) + ")")

    problems.extend(_validate_side_anchors(t))
    return problems


def _validate_trees(t: TorusPosition) -> list[str]:
    problems = []
    by_sphere: dict[str, set[str]] = defaultdict(set)
    for cid, c in t.circles.items():
        by_sphere[c.sphere].add(cid)
    for s in t.graph.sphere_edges:
        tree = t.trees.get(s)
        if tree is None:
            problems.append(f"sphere {s} missing region tree")
            continue
        want = by_sphere.get(s, set())
        if set(tree.edges) != want:
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
        nbrs = {r: [q for _, q in pairs] for r, pairs in tree.neighbors().items()}
        if tree.regions - reachable(nbrs, min(tree.regions)):
            problems.append(f"region tree of {s} disconnected")
    return problems


def _validate_side_anchors(t: TorusPosition) -> list[str]:
    """Per piece and sphere end, region-side anchors must be consistent.

    Walking on a sphere, seen from the collar on one of its two sides,
    crosses a piece's wall exactly at that piece's circles attached on
    that side; so every ``region_a`` must read A in the piece's side map
    at that end.  Runs only on positions whose circles and trees passed
    the other checks.
    """
    problems = []
    for pid, piece in sorted(t.pieces.items()):
        by_he: dict[HalfEdge, list[BoundarySlot]] = defaultdict(list)
        for slot in piece.boundary:
            by_he[slot.half_edge].append(slot)
        for he, slots in sorted(by_he.items()):
            tree = t.trees[he.sphere]
            stray = [slot for slot in slots if slot.region_a not in tree.edges[slot.circle]]
            for slot in stray:
                problems.append(f"piece {pid} slot at {slot.circle} anchors a non-adjacent region")
            if stray or len(slots) == 1:  # a lone anchor cannot conflict
                continue
            side = side_map(t, piece, he)
            if any(side.get(slot.region_a) != SIDE_A for slot in slots):
                problems.append(f"piece {pid} side anchors conflict at {he.label()}")
    return problems


def side_map(t: TorusPosition, piece: Piece, he: HalfEdge) -> dict[str, str]:
    """Region -> side of ``piece`` over it, seen from the collar at ``he``.

    The collar is taken just inside the piece's pants, on the ``he`` side
    of the sphere.  Seen from there, the piece's side flips exactly across
    its own circles attached at ``he``; the walk starts at the piece's
    first anchor there.  A sphere end the piece does not cross carries its
    ``uncrossed`` label over every region.
    """
    tree = t.trees[he.sphere]
    anchors = [slot for slot in piece.boundary if slot.half_edge == he]
    if not anchors:
        if he not in piece.uncrossed:
            raise PositionError(f"piece {piece.id} has no side data at {he.label()}")
        return dict.fromkeys(tree.regions, piece.uncrossed[he])
    own = {slot.circle for slot in anchors}
    start = anchors[0]
    side = {start.region_a: SIDE_A, tree.other_region(start.circle, start.region_a): SIDE_B}
    nbrs = tree.neighbors()
    queue = deque(side)
    while queue:
        r = queue.popleft()
        for cid, q in nbrs.get(r, ()):
            if q not in side:
                side[q] = xor_side(side[r], cid in own)
                queue.append(q)
    return side


def side_lookup(t: TorusPosition):
    """``side_of_region`` for many queries on a position left unchanged
    meanwhile: each (piece, sphere end) side map is built once, on first use.
    """
    maps: dict[tuple[str, HalfEdge], dict[str, str]] = {}

    def side_of(piece: Piece, he: HalfEdge, region: str) -> str:
        key = (piece.id, he)
        if key not in maps:
            maps[key] = side_map(t, piece, he)
        side = maps[key].get(region)
        if side is None:
            raise PositionError(f"region {region} not on sphere {he.sphere}")
        return side

    return side_of


def side_of_region(t: TorusPosition, piece: Piece, he: HalfEdge, region: str) -> str:
    """Which side of ``piece`` the collar over ``region`` at ``he`` lies on."""
    return side_lookup(t)(piece, he, region)


def side_of_piece(t: TorusPosition, observer: Piece, target: Piece) -> str:
    """Which side of ``observer`` the disjoint piece ``target`` lies on.

    Both pieces must live in the same pants.  Anchored at a collar point
    of ``target`` next to one of its own circles; crossing that circle on
    the collar walk only passes through ``target``'s wall, so either
    adjacent region gives the same answer.
    """
    if observer.pants != target.pants:
        raise PositionError("side_of_piece needs pieces of one pants")
    slot = target.boundary[0]
    return side_of_region(t, observer, slot.half_edge, slot.region_a)


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
