"""Verification harness: generators, inverse moves, and brute-force search.

Fuzzing is built on inverse moves rather than arbitrary sampling: an
inverse tube slide or an inverse cap visibly raises one sphere's count by
one and keeps the position within the same homotopy class, so the
normalizer's output can be judged against known ground truth without any
3-manifold machinery.

Inverse moves are only generated in shapes whose side bookkeeping is fully
determined by the present data:

* dome split - a circle is split in two and the piece beyond the sphere
  sheds a boundary-parallel disk next to it (inverse of a slide whose
  band merges a disk into its neighbor).
* finger     - a piece pushes a disk through a sphere end it does not
  cross, landing in a complementary region its side can reach (inverse
  of a cap).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from .graphs import GraphError, HalfEdge, SphereGraph, validate_graph
from .moves import _normalize, apply_move, find_moves
from .normal_graph import NormalTorus, bounds_solid_torus, canonicalize, decorate, equivalent, to_normal_torus
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
    intersection_vector,
    is_normal,
    side_masks,
    total_intersections,
)
from .serialize import dumps, position_to_json


# ---------------------------------------------------------------------------
# random normal tori


def random_normal_torus(g: SphereGraph, seed: int, size_bound: int = 2) -> TorusPosition:
    """A random normal torus position over ``g``, reproducible per seed.

    Checks ``g`` first and raises ``GraphError`` with ``validate_graph``'s
    problems, as ``label_generators`` does.  Samples an immersed closed
    walk in the dual graph (the axis), then spends the rest of the piece
    budget growing branches off axis nodes, depth first (``_grow_branches``);
    every branch ends in disks.  Circles sharing a sphere sit side by side
    (a star-shaped region tree) and every transport bit is trivial
    (``_assemble``).
    """
    problems = validate_graph(g)
    if problems:
        raise GraphError("; ".join(problems))
    if size_bound < 1:
        raise PositionError("size bound must allow at least one piece")
    rng = random.Random(seed)
    starts = sorted(g.p_vertices)
    # (pants, entry) -> sorted [(exit, arrival, next pants)]: the exits an immersed walk may take, drawn from by index
    options = {(p, entry): sorted((he, he.other(), g.pants_of(he.other())) for he in hes if he != entry)
               for p, hes in g.by_pants.items() for entry in (None, *hes)}
    for attempt in range(800):
        # graphs of larger girth may not close any walk within the piece
        # budget; after enough failures let the axis run longer
        max_len = size_bound if attempt < 400 else size_bound + 2 * len(g.p_vertices)
        walk = _sample_axis(starts, options, rng, max_len)
        if walk is not None:
            break
    else:
        raise PositionError("failed to sample a closed immersed walk")
    t = _assemble(g, _grow_branches(g, rng, walk, size_bound))
    if _checked(t, "generator produced invalid position: ")[1].abnormal:
        raise PositionError("generator produced non-normal position: " + "; ".join(is_normal(t)[1]))
    return t


def _sample_axis(starts: list[str], options: dict, rng: random.Random, size_bound: int) -> list[HalfEdge] | None:
    """A closed walk as a list of exit half-edges, immersed at every visit.

    ``starts`` holds the pants in sorted order and ``options`` each pants'
    exits by entry (None at the start), as ``random_normal_torus`` builds them.
    """
    start = rng.choice(starts)
    length = rng.randint(1, max(1, size_bound))
    current = start
    entry: HalfEdge | None = None
    steps: list[HalfEdge] = []
    for _ in range(length):
        exit_he, entry, current = rng.choice(options[current, entry])
        steps.append(exit_he)
    if current != start or entry == steps[0]:
        return None
    return steps


@dataclass
class _Node:
    """Scratch piece while assembling: its circle at each half-edge it crosses; one absent or None is uncrossed."""

    id: str
    pants: str
    ports: dict[HalfEdge, str | None] = field(default_factory=dict)


def _grow_branches(g: SphereGraph, rng: random.Random, walk: list[HalfEdge], size_bound: int) -> list[_Node]:
    """The axis nodes along ``walk``, then branches grown depth first while the budget lasts.

    Axis node ``Fi`` leaves through ``walk[i]`` on circle ``ci``.  Each
    axis node, in walk order, draws whether to grow a branch at its free
    end (a walk immersed in a valid graph leaves it one), once the budget
    allows one more piece.  ``branch(node, he)`` puts circle ``cj`` at
    ``he`` and piece ``Fj`` beyond it, ``j`` being the number of pieces
    so far, spends one piece and draws the new piece's kind: pants (two
    pieces left, probability 0.2), whose two children grow in sorted
    half-edge order; cylinder (one left, 0.5), whose exit is drawn from
    its other ends in sorted order; else disk.  A draw is made only once
    its budget test passes.
    """
    k = len(walk)
    nodes = [_Node(f"F{i}", g.pants_of(he), {he: f"c{i}", walk[i - 1].other(): f"c{(i - 1) % k}"})
             for i, he in enumerate(walk)]
    budget = size_bound - k

    def branch(node: _Node, he: HalfEdge) -> None:
        nonlocal budget
        j, entry = len(nodes), he.other()
        node.ports[he] = f"c{j}"
        child = _Node(f"F{j}", g.pants_of(entry), {entry: f"c{j}"})
        nodes.append(child)
        budget -= 1
        rest = sorted(h for h in g.half_edges_at(child.pants) if h != entry)
        if budget >= 2 and rng.random() < 0.2:
            for h in rest:
                branch(child, h)
        elif budget >= 1 and rng.random() < 0.5:
            branch(child, rng.choice(rest))

    for node in nodes[:k]:
        if budget >= 1 and rng.random() < 0.5:
            branch(node, next(he for he in g.half_edges_at(node.pants) if he not in node.ports))
    return nodes


def _assemble(g: SphereGraph, nodes: list[_Node]) -> TorusPosition:
    """The position of ``nodes``, each circle held by two of them.

    Sphere ``g.sphere_edges[i]``'s tree is a star on centre ``ri`` with a
    leaf per circle, the leaves named on in sorted circle-id order.  Every
    slot faces its centre, a piece's uncrossed ends take sides A then B in
    sorted order, and every transport bit is trivial.
    """
    sphere_of = {cid: he.sphere for node in nodes for he, cid in node.ports.items() if cid is not None}
    center = {s: f"r{i}" for i, s in enumerate(g.sphere_edges)}
    edges = {s: {} for s in g.sphere_edges}
    for i, (cid, s) in enumerate(sorted(sphere_of.items()), len(center)):
        edges[s][cid] = (center[s], f"r{i}")
    trees = {s: RegionTree(s, {center[s], *(leaf for _, leaf in edges[s].values())}, edges[s]) for s in edges}
    pieces = {}
    for node in nodes:
        free = sorted(he for he in g.half_edges_at(node.pants) if node.ports.get(he) is None)
        boundary = [BoundarySlot(cid, he, center[he.sphere])
                    for he, cid in sorted(node.ports.items()) if cid is not None]
        pieces[node.id] = Piece(node.id, node.pants, 0, boundary, dict(zip(free, (SIDE_A, SIDE_B))))
    circles = {cid: Circle(cid, sphere_of[cid]) for cid in sorted(sphere_of)}
    return TorusPosition(g, pieces, circles, trees, {cid: True for cid in circles})


# ---------------------------------------------------------------------------
# inverse moves


def perturb(t: TorusPosition, seed: int, k: int) -> TorusPosition:
    """Apply ``k`` randomly parameterized inverse moves.

    The result is valid, homotopic to the input by construction, and its
    total intersection count is exactly ``k`` larger.  The input must be
    valid; it is checked once, before any draw.  Every inverse move's
    result, the last one included, is checked by the one step routine,
    ``position._step``, with ``_validate_delta``, scoped by the ids the
    inverse move reports it replaced.
    """
    return _perturb(t, *_checked(t, "invalid position: "), seed, k)[0]


def _perturb(t: TorusPosition, index, tally: Tally, seed: int, k: int) -> tuple[TorusPosition, dict, Tally]:
    """``perturb`` of a position known to be valid, and the result's index and ``Tally``; ``index`` and ``tally`` are ``t``'s.

    Carries the index and the ``Tally`` through ``position._step``, and
    the candidate cache, which redoes what each inverse move reports it
    replaced, from step to step.  A rejected candidate means a
    bookkeeping bug, so it raises.  The cache is not refreshed after the
    last draw.  A step's problems are checked before its total.
    """
    if k < 0:
        raise PositionError(f"cannot apply {k} inverse moves")
    rng = random.Random(seed)
    current = t
    cache = _Candidates(t, index)
    for i in range(k):
        count = cache.count()
        if not count:
            raise PositionError("no applicable inverse move")
        cand = cache.pick(rng.randrange(count))
        try:
            moved = _inverse(current, cand, index)
        except PositionError as exc:  # MoveError included
            raise PositionError(f"inverse move {cand} failed: {exc}") from exc
        nxt, nxt_index, tally, problems = _step(current, index, tally, moved)
        if problems:
            raise PositionError(f"inverse move {cand} broke invariants: " + "; ".join(problems))
        if total_intersections(nxt) != total_intersections(current) + 1:
            raise PositionError(f"inverse move {cand} did not raise the total by one")
        if i + 1 < k:
            cache.update(current, nxt_index, moved)
        current, index = nxt, nxt_index
    return current, index, tally


def _inverse(t: TorusPosition, cand: tuple, index):
    """(result, ids of the pieces and circles it replaced, the sphere whose tree it replaced) of a dome or finger."""
    return _apply_inverse_dome(t, index, *cand[1:]) if cand[0] == "dome" else _apply_inverse_finger(t, *cand[1:])


class _Candidates:
    """The inverse moves of a valid position, kept across the steps of one perturbation.

    Two tables: the domes of each circle, and the fingers of each piece.  A
    finger's arc runs inside one pants from the piece to the sphere collar
    over the target region, so both endpoints must lie in the same
    complementary component; in a pants, components are cut out by the
    (separating) pieces, so it suffices that every other piece of the pants
    sees both endpoints on one side.  One mask pass per sphere end
    (``side_masks``) gives every region the sides of all pieces of that
    pants at once, so the admissible regions are those whose mask matches
    the mask at the piece's first anchor (a collar point next to its own
    circle, where every other piece of the pants sees it) outside the
    piece's own bit, which is constant at an end it does not cross.

    So a pants is redone whole: its pieces, read off the index at its
    ends, get bits in the order of their ids, and each of its ends one mask
    pass.  ``update`` reads a step's reported pieces and sphere: each
    reported piece's fingers are dropped, and every pants that held or
    holds one is redone, as are the domes of every circle it held or holds
    and of every circle on the reported sphere's tree.  That misses
    nothing: domes read only the pieces at a circle's ends and its two
    regions, every changed piece is reported, and a step replaces only the
    reported sphere's tree.
    """

    def __init__(self, t: TorusPosition, index):
        self.domes: dict[str, list[tuple]] = {}
        self.fingers: dict[str, list[tuple]] = {}
        self._refresh(t, index, t.circles.keys(), {piece.pants for piece in t.pieces.values()})

    def count(self) -> int:
        return sum(map(len, self.domes.values())) + sum(map(len, self.fingers.values()))

    def pick(self, i: int) -> tuple:
        """The ``i``-th candidate, ``0 <= i < count()``: domes by circle id, then fingers by piece id."""
        for table in (self.domes, self.fingers):
            for key in sorted(table):
                if i < len(table[key]):
                    return table[key][i]
                i -= len(table[key])
        raise IndexError(i)

    def update(self, before: TorusPosition, index, moved) -> None:
        """Redo what a step from ``before`` changed; ``moved`` is its move's report, ``index`` the result's."""
        after, pieces, _, sphere = moved
        circles, pants = set(after.trees[sphere].edges), set()
        for pid in pieces:
            self.fingers.pop(pid, None)
            for piece in (before.pieces.get(pid), after.pieces.get(pid)):
                if piece is not None:
                    pants.add(piece.pants)
                    circles |= piece.circles()
        self._refresh(after, index, circles, pants)

    def _refresh(self, t: TorusPosition, index, circles, pants) -> None:
        """Rebuild the domes of ``circles`` and the fingers of every piece in ``pants``."""
        for cid in circles:
            self.domes.pop(cid, None)
            if cid in t.circles and index[cid][0][0].id != index[cid][1][0].id:  # none if one piece holds both ends
                regions = sorted(t.trees[t.circles[cid].sphere].adjacent(cid))
                self.domes[cid] = [("dome", cid, host_end, rx) for host_end in (0, 1) for rx in regions]
        for p in pants:
            ends, held = t.graph.by_pants[p], set()
            for he in ends:  # a valid position's circles each have one holder at either end
                for cid in t.trees[he.sphere].edges:
                    (a, at_a), (b, _) = index[cid]
                    held.add(a.id if at_a.half_edge == he else b.id)
            bits = {pid: 1 << i for i, pid in enumerate(sorted(held))}
            masks, groups = {}, {}
            for he in ends:
                masks[he] = side_masks(t, he, bits)
                groups[he] = {}  # regions by mask
                for region in sorted(t.trees[he.sphere].regions):
                    groups[he].setdefault(masks[he][region], []).append(region)
            for pid, bit in bits.items():
                self.fingers[pid] = _fingers(t.pieces[pid], bit, masks, groups)


def _fingers(piece: Piece, bit: int, masks, groups) -> list[tuple]:
    """The fingers of one piece, from the masks and region groups of its pants' ends."""
    anchor = piece.boundary[0]
    at_anchor = masks[anchor.half_edge][anchor.region_a] & ~bit
    out = []
    for he in sorted(piece.uncrossed):
        own = bit if piece.uncrossed[he] == SIDE_B else 0
        out.extend(("finger", piece.id, he, region) for region in groups[he].get(at_anchor | own, ()))
    return out


def _apply_inverse_dome(t: TorusPosition, index, cid: str, host_end: int, rx: str):
    """Split a circle, shedding a boundary-parallel disk on the host side.

    Returns the result, the ids of the pieces and circles it replaced, and
    the sphere whose tree it replaced, as ``_apply_inverse_finger`` does.
    """
    sphere = t.circles[cid].sphere
    host_he = HalfEdge(sphere, host_end)
    host, host_slot = end_slot(t, index, cid, host_end)
    near, near_slot = end_slot(t, index, cid, 1 - host_end)
    if host.id == near.id:
        raise PositionError("dome split needs distinct pieces")
    # A dome shed from the host piece opens toward the shared region, so its
    # away side must be the host's side facing that region; anything else
    # fails the slide's side consistency check on re-merge.
    dome_label = SIDE_A if host_slot.region_a == rx else SIDE_B
    r_y = t.trees[sphere].other_region(cid, rx)

    out = t.shallow_copy()
    c_dome = fresh_id("c", out.circles)
    c_keep = fresh_id("c", {*out.circles, c_dome})
    r_fp = fresh_id("r", _all_regions(out))
    dome_id = fresh_id("F", out.pieces)

    tree = t.trees[sphere]
    edges = {c: ends for c, ends in tree.edges.items() if c != cid}
    edges[c_dome] = (rx, r_fp)
    edges[c_keep] = (rx, r_y)
    out.trees[sphere] = RegionTree(sphere, tree.regions | {r_fp}, edges)

    bit = out.transport.pop(cid)
    del out.circles[cid]
    out.circles[c_dome] = Circle(c_dome, sphere)
    out.circles[c_keep] = Circle(c_keep, sphere)
    out.transport[c_dome] = bit
    out.transport[c_keep] = bit

    x = near_slot.region_a == rx
    out.pieces[near.id] = near.replacing_slot(cid, near_slot.half_edge, (
        BoundarySlot(c_dome, near_slot.half_edge, rx if x else r_fp),
        BoundarySlot(c_keep, near_slot.half_edge, rx if x else r_y),
    ))
    o = host_slot.region_a == rx
    out.pieces[host.id] = host.replacing_slot(
        cid, host_he, (BoundarySlot(c_keep, host_he, rx if o else r_y),)
    )

    out.pieces[dome_id] = _disk(t, dome_id, c_dome, host_he, dome_label, rx, r_fp)
    return out, {near.id, host.id, dome_id}, {cid, c_dome, c_keep}, sphere


def _apply_inverse_finger(t: TorusPosition, pid: str, he: HalfEdge, region: str):
    """Push a finger of a piece through a sphere end it does not cross."""
    piece = t.pieces[pid]
    if he not in piece.uncrossed:
        raise PositionError("finger needs an uncrossed sphere end")
    label = piece.uncrossed[he]
    sphere = he.sphere
    if region not in t.trees[sphere].regions:
        raise PositionError("unknown landing region")

    out = t.shallow_copy()
    c_new = fresh_id("c", out.circles)
    leaf = fresh_id("r", _all_regions(out))
    dome_id = fresh_id("F", out.pieces)

    tree = t.trees[sphere]
    out.trees[sphere] = RegionTree(sphere, tree.regions | {leaf}, {**tree.edges, c_new: (region, leaf)})
    out.circles[c_new] = Circle(c_new, sphere)
    out.transport[c_new] = True

    boundary = piece.boundary + [BoundarySlot(c_new, he, region if label == SIDE_A else leaf)]
    uncrossed = {h: side for h, side in piece.uncrossed.items() if h != he}
    out.pieces[pid] = Piece(pid, piece.pants, piece.genus, boundary, uncrossed)

    # The finger's cavity opens to the grown piece's far side, while the
    # dome's away side continues the near side across the sphere; with a
    # trivial transport bit the dome therefore reuses the host's label.
    out.pieces[dome_id] = _disk(t, dome_id, c_new, he.other(), label, region, leaf)
    return out, {pid, dome_id}, {c_new}, sphere


def _disk(t: TorusPosition, pid: str, cid: str, he: HalfEdge, side: str, near: str, far: str) -> Piece:
    """The shed disk: bounded by ``cid`` at ``he``, with its pants' other ends uncrossed on ``side``.

    Its slot's side-A region is ``near`` when ``side`` is A, else ``far``.
    """
    pants = t.graph.pants_of(he)
    others = {h: side for h in t.graph.half_edges_at(pants) if h != he}
    return Piece(pid, pants, 0, [BoundarySlot(cid, he, near if side == SIDE_A else far)], others)


# ---------------------------------------------------------------------------
# brute-force confluence


@dataclass
class ConfluenceResult:
    confluent: bool
    outcomes: list[str]
    stuck: int
    explored: int


def confluence_search(t: TorusPosition, depth_bound: int = 12) -> ConfluenceResult:
    """Explore every maximal move sequence; compare terminal decorations.

    Exhaustive (the total count strictly decreases, so the reachable state
    space is a finite DAG); refuses inputs above ``depth_bound`` circles,
    then ones that ``validate_position`` rejects (``position._checked``).
    Moves keep a position valid, so every normal end state has a torus.
    Each state popped gets one ``_state_key``; a key seen before skips
    the state, and ``explored`` counts the distinct keys, so it is fixed
    by how the key partitions states, not by how it computes them.
    """
    if total_intersections(t) > depth_bound:
        raise PositionError(
            f"state space too large: {total_intersections(t)} circles exceeds bound {depth_bound}"
        )
    _checked(t)
    outcomes: set[str] = set()
    stuck = 0
    explored = 0
    seen: set[tuple] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        key = _state_key(cur)
        if key in seen:
            continue
        seen.add(key)
        explored += 1
        moves = find_moves(cur)
        if not moves:
            ok, _ = is_normal(cur)
            if ok:
                outcomes.add(canonicalize(decorate(NormalTorus(cur))))
            else:
                stuck += 1
            continue
        for mv in moves:
            stack.append(apply_move(cur, mv))
    return ConfluenceResult(len(outcomes) == 1 and stuck == 0, sorted(outcomes), stuck, explored)


def _state_key(t: TorusPosition) -> tuple:
    """State fingerprint: the position with ids renamed in the order of refined colours.

    Each piece, circle and region gets an index, its place in the dicts
    (a region id two spheres share is one region, the last tree's); every
    table is a list by index, and ids come back only to break ties between
    equal colours, so dict order never reaches the key.  Colours come from
    1-dim Weisfeiler-Leman refinement: each round a colour's signature is
    its previous colour plus its neighbours' colours, interned to its rank
    among its kind's distinct signatures.  A signature starts with the old
    colour, so a kind whose count did not grow kept its colours.  Pieces
    read circles and regions, circles read pieces and regions, regions
    read circles; a round recomputes a kind only if its colours are not
    all distinct and a kind it reads grew in the round before (any kind,
    in the first round), since otherwise it would split nothing and come
    out as it went in.  So colours and the stop round (after 4 rounds, or
    once no kind grew) are those of refining every kind every round.
    Half-edges enter as their rank in sorted order, which keeps every sort
    and so every colour.  The key is a tuple spelling out the position
    under the renaming, pinned by ``tests/test_state_key_reference.py``
    to a frozen copy keyed by id throughout; two states share a key only if they
    are isomorphic, so the search never gives a wrong answer, and the
    colours decide only how much exploration is duplicated.
    """
    he_rank = {he: i for i, he in enumerate(sorted(t.graph.incidence))}
    pids, cids = list(t.pieces), list(t.circles)
    c_at = {cid: i for i, cid in enumerate(cids)}
    # region -> (its sphere, the indices of the circles it borders)
    regions = {r: (s, [c_at[c] for c, _ in tree.neighbors.get(r, ())]) for s, tree in t.trees.items() for r in tree.regions}
    r_at = {r: i for i, r in enumerate(regions)}
    piece_init, slots, ends = [], [], [[] for _ in cids]
    for i, p in enumerate(t.pieces.values()):
        piece_init.append((p.pants, p.genus, tuple(sorted(p.uncrossed.items()))))
        sl = []
        for slot in p.boundary:
            c = c_at[slot.circle]
            sl.append((he_rank[slot.half_edge], c, r_at[slot.region_a]))
            ends[c].append((slot.half_edge.end, i))
        slots.append(sl)
    # circle -> (its ends in circle_slots order, sorted by end, stably as they come by piece; its two regions)
    circles = []
    for (cid, c), es in zip(t.circles.items(), ends):
        a, b = t.trees[c.sphere].edges[cid]
        circles.append((sorted(es), r_at[a], r_at[b]))
    inc = [cs for _, cs in regions.values()]
    # piece, circle and region colours, and how many distinct ones of each
    pc, n_p = _intern(piece_init)
    cc, n_c = _intern([(c.sphere, t.transport[cid]) for cid, c in t.circles.items()])
    rc, n_r = _intern([(s, len(cs)) for s, cs in regions.values()])
    grew_p = grew_c = grew_r = True
    for _ in range(4):
        counts = n_p, n_c, n_r
        (pc, n_p), (cc, n_c), (rc, n_r) = (
            _intern([(pc[i], tuple(sorted([(h, cc[c], rc[r]) for h, c, r in sl]))) for i, sl in enumerate(slots)])
            if n_p < len(pc) and (grew_c or grew_r) else (pc, n_p),
            _intern([(cc[i], tuple([(e, pc[j]) for e, j in es]), tuple(sorted((rc[a], rc[b]))))
                     for i, (es, a, b) in enumerate(circles)])
            if n_c < len(cc) and (grew_p or grew_r) else (cc, n_c),
            _intern([(rc[i], tuple(sorted([cc[c] for c in cs]))) for i, cs in enumerate(inc)])
            if n_r < len(rc) and grew_c else (rc, n_r),
        )
        grew_p, grew_c, grew_r = n_p > counts[0], n_c > counts[1], n_r > counts[2]
        if not (grew_p or grew_c or grew_r):
            break
    circle_order = [i for _, _, i in sorted(zip(cc, cids, range(len(cids))))]
    new_c = {i: rank for rank, i in enumerate(circle_order)}
    new_r = {r_at[r]: (s, i) for s in sorted(t.trees)
             for i, (_, r) in enumerate(sorted([(rc[r_at[x]], x) for x in t.trees[s].regions]))}
    return (
        tuple((piece_init[i], tuple(sorted([(h, new_c[c], new_r[r]) for h, c, r in slots[i]])))
              for _, _, i in sorted(zip(pc, pids, range(len(pids))))),
        tuple((t.circles[cids[i]].sphere, t.transport[cids[i]], tuple(sorted([new_r[r] for r in circles[i][1:]])))
              for i in circle_order),
    )


def _intern(signatures: list) -> tuple[list, int]:
    """Replace each signature with its rank among the distinct signatures; also return their number."""
    colours, rank, prev = [0] * len(signatures), -1, None
    for i in sorted(range(len(signatures)), key=signatures.__getitem__):  # equal ones come in a run; none is hashed
        if signatures[i] != prev:
            rank, prev = rank + 1, signatures[i]
        colours[i] = rank
    return colours, rank + 1


# ---------------------------------------------------------------------------
# experiments and reports


@dataclass
class FuzzFailure:
    seed: int
    kind: str
    detail: str
    counterexample: str


@dataclass
class FuzzReport:
    seed: int
    trials: int
    sizes: dict[str, int] = field(default_factory=dict)
    runs: list[dict] = field(default_factory=list)
    failures: list[FuzzFailure] = field(default_factory=list)

    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "format": 1,
            "kind": "fuzz_report",
            "seed": self.seed,
            "trials": self.trials,
            "sizes": dict(self.sizes),
            "runs": self.runs,
            "failures": [
                {
                    "seed": f.seed,
                    "failure_kind": f.kind,
                    "detail": f.detail,
                    "counterexample": f.counterexample,
                }
                for f in self.failures
            ],
        }


def _trials(t: TorusPosition, index, tally: Tally, trials: int, k_max: int, seed: int, stride: int) -> Iterator[tuple]:
    """Seed, k, perturbed position and normalize result of each perturb-then-normalize trial.

    Trial i perturbs ``t`` by (i mod ``k_max``) + 1 inverse moves, none when
    ``k_max`` is 0.  ``t`` is already validated, and ``index`` and ``tally``
    are the ``circle_slots()`` and ``Tally`` it was validated with; each
    trial normalizes over the index and tally that ``_perturb`` carried.
    """
    if trials < 0 or k_max < 0:
        raise PositionError(f"trials and depth must be non-negative, got {trials} and {k_max}")
    for i in range(trials):
        trial_seed = seed + stride * i
        k = (i % k_max) + 1 if k_max >= 1 else 0
        perturbed, *carried = _perturb(t, index, tally, trial_seed, k)
        yield trial_seed, k, perturbed, _normalize(perturbed, *carried)


def minimality_experiment(t: TorusPosition, trials: int, k_max: int, seed: int = 0) -> FuzzReport:
    """Check that the normal position minimizes every per-sphere count.

    Each trial perturbs the normal position by at most ``k_max`` inverse
    moves and renormalizes; the normalized counts must equal the original
    ones sphere by sphere, and never exceed the perturbed counts.  ``t`` is
    validated first (``position._checked``), then checked to be normal.
    """
    index, tally = _checked(t)
    if tally.abnormal:
        raise PositionError("minimality experiment needs a normal position: " + "; ".join(is_normal(t)[1]))
    base = intersection_vector(t)
    report = FuzzReport(seed=seed, trials=trials)
    report.sizes = {"pieces": len(t.pieces), "circles": len(t.circles)}
    for trial_seed, k, perturbed, result in _trials(t, index, tally, trials, k_max, seed, 1):
        after = intersection_vector(result.position)
        messed = intersection_vector(perturbed)
        bad = []
        for s in base:
            if after[s] != base[s]:
                bad.append(f"{s}: normalized {after[s]} != original {base[s]}")
            if after[s] > messed[s]:
                bad.append(f"{s}: normalized {after[s]} > perturbed {messed[s]}")
        report.runs.append(
            {"seed": trial_seed, "k": k, "trace_len": len(result.trace), "total": sum(messed.values())}
        )
        if bad:
            report.failures.append(
                FuzzFailure(trial_seed, "minimality", "; ".join(bad), dumps(position_to_json(perturbed)))
            )
    return report


def roundtrip_report(t: TorusPosition, trials: int, k_max: int, seed: int = 0) -> FuzzReport:
    """Perturb/normalize round trips: decoration and solid-torus stability; ``to_normal_torus`` validates ``t``."""
    nt = to_normal_torus(t)
    base_dec = decorate(nt)
    base_solid = bounds_solid_torus(base_dec)
    report = FuzzReport(seed=seed, trials=trials)
    report.sizes = {"pieces": len(t.pieces), "circles": len(t.circles)}
    for trial_seed, k, perturbed, result in _trials(t, nt.index, Tally.of(t, nt.side), trials, k_max, seed, 7919):
        dec = decorate(result.torus)
        if not equivalent(dec, base_dec):
            report.failures.append(
                FuzzFailure(trial_seed, "roundtrip", "decorated graphs differ", dumps(position_to_json(perturbed)))
            )
        elif bounds_solid_torus(dec) != base_solid:
            report.failures.append(
                FuzzFailure(trial_seed, "solid-torus", "stability violated", dumps(position_to_json(perturbed)))
            )
        report.runs.append({"seed": trial_seed, "k": k, "trace_len": len(result.trace)})
    return report
