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
from collections import defaultdict
from dataclasses import dataclass, field

from .graphs import HalfEdge, SphereGraph
from .moves import apply_move, find_moves, normalize
from .normal_graph import bounds_solid_torus, canonicalize, decorate, equivalent, to_normal_torus
from .position import (
    SIDE_A,
    SIDE_B,
    BoundarySlot,
    Circle,
    Piece,
    PositionError,
    RegionTree,
    TorusPosition,
    end_slot,
    fresh_id,
    intersection_vector,
    is_normal,
    side_lookup,
    total_intersections,
    validate_position,
)
from .serialize import dumps, position_to_json


# ---------------------------------------------------------------------------
# random normal tori


def random_normal_torus(g: SphereGraph, seed: int, size_bound: int = 2) -> TorusPosition:
    """A random normal torus position over ``g``, reproducible per seed.

    Samples an immersed closed walk in the dual graph (the axis), then
    spends the remaining piece budget growing branch trees off axis nodes;
    every branch bottoms out in disks, so disk and pants counts balance
    automatically.  Circles sharing a sphere are arranged side by side
    (star-shaped region tree) and all transport bits are trivial.
    """
    if size_bound < 1:
        raise PositionError("size bound must allow at least one piece")
    rng = random.Random(seed)
    for attempt in range(800):
        # graphs of larger girth may not close any walk within the piece
        # budget; after enough failures let the axis run longer
        max_len = size_bound if attempt < 400 else size_bound + 2 * len(g.p_vertices)
        walk = _sample_axis(g, rng, max_len)
        if walk is not None:
            break
    else:
        raise PositionError("failed to sample a closed immersed walk")
    nodes = _grow_branches(g, rng, walk, size_bound)
    t = _assemble(g, nodes)
    problems = validate_position(t)
    if problems:
        raise PositionError("generator produced invalid position: " + "; ".join(problems))
    ok, violations = is_normal(t)
    if not ok:
        raise PositionError("generator produced non-normal position: " + "; ".join(violations))
    return t


def _sample_axis(g: SphereGraph, rng: random.Random, size_bound: int) -> list[HalfEdge] | None:
    """A closed walk as a list of exit half-edges, immersed at every visit."""
    start = rng.choice(sorted(g.p_vertices))
    length = rng.randint(1, max(1, size_bound))
    current = start
    entry: HalfEdge | None = None
    steps: list[HalfEdge] = []
    for _ in range(length):
        options = [he for he in g.half_edges_at(current) if he != entry]
        exit_he = rng.choice(sorted(options))
        steps.append(exit_he)
        arrival = exit_he.other()
        current = g.pants_of(arrival)
        entry = arrival
    if current != start or entry == steps[0]:
        return None
    return steps


@dataclass
class _Node:
    """Scratch node while assembling: half-edge -> circle id or leaf marker."""

    id: str
    pants: str
    ports: dict[HalfEdge, str | None] = field(default_factory=dict)  # circle id or None=leaf


def _grow_branches(g, rng, walk: list[HalfEdge], size_bound: int) -> list[_Node]:
    nodes: list[_Node] = []
    counter = 0

    def new_circle() -> str:
        nonlocal counter
        cid = f"c{counter}"
        counter += 1
        return cid

    k = len(walk)
    for i, exit_he in enumerate(walk):
        pants = g.pants_of(exit_he)
        node = _Node(f"F{i}", pants)
        nodes.append(node)
    axis_cids = []
    for _ in walk:
        axis_cids.append(new_circle())
    for i, exit_he in enumerate(walk):
        entry_he = walk[(i - 1) % k].other()
        node = nodes[i]
        node.ports[exit_he] = axis_cids[i]
        node.ports[entry_he] = axis_cids[(i - 1) % k]
        for he in g.half_edges_at(node.pants):
            if he not in node.ports:
                node.ports[he] = None

    budget = size_bound - k
    next_piece = k

    def grow(entry_he: HalfEdge) -> None:
        """One branch node entered through ``entry_he``; recurses on budget."""
        nonlocal budget, next_piece
        pants = g.pants_of(entry_he)
        node = _Node(f"F{next_piece}", pants)
        next_piece += 1
        nodes.append(node)
        budget -= 1
        entry_cid = pending_cid.pop()
        node.ports[entry_he] = entry_cid
        rest = [he for he in g.half_edges_at(pants) if he != entry_he]
        if budget >= 2 and rng.random() < 0.2:
            kinds = "pants"
        elif budget >= 1 and rng.random() < 0.5:
            kinds = "cylinder"
        else:
            kinds = "disk"
        if kinds == "disk":
            for he in rest:
                node.ports[he] = None
            return
        if kinds == "cylinder":
            exit_he = rng.choice(sorted(rest))
            other = [he for he in rest if he != exit_he][0]
            node.ports[other] = None
            cid = new_circle()
            node.ports[exit_he] = cid
            pending_cid.append(cid)
            grow(exit_he.other())
            return
        for he in sorted(rest):
            cid = new_circle()
            node.ports[he] = cid
            pending_cid.append(cid)
            grow(he.other())

    pending_cid: list[str] = []
    for i in list(range(k)):
        node = nodes[i]
        free = [he for he, v in node.ports.items() if v is None]
        if not free or budget < 1:
            continue
        if rng.random() < 0.5:
            he = free[0]
            cid = new_circle()
            node.ports[he] = cid
            pending_cid.append(cid)
            grow(he.other())
    return nodes


def _assemble(g: SphereGraph, nodes: list[_Node]) -> TorusPosition:
    by_circle: dict[str, list[tuple[_Node, HalfEdge]]] = defaultdict(list)
    for node in nodes:
        for he, cid in node.ports.items():
            if cid is not None:
                by_circle[cid].append((node, he))
    circles: dict[str, Circle] = {}
    trees: dict[str, RegionTree] = {}
    center: dict[str, str] = {}
    region_counter = 0

    def new_region() -> str:
        nonlocal region_counter
        rid = f"r{region_counter}"
        region_counter += 1
        return rid

    for s in g.sphere_edges:
        rid = new_region()
        center[s] = rid
        trees[s] = RegionTree(s, {rid}, {})
    for cid in sorted(by_circle):
        ends = by_circle[cid]
        assert len(ends) == 2
        sphere = ends[0][1].sphere
        circles[cid] = Circle(cid, sphere)
        leaf = new_region()
        trees[sphere].regions.add(leaf)
        trees[sphere].edges[cid] = (center[sphere], leaf)

    pieces: dict[str, Piece] = {}
    for node in nodes:
        boundary = []
        uncrossed = {}
        free = sorted(he for he, v in node.ports.items() if v is None)
        for he in sorted(node.ports):
            cid = node.ports[he]
            if cid is not None:
                boundary.append(BoundarySlot(cid, he, center[he.sphere]))
        if len(free) == 2:
            uncrossed = {free[0]: SIDE_A, free[1]: SIDE_B}
        elif len(free) == 1:
            uncrossed = {free[0]: SIDE_A}
        pieces[node.id] = Piece(node.id, node.pants, 0, boundary, uncrossed)
    transport = {cid: True for cid in circles}
    return TorusPosition(g, pieces, circles, trees, transport)


# ---------------------------------------------------------------------------
# inverse moves


def perturb(t: TorusPosition, seed: int, k: int) -> TorusPosition:
    """Apply ``k`` randomly parameterized inverse moves.

    The result is valid, homotopic to the input by construction, and its
    total intersection count is exactly ``k`` larger.
    """
    rng = random.Random(seed)
    current = t
    for _ in range(k):
        candidates = _inverse_candidates(current)
        if not candidates:
            raise PositionError("no applicable inverse move")
        current = _apply_some_inverse(current, rng, candidates)
    return current


def _apply_some_inverse(t: TorusPosition, rng: random.Random, candidates: list) -> TorusPosition:
    """Apply one drawn candidate; a rejected one means a bookkeeping bug, so it raises."""
    cand = candidates[rng.randrange(len(candidates))]
    try:
        out = _apply_inverse(t, cand)
    except PositionError as exc:  # MoveError included
        raise PositionError(f"inverse move {cand} failed: {exc}") from exc
    problems = validate_position(out)
    if problems:
        raise PositionError(f"inverse move {cand} broke invariants: " + "; ".join(problems))
    if total_intersections(out) != total_intersections(t) + 1:
        raise PositionError(f"inverse move {cand} did not raise the total by one")
    return out


def _apply_inverse(t: TorusPosition, cand: tuple) -> TorusPosition:
    if cand[0] == "dome":
        return _apply_inverse_dome(t, *cand[1:])
    if cand[0] == "finger":
        return _apply_inverse_finger(t, *cand[1:])
    raise PositionError(f"unknown inverse move {cand[0]}")


def _all_regions(t: TorusPosition):
    return (r for tree in t.trees.values() for r in tree.regions)


def _inverse_candidates(t: TorusPosition) -> list[tuple]:
    index = t.circle_slots()
    cands: list[tuple] = []
    for cid in sorted(t.circles):
        sphere = t.circles[cid].sphere
        a, b = t.trees[sphere].adjacent(cid)
        for host_end in (0, 1):
            host, _ = end_slot(t, index, cid, host_end)
            other, _ = end_slot(t, index, cid, 1 - host_end)
            if host.id == other.id:
                continue
            for rx in sorted((a, b)):
                cands.append(("dome", cid, host_end, rx))
    # A finger's arc runs inside one pants from the piece to the sphere
    # collar over the target region, so both endpoints must lie in the same
    # complementary component; in a pants, components are cut out by the
    # (separating) pieces, so it suffices that every other piece of the
    # pants sees both endpoints on one side.
    side_of = side_lookup(t)
    for pid in sorted(t.pieces):
        piece = t.pieces[pid]
        mates = [o for o in t.pieces.values() if o.id != pid and o.pants == piece.pants]
        for he in sorted(piece.uncrossed):
            anchor = piece.boundary[0]  # where side_of_piece reads the piece
            for region in sorted(t.trees[he.sphere].regions):
                if all(side_of(o, he, region) == side_of(o, anchor.half_edge, anchor.region_a) for o in mates):
                    cands.append(("finger", pid, he, region))
    return cands


def _apply_inverse_dome(t: TorusPosition, cid: str, host_end: int, rx: str) -> TorusPosition:
    """Split a circle, shedding a boundary-parallel disk on the host side."""
    sphere = t.circles[cid].sphere
    host_he = HalfEdge(sphere, host_end)
    index = t.circle_slots()
    host, host_slot = end_slot(t, index, cid, host_end)
    near, near_slot = end_slot(t, index, cid, 1 - host_end)
    if host.id == near.id:
        raise PositionError("dome split needs distinct pieces")
    # A dome shed from the host piece opens toward the shared region, so its
    # away side must be the host's side facing that region; anything else
    # fails the slide's side consistency check on re-merge.
    dome_label = SIDE_A if host_slot.region_a == rx else SIDE_B
    r_y = t.trees[sphere].other_region(cid, rx)

    out = t.clone()
    c_dome = fresh_id("c", out.circles)
    c_keep = fresh_id("c", list(out.circles) + [c_dome])
    r_fp = fresh_id("r", _all_regions(out))
    dome_id = fresh_id("F", out.pieces)

    tree = out.trees[sphere]
    del tree.edges[cid]
    tree.regions.add(r_fp)
    tree.edges[c_dome] = (rx, r_fp)
    tree.edges[c_keep] = (rx, r_y)

    bit = out.transport.pop(cid)
    del out.circles[cid]
    out.circles[c_dome] = Circle(c_dome, sphere)
    out.circles[c_keep] = Circle(c_keep, sphere)
    out.transport[c_dome] = bit
    out.transport[c_keep] = bit

    new_near = out.pieces[near.id]
    x = near_slot.region_a == rx
    for i, slot in enumerate(new_near.boundary):
        if slot.circle == cid and slot.half_edge == near_slot.half_edge:
            new_near.boundary[i : i + 1] = [
                BoundarySlot(c_dome, near_slot.half_edge, rx if x else r_fp),
                BoundarySlot(c_keep, near_slot.half_edge, rx if x else r_y),
            ]
            break

    new_host = out.pieces[host.id]
    o = host_slot.region_a == rx
    for i, slot in enumerate(new_host.boundary):
        if slot.circle == cid and slot.half_edge == host_he:
            new_host.boundary[i] = BoundarySlot(c_keep, host_he, rx if o else r_y)
            break

    pants = t.graph.pants_of(host_he)
    others = [he for he in t.graph.half_edges_at(pants) if he != host_he]
    out.pieces[dome_id] = Piece(
        dome_id,
        pants,
        0,
        [BoundarySlot(c_dome, host_he, rx if dome_label == SIDE_A else r_fp)],
        {he: dome_label for he in others},
    )
    return out


def _apply_inverse_finger(t: TorusPosition, pid: str, he: HalfEdge, region: str) -> TorusPosition:
    """Push a finger of a piece through a sphere end it does not cross."""
    piece = t.pieces[pid]
    if he not in piece.uncrossed:
        raise PositionError("finger needs an uncrossed sphere end")
    label = piece.uncrossed[he]
    sphere = he.sphere
    if region not in t.trees[sphere].regions:
        raise PositionError("unknown landing region")

    out = t.clone()
    c_new = fresh_id("c", out.circles)
    leaf = fresh_id("r", _all_regions(out))
    dome_id = fresh_id("F", out.pieces)

    tree = out.trees[sphere]
    tree.regions.add(leaf)
    tree.edges[c_new] = (region, leaf)
    out.circles[c_new] = Circle(c_new, sphere)
    out.transport[c_new] = True

    grown = out.pieces[pid]
    del grown.uncrossed[he]
    grown.boundary.append(BoundarySlot(c_new, he, region if label == SIDE_A else leaf))

    # The finger's cavity opens to the grown piece's far side, while the
    # dome's away side continues the near side across the sphere; with a
    # trivial transport bit the dome therefore reuses the host's label.
    dome_he = he.other()
    pants = t.graph.pants_of(dome_he)
    others = [h for h in t.graph.half_edges_at(pants) if h != dome_he]
    out.pieces[dome_id] = Piece(
        dome_id,
        pants,
        0,
        [BoundarySlot(c_new, dome_he, region if label == SIDE_A else leaf)],
        {h: label for h in others},
    )
    return out


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
    space is a finite DAG); refuses inputs above ``depth_bound`` circles.
    """
    if total_intersections(t) > depth_bound:
        raise PositionError(
            f"state space too large: {total_intersections(t)} circles exceeds bound {depth_bound}"
        )
    outcomes: set[str] = set()
    stuck = 0
    explored = 0
    seen: set[str] = set()
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
                outcomes.add(canonicalize(decorate(to_normal_torus(cur))))
            else:
                stuck += 1
            continue
        for mv in moves:
            stack.append(apply_move(cur, mv))
    return ConfluenceResult(len(outcomes) == 1 and stuck == 0, sorted(outcomes), stuck, explored)


def _state_key(t: TorusPosition) -> str:
    """State fingerprint: ids renamed in the order of refined colours.

    Colours come from 1-dim Weisfeiler-Leman refinement over pieces,
    circles and regions: each round a colour's signature is its previous
    colour plus its neighbours' colours, and every kind's distinct
    signatures are interned to their ranks, so colours stay small ints.
    The key spells out the whole position under the renaming, so two
    states share a key only if they are isomorphic and the search never
    gives a wrong answer; the colours decide only how often isomorphic
    states are told apart, i.e. how much exploration is duplicated.
    """
    piece_color = _intern(
        {pid: (p.pants, p.genus, tuple(sorted(p.uncrossed.items()))) for pid, p in t.pieces.items()}
    )
    circle_color = _intern({cid: (c.sphere, t.transport[cid]) for cid, c in t.circles.items()})
    index = t.circle_slots()
    nbrs = {s: tree.neighbors() for s, tree in t.trees.items()}
    region_color = _intern(
        {r: (s, len(nbrs[s].get(r, ()))) for s, tree in t.trees.items() for r in tree.regions}
    )
    for _ in range(4):
        new_piece = {}
        for pid, p in t.pieces.items():
            sig = tuple(
                sorted((slot.half_edge, circle_color[slot.circle], region_color[slot.region_a]) for slot in p.boundary)
            )
            new_piece[pid] = (piece_color[pid], sig)
        new_circle = {}
        for cid in t.circles:
            ends = tuple(
                (slot.half_edge.end, piece_color[piece.id]) for piece, slot in sorted(
                    index.get(cid, []), key=lambda ps: ps[1].half_edge.end
                )
            )
            a, b = t.trees[t.circles[cid].sphere].edges[cid]
            new_circle[cid] = (circle_color[cid], ends, tuple(sorted((region_color[a], region_color[b]))))
        new_region = {}
        for s, tree in t.trees.items():
            for r in tree.regions:
                inc = tuple(sorted(circle_color[c] for c, _ in nbrs[s].get(r, ())))
                new_region[r] = (region_color[r], inc)
        piece_color, circle_color, region_color = _intern(new_piece), _intern(new_circle), _intern(new_region)
    rename_p = {pid: f"P{i}" for i, pid in enumerate(sorted(t.pieces, key=lambda x: (piece_color[x], x)))}
    rename_c = {cid: f"C{i}" for i, cid in enumerate(sorted(t.circles, key=lambda x: (circle_color[x], x)))}
    rename_r = {}
    for s in sorted(t.trees):
        for i, r in enumerate(sorted(t.trees[s].regions, key=lambda x: (region_color[x], x))):
            rename_r[r] = f"R{s}.{i}"
    parts = []
    for pid in sorted(t.pieces, key=lambda x: rename_p[x]):
        p = t.pieces[pid]
        slots = sorted(
            (slot.half_edge, rename_c[slot.circle], rename_r[slot.region_a]) for slot in p.boundary
        )
        unc = tuple(sorted((he, side) for he, side in p.uncrossed.items()))
        parts.append(str((rename_p[pid], p.pants, p.genus, slots, unc)))
    for cid in sorted(t.circles, key=lambda x: rename_c[x]):
        a, b = t.trees[t.circles[cid].sphere].edges[cid]
        parts.append(
            str((rename_c[cid], t.circles[cid].sphere, t.transport[cid], tuple(sorted((rename_r[a], rename_r[b])))))
        )
    return "&".join(parts)


def _intern(signatures: dict) -> dict[str, int]:
    """Replace each signature with its rank among the distinct signatures."""
    rank = {sig: i for i, sig in enumerate(sorted(set(signatures.values())))}
    return {x: rank[sig] for x, sig in signatures.items()}


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


def minimality_experiment(t: TorusPosition, trials: int, k_max: int, seed: int = 0) -> FuzzReport:
    """Check that the normal position minimizes every per-sphere count.

    Each trial perturbs the normal position by at most ``k_max`` inverse
    moves and renormalizes; the normalized counts must equal the original
    ones sphere by sphere, and never exceed the perturbed counts.
    """
    ok, violations = is_normal(t)
    if not ok:
        raise PositionError("minimality experiment needs a normal position: " + "; ".join(violations))
    base = intersection_vector(t)
    report = FuzzReport(seed=seed, trials=trials)
    report.sizes = {"pieces": len(t.pieces), "circles": len(t.circles)}
    for i in range(trials):
        trial_seed = seed + i
        k = (i % k_max) + 1 if k_max >= 1 else 0
        perturbed = perturb(t, trial_seed, k) if k else t
        result = normalize(perturbed)
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
    """Perturb/normalize round trips: decoration and solid-torus stability."""
    base_dec = decorate(to_normal_torus(t))
    base_solid = bounds_solid_torus(base_dec)
    report = FuzzReport(seed=seed, trials=trials)
    report.sizes = {"pieces": len(t.pieces), "circles": len(t.circles)}
    for i in range(trials):
        trial_seed = seed + 7919 * i
        k = (i % k_max) + 1 if k_max >= 1 else 0
        perturbed = perturb(t, trial_seed, k) if k else t
        result = normalize(perturbed)
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
