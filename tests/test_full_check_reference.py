"""The full check against a frozen reference of its per-item and side-anchor checks.

The step-check tests compare ``_validate_delta`` with ``validate_position``,
which share their per-item checks and their side-anchor pass, so a change
to those would drift both at once and still pass there.  This module keeps
a copy of ``_piece_problems``, ``_circle_problems`` and
``_validate_side_anchors`` as they read before the full check was made to
read each slot once (the one edit: ``Piece.crossed_half_edges()``, since
removed, is written out), builds a reference ``validate_position`` from
them and the package's global checks, and pins both checks to its list,
message for message and in order.

It also keeps its own ``_validate_trees``, as the package's read before
it named region ids that two spheres' trees share, with that check added
over a dict of each id's first sphere, where the package's scans the
earlier trees.

The reference keeps, with its own ``piece_graph_betti``, the
betti-number check that the package dropped as unreachable: once the
per-item checks pass, a zero Euler sum with every genus 0 already means
betti number 1, so the pins passing on every mutant is the evidence
that the check never fired.  It also checks for transport
bits of no circle, as the package's global pass does.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from test_step_check import MUTATIONS, _corpus_steps, _mutants, _pick, _slot, _validate_by_value

from normaltori import position
from normaltori.fixtures import make_t0
from normaltori.graphs import HalfEdge, validate_graph
from normaltori.position import (
    SIDE_A,
    SIDE_B,
    BoundarySlot,
    RegionTree,
    _anchors_by_end,
    euler_characteristic,
    side_masks,
    validate_position,
)


def _piece_problems(t, pid: str) -> list[str]:
    piece = t.pieces[pid]
    problems = []
    if piece.id != pid:
        problems.append(f"piece key {pid} disagrees with id {piece.id}")
    pants_hes = t.graph.by_pants.get(piece.pants)
    if pants_hes is None:
        problems.append(f"piece {pid} in unknown pants {piece.pants}")
        return problems
    if piece.genus < 0:
        problems.append(f"piece {pid} has negative genus")
    if not piece.boundary:
        problems.append(f"piece {pid} is closed (no boundary)")
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
    crossed = {slot.half_edge for slot in piece.boundary}
    for he in pants_hes:
        if he not in crossed and he not in piece.uncrossed:
            problems.append(f"piece {pid} missing uncrossed side at {t.half_edge_label(he)}")
    for he, side in piece.uncrossed.items():
        if he in crossed:
            problems.append(f"piece {pid} has uncrossed entry at crossed {he.label()}")
        if he not in pants_hes:
            problems.append(f"piece {pid} uncrossed entry at {he.label()} outside its pants")
        if side not in (SIDE_A, SIDE_B):
            problems.append(f"piece {pid} side label {side!r} invalid")
    return problems


def _circle_problems(t, cid: str, index, spheres: set[str]) -> list[str]:
    circle = t.circles[cid]
    if circle.sphere not in spheres:
        return [f"circle {cid} on unknown sphere {circle.sphere}"]
    problems = []
    # slots of pieces in an unknown pants are not counted, as their piece
    # check stops before reading them
    ends = [slot.half_edge for piece, slot in index.get(cid, ()) if piece.pants in t.graph.by_pants]
    if len(ends) == 1:
        problems.append(f"circle {cid} has one incident piece")
    elif len(ends) != 2:
        problems.append(f"circle {cid} has {len(ends)} incident boundary slots")
    elif {he.end for he in ends} != {0, 1}:
        problems.append(f"circle {cid} does not pass through sphere {circle.sphere}")
    if cid not in t.transport:
        problems.append(f"circle {cid} missing side transport bit")
    return problems


def _validate_side_anchors(t, ends: set[tuple[str, HalfEdge]]) -> list[str]:
    problems: list = []
    bits: dict[HalfEdge, dict[str, int]] = defaultdict(dict)
    last = None
    for pid, he in sorted(ends):
        if pid != last:  # a piece's ends come together
            at, last = _anchors_by_end(t.pieces[pid]), pid
        anchors, edges = at[he], t.trees[he.sphere].edges
        stray = [cid for cid, region in anchors if region not in edges[cid]]
        for cid in stray:
            problems.append(f"piece {pid} slot at {cid} anchors a non-adjacent region")
        if not stray and len(anchors) > 1:  # a lone anchor cannot conflict
            bits[he][pid] = 1 << len(bits[he])
            problems.append((pid, he, anchors))  # decided below, once the masks are known
    if not bits:
        return problems
    masks = {he: side_masks(t, he, mates) for he, mates in bits.items()}
    out = []
    for problem in problems:
        if type(problem) is str:
            out.append(problem)
            continue
        pid, he, anchors = problem
        if any(masks[he][region] & bits[he][pid] for _, region in anchors):
            out.append(f"piece {pid} side anchors conflict at {he.label()}")
    return out


def _validate_trees(t, spheres, counts) -> list[str]:
    """``position._validate_trees`` as it read before it named shared region ids, with that check after a missing tree's."""
    problems = []
    holder = {}
    for s in spheres:
        tree = t.trees.get(s)
        if tree is None:
            problems.append(f"sphere {s} missing region tree")
            continue
        for r in sorted(tree.regions):
            if r in holder:
                problems.append(f"region {r} of {s} also in the tree of {holder[r]}")
            else:
                holder[r] = s
        if len(tree.edges) != counts.get(s, 0) or any(
            cid not in t.circles or t.circles[cid].sphere != s for cid in tree.edges
        ):
            problems.append(f"region tree of {s} does not list exactly its circles")
            continue
        if len(tree.regions) != len(tree.edges) + 1:
            problems.append(f"region tree of {s} has {len(tree.regions)} regions for {len(tree.edges)} circles")
            continue
        for cid, (a, b) in tree.edges.items():
            if a not in tree.regions or b not in tree.regions or a == b:
                problems.append(f"region tree edge {cid} of {s} malformed")
        if tree.regions - {r for _, _, r in tree.walk}:
            problems.append(f"region tree of {s} disconnected")
    return problems


def piece_graph_betti(t) -> int:
    return len(t.circles) - len(t.pieces) + 1


def _reference_validate(t) -> list[str]:
    """``validate_position(t)``: the copies above, in the full check's order, with the package's global checks."""
    problems = validate_graph(t.graph)
    if problems:
        return problems
    if not t.pieces:
        return ["position has no pieces"]
    index = t.circle_slots()
    for pid in sorted(t.pieces):
        problems.extend(_piece_problems(t, pid))
    known = set(t.graph.sphere_edges)
    for cid in sorted(t.circles):
        problems.extend(_circle_problems(t, cid, index, known))
    counts = Counter(c.sphere for c in t.circles.values())
    problems.extend(_validate_trees(t, list(t.graph.sphere_edges), counts))
    if problems:
        return problems
    chi = euler_characteristic(t)
    if chi != 0:
        problems.append(f"total euler characteristic {chi} nonzero")
    for cid in sorted(t.transport.keys() - t.circles.keys()):
        problems.append(f"side transport bit of unknown circle {cid}")
    reached, _, _, bad_cycle = position.walk(t.pieces, position._piece_edges(t, index))
    if reached != len(t.pieces):
        problems.append("piece graph disconnected")
    if all(p.genus == 0 for p in t.pieces.values()) and not problems:
        if piece_graph_betti(t) != 1:
            problems.append(f"piece graph betti {piece_graph_betti(t)} not 1")
    if bad_cycle is not None:
        problems.append("monodromy nontrivial on cycle (" + ",".join(bad_cycle) + ")")
    ends = {(pid, slot.half_edge) for pid, piece in t.pieces.items() for slot in piece.boundary}
    problems.extend(_validate_side_anchors(t, ends))
    return problems


def _slot_outside_pants(rng, t):
    """Move one slot to a sphere end outside its piece's pants: end 2 of its sphere, or an end of another pants."""
    piece, i = _slot(rng, t)
    slot = piece.boundary[i]
    others = [he for he in t.graph.incidence if he not in t.graph.by_pants[piece.pants]]
    he = HalfEdge(slot.half_edge.sphere, 2) if rng.random() < 0.5 else _pick(rng, others)
    piece.boundary[i] = BoundarySlot(slot.circle, he, slot.region_a)


def _strand_reversed_slots(rng, t):
    """Reverse one piece's slot order and anchor every slot to a region on no tree: one message per slot, in end order."""
    pid = _pick(rng, t.pieces)
    t.pieces[pid].boundary.reverse()
    for slot in t.pieces[pid].boundary:
        slot.region_a = "rX"


def _share_region_id(rng, t):
    """Rename one region of one sphere's tree, and its anchors there, to a region id of another sphere's tree."""
    spheres = sorted(t.trees)
    a, b = rng.sample(spheres, 2)
    r, q = _pick(rng, t.trees[a].regions), _pick(rng, t.trees[b].regions)
    tree = t.trees[b]
    edges = {cid: tuple(r if x == q else x for x in ends) for cid, ends in tree.edges.items()}
    t.trees[b] = RegionTree(b, (tree.regions - {q}) | {r}, edges)
    for piece in t.pieces.values():
        for slot in piece.boundary:
            if slot.half_edge.sphere == b and slot.region_a == q:
                slot.region_a = r


# the step-check mutations, a quarter of out-of-pants slots and a seventh of
# stranded anchors; the step-check tests draw from ``MUTATIONS`` alone, so
# their mutants and counts stay as they are
_MUTATIONS = MUTATIONS + (_slot_outside_pants,) * 9 + (_strand_reversed_slots,) * 6


def _check_against_reference(steps, seed, mutations=MUTATIONS) -> Counter:
    """Both checks give the reference's list on every mutant; the count of mutants, rejected and out of pants."""
    seen = Counter()
    for before, mutant in _mutants(steps, seed, mutations):
        want = _reference_validate(mutant)
        assert validate_position(mutant) == want
        assert _validate_by_value(before, mutant) == want
        seen["mutants"] += 1
        seen["rejected"] += bool(want)
        seen["outside"] += any("outside its pants" in problem for problem in want)
        seen["stranded"] += sum("anchors a non-adjacent region" in problem for problem in want) > 1
        seen["shared"] += any("also in the tree of" in problem for problem in want)
    return seen


def test_full_check_matches_the_reference_on_the_step_check_mutants():
    """Seeds 5 and 6: the mutants that the step-check tests draw."""
    steps = _corpus_steps()
    for seed in (5, 6):
        seen = _check_against_reference(steps, seed)
        assert seen["mutants"] >= 600 and seen["rejected"] * 3 >= seen["mutants"]
        print(f"seed {seed}: {dict(seen)}")


def test_full_check_matches_the_reference_on_out_of_pants_slots():
    """Seed 7 adds ``_slot_outside_pants`` and ``_strand_reversed_slots`` to the step-check mutations."""
    seen = _check_against_reference(_corpus_steps(), 7, _MUTATIONS)
    assert seen["outside"] >= 150 and seen["stranded"] >= 50
    print(f"seed 7: {dict(seen)}")


def test_full_check_matches_the_reference_on_shared_region_ids():
    """Seed 8 adds ``_share_region_id``, a region id moved onto another sphere's tree, to the step-check mutations."""
    seen = _check_against_reference(_corpus_steps(), 8, MUTATIONS + (_share_region_id,) * 7)
    assert seen["shared"] >= 150
    print(f"seed 8: {dict(seen)}")


def test_a_slot_at_end_two_keeps_every_problem():
    """t0 with either slot of c0 moved to ``s0@2``: the circle's verdict stays beside the piece's two."""
    base = make_t0()
    for pid, far in (("F0", "s0@p0"), ("F1", "s0@p1")):
        t = base.clone()
        slot = t.pieces[pid].boundary[0]
        assert slot.circle == "c0"
        t.pieces[pid].boundary[0] = BoundarySlot("c0", HalfEdge("s0", 2), slot.region_a)
        want = [
            f"piece {pid} boundary at s0@2 outside its pants",
            f"piece {pid} missing uncrossed side at {far}",
            "circle c0 does not pass through sphere s0",
        ]
        assert _reference_validate(t) == validate_position(t) == want
