from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from collections import Counter, defaultdict, deque
from pathlib import Path

import pytest

import normaltori
from conftest import criterion_3_inputs, edited, is_loop, piece_at, shared_region_ids
from test_acceptance import _fuzz_corpus, piece_graph_betti

from normaltori.fixtures import make_klein, make_t0, make_t0_with_dome, make_t1, make_t2
from normaltori.graphs import HalfEdge, build_standard, random_cubic, walk
from normaltori.normal_graph import to_normal_torus
from normaltori.oracle import perturb, random_normal_torus
from normaltori.position import (
    SIDE_A,
    SIDE_B,
    BoundarySlot,
    Circle,
    Piece,
    PositionError,
    RegionTree,
    Tally,
    TorusPosition,
    _checked,
    _pants_components,
    _piece_edges,
    _validate_delta,
    euler_characteristic,
    fresh_id,
    intersection_vector,
    is_normal,
    position_of,
    side_of_region,
    total_intersections,
    validate_position,
)


def test_fixtures_validate_clean():
    for maker in (make_t0, make_t1, make_t2, make_t0_with_dome):
        assert validate_position(maker()) == []


def test_klein_bottle_diagnostic():
    problems = validate_position(make_klein())
    assert "monodromy nontrivial on cycle (F0,F1)" in problems


def test_missing_piece_diagnostic():
    t = edited(make_t0(), pieces={"F1": None})
    problems = validate_position(t)
    assert "circle c0 has one incident piece" in problems
    assert "circle c1 has one incident piece" in problems


def test_euler_characteristics():
    assert euler_characteristic(make_t0()) == 0
    assert euler_characteristic(make_t1()) == 0
    assert euler_characteristic(make_t2()) == 0
    lone = make_t0()
    # a single disk piece alone has characteristic 1
    assert lone.pieces["F0"].euler() == 0
    disk = make_t2().pieces["F2"]
    assert disk.euler() == 1


def test_intersection_vectors():
    assert intersection_vector(make_t0()) == {"s0": 1, "s1": 1, "s2": 0}
    assert intersection_vector(make_t1()) == {"s0": 2, "s1": 1, "s2": 0}
    assert intersection_vector(make_t2()) == {"s0": 1, "s1": 1, "s2": 1}
    assert total_intersections(make_t1()) == 3


def test_is_normal_t0_t2():
    ok, violations = is_normal(make_t0())
    assert ok and not violations
    ok, violations = is_normal(make_t2())
    assert ok and not violations


def test_is_normal_t1_violations():
    ok, violations = is_normal(make_t1())
    assert not ok
    assert "piece F0 meets half-edge (s0@p0) twice" in violations


def test_is_normal_flags_parallel_disk():
    t = make_t2()
    disk = t.pieces["F2"]
    uncrossed = {**disk.uncrossed, HalfEdge("s1", 1): SIDE_A}  # both sides now equal
    t = edited(t, pieces={"F2": dataclasses.replace(disk, uncrossed=uncrossed)})
    ok, violations = is_normal(t)
    assert not ok
    assert "disk F2 boundary-parallel" in violations


def test_is_normal_flags_genus():
    t = make_t0()
    t = edited(t, pieces={"F0": dataclasses.replace(t.pieces["F0"], genus=1)})
    ok, violations = is_normal(t)
    assert not ok
    assert any("genus" in v for v in violations)


def test_piece_graph_betti_one():
    for maker in (make_t0, make_t1, make_t2):
        assert piece_graph_betti(maker()) == 1


def test_closed_piece_rejected():
    t = make_t0()
    t = edited(t, pieces={"F0": dataclasses.replace(t.pieces["F0"], boundary=())})
    problems = validate_position(t)
    assert any("closed" in p for p in problems)


def test_stray_transport_bits_rejected():
    """A transport bit of no circle is named, in sorted id order, by the full check and the step check alike."""
    from test_step_check import _validate_by_value

    base = make_t0()
    t = edited(base, transport={"c9": False, "c10": True})
    want = ["side transport bit of unknown circle c10", "side transport bit of unknown circle c9"]
    assert validate_position(t) == _validate_by_value(base, t) == want


def test_a_piece_stored_under_another_key_is_named():
    t = make_t0()
    t = edited(t, pieces={"F0": None, "F9": t.pieces["F0"]})
    assert validate_position(t) == ["piece key F9 disagrees with id F0"]


def test_side_of_region_rejects_a_region_off_the_sphere():
    t = make_t0()
    with pytest.raises(PositionError) as caught:
        side_of_region(t, t.pieces["F0"], HalfEdge("s0", 0), "r9")
    assert str(caught.value) == "region r9 not on sphere s0"


def test_side_of_region_flips_across_own_circles():
    t = make_t0()
    f0 = t.pieces["F0"]
    assert side_of_region(t, f0, HalfEdge("s0", 0), "r0") == SIDE_A
    assert side_of_region(t, f0, HalfEdge("s0", 0), "r1") == SIDE_B
    # uncrossed sphere end: constant label
    assert side_of_region(t, f0, HalfEdge("s2", 1), "r4") == SIDE_A


def monodromy_certificate(t: TorusPosition) -> list[str] | None:
    """None when a global co-orientation exists, else pieces of a bad cycle.

    Flip bits (not transport) form a Z/2 cochain on the piece graph; the
    surface is two-sided exactly when it is a coboundary.  A failure on a
    self-loop circle or a non-tree edge is reported as the pieces along the
    offending cycle.
    """
    return walk(t.pieces, _piece_edges(t, t.circle_slots()))[3]


def test_monodromy_trivial_for_fixtures():
    assert monodromy_certificate(make_t0()) is None
    assert monodromy_certificate(make_t2()) is None
    assert monodromy_certificate(make_klein()) is not None


def test_transport_flip_detected_on_self_loop():
    # one-cylinder torus over a loop sphere; flipped bit means one-sided
    from normaltori.graphs import random_cubic
    from normaltori.oracle import perturb, random_normal_torus

    g = random_cubic(2, 0)
    loops = [s for s in g.sphere_edges if is_loop(g, s)]
    assert loops
    for seed in range(40):
        t = random_normal_torus(g, seed, 3)
        self_loops = [
            cid
            for cid in t.circles
            if piece_at(t, cid, 0).id == piece_at(t, cid, 1).id
        ]
        if self_loops:
            t = edited(t, transport={self_loops[0]: False})
            assert monodromy_certificate(t) is not None
            break
    else:
        pytest.skip("no self-loop circle sampled")


def test_side_anchor_conflict_behind_an_anchored_region():
    # X crosses s0@0 at ca and cb with Y's cd between them; ca's anchor
    # puts r2 on side B of X, cb's anchor claims r2 for side A.
    def he(sphere, end):
        return HalfEdge(sphere, end)

    pieces = {
        "X": Piece("X", "p0", 0, [BoundarySlot("ca", he("s0", 0), "r0"), BoundarySlot("cb", he("s0", 0), "r2")],
                   {he("s1", 0): SIDE_A, he("s2", 1): SIDE_A}),
        "Y": Piece("Y", "p0", 0, [BoundarySlot("cd", he("s0", 0), "r1"), BoundarySlot("c1", he("s1", 0), "r4")],
                   {he("s2", 1): SIDE_A}),
        "Z1": Piece("Z1", "p1", 0, [BoundarySlot("ca", he("s0", 1), "r0"), BoundarySlot("c1", he("s1", 1), "r4")],
                    {he("s2", 0): SIDE_A}),
        "Z2": Piece("Z2", "p1", 0, [BoundarySlot("cd", he("s0", 1), "r1"), BoundarySlot("cb", he("s0", 1), "r3")],
                    {he("s1", 1): SIDE_A, he("s2", 0): SIDE_A}),
    }
    circles = {c: Circle(c, s) for c, s in (("ca", "s0"), ("cb", "s0"), ("cd", "s0"), ("c1", "s1"))}
    trees = {
        "s0": RegionTree("s0", {"r0", "r1", "r2", "r3"},
                         {"ca": ("r0", "r1"), "cd": ("r1", "r2"), "cb": ("r2", "r3")}),
        "s1": RegionTree("s1", {"r4", "r5"}, {"c1": ("r4", "r5")}),
        "s2": RegionTree("s2", {"r6"}, {}),
    }
    t = position_of(build_standard(2), pieces, circles, trees, {c: True for c in circles})
    assert validate_position(t) == ["piece X side anchors conflict at s0@0"]


_VALIDATE_MALFORMED = """
from dataclasses import replace
from normaltori.fixtures import make_t0, make_t2
from normaltori.position import RegionTree, position_of, validate_position
t = make_t0()
for ends in (("r0", "rX"), ("r0", "r0")):
    trees = {**t.trees, "s0": RegionTree("s0", {"r0", "r1"}, {"c0": ends})}
    print(validate_position(position_of(t.graph, t.pieces, t.circles, trees, t.transport)))
trees = {**t.trees, "s2": RegionTree("s2", set(), {})}
print(validate_position(position_of(t.graph, t.pieces, t.circles, trees, t.transport)))
t = make_t2()
pieces = {**t.pieces, "F2": replace(t.pieces["F2"], uncrossed={})}
print(validate_position(position_of(t.graph, pieces, t.circles, t.trees, t.transport)))
"""


def test_validate_output_independent_of_hash_seed():
    src = str(Path(normaltori.__file__).resolve().parent.parent)
    outputs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _VALIDATE_MALFORMED], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    foreign, loop, no_regions, uncrossed_problems = outputs.pop().splitlines()
    assert foreign == loop == str(["region tree edge c0 of s0 malformed", "region tree of s0 disconnected"])
    assert no_regions == str(["region tree of s2 has 0 regions for 0 circles"])
    assert uncrossed_problems.count("missing uncrossed side") == 2


def _reference_neighbors(tree) -> dict:
    """The per-call ``RegionTree.neighbors()`` body that the stored field replaced."""
    nbrs = defaultdict(list)
    for cid, (a, b) in tree.edges.items():
        nbrs[a].append((cid, b))
        if b != a:
            nbrs[b].append((cid, a))
    return nbrs


def _reference_walk(tree) -> list:
    """The per-call deque BFS of ``side_masks`` from the least region, as (parent, circle, region) steps."""
    if not tree.regions:
        return []
    nbrs = _reference_neighbors(tree)
    start = min(tree.regions)
    walk, queue = [(None, None, start)], deque([start])
    reached = {start}
    while queue:
        r = queue.popleft()
        for cid, q in nbrs.get(r, ()):
            if q not in reached:
                reached.add(q)
                walk.append((r, cid, q))
                queue.append(q)
    return walk


def _reference_is_leaf(tree, region: str) -> bool:
    """The edge scan that ``RegionTree.is_leaf`` ran per call."""
    seen = False
    for a, b in tree.edges.values():
        if region == a or region == b:
            if seen:
                return False
            seen = True
    return seen


def test_a_region_tree_is_an_immutable_value_built_once():
    """The stored ``neighbors``, ``walk`` and ``is_leaf`` read what the per-call code computed."""
    positions = [p for _, p in criterion_3_inputs()] + [t for _, _, t in _fuzz_corpus(per_graph=4)]
    trees = [tree for t in positions for tree in t.trees.values()]
    trees += [RegionTree("s0", {"r0", "r1"}, {"c0": ends}) for ends in (("r0", "rX"), ("r0", "r0"))]
    trees.append(RegionTree("s2", set(), {}))
    nested = 0
    for tree in trees:
        reference = _reference_neighbors(tree)
        assert dict(tree.neighbors) == {r: tuple(across) for r, across in reference.items()}
        assert list(tree.walk) == _reference_walk(tree)
        for region in tree.regions | set(reference) | {"r-none"}:
            assert tree.is_leaf(region) == _reference_is_leaf(tree, region)
        nested += any(parent is not None and parent != tree.walk[0][2] for parent, _, _ in tree.walk)
    assert len(trees) > 1000 and nested

    t = make_t2()
    tree = t.trees["s0"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.regions = set()
    for mapping in (tree.edges, tree.neighbors):
        with pytest.raises(TypeError):
            mapping["r9"] = None
    assert type(tree.regions) is frozenset
    assert copy.deepcopy(tree) is tree
    assert all(t.clone().trees[s] is t.trees[s] for s in t.trees)
    again = pickle.loads(pickle.dumps(tree))
    assert (again, again.neighbors, again.walk) == (tree, tree.neighbors, tree.walk)
    nt = to_normal_torus(t)
    assert pickle.loads(pickle.dumps(nt)).position.trees == nt.position.trees


def test_positions_are_immutable_values():
    """No edit of a position or of its items goes through; a pickled position and a perturbed base remember what they should.

    A position rebuilt from a pickle equals the original and remembers no
    index and no check.  Perturbing one base twice gives equal results and
    leaves the base remembering the tally of its own check.
    """
    t = make_t2()
    piece, he = t.pieces["F2"], HalfEdge("s0", 1)
    slot, circle = piece.boundary[0], t.circles["c0"]
    edits = [
        lambda: t.pieces.__setitem__("F0", piece),
        lambda: t.transport.__delitem__("c0"),
        lambda: piece.boundary.append(slot),
        lambda: piece.uncrossed.__setitem__(he, SIDE_B),
        lambda: setattr(slot, "region_a", "r1"),
        lambda: setattr(circle, "sphere", "s1"),
        lambda: setattr(piece, "genus", 1),
        lambda: setattr(t, "pieces", {}),
    ]
    for edit in edits:
        with pytest.raises((TypeError, AttributeError)):
            edit()
    assert validate_position(t) == [] and t == make_t2()

    _checked(t)
    again = pickle.loads(pickle.dumps(t))
    assert again == t and again is not t
    assert again._index is None and again._tally is None
    assert type(again.pieces["F2"].uncrossed) is type(piece.uncrossed) and type(again.pieces["F2"].boundary) is tuple

    base = random_normal_torus(build_standard(3), 4, 6)
    first, second = perturb(base, 9, 5), perturb(base, 9, 5)
    assert first == second and first is not second
    assert base._tally == Tally.of(base)


def test_region_ids_that_two_spheres_share_are_rejected():
    """A region id held by two spheres' trees is named once per id, at the later sphere in graph order.

    t2 with s1's regions renamed to s0's, and with s0's renamed to s1's:
    either way s1 comes later.  The step check from t2 finds the same list
    when the move's report names only the pieces and the sphere it
    renamed, also when that sphere is the earlier one.
    """
    t2 = make_t2()
    tally = _checked(t2)
    for sphere, onto, shared in (("s1", "s0", ("r0", "r1")), ("s0", "s1", ("r2", "r3"))):
        t = shared_region_ids(t2, sphere, onto)
        want = [f"region {r} of s1 also in the tree of s0" for r in shared]
        assert validate_position(t) == want
        pieces = {pid for pid in t.pieces if t.pieces[pid] != t2.pieces[pid]}
        stepped = tally.stepped(t2, t, pieces, ())
        assert _validate_delta(t2, t, t.circle_slots(), pieces, (), (sphere,), stepped) == want


def _components_piece_by_piece(t, pants) -> int:
    """The distinct patterns of the pants' pieces' sides over every region at each of its ends, one ``side_of_region`` at a time."""
    pieces = [piece for _, piece in sorted(t.pieces.items()) if piece.pants == pants]
    return len({tuple(side_of_region(t, piece, he, r) for piece in pieces)
                for he in t.graph.by_pants[pants] for r in t.trees[he.sphere].regions})


def test_pants_components_count_the_complementary_components():
    """t2's p1 holds 4 components for 2 pieces; the other fixtures hold pieces + 1; draws agree with a piece-by-piece count."""
    t2 = make_t2()
    assert (_pants_components(t2, "p1"), Counter(p.pants for p in t2.pieces.values())["p1"]) == (4, 2)
    for make in (make_t0, make_t1, make_t0_with_dome):
        t = make()
        pieces = Counter(piece.pants for piece in t.pieces.values())
        assert all(_pants_components(t, pants) == pieces[pants] + 1 for pants in t.graph.by_pants)
    draws = [random_normal_torus(g, seed, bound) for rank in (2, 3, 4) for seed in range(4) for bound in (2, 6)
             for g in (build_standard(rank), random_cubic(rank, seed))]
    unembedded = 0
    for t in draws:
        pieces = Counter(piece.pants for piece in t.pieces.values())
        for pants in t.graph.by_pants:
            count = _pants_components(t, pants)
            assert count == _components_piece_by_piece(t, pants)
            unembedded += count != pieces[pants] + 1
    assert unembedded  # the sample holds pants that do not embed


def _scanned_id(prefix, used) -> str:
    """The least ``prefix<k>`` not in ``used``, scanning from ``prefix0`` and formatting each name."""
    k = 0
    while f"{prefix}{k}" in used:
        k += 1
    return f"{prefix}{k}"


def test_fresh_id_is_the_least_unused_id_whatever_its_name_list_holds(monkeypatch):
    """``fresh_id`` equals a plain scan from 0, for sets and dicts, odd names and other prefixes, before and after its names grow."""
    names = {}
    monkeypatch.setattr("normaltori.position._NAMES", names)  # no earlier call has grown the names
    cases = [
        ("c", set()),
        ("c", {f"c{k}" for k in range(40)}),
        ("c", {"c0", "c1", "c3"}),  # a hole
        ("c", dict.fromkeys(["c0", "c2"], None)),
        ("c", {"c01", "c00", "cx", "c", "c0"}),  # zero-padded and non-numeric ids are not c1
        ("r", {"c0", "c1", "F0", "r1"}),  # another prefix's names
        ("F", {f"c{k}" for k in range(100)} | {"F0", "F1"}),
        ("c", {f"c{k}" for k in range(200)}),
    ]
    grown_past = []
    for prefix, used in cases:
        known = len(names.get(prefix, ()))
        answer = fresh_id(prefix, used)
        assert answer == _scanned_id(prefix, used)
        grown_past.append(int(answer[len(prefix):]) < known)
    assert grown_past == [False, False, True, True, True, False, False, False]
