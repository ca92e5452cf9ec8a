from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import normaltori
from normaltori.fixtures import make_klein, make_t0, make_t0_with_dome, make_t1, make_t2
from normaltori.graphs import HalfEdge, build_standard
from normaltori.position import (
    SIDE_A,
    SIDE_B,
    BoundarySlot,
    Circle,
    Piece,
    RegionTree,
    TorusPosition,
    euler_characteristic,
    intersection_vector,
    is_normal,
    piece_graph_betti,
    side_of_piece,
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
    t = make_t0()
    del t.pieces["F1"]
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
    t.pieces["F2"].uncrossed[HalfEdge("s1", 1)] = SIDE_A  # both sides now equal
    ok, violations = is_normal(t)
    assert not ok
    assert "disk F2 boundary-parallel" in violations


def test_is_normal_flags_genus():
    t = make_t0()
    t.pieces["F0"].genus = 1
    ok, violations = is_normal(t)
    assert not ok
    assert any("genus" in v for v in violations)


def test_piece_graph_betti_one():
    for maker in (make_t0, make_t1, make_t2):
        assert piece_graph_betti(maker()) == 1


def test_closed_piece_rejected():
    t = make_t0()
    t.pieces["F0"].boundary.clear()
    problems = validate_position(t)
    assert any("closed" in p for p in problems)


def test_side_of_region_flips_across_own_circles():
    t = make_t0()
    f0 = t.pieces["F0"]
    assert side_of_region(t, f0, HalfEdge("s0", 0), "r0") == SIDE_A
    assert side_of_region(t, f0, HalfEdge("s0", 0), "r1") == SIDE_B
    # uncrossed sphere end: constant label
    assert side_of_region(t, f0, HalfEdge("s2", 1), "r4") == SIDE_A


def test_side_of_piece_between_pants_mates():
    t = make_t2()
    f1, f2 = t.pieces["F1"], t.pieces["F2"]
    # the essential disk sees the whole tube on one side and vice versa
    assert side_of_piece(t, f2, f1) in (SIDE_A, SIDE_B)
    assert side_of_piece(t, f1, f2) in (SIDE_A, SIDE_B)


def test_monodromy_trivial_for_fixtures():
    from normaltori.position import monodromy_certificate

    assert monodromy_certificate(make_t0()) is None
    assert monodromy_certificate(make_t2()) is None
    assert monodromy_certificate(make_klein()) is not None


def test_transport_flip_detected_on_self_loop():
    # one-cylinder torus over a loop sphere; flipped bit means one-sided
    from normaltori.graphs import random_cubic
    from normaltori.oracle import random_normal_torus
    from normaltori.position import monodromy_certificate

    g = random_cubic(2, 0)
    loops = [s for s in g.sphere_edges if g.is_loop(s)]
    assert loops
    for seed in range(40):
        t = random_normal_torus(g, seed, 3)
        self_loops = [
            cid
            for cid in t.circles
            if t.piece_at(cid, 0).id == t.piece_at(cid, 1).id
        ]
        if self_loops:
            t.transport[self_loops[0]] = False
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
    t = TorusPosition(build_standard(2), pieces, circles, trees, {c: True for c in circles})
    assert validate_position(t) == ["piece X side anchors conflict at s0@0"]


_VALIDATE_MALFORMED = """
from normaltori.fixtures import make_t0, make_t2
from normaltori.position import validate_position
t = make_t0()
t.trees["s0"].edges["c0"] = ("r0", "rX")
print(validate_position(t))
t = make_t2()
t.pieces["F2"].uncrossed.clear()
print(validate_position(t))
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
    tree_problems, uncrossed_problems = outputs.pop().splitlines()
    assert "region tree edge c0 of s0 malformed" in tree_problems
    assert uncrossed_problems.count("missing uncrossed side") == 2
