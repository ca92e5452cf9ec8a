"""Desk fixtures on the rank-2 theta graph, used across tests and the CLI.

All sit over ``build_standard(2)`` (pants p0, p1; spheres s0, s1, s2 with
end 0 at p0 for s0/s1 and at p1 for s2).

* ``t0``  - two cylinders forming the boundary of a neighborhood of a loop
  crossing s0 and s1 once each; the smallest normal torus here.
* ``t1``  - t0 with one inverse tube slide applied: the circle on s0 split
  in two, one pants-like piece in p0, a boundary-parallel disk and a
  cylinder in p1.  One slide away from t0.
* ``t2``  - a pants piece in p0, a cylinder and an essential disk in p1;
  normal, crosses every sphere once, does not bound a solid torus.
"""

from __future__ import annotations

from .graphs import HalfEdge, build_standard
from .position import (
    SIDE_A,
    SIDE_B,
    BoundarySlot,
    Circle,
    Piece,
    RegionTree,
    TorusPosition,
    position_of,
)


def theta_graph():
    return build_standard(2)


def make_t0() -> TorusPosition:
    g = theta_graph()
    pieces = {
        "F0": Piece(
            "F0",
            "p0",
            0,
            [
                BoundarySlot("c0", HalfEdge("s0", 0), "r0"),
                BoundarySlot("c1", HalfEdge("s1", 0), "r2"),
            ],
            {HalfEdge("s2", 1): SIDE_A},
        ),
        "F1": Piece(
            "F1",
            "p1",
            0,
            [
                BoundarySlot("c0", HalfEdge("s0", 1), "r0"),
                BoundarySlot("c1", HalfEdge("s1", 1), "r2"),
            ],
            {HalfEdge("s2", 0): SIDE_A},
        ),
    }
    circles = {"c0": Circle("c0", "s0"), "c1": Circle("c1", "s1")}
    trees = {
        "s0": RegionTree("s0", {"r0", "r1"}, {"c0": ("r0", "r1")}),
        "s1": RegionTree("s1", {"r2", "r3"}, {"c1": ("r2", "r3")}),
        "s2": RegionTree("s2", {"r4"}, {}),
    }
    return position_of(g, pieces, circles, trees, {"c0": True, "c1": True})


def make_t1() -> TorusPosition:
    """t0 after one inverse slide on the s0 circle (intersection total 3)."""
    g = theta_graph()
    pieces = {
        "F0": Piece(
            "F0",
            "p0",
            0,
            [
                BoundarySlot("c0a", HalfEdge("s0", 0), "r0"),
                BoundarySlot("c0b", HalfEdge("s0", 0), "r0"),
                BoundarySlot("c1", HalfEdge("s1", 0), "r2"),
            ],
            {HalfEdge("s2", 1): SIDE_A},
        ),
        "F1a": Piece(
            "F1a",
            "p1",
            0,
            [BoundarySlot("c0a", HalfEdge("s0", 1), "r0")],
            {HalfEdge("s1", 1): SIDE_A, HalfEdge("s2", 0): SIDE_A},
        ),
        "F1b": Piece(
            "F1b",
            "p1",
            0,
            [
                BoundarySlot("c0b", HalfEdge("s0", 1), "r0"),
                BoundarySlot("c1", HalfEdge("s1", 1), "r2"),
            ],
            {HalfEdge("s2", 0): SIDE_A},
        ),
    }
    circles = {
        "c0a": Circle("c0a", "s0"),
        "c0b": Circle("c0b", "s0"),
        "c1": Circle("c1", "s1"),
    }
    trees = {
        "s0": RegionTree(
            "s0", {"r0", "r1", "r5"}, {"c0a": ("r0", "r5"), "c0b": ("r0", "r1")}
        ),
        "s1": RegionTree("s1", {"r2", "r3"}, {"c1": ("r2", "r3")}),
        "s2": RegionTree("s2", {"r4"}, {}),
    }
    return position_of(
        g, pieces, circles, trees, {"c0a": True, "c0b": True, "c1": True}
    )


def make_t2() -> TorusPosition:
    g = theta_graph()
    pieces = {
        "F0": Piece(
            "F0",
            "p0",
            0,
            [
                BoundarySlot("c0", HalfEdge("s0", 0), "r0"),
                BoundarySlot("c1", HalfEdge("s1", 0), "r2"),
                BoundarySlot("c2", HalfEdge("s2", 1), "r4"),
            ],
            {},
        ),
        "F1": Piece(
            "F1",
            "p1",
            0,
            [
                BoundarySlot("c0", HalfEdge("s0", 1), "r0"),
                BoundarySlot("c1", HalfEdge("s1", 1), "r2"),
            ],
            {HalfEdge("s2", 0): SIDE_A},
        ),
        "F2": Piece(
            "F2",
            "p1",
            0,
            [BoundarySlot("c2", HalfEdge("s2", 0), "r4")],
            {HalfEdge("s0", 1): SIDE_A, HalfEdge("s1", 1): SIDE_B},
        ),
    }
    circles = {
        "c0": Circle("c0", "s0"),
        "c1": Circle("c1", "s1"),
        "c2": Circle("c2", "s2"),
    }
    trees = {
        "s0": RegionTree("s0", {"r0", "r1"}, {"c0": ("r0", "r1")}),
        "s1": RegionTree("s1", {"r2", "r3"}, {"c1": ("r2", "r3")}),
        "s2": RegionTree("s2", {"r4", "r5"}, {"c2": ("r4", "r5")}),
    }
    return position_of(
        g, pieces, circles, trees, {"c0": True, "c1": True, "c2": True}
    )


def make_klein() -> TorusPosition:
    """t0 with one transport bit flipped: glues up to a Klein bottle."""
    t = make_t0()
    return position_of(t.graph, t.pieces, t.circles, t.trees, {"c0": True, "c1": False})


def make_t0_with_dome() -> TorusPosition:
    """t0 plus a boundary-parallel disk: a finger of F1 pushed through s2.

    The dome F2 sits in p0 and is one cap move away from t0.
    """
    t = make_t0()
    pieces = {
        "F0": t.pieces["F0"],
        "F1": Piece("F1", "p1", 0, [*t.pieces["F1"].boundary, BoundarySlot("c2", HalfEdge("s2", 0), "r4")]),
        "F2": Piece(
            "F2", "p0", 0, [BoundarySlot("c2", HalfEdge("s2", 1), "r4")],
            {HalfEdge("s0", 0): SIDE_A, HalfEdge("s1", 0): SIDE_A},
        ),
    }
    circles = {**t.circles, "c2": Circle("c2", "s2")}
    trees = {**t.trees, "s2": RegionTree("s2", {"r4", "r5"}, {"c2": ("r4", "r5")})}
    return position_of(t.graph, pieces, circles, trees, {**t.transport, "c2": True})
