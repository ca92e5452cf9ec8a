from __future__ import annotations

from normaltori.fixtures import theta_graph
from normaltori.graphs import HalfEdge, SphereGraph
from normaltori.position import SIDE_A, BoundarySlot, Circle, Piece, RegionTree, TorusPosition, end_slot


def is_loop(g: SphereGraph, sphere: str) -> bool:
    """Whether both ends of ``sphere`` lie on one pants."""
    a, b = g.ends_of(sphere)
    return a == b


def piece_at(t: TorusPosition, cid: str, end: int) -> Piece:
    """The piece attached at the given end of the circle's sphere."""
    return end_slot(t, t.circle_slots(), cid, end)[0]


def make_u_tubes() -> TorusPosition:
    """Two U-shaped tubes meeting s0 twice each; a nullhomotopic torus.

    The only applicable move is a slide whose far-side pieces coincide, so
    applying it self-bands the p1 tube into a genus-1 piece and the engine
    must report a stuck non-normal fixpoint.
    """
    g = theta_graph()
    pieces = {
        "F": Piece(
            "F",
            "p0",
            0,
            [
                BoundarySlot("ca", HalfEdge("s0", 0), "r1"),
                BoundarySlot("cb", HalfEdge("s0", 0), "r1"),
            ],
            {HalfEdge("s1", 0): SIDE_A, HalfEdge("s2", 1): SIDE_A},
        ),
        "G": Piece(
            "G",
            "p1",
            0,
            [
                BoundarySlot("ca", HalfEdge("s0", 1), "r1"),
                BoundarySlot("cb", HalfEdge("s0", 1), "r1"),
            ],
            {HalfEdge("s1", 1): SIDE_A, HalfEdge("s2", 0): SIDE_A},
        ),
    }
    circles = {"ca": Circle("ca", "s0"), "cb": Circle("cb", "s0")}
    trees = {
        "s0": RegionTree("s0", {"r0", "r1", "r2"}, {"ca": ("r1", "r0"), "cb": ("r1", "r2")}),
        "s1": RegionTree("s1", {"r3"}, {}),
        "s2": RegionTree("s2", {"r4"}, {}),
    }
    return TorusPosition(g, pieces, circles, trees, {"ca": True, "cb": True})
