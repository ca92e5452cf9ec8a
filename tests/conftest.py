"""Helpers that the tests import, and that ``tools/probe.py`` imports after ``src/``: standard library only, no pytest."""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator

from normaltori import moves
from normaltori.fixtures import make_t0, make_t0_with_dome, make_t1, make_t2, theta_graph
from normaltori.graphs import HalfEdge, SphereGraph, build_standard
from normaltori.oracle import perturb, random_normal_torus
from normaltori.position import (
    SIDE_A,
    BoundarySlot,
    Circle,
    Piece,
    RegionTree,
    TorusPosition,
    end_slot,
    total_intersections,
)


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


def criterion_3_inputs() -> Iterator[tuple[str, TorusPosition]]:
    """(label, position) for each exhaustive search of acceptance criterion 3.

    The fixtures, then seeded perturbations of t0 and t2 and of random
    normal tori at ranks 2-4, keeping those of at most 12 circles.
    """
    for base in (make_t0(), make_t1(), make_t2(), make_t0_with_dome()):
        yield "fixture", base
    for base_maker, seeds in ((make_t0, 40), (make_t2, 40)):
        base = base_maker()
        for seed in range(seeds):
            p = perturb(base, 10_000 + seed, (seed % 4) + 1)
            if total_intersections(p) <= 12:
                yield f"{base_maker.__name__} seed {seed}", p
    for rank in (2, 3, 4):
        g = build_standard(rank)
        for seed in range(45):
            p = perturb(random_normal_torus(g, seed, 4), 20_000 + seed, (seed % 3) + 1)
            if total_intersections(p) <= 12:
                yield f"rank {rank} seed {seed}", p


def shared_region_ids(t: TorusPosition, sphere: str, onto: str) -> TorusPosition:
    """``t`` with ``sphere``'s regions renamed, in id order, to those of ``onto``, in its tree and in every anchor.

    The region ids of a position are unique across spheres, so the result's
    trees share the renamed ids, and each sphere's tree is otherwise as it was.
    """
    rename = dict(zip(sorted(t.trees[sphere].regions), sorted(t.trees[onto].regions)))
    tree = t.trees[sphere]
    trees = dict(t.trees)
    trees[sphere] = RegionTree(sphere, {rename.get(r, r) for r in tree.regions},
                               {c: (rename.get(a, a), rename.get(b, b)) for c, (a, b) in tree.edges.items()})
    pieces = {}
    for pid, p in t.pieces.items():
        boundary = [BoundarySlot(s.circle, s.half_edge, rename.get(s.region_a, s.region_a) if s.half_edge.sphere == sphere
                                 else s.region_a) for s in p.boundary]
        pieces[pid] = Piece(p.id, p.pants, p.genus, boundary, dict(p.uncrossed))
    return TorusPosition(t.graph, pieces, dict(t.circles), trees, dict(t.transport))


@contextlib.contextmanager
def swapped(fn, new):
    """While open, ``new`` stands for the function or method ``fn`` wherever its callers find it.

    A method is swapped on its class.  A function is swapped at every
    binding that a module of its package holds of it: the defining module's,
    each by-name import's and the package namespace's, as ``bench/tracer.py``
    binds its layers.  Every binding is restored on exit.
    """
    module = sys.modules[fn.__module__]
    owner, _, name = fn.__qualname__.rpartition(".")
    if owner:
        bindings = [(getattr(module, owner), name)]
    else:
        package = fn.__module__.partition(".")[0]
        bindings = [(m, key) for m_name, m in list(sys.modules.items())
                    if m is not None and (m_name == package or m_name.startswith(package + "."))
                    for key, value in vars(m).items() if value is fn]
    assert bindings, f"{fn.__qualname__} is bound nowhere, so its calls would go unseen"
    for where, key in bindings:
        setattr(where, key, new)
    try:
        yield
    finally:
        for where, key in bindings:
            setattr(where, key, fn)


@contextlib.contextmanager
def recorded(fn, keep=lambda args, result: (args, result)):
    """While open, ``fn``'s calls, swapped in as ``swapped`` does: a list of ``keep(arguments, result)``, in call order."""
    calls = []

    def recording(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(keep(args, result))
        return result
    with swapped(fn, recording):
        yield calls


def _inverted_bit(t, m, index, slide=moves._apply_slide):
    out, pieces, circles, sphere = slide(t, m, index)
    (merged,) = circles - t.circles.keys()
    out.transport[merged] = not out.transport[merged]
    return out, pieces, circles, sphere


def _other_side(t, disk, ball=moves._ball_region):
    slot = disk.boundary[0]
    return t.trees[t.circles[slot.circle].sphere].other_region(slot.circle, ball(t, disk))


# Two planted move bugs, (the move rule, its wrong version) by name: a slide that gives
# its merged circle the inverted transport bit, and a cap that takes the disk's other side for its ball
PLANTS = {"inverted merged bit": (moves._apply_slide, _inverted_bit),
          "wrong cap side": (moves._ball_region, _other_side)}
