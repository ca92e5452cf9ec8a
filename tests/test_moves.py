from __future__ import annotations

import random
from dataclasses import replace

import pytest
import test_step_check
from conftest import edited, make_u_tubes

from normaltori.fixtures import make_t0, make_t0_with_dome, make_t1, make_t2
from normaltori.graphs import HalfEdge, build_standard, random_cubic
from normaltori.moves import Cap, MoveError, NormalizeError, Slide, apply_move, find_moves, normalize
from normaltori.normal_graph import canonicalize, decorate, equivalent, to_normal_torus
from normaltori.oracle import perturb, random_normal_torus
from normaltori.position import (
    RegionTree,
    euler_characteristic,
    intersection_vector,
    is_normal,
    piece_kind,
    validate_position,
)
from normaltori.serialize import dumps, position_to_json


def test_no_moves_on_normal_positions():
    assert find_moves(make_t0()) == []
    assert find_moves(make_t2()) == []


def test_t1_slide_found_first():
    moves = find_moves(make_t1())
    slide = moves[0]
    assert isinstance(slide, Slide)
    assert slide.piece == "F0"
    assert slide.half_edge == HalfEdge("s0", 0)
    assert {slide.circle1, slide.circle2} == {"c0a", "c0b"}
    assert slide.region == "r0"  # the region both circles border


def test_inserted_dome_caps():
    moves = find_moves(make_t0_with_dome())
    assert moves == [Cap(disk="F2", circle="c2")]


def test_slide_restores_t0():
    t1 = make_t1()
    out = apply_move(t1, find_moves(t1)[0])
    assert validate_position(out) == []
    assert is_normal(out)[0]
    assert intersection_vector(out) == {"s0": 1, "s1": 1, "s2": 0}
    assert euler_characteristic(out) == 0
    d_out = decorate(to_normal_torus(out))
    d_t0 = decorate(to_normal_torus(make_t0()))
    assert equivalent(d_out, d_t0)


def test_slide_merges_distinct_far_pieces():
    t1 = make_t1()
    out = apply_move(t1, find_moves(t1)[0])
    kinds = sorted(piece_kind(p) for p in out.pieces.values())
    assert kinds == ["cylinder", "cylinder"]
    assert all(p.genus == 0 for p in out.pieces.values())


def test_self_band_slide_creates_genus():
    t = make_u_tubes()
    assert validate_position(t) == []
    moves = find_moves(t)
    # both tubes offer the symmetric slide; either one self-bands the other
    assert len(moves) == 2 and all(isinstance(m, Slide) for m in moves)
    out = apply_move(t, moves[0])
    assert validate_position(out) == []
    assert euler_characteristic(out) == 0
    genera = sorted(p.genus for p in out.pieces.values())
    assert genera == [0, 1]
    assert intersection_vector(out)["s0"] == 1


def test_self_band_with_mismatched_transport_rejected():
    t = edited(make_u_tubes(), transport={"cb": False})
    move = find_moves(t)[0]
    with pytest.raises(MoveError, match="side transport mismatch"):
        apply_move(t, move)


def test_cap_removes_dome():
    t = make_t0_with_dome()
    out = apply_move(t, Cap("F2", "c2"))
    assert validate_position(out) == []
    assert intersection_vector(out) == {"s0": 1, "s1": 1, "s2": 0}
    assert set(out.pieces) == {"F0", "F1"}
    # the capped neighbor regained its uncrossed side at the sphere
    assert out.pieces["F1"].uncrossed[HalfEdge("s2", 0)] == "A"
    assert equivalent(
        decorate(to_normal_torus(out)), decorate(to_normal_torus(make_t0()))
    )


def test_cap_requires_innermost_product_side():
    # a dome whose product side contains another circle must wait
    from normaltori.oracle import _apply_inverse_finger

    t = make_t0()
    t = _apply_inverse_finger(t, "F0", HalfEdge("s2", 1), "r4")[0]
    inner_leaf = next(
        r for r in t.trees["s2"].regions if t.trees["s2"].is_leaf(r) and r != "r4"
    )
    t = _apply_inverse_finger(t, "F1", HalfEdge("s2", 0), inner_leaf)[0]
    dome_outer = "F2"
    caps = [m for m in find_moves(t) if isinstance(m, Cap)]
    assert all(c.disk != dome_outer for c in caps)
    with pytest.raises(MoveError, match="innermost"):
        apply_move(t, Cap("F2", t.pieces["F2"].boundary[0].circle))


def test_inapplicable_slide_rejected():
    t0 = make_t0()
    with pytest.raises(MoveError):
        apply_move(t0, Slide("F0", HalfEdge("s0", 0), "c0", "c1", "r0"))


@pytest.mark.parametrize(
    "make, move, message",
    [
        (make_t0, Slide("F9", HalfEdge("s0", 0), "c0", "c1", "r0"), "inapplicable move: missing piece or circle"),
        (make_t0, Slide("F0", HalfEdge("s0", 0), "c0", "c0", "r0"), "inapplicable move: need two distinct circles"),
        (make_t1, Slide("F1b", HalfEdge("s0", 0), "c0a", "c0b", "r0"), "inapplicable move: F1b lacks both circles at s0@0"),
        (make_t1, Slide("F0", HalfEdge("s0", 0), "c0a", "c0b", "r1"), "inapplicable move: region not shared by both circles"),
        (make_t0, Cap("F0", "c0"), "inapplicable move: F0 is not a boundary-parallel disk"),
        (make_t0_with_dome, Cap("F2", "c0"), "inapplicable move: F2 not attached to c0"),
        (make_t0, "noop", "unknown move 'noop'"),
    ],
)
def test_apply_move_names_why_a_move_is_inapplicable(make, move, message):
    t = make()
    before = dumps(position_to_json(t))
    with pytest.raises(MoveError) as caught:
        apply_move(t, move)
    assert str(caught.value) == message
    assert dumps(position_to_json(t)) == before


def test_normalize_t1():
    result = normalize(make_t1())
    assert len(result.trace) == 1
    assert isinstance(result.trace[0].move, Slide)
    assert intersection_vector(result.position) == {"s0": 1, "s1": 1, "s2": 0}
    assert result.trace[0].counts_before == {"s0": 2, "s1": 1, "s2": 0}
    assert result.trace[0].counts_after == {"s0": 1, "s1": 1, "s2": 0}


def test_normalize_idempotent_on_fixtures():
    for maker in (make_t0, make_t2):
        first = normalize(maker())
        assert first.trace == []
        again = normalize(first.position)
        assert again.trace == []
        assert canonicalize(decorate(again.torus)) == canonicalize(decorate(first.torus))


def test_normalize_rejects_empty_position():
    from normaltori.fixtures import theta_graph
    from normaltori.position import RegionTree, position_of

    g = theta_graph()
    trees = {s: RegionTree(s, {f"e{i}"}, {}) for i, s in enumerate(g.sphere_edges)}
    empty = position_of(g, {}, {}, trees, {})
    with pytest.raises(NormalizeError, match="position has no pieces"):
        normalize(empty)


def test_normalize_reports_stuck_non_normal():
    with pytest.raises(NormalizeError, match="stuck non-normal"):
        normalize(make_u_tubes())


def test_moves_preserve_monotone_counts():
    from normaltori.oracle import perturb

    t = perturb(make_t2(), 13, 4)
    current = t
    total = sum(intersection_vector(current).values())
    while True:
        moves = find_moves(current)
        if not moves:
            break
        nxt = apply_move(current, moves[0])
        after = intersection_vector(nxt)
        before = intersection_vector(current)
        assert sum(after.values()) == sum(before.values()) - 1
        assert all(after[s] <= before[s] for s in before)
        assert validate_position(nxt) == []
        current = nxt
    assert sum(intersection_vector(current).values()) == total - 4


def test_apply_move_is_pure(monkeypatch):
    """No move or inverse move edits its input or rebuilds an item it leaves equal.

    Every step of the step-check corpus runs through a wrapper that
    compares the input's bytes before and after the step, and checks that
    each piece, circle and region tree of the result that equals the
    input's by value is the input's own object.
    """
    steps = {"move": 0, "inverse": 0}
    shared = 0

    def checked(kind, build):
        def wrapper(t, step):
            nonlocal shared
            snapshot = dumps(position_to_json(t))
            out = build(t, step)
            assert dumps(position_to_json(t)) == snapshot, step
            for name in ("pieces", "circles", "trees"):
                old, new = getattr(t, name), getattr(out, name)
                for key in old.keys() & new.keys():
                    if old[key] == new[key]:
                        assert new[key] is old[key], (step, name, key)
                        shared += 1
            steps[kind] += 1
            return out
        return wrapper

    monkeypatch.setattr(test_step_check, "apply_move", checked("move", apply_move))
    monkeypatch.setattr(test_step_check, "_apply_inverse", checked("inverse", test_step_check._apply_inverse))
    assert len(test_step_check._corpus_steps()) == sum(steps.values())
    assert steps["move"] and steps["inverse"] and shared


def _renamed_regions(t, rng):
    """``t`` with every region renamed through a random bijection onto fresh ids."""
    regions = sorted(r for tree in t.trees.values() for r in tree.regions)
    names = [f"q{i}" for i in range(len(regions))]
    rng.shuffle(names)
    rename = dict(zip(regions, names))
    trees = {
        s: RegionTree(s, {rename[r] for r in tree.regions},
                      {cid: (rename[a], rename[b]) for cid, (a, b) in tree.edges.items()})
        for s, tree in t.trees.items()
    }
    pieces = {pid: replace(piece, boundary=[slot._replace(region_a=rename[slot.region_a]) for slot in piece.boundary])
              for pid, piece in t.pieces.items()}
    return edited(t, pieces=pieces, trees=trees)


def test_region_names_do_not_matter():
    """Normalize takes as many moves of the same kinds to the same counts and canonical code under any region renaming.

    Confluence ``explored`` counts are not compared: the state key breaks
    colour ties by id, so they may move under a renaming.
    """
    rng = random.Random(20)
    cases = 0
    for rank in (2, 3, 4):
        for g in (build_standard(rank), random_cubic(rank, 11 * rank)):
            for seed in range(10):
                base = random_normal_torus(g, seed, 2 + rank)
                for k in (1, 4, 9):
                    messy = perturb(base, 100 * rank + 10 * seed + k, k)
                    renamed = _renamed_regions(messy, rng)
                    assert validate_position(renamed) == []
                    assert {r for tree in renamed.trees.values() for r in tree.regions}.isdisjoint(
                        {r for tree in messy.trees.values() for r in tree.regions})
                    want, got = normalize(messy), normalize(renamed)
                    assert [type(r.move) for r in got.trace] == [type(r.move) for r in want.trace]
                    assert len(got.trace) == k
                    assert intersection_vector(got.position) == intersection_vector(want.position)
                    assert canonicalize(decorate(got.torus)) == canonicalize(decorate(want.torus))
                    cases += 1
    assert cases == 180
