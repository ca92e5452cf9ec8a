"""Each in-place test of ``position._validate`` is at least as strict as its item's wording function.

``_validate`` tests each piece, circle and region tree in place and calls
that item's wording function (``_piece_problems``, ``_circle_problems``,
``_validate_trees``) only where the test fails, and words the side anchors
(``_validate_side_anchors``) only at the sphere ends whose test fails.  The reference pins
compare whole lists, where one item's lenient test could hide behind
another item's message.  Here, on every mutant of the step-check
mutations and of the full-check reference's (seeds 5 to 8 of their
corpus), every item that a check did not word is worded directly and
must give nothing, in the full check and in the step check.  On the
corpus steps and the fixtures, the full check's tally is ``Tally.of``'s
and its side bits are a fresh walk's.
"""

from __future__ import annotations

import contextlib
from collections import Counter

import pytest
from test_full_check_reference import _MUTATIONS, _share_region_id
from test_step_check import MUTATIONS, _corpus_steps, _mutants, _validate_by_value

from normaltori import position
from normaltori.fixtures import make_t0, make_t0_with_dome, make_t1, make_t2
from normaltori.graphs import walk
from normaltori.position import Tally, validate_position

_WORDING = ("_piece_problems", "_circle_problems", "_validate_trees", "_validate_side_anchors")


@contextlib.contextmanager
def _worded():
    """The (kind, id) of each piece, circle, sphere and (piece, sphere end) that a wording function was called on while open."""
    called = set()
    piece, circle, trees, anchors = (getattr(position, name) for name in _WORDING)

    def piece_problems(t, pid):
        called.add(("piece", pid))
        return piece(t, pid)

    def circle_problems(t, cid, index, spheres):
        called.add(("circle", cid))
        return circle(t, cid, index, spheres)

    def validate_trees(t, spheres, counts):
        called.update(("tree", s) for s in spheres)
        return trees(t, spheres, counts)

    def validate_side_anchors(t, ends):
        called.update(("end", end) for end in ends)
        return anchors(t, ends)

    with pytest.MonkeyPatch.context() as mp:
        for name, wrapper in zip(_WORDING, (piece_problems, circle_problems, validate_trees, validate_side_anchors)):
            mp.setattr(position, name, wrapper)
        yield called


def _unworded_problems(t, called) -> list[str]:
    """What the wording functions say of every item of ``t`` that is not in ``called``."""
    index, known = t.circle_slots(), set(t.graph.sphere_edges)
    counts = Counter(c.sphere for c in t.circles.values())
    problems = []
    for pid in t.pieces.keys() - {pid for kind, pid in called if kind == "piece"}:
        problems += position._piece_problems(t, pid)
    for cid in t.circles.keys() - {cid for kind, cid in called if kind == "circle"}:
        problems += position._circle_problems(t, cid, index, known)
    for s in t.graph.sphere_edges:
        if ("tree", s) not in called:
            problems += position._validate_trees(t, [s], counts)
    if not problems and all(kind == "end" for kind, _ in called):  # the check got to the anchors
        ends = {(pid, slot.half_edge) for pid, piece in t.pieces.items() for slot in piece.boundary}
        problems += position._validate_side_anchors(t, ends - {end for kind, end in called if kind == "end"})
    return problems


@pytest.mark.parametrize("seed, mutations", [(5, MUTATIONS), (6, MUTATIONS), (7, _MUTATIONS), (8, MUTATIONS + (_share_region_id,) * 7)])
def test_an_item_that_passes_its_test_has_nothing_to_word(seed, mutations):
    """Both checks word every item with a problem, on each mutant; the mutants are the reference tests' draws."""
    steps = _corpus_steps()
    worded = 0
    for before, mutant in _mutants(steps, seed, mutations):
        if not mutant.pieces:  # the check stops before the per-item passes
            continue
        with _worded() as called:
            want = validate_position(mutant)
        assert _unworded_problems(mutant, called) == []
        worded += bool(called)
        with _worded() as step_called:
            assert _validate_by_value(before, mutant) == want
        assert _unworded_problems(mutant, step_called) == []
        if not want:  # a valid mutant costs no message
            assert not called and not step_called
    assert worded >= 300


def test_the_full_check_sums_the_tally_and_walks_the_piece_graph():
    """On every corpus step's result and each orientable fixture, ``_checked`` gives ``Tally.of``'s tally and a walk's bits."""
    positions = [after for _, after in _corpus_steps()] + [make() for make in (make_t0, make_t1, make_t2, make_t0_with_dome)]
    for t in positions:
        index, tally = position._checked(t)
        assert tally == Tally.of(t)
        assert list(tally.counts) == list(t.graph.sphere_edges)
        assert tally.side == walk(t.pieces, position._piece_edges(t, index))[1]
    assert len(positions) > 180
