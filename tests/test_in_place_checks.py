"""A valid input costs the full check no message, and its passes sum the tally and walk the piece graph.

Each rule of ``position._validate`` is one test that words its own
problem where it fails.  The side anchors alone are tested apart
(``_anchor_faults``) and worded by ``_validate_side_anchors``, only at
the sphere ends whose test fails; on every corpus step's result, neither
the full check nor the step check calls it.  Every message and its order,
on the mutants of seeds 5 to 8, are pinned to a frozen reference in
``tests/test_full_check_reference.py``.  On the corpus steps and the
fixtures, the full check's tally is ``Tally.of``'s and its side bits are
a fresh walk's.
"""

from __future__ import annotations

from conftest import recorded
from test_step_check import _corpus_steps, _validate_by_value

from normaltori import position
from normaltori.fixtures import make_t0, make_t0_with_dome, make_t1, make_t2
from normaltori.graphs import walk
from normaltori.position import Tally, validate_position


def test_a_valid_input_words_nothing():
    """Neither check calls ``_validate_side_anchors`` on a corpus step's result; an anchor off its circle does."""
    with recorded(position._validate_side_anchors) as calls:
        steps = _corpus_steps()
        for before, after in steps:
            assert validate_position(after) == []
            assert _validate_by_value(before, after) == []
        assert calls == [] and len(steps) == 180
        t = make_t0()
        t.pieces["F0"].boundary[0].region_a = "rX"
        assert validate_position(t) == ["piece F0 slot at c0 anchors a non-adjacent region"]
    assert len(calls) == 1


def test_the_full_check_sums_the_tally_and_walks_the_piece_graph():
    """On every corpus step's result and each orientable fixture, ``_checked`` gives ``Tally.of``'s tally and a walk's bits."""
    positions = [after for _, after in _corpus_steps()] + [make() for make in (make_t0, make_t1, make_t2, make_t0_with_dome)]
    for t in positions:
        index, tally = position._checked(t)
        assert tally == Tally.of(t)
        assert list(tally.counts) == list(t.graph.sphere_edges)
        assert tally.side == walk(t.pieces, position._piece_edges(t, index))[1]
    assert len(positions) > 180
