"""The normal-piece rule and the axis-word check against frozen references.

``position._fault`` is the one statement of the normal-piece rule, and
``is_normal``, ``is_normal_piece``, ``piece_kind`` and
``is_boundary_parallel_disk`` read it; ``axis_word`` tests its word for a
cyclically adjacent letter and inverse in one scan.  This module keeps the
four normal-form functions as they read when each stated the rule itself,
and the quadratic cyclic reducer and least rotation that ``axis_word``
used before, and pins the package to them on the step-check mutants, on
hand-built pieces and on every short word.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import product
from types import SimpleNamespace

import pytest
from test_step_check import _corpus_steps, _mutants

from normaltori.fixtures import theta_graph
from normaltori.graphs import HalfEdge
from normaltori.normal_graph import axis_word
from normaltori.position import (
    SIDE_A,
    SIDE_B,
    BoundarySlot,
    Piece,
    PositionError,
    position_of,
    is_boundary_parallel_disk,
    is_normal,
    is_normal_piece,
    piece_kind,
)


def _piece_kind(piece):
    if piece.genus != 0:
        return None
    crossed = [slot.half_edge for slot in piece.boundary]
    if len(crossed) != len(set(crossed)):
        return None
    return {1: "disk", 2: "cylinder", 3: "pants"}.get(len(crossed))


def _is_normal_piece(piece):
    kind = _piece_kind(piece)
    return kind is not None and (kind != "disk" or len(set(piece.uncrossed.values())) == 2)


def _is_boundary_parallel_disk(piece):
    return (
        piece.genus == 0
        and len(piece.boundary) == 1
        and len(set(piece.uncrossed.values())) == 1
        and len(piece.uncrossed) == 2
    )


def _is_normal(t):
    violations = []
    for pid, piece in sorted(t.pieces.items()):
        if piece.genus != 0:
            violations.append(f"piece {pid} has genus {piece.genus}")
            continue
        seen = defaultdict(int)
        for slot in piece.boundary:
            seen[slot.half_edge] += 1
        doubled = False
        for he, k in sorted(seen.items()):
            if k > 1:
                violations.append(f"piece {pid} meets half-edge ({t.half_edge_label(he)}) twice")
                doubled = True
        if doubled:
            continue
        b = len(piece.boundary)
        if b == 1:
            if len(set(piece.uncrossed.values())) != 2:
                violations.append(f"disk {pid} boundary-parallel")
        elif b not in (2, 3):
            violations.append(f"piece {pid} has {b} boundary circles")
    return (not violations, violations)


def _cyclic_reduce(word):
    out = list(word)
    changed = True
    while changed and out:
        changed = False
        for i in range(len(out)):
            j = (i + 1) % len(out)
            if i != j and out[i][0] == out[j][0] and out[i][1] == -out[j][1]:
                for k in sorted((i, j), reverse=True):
                    del out[k]
                changed = True
                break
    return out


def _least_rotation(word):
    inverse = [(idx, -s) for idx, s in reversed(word)]
    candidates = [tuple(w[r:] + w[:r]) for w in (word, inverse) for r in range(len(w))]
    best = min(candidates, key=lambda w: [(idx, 0 if sign > 0 else 1) for idx, sign in w])
    return list(best)


def _axis_word(letters):
    """The reference ``axis_word`` of an axis reading ``letters``: None where it raised."""
    word = [letter for letter in letters if letter is not None]
    reduced = _cyclic_reduce(word)
    if reduced != word or not reduced:
        return None
    return _least_rotation(word)


def _agree(t) -> int:
    """``is_normal`` and every piece's kind and verdicts agree with the references on ``t``; its number of pieces."""
    assert is_normal(t) == _is_normal(t)
    for piece in t.pieces.values():
        assert piece_kind(piece) == _piece_kind(piece)
        assert is_normal_piece(piece) == _is_normal_piece(piece)
        assert is_boundary_parallel_disk(piece) == _is_boundary_parallel_disk(piece)
    return len(t.pieces)


_TAGS = ("genus", "twice", "boundary-parallel", "boundary circles")


def test_normal_form_matches_the_reference_on_the_step_check_mutants():
    """Every corpus step's result and seeds 5 and 6's mutants of it."""
    steps = _corpus_steps()
    pieces = sum(_agree(after) for _, after in steps)
    rejected, seen = 0, set()
    for seed in (5, 6):
        for _, mutant in _mutants(steps, seed):
            pieces += _agree(mutant)
            violations = is_normal(mutant)[1]
            rejected += bool(violations)
            seen.update(tag for v in violations for tag in _TAGS if tag in v)
    assert pieces >= 8_000 and rejected >= 1_000 and seen == set(_TAGS)
    print(f"{pieces} pieces, {rejected} mutants not normal")


def _slots(*ends):
    """A boundary slot per (sphere, end), on circles c0, c1, ..."""
    return [BoundarySlot(f"c{i}", HalfEdge(s, end), "r0") for i, (s, end) in enumerate(ends)]


def test_normal_form_matches_the_reference_on_hand_built_pieces():
    """One piece per rule and its edge cases, in the theta graph's pants p0 (s0@0, s1@0, s2@1)."""
    a, b, c = HalfEdge("s0", 0), HalfEdge("s1", 0), HalfEdge("s2", 1)
    pieces = {
        "cylinder": Piece("cylinder", "p0", 0, _slots(("s0", 0), ("s1", 0)), {c: SIDE_A}),
        "pants": Piece("pants", "p0", 0, _slots(("s0", 0), ("s1", 0), ("s2", 1))),
        "essential": Piece("essential", "p0", 0, _slots(("s0", 0)), {b: SIDE_A, c: SIDE_B}),
        "genus1": Piece("genus1", "p0", 1, _slots(("s0", 0), ("s1", 0)), {c: SIDE_A}),
        "genus-1": Piece("genus-1", "p0", -1, _slots(("s0", 0)), {b: SIDE_A, c: SIDE_B}),
        "genus1doubled": Piece("genus1doubled", "p0", 1, _slots(("s0", 0), ("s0", 0)), {b: SIDE_A, c: SIDE_A}),
        "doubled": Piece("doubled", "p0", 0, _slots(("s0", 0), ("s0", 0)), {b: SIDE_A, c: SIDE_A}),
        "tripled": Piece("tripled", "p0", 0, _slots(("s0", 0), ("s0", 0), ("s0", 0)), {b: SIDE_A, c: SIDE_B}),
        "doubled2": Piece("doubled2", "p0", 0, _slots(("s1", 0), ("s0", 0), ("s1", 0), ("s0", 0)), {c: SIDE_A}),
        "parallel": Piece("parallel", "p0", 0, _slots(("s1", 0)), {a: SIDE_B, c: SIDE_B}),
        "parallel1": Piece("parallel1", "p0", 0, _slots(("s1", 0)), {a: SIDE_A}),
        "closed": Piece("closed", "p0", 0, [], {a: SIDE_A, b: SIDE_A, c: SIDE_B}),
        "four": Piece("four", "p0", 0, _slots(("s0", 0), ("s1", 0), ("s2", 1), ("s0", 1))),
        "key": Piece("F9", "p0", 0, _slots(("s2", 1)), {a: SIDE_A, b: SIDE_A}),
    }
    t = position_of(theta_graph(), pieces, {}, {}, {})
    assert _agree(t) == 14
    assert is_normal(t)[1] == [
        "piece closed has 0 boundary circles",
        "piece doubled meets half-edge (s0@p0) twice",
        "piece doubled2 meets half-edge (s0@p0) twice",
        "piece doubled2 meets half-edge (s1@p0) twice",
        "piece four has 4 boundary circles",
        "piece genus-1 has genus -1",
        "piece genus1 has genus 1",
        "piece genus1doubled has genus 1",
        "disk key boundary-parallel",
        "disk parallel boundary-parallel",
        "disk parallel1 boundary-parallel",
        "piece tripled meets half-edge (s0@p0) twice",
    ]
    for pid in ("cylinder", "pants", "essential"):
        assert _is_normal(position_of(t.graph, {pid: pieces[pid]}, {}, {}, {})) == (True, [])


def _fake_axis(letters):
    """A torus and a labeling whose axis reads ``letters``, one crossing each, as ``axis_word`` reads them."""
    n = len(letters)
    nodes = tuple(f"n{i}" for i in range(n))
    cids = tuple(f"e{i}" for i in range(n))
    crossings = {cid: (cid, nodes[i], nodes[(i + 1) % n]) for i, cid in enumerate(cids)}
    labeling = SimpleNamespace(word_letter=lambda sphere, from_end: letters[int(sphere[1:])])
    return SimpleNamespace(axis=(nodes, cids), crossings=crossings), labeling


def _package_axis_word(letters):
    try:
        return axis_word(*_fake_axis(letters))
    except PositionError:
        return None


@pytest.mark.parametrize("length", range(7))
def test_axis_word_matches_the_reference_on_every_short_word(length):
    """Every word of the given length over x1-x3 with both signs, and random ones with tree crossings among them."""
    alphabet = [(idx, sign) for idx in (1, 2, 3) for sign in (1, -1)]
    raised = set()
    for word in product(alphabet, repeat=length):
        want = _axis_word(word)
        assert _package_axis_word(list(word)) == want
        raised.add(want is None)
    rng = random.Random(length)
    for _ in range(200):
        letters = [rng.choice(alphabet + [None]) for _ in range(length + rng.randrange(3))]
        assert _package_axis_word(letters) == _axis_word(letters)
    assert raised == ({True} if length == 0 else {False} if length == 1 else {True, False})
