"""The step's certificate and the perturb candidate cache against frozen copies of their older forms.

``position._certified`` carries a step's side bits in one breadth-first
search of the result, from the least kept target, with no budget.  This
module keeps verbatim the certificate as it read with two searches: a
rounds loop that gave each new piece its bit through a scoped edge, then
``_reaches``, a search from the least target that gave up past a budget
of 64 pieces.  With its budget set to infinity the frozen copy must give
exactly the package's result (the same bits, or None in both), and with
budget 64, wherever it proves a step, the same bits:

* on every step of the criterion 6 corpus, made by ``position._step`` as
  ``perturb`` and ``normalize`` make it, and checked over every id;
* on seed 5's mutants of those steps;
* along the 64-move chains of
  ``test_step_check.test_candidate_cache_matches_fresh_builds_on_long_chains``.

It also keeps ``oracle._Candidates`` as it read with a finger table per
pants, which that same test pins, at every step, to list exactly what the
package's one finger table lists.  A step checked over every id on a
torus of more than 64 pieces is certified, as the budget did not allow.
"""

from __future__ import annotations

import contextlib
import math
from collections import defaultdict

from conftest import recorded
from test_step_check import (
    _corpus_deltas,
    _corpus_steps,
    _inverse_candidates,
    _mutants,
    _validate_by_value,
    _walked_up_to_a_flip,
)

from normaltori import oracle, position
from normaltori.graphs import build_standard
from normaltori.oracle import random_normal_torus
from normaltori.position import side_masks


# ---------------------------------------------------------------------------
# frozen: the certificate with a rounds loop and a budgeted search


def _frozen_certified(before, pieces, circles, t, index, side, budget):
    """``t``'s side bits, carried from ``before``'s ``side`` over a step, once they prove ``t``'s piece graph sound; else None.

    Each new piece takes its bit through a scoped edge; every scoped edge
    must agree with the bits, and a search of ``t`` from the least target
    must meet every target (a scoped piece or a holder of a scoped edge)
    within ``budget`` pieces.
    """
    if side is None:
        return None
    edges = []
    for cid in circles:
        (a, _), (b, _) = index[cid]
        edges.append((a.id, b.id, not t.transport[cid]))
    targets = {pid for a, b, _ in edges for pid in (a, b)} | pieces
    bits, unset = side, {pid for pid in pieces if pid not in before.pieces}  # unset: the new pieces
    if unset:  # a copy, so that no earlier tally's bits change
        bits = dict(side)
        for pid in unset:
            bits.pop(pid, None)
    while unset:
        took = {other: bits[known] ^ flip for a, b, flip in edges
                for known, other in ((a, b), (b, a)) if other in unset and known in bits}
        if not took:
            return None
        bits.update(took)
        unset -= took.keys()
    if any(bits[a] ^ bits[b] != flip for a, b, flip in edges):
        return None
    return bits if not targets or _frozen_reaches(t, index, targets, budget) else None


def _frozen_reaches(t, index, targets: set, budget) -> bool:
    """Whether a breadth-first search of ``t``'s piece graph from the least target meets every target within ``budget`` pieces."""
    start = min(targets)
    left, seen, queue = targets - {start}, {start}, [start]
    for pid in queue:
        if not left or len(seen) > budget:
            break
        for slot in t.pieces[pid].boundary:
            for piece, _ in index[slot.circle]:
                if piece.id not in seen:
                    seen.add(piece.id)
                    left.discard(piece.id)
                    queue.append(piece.id)
    return not left


@contextlib.contextmanager
def against_the_frozen_certificate():
    """While open, each ``position._certified`` call is checked against the frozen one, with no budget and with 64.

    Yields a list of (proved, proved by the frozen copy within 64 pieces), one per call.
    """
    def keep(args, bits):
        assert bits == _frozen_certified(*args, math.inf)
        within = _frozen_certified(*args, 64)
        assert within is None or within == bits
        return bits is not None, within is not None
    with recorded(position._certified, keep) as verdicts:
        yield verdicts


# ---------------------------------------------------------------------------
# frozen: the candidate cache with a finger table per pants


class FrozenCandidates:
    """The inverse moves of a valid position: the domes of each circle, and per pants, the fingers of each of its pieces."""

    def __init__(self, t, index):
        self.domes = {}
        self.fingers = defaultdict(dict)
        for pid, piece in t.pieces.items():
            self.fingers[piece.pants][pid] = []
        self._refresh(t, index, t.circles.keys(), list(self.fingers))

    def listed(self) -> list[tuple]:
        """Every candidate in the order the frozen ``pick`` read them: domes by circle id, then fingers by piece id."""
        fingers = {pid: cands for table in self.fingers.values() for pid, cands in table.items()}
        return ([cand for cid in sorted(self.domes) for cand in self.domes[cid]]
                + [cand for pid in sorted(fingers) for cand in fingers[pid]])

    def update(self, before, index, moved) -> None:
        after, pieces, _, sphere = moved
        circles, pants = set(after.trees[sphere].edges), set()
        for pid in pieces:
            old, new = before.pieces.get(pid), after.pieces.get(pid)
            if old is not None:
                del self.fingers[old.pants][pid]
                pants.add(old.pants)
                circles |= old.circles()
            if new is not None:
                self.fingers[new.pants][pid] = []
                pants.add(new.pants)
                circles |= new.circles()
        self._refresh(after, index, circles, pants)

    def _refresh(self, t, index, circles, pants) -> None:
        for cid in circles:
            self.domes.pop(cid, None)
            if cid in t.circles and index[cid][0][0].id != index[cid][1][0].id:
                regions = sorted(t.trees[t.circles[cid].sphere].adjacent(cid))
                self.domes[cid] = [("dome", cid, host_end, rx) for host_end in (0, 1) for rx in regions]
        for p in pants:
            table = self.fingers[p]
            bits = {pid: 1 << i for i, pid in enumerate(sorted(table))}
            masks, groups = {}, {}
            for he in t.graph.by_pants[p]:
                masks[he] = side_masks(t, he, bits)
                groups[he] = {}
                for region in sorted(t.trees[he.sphere].regions):
                    groups[he].setdefault(masks[he][region], []).append(region)
            for pid, bit in bits.items():
                table[pid] = oracle._fingers(t.pieces[pid], bit, masks, groups)


# ---------------------------------------------------------------------------


def test_certificate_matches_the_frozen_one_on_the_corpus_and_its_mutants():
    """Every certificate of the corpus steps, stepped and checked over every id, and of seed 5's mutants, is the frozen one's."""
    steps = _corpus_steps()
    with against_the_frozen_certificate() as verdicts:
        for *_, problems in _corpus_deltas():
            assert problems == []
        assert verdicts == [(True, True)] * 180
        for before, after in steps:
            assert _validate_by_value(before, after) == []
        assert verdicts[180:] == [(True, True)] * 180
        del verdicts[:]
        for before, mutant in _mutants(steps, 5):
            _validate_by_value(before, mutant)
    assert (True, True) in verdicts and (False, False) in verdicts
    print(f"{len(verdicts)} mutant certificates: {verdicts.count((True, True))} proved, "
          f"{verdicts.count((False, False))} fell back")


def test_a_step_checked_over_every_id_is_certified_past_64_pieces():
    """With every piece and circle in scope, the search must meet them all: the frozen copy gives up at 64, the certificate not."""
    t = random_normal_torus(build_standard(12), 1, 256)
    tally = position._checked(t)
    assert len(t.pieces) > 64
    moved = oracle._inverse(t, _inverse_candidates(t)[0])
    after, _, problems = position._step(t, moved)
    assert problems == []
    args = (t, set(after.pieces), set(after.circles), after, after._index, tally.side)
    bits = position._certified(*args)
    assert bits is not None and _walked_up_to_a_flip(bits, after)
    assert _frozen_certified(*args, 64) is None
    assert _frozen_certified(*args, math.inf) == bits
