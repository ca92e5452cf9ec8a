"""The step check: ``position._validate_delta`` against ``validate_position``.

``normalize`` and ``perturb`` fully validate only their input, and check
every step's result, the last one and a normal one included, with
``_validate_delta`` through ``position._step``.  It re-checks per item only
what can have changed among the ids the move reports it replaced, reads
the global sums off the ``Tally`` and carries the tally's side bits over
the edges the step changed (``position._certified``), falling back to
the full check's walk of the whole piece graph when that certificate
cannot prove the step.  These tests pin that the two checks agree, on
real steps and on mutants of them; that a move's report holds every id
that differs by value and gives the same scope as every id does; how
often the certificate proves a step and that its fallbacks find the
problems; that the carried bits are a walk's; and that the callers keep
to the one full check of their input and each normal torus to its own walk.
"""

from __future__ import annotations

import copy
import random

import pytest
from conftest import recorded
from test_acceptance import _fuzz_corpus

from normaltori import moves, oracle, position
from normaltori.cli import main
from normaltori.fixtures import make_t0, make_t2
from normaltori.graphs import HalfEdge, build_standard, random_cubic, walk
from normaltori.moves import Cap, Slide, _ball_region, apply_move, find_moves, normalize
from normaltori.normal_graph import NormalTorus, to_normal_torus
from normaltori.oracle import (
    minimality_experiment,
    perturb,
    random_normal_torus,
    roundtrip_report,
)
from normaltori.position import (
    BoundarySlot,
    Circle,
    RegionTree,
    end_slot,
    intersection_vector,
    is_boundary_parallel_disk,
    is_normal,
    is_normal_piece,
    validate_position,
)
from normaltori.serialize import dumps, normal_torus_to_json, position_to_json


def _inverse_candidates(t):
    """Every inverse move on a valid position, in a fixed order: domes by circle, then fingers by piece."""
    return _listed(oracle._Candidates(t, t.circle_slots()))


def _listed(cache):
    """Every candidate of a perturb candidate cache, in the order ``pick`` reads them by index: domes by circle id, then fingers by piece id.

    Listed off the tables in one pass; ``pick`` must agree at the first and
    last index and at a sample seeded by the count (a ``pick`` per index
    would cost a pass per candidate).
    """
    listed = [cand for table in (cache.domes, cache.fingers) for key in sorted(table) for cand in table[key]]
    assert cache.count() == len(listed)
    if listed:
        sample = random.Random(len(listed)).sample(range(len(listed)), min(5, len(listed)))
        assert all(cache.pick(i) == listed[i] for i in {0, len(listed) - 1, *sample})
    return listed


def _apply_inverse(t, cand):
    """The position ``oracle._inverse`` steps to."""
    return oracle._inverse(t, cand, t.circle_slots())[0]


def _corpus_steps():
    """(before, after) of every inverse move and move on criterion 6's corpus."""
    steps = []
    for instances, (rank, g, base) in enumerate(_fuzz_corpus(per_graph=4)):
        rng = random.Random(60_000 + instances)
        current = base
        for _ in range((instances % 4) + 1):  # the draws ``perturb`` makes
            candidates = _inverse_candidates(current)
            nxt = _apply_inverse(current, candidates[rng.randrange(len(candidates))])
            steps.append((current, nxt))
            current = nxt
        while found := find_moves(current):
            nxt = apply_move(current, found[0])
            steps.append((current, nxt))
            current = nxt
    return steps


def _pick(rng, items):
    items = sorted(items)
    return items[rng.randrange(len(items))]


def _slot(rng, t):
    piece = t.pieces[_pick(rng, t.pieces)]
    return piece, rng.randrange(len(piece.boundary))


def _drop_circle(rng, t):
    """Remove a circle everywhere but in the pieces, keeping its tree a tree."""
    cid = _pick(rng, t.circles)
    sphere = t.circles.pop(cid).sphere
    tree = t.trees[sphere]
    t.transport.pop(cid)
    keep, gone = tree.edges[cid]
    edges = {other: (keep if a == gone else a, keep if b == gone else b)
             for other, (a, b) in tree.edges.items() if other != cid}
    t.trees[sphere] = RegionTree(sphere, tree.regions - {gone}, edges)


def _swap_far_ends(rng, t):
    """Exchange which pieces two circles of one sphere reach at end 1."""
    by_sphere = {}
    for cid, circle in t.circles.items():
        by_sphere.setdefault(circle.sphere, []).append(cid)
    groups = sorted(cids for cids in by_sphere.values() if len(cids) >= 2)
    if not groups:
        return
    c1, c2 = rng.sample(sorted(groups[rng.randrange(len(groups))]), 2)
    ends = {}
    for piece in t.pieces.values():
        for i, slot in enumerate(piece.boundary):
            if slot.circle in (c1, c2) and slot.half_edge.end == 1:
                ends[slot.circle] = (piece, i)
    (p1, i1), (p2, i2) = ends[c1], ends[c2]
    p1.boundary[i1].circle, p2.boundary[i2].circle = c2, c1


def _swap_tree_edges(rng, t):
    """Exchange two circles' places in one region tree: still a tree."""
    spheres = [s for s, tree in t.trees.items() if len(tree.edges) >= 2]
    if spheres:
        tree = t.trees[_pick(rng, spheres)]
        c1, c2 = rng.sample(sorted(tree.edges), 2)
        edges = dict(tree.edges)
        edges[c1], edges[c2] = edges[c2], edges[c1]
        t.trees[tree.sphere] = RegionTree(tree.sphere, tree.regions, edges)


def _genus(rng, t):
    piece = t.pieces[_pick(rng, t.pieces)]
    piece.genus = rng.choice((-1, piece.genus + 1))


def _pants(rng, t):
    t.pieces[_pick(rng, t.pieces)].pants = _pick(rng, t.graph.p_vertices)


def _slot_end(rng, t):
    piece, i = _slot(rng, t)
    slot = piece.boundary[i]
    piece.boundary[i] = BoundarySlot(slot.circle, slot.half_edge.other(), slot.region_a)


def _slot_circle(rng, t):
    piece, i = _slot(rng, t)
    piece.boundary[i].circle = _pick(rng, t.circles)


def _anchor(rng, t):
    piece, i = _slot(rng, t)
    slot = piece.boundary[i]
    tree = t.trees[slot.half_edge.sphere]
    if rng.random() < 0.75:
        slot.region_a = tree.other_region(slot.circle, slot.region_a)
    else:
        slot.region_a = _pick(rng, tree.regions)


def _uncrossed(rng, t):
    piece = t.pieces[_pick(rng, t.pieces)]
    if piece.uncrossed:
        he = _pick(rng, piece.uncrossed)
        piece.uncrossed[he] = rng.choice(("A", "B", "C"))
    else:
        piece.uncrossed[piece.boundary[0].half_edge] = "A"


def _transport(rng, t):
    cid = _pick(rng, t.circles)
    if rng.random() < 0.9:
        t.transport[cid] = not t.transport[cid]
    else:
        del t.transport[cid]


def _tree_edge(rng, t):
    tree = t.trees[_pick(rng, t.trees)]
    if tree.edges:
        # regions, then the circle: the draw order that the pinned mutant counts rest on
        ends = _pick(rng, tree.regions), _pick(rng, tree.regions)
        edges = {**tree.edges, _pick(rng, tree.edges): ends}
        t.trees[tree.sphere] = RegionTree(tree.sphere, tree.regions, edges)


def _tree_region(rng, t):
    tree = t.trees[_pick(rng, t.trees)]
    if rng.random() < 0.5 or len(tree.regions) == 1:
        regions = tree.regions | {"rX"}
    else:
        regions = tree.regions - {_pick(rng, tree.regions)}
    t.trees[tree.sphere] = RegionTree(tree.sphere, regions, tree.edges)


def _circle_sphere(rng, t):
    t.circles[_pick(rng, t.circles)].sphere = _pick(rng, t.graph.sphere_edges)


def _add_circle(rng, t):
    sphere = _pick(rng, t.graph.sphere_edges)
    t.circles["cX"] = Circle("cX", sphere)
    t.transport["cX"] = True
    if rng.random() < 0.5:
        tree = t.trees[sphere]
        edges = {**tree.edges, "cX": (_pick(rng, tree.regions), "rX")}
        t.trees[sphere] = RegionTree(sphere, tree.regions | {"rX"}, edges)


def _add_piece(rng, t):
    piece = copy.deepcopy(t.pieces[_pick(rng, t.pieces)])
    piece.id = "FX"
    t.pieces["FX"] = piece


def _drop_piece(rng, t):
    del t.pieces[_pick(rng, t.pieces)]


MUTATIONS = (
    _genus, _pants, _slot_end, _slot_circle, _anchor, _anchor, _uncrossed, _transport,
    _transport, _tree_edge, _tree_region, _swap_tree_edges, _swap_tree_edges, _circle_sphere,
    _add_circle, _drop_circle, _drop_circle, _add_piece, _drop_piece, _swap_far_ends,
    _swap_far_ends,
)


def _mutate(rng, t, mutations=MUTATIONS):
    """A clone of ``t`` with one mutation drawn from ``mutations``."""
    out = t.clone()
    rng.choice(mutations)(rng, out)
    return out


def _mutants(steps, seed, mutations=MUTATIONS):
    """(before, mutant) for four mutants of each step's result, drawn from one ``random.Random(seed)``."""
    rng = random.Random(seed)
    for before, after in steps:
        for _ in range(4):
            yield before, _mutate(rng, after, mutations)


def _sorted_moves(t):
    """Reference for ``find_moves``: every move with its sort key, sorted; caps after slides."""
    index = t.circle_slots()
    slides, caps = [], []
    for pid, piece in t.pieces.items():
        by_he = {}
        for slot in piece.boundary:
            by_he.setdefault(slot.half_edge, []).append(slot.circle)
        for he, cids in by_he.items():
            tree = t.trees[he.sphere]
            for c1 in cids:
                for c2 in cids:
                    shared = set(tree.adjacent(c1)) & set(tree.adjacent(c2))
                    if c1 < c2 and shared:
                        slides.append(((pid, he.sphere, he.end, c1, c2), Slide(pid, he, c1, c2, min(shared))))
        if not is_boundary_parallel_disk(piece):
            continue
        slot = piece.boundary[0]
        tree = t.trees[t.circles[slot.circle].sphere]
        far, _ = end_slot(t, index, slot.circle, 1 - slot.half_edge.end)
        if tree.is_leaf(_ball_region(t, piece)) and len(far.boundary) >= 2:
            caps.append(((pid, slot.circle), Cap(pid, slot.circle)))
    return [mv for _, mv in sorted(slides, key=lambda kv: kv[0])] + [mv for _, mv in sorted(caps, key=lambda kv: kv[0])]


def test_normalize_takes_the_first_move():
    """``normalize`` is the walk through ``find_moves(t)[0]``, whose order is the sorted one."""
    rng = random.Random(8)
    cases = 0
    for rank in range(2, 7):
        for g in (build_standard(rank), random_cubic(rank, 40 + rank)):
            base = random_normal_torus(g, rank, 3)
            for k in (rank + 1, 14 - rank):
                messy = perturb(base, 7 * rank + k, k)
                walk, cur = [], messy
                while found := find_moves(cur):
                    assert found == _sorted_moves(cur)
                    for _ in range(3):  # swapped far ends change which piece a slide bands
                        swapped = cur.clone()
                        _swap_far_ends(rng, swapped)
                        assert find_moves(swapped) == _sorted_moves(swapped)
                    nxt = apply_move(cur, found[0])
                    walk.append((found[0].describe(cur), intersection_vector(cur), intersection_vector(nxt)))
                    cur = nxt
                assert _sorted_moves(cur) == []
                result = normalize(messy)
                assert [(r.description, r.counts_before, r.counts_after) for r in result.trace] == walk
                assert len(walk) == k
                assert dumps(position_to_json(result.position)) == dumps(position_to_json(cur))
                assert dumps(normal_torus_to_json(result.torus)) == dumps(normal_torus_to_json(to_normal_torus(cur)))
                cases += 1
    assert cases == 20


@pytest.fixture
def full_checks():
    """The ``validate_position`` calls, through every binding callers use."""
    with recorded(position.validate_position) as calls:
        yield calls


def test_full_checks_only_at_the_ends(full_checks):
    base = random_normal_torus(build_standard(4), 3, 6)
    full_checks.clear()
    messy = perturb(base, 11, 5)
    assert len(full_checks) == 1  # the input; the step check checks the last inverse move's result
    full_checks.clear()
    assert len(normalize(messy).trace) == 5
    assert len(full_checks) == 1  # the input; the step check checks the normal result
    full_checks.clear()
    assert normalize(base).trace == []
    assert len(full_checks) == 1  # the input, already normal


def test_experiments_validate_each_position_once(full_checks, tmp_path, capsys):
    """The base once; every perturbed and normalized position is a step's result, which the step check checks."""
    assert minimality_experiment(make_t0(), 10, 3).passed()
    assert len(full_checks) == 1
    full_checks.clear()
    assert roundtrip_report(make_t2(), 10, 3).passed()
    assert len(full_checks) == 1
    path = tmp_path / "t0.json"
    path.write_text(dumps(position_to_json(make_t0())), encoding="utf-8")
    full_checks.clear()
    assert main(["perturb", str(path), "--count", "1", "-o", str(tmp_path / "out.json")]) == 0
    assert len(full_checks) == 1  # the input


def test_each_checked_input_builds_one_index():
    """The index that validated the input is carried through every step, perturbed or normalized, and into the torus."""
    base = random_normal_torus(build_standard(4), 3, 6)
    with recorded(position.TorusPosition.circle_slots) as index_builds:
        messy = perturb(base, 11, 5)
        assert len(index_builds) == 1
        index_builds.clear()
        assert len(normalize(messy).trace) == 5
        assert len(index_builds) == 1
        index_builds.clear()
        assert minimality_experiment(make_t0(), 10, 3).passed()
        assert len(index_builds) == 1
        index_builds.clear()
        assert roundtrip_report(make_t2(), 10, 3).passed()
        assert len(index_builds) == 1


def test_the_input_check_and_each_torus_walk_once():
    """The piece graph is walked by the input's full check and by each normal torus, once each; no step walks it.

    Every torus walks itself, whichever way it is built, and the same
    ``side``, ``axis`` and file come out from ``normalize``,
    ``to_normal_torus`` and a torus built alone.  A sphere graph is walked
    once, when built, so on a built graph every ``graphs.walk`` is over a
    piece graph.
    """
    base = random_normal_torus(build_standard(4), 3, 6)
    with recorded(walk) as piece_walks:
        messy = perturb(base, 11, 5)
        assert len(piece_walks) == 1  # the input's check
        piece_walks.clear()
        result = normalize(messy)
        assert len(result.trace) == 5
        assert len(piece_walks) == 2  # the input's check and the torus's
        piece_walks.clear()
        nt = to_normal_torus(result.position)
        assert len(piece_walks) == 2  # the check's and the torus's
        piece_walks.clear()
        alone = NormalTorus(result.position)
        assert len(piece_walks) == 1
    for handed in (result.torus, nt):
        assert dict(handed.side) == dict(alone.side)
        assert handed.axis == alone.axis
        assert dumps(normal_torus_to_json(handed)) == dumps(normal_torus_to_json(alone))


def test_certificate_counts_on_the_corpus():
    """The certificate proves every step check of the corpus: none falls back to the full walk."""
    with _certificates() as verdicts:
        for *_, problems in _corpus_deltas():
            assert problems == []
    assert (verdicts.count(True), verdicts.count(False)) == (180, 0)


def _same_slots(index):
    """A ``circle_slots`` index with each circle's pairs in one order, for comparing two builds."""
    return {cid: sorted(pairs, key=lambda ps: (ps[0].id, ps[1].half_edge)) for cid, pairs in index.items()}


def _ends_hold_a_changed_piece(before, moved) -> bool:
    """Each end of the sphere a move reports is a pants that holds a piece it reports, before or after.

    ``oracle._Candidates.update`` redoes only those pants, so a step that
    broke this would leave stale fingers next to a changed tree.
    """
    after, pieces, _, sphere = moved
    pants = {t.pieces[pid].pants for t in (before, after) for pid in pieces if pid in t.pieces}
    return all(after.graph.pants_of(HalfEdge(sphere, end)) in pants for end in (0, 1))


def _corpus_deltas():
    """Every step of ``_corpus_steps`` made by ``position._step``, as ``perturb`` and ``normalize`` make it.

    Yields (the kind of step, before, its index, the move's report, the
    carried index, the carried tally, the step's problems), the kind being
    ``dome``, ``finger``, ``Slide`` or ``Cap`` and the report (after, ids
    of the pieces and circles replaced, the sphere whose tree was replaced).
    """
    for instances, (rank, g, base) in enumerate(_fuzz_corpus(per_graph=4)):
        rng = random.Random(60_000 + instances)
        current, (index, tally) = base, position._checked(base)
        for _ in range((instances % 4) + 1):
            candidates = _inverse_candidates(current)
            cand = candidates[rng.randrange(len(candidates))]
            moved = oracle._inverse(current, cand, index)
            nxt, nxt_index, tally, problems = position._step(current, index, tally, moved)
            yield cand[0], current, index, moved, nxt_index, tally, problems
            current, index = nxt, nxt_index
        while (move := next(moves._moves(current, index, tally.abnormal), None)) is not None:
            moved = moves._move(current, move, index)
            nxt, nxt_index, tally, problems = position._step(current, index, tally, moved)
            yield type(move).__name__, current, index, moved, nxt_index, tally, problems
            current, index = nxt, nxt_index


def _every_id(before, after):
    """(pieces, circles, spheres): every id of either position, a report that names everything.

    Its ``_delta_scope`` is the reference that a move's own report is
    pinned against: it cannot under-report what a step touched.
    """
    return (before.pieces.keys() | after.pieces.keys(), before.circles.keys() | after.circles.keys(),
            after.graph.sphere_edges)


def _assert_reports_every_change(before, moved):
    """Every piece, circle (item or transport bit) and region tree that differs by value is in the move's report."""
    after, pieces, circles, sphere = moved
    every_piece, every_circle, every_sphere = _every_id(before, after)
    changed = (
        {pid for pid in every_piece if before.pieces.get(pid) != after.pieces.get(pid)},
        {cid for cid in every_circle if before.circles.get(cid) != after.circles.get(cid)
         or before.transport.get(cid) != after.transport.get(cid)},
        {s for s in every_sphere if before.trees.get(s) != after.trees.get(s)},
    )
    for found, reported in zip(changed, (pieces, circles, {sphere})):
        assert found <= set(reported), f"changed but not reported: {sorted(found - set(reported))}"


def test_deltas_match_the_by_value_step():
    """Every corpus step's report holds every change; its scope, the index, the moves and the cache match fresh builds."""
    walked = 0
    cache = last = None
    kinds = set()
    by_value = iter(_corpus_steps())
    for kind, before, index, moved, carried, tally, problems in _corpus_deltas():
        after, pieces, circles, sphere = moved
        _assert_reports_every_change(before, moved)
        _, want_after = next(by_value)
        assert dumps(position_to_json(after)) == dumps(position_to_json(want_after))
        fresh = after.circle_slots()
        assert _same_slots(carried) == _same_slots(fresh)
        assert all(piece is after.pieces[piece.id] for pairs in carried.values() for piece, _ in pairs)
        want_scope = position._delta_scope(before, after, fresh, *_every_id(before, after))
        assert position._delta_scope(before, after, carried, pieces, circles, (sphere,)) == want_scope
        assert list(moves._moves(after, carried, after.pieces)) == find_moves(after)
        assert list(moves._moves(after, carried, tally.abnormal)) == find_moves(after)
        if before is not last:  # a new corpus instance
            cache = oracle._Candidates(before, index)
        assert _ends_hold_a_changed_piece(before, moved)
        cache.update(before, carried, moved)
        assert _listed(cache) == _inverse_candidates(after)
        assert tally == position.Tally.of(after)
        assert problems == position._validate_delta(before, after, carried, pieces, circles, (sphere,), tally) == []
        walked += 1
        kinds.add(kind)
        last = after
    assert next(by_value, None) is None
    assert kinds == {"dome", "finger", "Slide", "Cap"}
    print(f"reports hold every change and match on {walked} steps")


@pytest.mark.parametrize("rank", range(2, 7))
def test_candidate_cache_matches_fresh_builds_on_long_chains(rank):
    """Along 64-move ``_perturb`` chains the updated cache lists what a fresh build lists, at every step.

    Three chains per graph, on ``build_standard(rank)`` and a ``random_cubic``
    graph of the same rank; each chain's torus grows by one circle a step,
    so later steps update a cache far larger than the corpus's.  Every
    inverse move's report holds every change, the carried tally is a
    fresh one, and its side bits are a fresh walk's, up to one flip.  A
    frozen copy of the cache with a finger table per pants lists the same,
    and each step's certificate is the frozen one's (``test_step_reference``).
    """
    from test_step_reference import FrozenCandidates, against_the_frozen_certificate  # it imports this module

    kinds = set()
    for g in (build_standard(rank), random_cubic(rank, 5 * rank)):
        for seed in range(3):
            current = random_normal_torus(g, 10 * rank + seed, 2 * rank)
            index, tally = position._checked(current)
            cache, rng = oracle._Candidates(current, index), random.Random(seed)
            frozen = FrozenCandidates(current, index)
            for _ in range(64):
                candidates = _listed(cache)
                assert candidates == _inverse_candidates(current) == frozen.listed()
                cand = candidates[rng.randrange(len(candidates))]
                moved = oracle._inverse(current, cand, index)
                _assert_reports_every_change(current, moved)
                with against_the_frozen_certificate() as verdicts:
                    nxt, index, tally, problems = position._step(current, index, tally, moved)
                assert problems == [] and verdicts == [(True, True)]
                assert tally == position.Tally.of(nxt)
                assert _walked_up_to_a_flip(tally.side, nxt)
                assert _ends_hold_a_changed_piece(current, moved)
                cache.update(current, index, moved)
                frozen.update(current, index, moved)
                current = nxt
                kinds.add(cand[0])
            assert _listed(cache) == _inverse_candidates(current) == frozen.listed()
    assert kinds == {"dome", "finger"}


def _validate_by_value(before, after):
    """``_validate_delta`` of the step from a valid ``before`` to ``after``.

    It is given every id (``_every_id``), so ``after`` may be any edited
    clone, and ``before``'s tally with the side bits of its full check, so
    the certificate runs as it does in a step.
    """
    every = _every_id(before, after)
    tally = position._checked(before)[1].stepped(before, after, *every[:2])
    return position._validate_delta(before, after, after.circle_slots(), *every, tally)


def _certificates():
    """The verdict of each ``position._certified`` call while open: True if it proved its step, False if it fell back."""
    return recorded(position._certified, lambda args, bits: bits is not None)


def _walked_up_to_a_flip(carried, t) -> bool:
    """Whether the carried side bits of ``t``'s pieces are a fresh walk's, all flipped or none."""
    walked = walk(t.pieces, position._piece_edges(t, t.circle_slots()))[1]
    flip = carried[min(walked)] != walked[min(walked)]
    return {pid: carried[pid] ^ flip for pid in t.pieces} == walked


_TAGS = ("side anchors conflict", "monodromy", "disconnected", "region tree")


def _check_mutants(steps, seed):
    """Four mutants of each step's result, drawn with ``seed``: ``_validate_delta`` must give ``validate_position``'s list.

    Among the mutants whose certificate fell back, some must give a list,
    with both a disconnected piece graph and a bad cycle among them.
    """
    mutants = rejected = caught = 0
    seen, caught_tags = set(), set()
    with _certificates() as verdicts:
        for before, mutant in _mutants(steps, seed):
            want = validate_position(mutant)
            asked = len(verdicts)
            assert _validate_by_value(before, mutant) == want
            mutants += 1
            rejected += bool(want)
            tags = {tag for problem in want for tag in _TAGS if tag in problem}
            seen |= tags
            if want and verdicts[asked:] == [False]:
                caught += 1
                caught_tags |= tags
    assert mutants >= 600 and rejected * 3 >= mutants
    assert seen == set(_TAGS)
    assert caught and {"disconnected", "monodromy"} <= caught_tags
    print(f"seed {seed}: _validate_delta == validate_position on {len(steps)} steps, {mutants} mutants "
          f"({rejected} rejected, {caught} of them after the certificate fell back; "
          f"{verdicts.count(True)} certified, {verdicts.count(False)} fell back)")


def test_validate_step_matches_validate_position():
    """The step check gives the full check's list on every corpus step and on seed 5's mutants of them."""
    steps = _corpus_steps()
    for before, after in steps:
        assert _validate_by_value(before, after) == validate_position(after) == []
        assert all(map(is_normal_piece, after.pieces.values())) == is_normal(after)[0]
    _check_mutants(steps, 5)


def test_validate_delta_matches_validate_position_on_mutants():
    """The same on seed 6's mutants, each mutant checked over every id."""
    _check_mutants(_corpus_steps(), 6)


def test_step_scope_does_not_grow_with_the_torus():
    """On the ladder's smallest and largest probe, the step scope stays under one bound.

    The probe is ``normalize(perturb(random_normal_torus(build_standard(r), 1, sb), 7, k))``
    for (r, sb, k) = (6, 16, 32) and (12, 64, 256): 48 and 321 circles at
    the peak.  A step's scope counts its pieces, circles and spheres; it is
    taken over every id, and the move's report must give the same one.
    """
    largest = {}
    for r, sb, k in ((6, 16, 32), (12, 64, 256)):
        def scope_size(args, _):
            before, after, index, *reported = args[:6]
            scope = position._delta_scope(before, after, index, *_every_id(before, after))
            assert position._delta_scope(before, after, index, *reported) == scope
            return sum(map(len, scope[:3]))

        with recorded(position._validate_delta, scope_size) as sizes:
            base = random_normal_torus(build_standard(r), 1, sb)
            assert len(normalize(perturb(base, 7, k)).trace) == k
        assert len(sizes) == 2 * k
        largest[r, sb, k] = max(sizes)
    assert all(size <= 16 for size in largest.values()), largest
    print(f"largest scope per step: {largest}")
