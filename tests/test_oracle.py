from __future__ import annotations

import hashlib
import json
from itertools import product

import pytest

from dataclasses import replace

from conftest import PLANTS, criterion_3_inputs, edited, is_loop, make_u_tubes, recorded, swapped
from normaltori.cli import main
from normaltori.fixtures import make_t0, make_t2
from normaltori.graphs import GraphError, SphereGraph, build_standard, random_cubic, validate_graph
from normaltori.moves import Slide, apply_move, find_moves, normalize
from normaltori.normal_graph import bounds_solid_torus, canonicalize, decorate, equivalent, to_normal_torus
from normaltori.oracle import (
    ConfluenceResult,
    confluence_search,
    minimality_experiment,
    perturb,
    random_normal_torus,
    roundtrip_report,
)
from normaltori.position import (
    PositionError,
    intersection_vector,
    is_normal,
    piece_kind,
    total_intersections,
    validate_position,
)
from normaltori.serialize import dumps, load_any, position_to_json

# SHA-256 of every generated position's JSON over the grid in
# ``test_generated_positions_are_pinned``: ids, region names and draw
# order included.  A change to how the generator draws must list the old
# and the new value.
GENERATED = "5f248993627b57de74c55d8d930f033e354e6018f60c1daeb898bd4d301ba786"


def test_random_normal_torus_smallest_is_two_cylinders():
    g = build_standard(2)
    t = random_normal_torus(g, 0, 2)
    assert len(t.pieces) == 2
    assert sorted(piece_kind(p) for p in t.pieces.values()) == ["cylinder", "cylinder"]
    assert is_normal(t)[0]


def test_random_normal_torus_deterministic():
    g = build_standard(3)
    a = random_normal_torus(g, 17, 5)
    b = random_normal_torus(g, 17, 5)
    assert intersection_vector(a) == intersection_vector(b)
    assert equivalent(decorate(to_normal_torus(a)), decorate(to_normal_torus(b)))


def test_generated_positions_are_pinned():
    digest = hashlib.sha256()
    for rank in range(2, 9):
        for g in (build_standard(rank), random_cubic(rank, rank), random_cubic(rank, rank + 7)):
            for bound, seed in product((1, 2, 4, 8, 16, 64, 256), range(3)):
                digest.update(dumps(position_to_json(random_normal_torus(g, seed, bound))).encode())
    assert digest.hexdigest() == GENERATED


def test_random_normal_torus_rejects_an_invalid_graph():
    g = build_standard(2)
    bad = SphereGraph(g.rank, (*g.p_vertices, "p9"), g.sphere_edges, g.incidence)
    want = "; ".join(validate_graph(bad))
    assert "P-vertex p9 has 0 half-edges" in want
    for seed in range(6):
        with pytest.raises(GraphError) as info:
            random_normal_torus(bad, seed)
        assert str(info.value) == want


def test_random_normal_torus_rejects_a_size_bound_below_one():
    with pytest.raises(PositionError) as info:
        random_normal_torus(build_standard(2), 0, 0)
    assert str(info.value) == "size bound must allow at least one piece"


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_random_normal_torus_always_normal(rank):
    g = build_standard(rank)
    for seed in range(15):
        t = random_normal_torus(g, seed, 5)
        assert validate_position(t) == []
        assert is_normal(t)[0]


def test_perturb_matches_t1_shape():
    t0 = make_t0()
    for seed in range(30):
        p = perturb(t0, seed, 1)
        assert total_intersections(p) == 3
        assert validate_position(p) == []
        moves = find_moves(p)
        assert moves, "a single inverse move must leave an undo move"
        result = normalize(p)
        assert len(result.trace) == 1
        assert equivalent(decorate(result.torus), decorate(to_normal_torus(t0)))


def test_perturb_count_arithmetic():
    t0 = make_t0()
    p = perturb(t0, 4, 3)
    assert total_intersections(p) == 5


def test_perturb_deterministic():
    t2 = make_t2()
    a = perturb(t2, 99, 4)
    b = perturb(t2, 99, 4)
    assert intersection_vector(a) == intersection_vector(b)


def test_perturb_rejects_nothing_to_do():
    from normaltori.fixtures import theta_graph
    from normaltori.position import RegionTree, position_of

    g = theta_graph()
    trees = {s: RegionTree(s, {f"q{i}"}, {}) for i, s in enumerate(g.sphere_edges)}
    empty = position_of(g, {}, {}, trees, {})
    with pytest.raises(PositionError):
        perturb(empty, 0, 1)


def test_confluence_on_normal_is_trivial():
    result = confluence_search(make_t0())
    assert result.confluent
    assert len(result.outcomes) == 1
    assert result.explored == 1


def test_confluence_single_move_instance():
    from normaltori.fixtures import make_t1

    result = confluence_search(make_t1())
    assert result.confluent
    assert len(result.outcomes) == 1


@pytest.mark.parametrize("k, explored", [(2, 6), (4, 30), (6, 56), (8, 182)])
def test_confluence_explored_counts(k, explored):
    # A less canonical state key explores more duplicates; the CLI prints this count.
    result = confluence_search(perturb(make_t2(), 3, k))
    assert result.confluent
    assert result.explored == explored


def test_confluence_counts_stuck_end_states():
    """The u-tubes' one move leads to two end states that admit no move and are not normal: stuck, so not confluent."""
    assert confluence_search(make_u_tubes()) == ConfluenceResult(False, [], 2, 3)


def _reference_colours(t) -> list[tuple[dict, dict, dict]]:
    """Piece, circle and region colours before and after each of 4 refinement rounds.

    The colour refinement of the string-building state key that
    ``oracle._state_key`` replaced: it always runs 4 rounds and rebuilds
    every incidence each round.
    """
    piece_color = _reference_intern(
        {pid: (p.pants, p.genus, tuple(sorted(p.uncrossed.items()))) for pid, p in t.pieces.items()}
    )
    circle_color = _reference_intern({cid: (c.sphere, t.transport[cid]) for cid, c in t.circles.items()})
    index = t.circle_slots()
    region_color = _reference_intern(
        {r: (s, len(tree.neighbors.get(r, ()))) for s, tree in t.trees.items() for r in tree.regions}
    )
    rounds = [(piece_color, circle_color, region_color)]
    for _ in range(4):
        new_piece = {}
        for pid, p in t.pieces.items():
            sig = tuple(
                sorted((slot.half_edge, circle_color[slot.circle], region_color[slot.region_a]) for slot in p.boundary)
            )
            new_piece[pid] = (piece_color[pid], sig)
        new_circle = {}
        for cid in t.circles:
            ends = tuple(
                (slot.half_edge.end, piece_color[piece.id]) for piece, slot in sorted(
                    index.get(cid, []), key=lambda ps: ps[1].half_edge.end
                )
            )
            a, b = t.trees[t.circles[cid].sphere].edges[cid]
            new_circle[cid] = (circle_color[cid], ends, tuple(sorted((region_color[a], region_color[b]))))
        new_region = {}
        for tree in t.trees.values():
            for r in tree.regions:
                inc = tuple(sorted(circle_color[c] for c, _ in tree.neighbors.get(r, ())))
                new_region[r] = (region_color[r], inc)
        piece_color, circle_color, region_color = (
            _reference_intern(new_piece), _reference_intern(new_circle), _reference_intern(new_region)
        )
        rounds.append((piece_color, circle_color, region_color))
    return rounds


def _reference_state_key(t, piece_color, circle_color, region_color) -> str:
    """The string the replaced state key built from its final colours."""
    rename_p = {pid: f"P{i}" for i, pid in enumerate(sorted(t.pieces, key=lambda x: (piece_color[x], x)))}
    rename_c = {cid: f"C{i}" for i, cid in enumerate(sorted(t.circles, key=lambda x: (circle_color[x], x)))}
    rename_r = {}
    for s in sorted(t.trees):
        for i, r in enumerate(sorted(t.trees[s].regions, key=lambda x: (region_color[x], x))):
            rename_r[r] = f"R{s}.{i}"
    parts = []
    for pid in sorted(t.pieces, key=lambda x: rename_p[x]):
        p = t.pieces[pid]
        slots = sorted(
            (slot.half_edge, rename_c[slot.circle], rename_r[slot.region_a]) for slot in p.boundary
        )
        unc = tuple(sorted((he, side) for he, side in p.uncrossed.items()))
        parts.append(str((rename_p[pid], p.pants, p.genus, slots, unc)))
    for cid in sorted(t.circles, key=lambda x: rename_c[x]):
        a, b = t.trees[t.circles[cid].sphere].edges[cid]
        parts.append(
            str((rename_c[cid], t.circles[cid].sphere, t.transport[cid], tuple(sorted((rename_r[a], rename_r[b])))))
        )
    return "&".join(parts)


def _reference_intern(signatures: dict) -> dict:
    rank = {sig: i for i, sig in enumerate(sorted(set(signatures.values())))}
    return {x: rank[sig] for x, sig in signatures.items()}


def test_state_key_partitions_like_the_reference():
    """On every state popped by criterion 3's searches: key equal <=> reference key equal.

    States are compared across searches on one graph too, which sees more
    pairs than the searches' own dedup does.
    """
    from normaltori import oracle

    # (graph, state, key) per popped state
    with recorded(oracle._state_key,
                  lambda args, key: (tuple(sorted(args[0].graph.incidence.items())), args[0], key)) as popped:
        explored = sum(confluence_search(p).explored for _, p in criterion_3_inputs())
    assert explored == 1508
    new_to_old, old_to_new, stops = {}, {}, set()
    for graph, t, k in popped:
        rounds = _reference_colours(t)
        counts = [tuple(len(set(colors.values())) for colors in r) for r in rounds]
        # Equal counts mean equal colours, which is why the key may stop there.
        assert all(rounds[i] == rounds[i - 1] for i in range(1, 5) if counts[i] == counts[i - 1])
        stops.add(next((i for i in range(1, 4) if counts[i] == counts[i - 1]), 4))
        new, old = (graph, k), (graph, _reference_state_key(t, *rounds[-1]))
        assert new_to_old.setdefault(new, old) == old, "the key merges states the reference tells apart"
        assert old_to_new.setdefault(old, new) == new, "the key splits a class of the reference"
    assert {1, 4} <= stops, "both the early stop and the full 4 rounds are exercised"


def test_confluence_matches_normalize_result():
    t = perturb(make_t2(), 21, 2)
    result = confluence_search(t)
    assert result.confluent
    normal = normalize(t)
    assert result.outcomes[0] == __import__(
        "normaltori.normal_graph", fromlist=["canonicalize"]
    ).canonicalize(decorate(normal.torus))


def test_confluence_depth_guard():
    t = perturb(make_t0(), 0, 3)
    with pytest.raises(PositionError, match="state space too large"):
        confluence_search(t, depth_bound=2)


@pytest.mark.parametrize("make", [make_t0, make_t2])
def test_confluence_rejects_a_missing_transport_bit(make):
    """A position without a circle's transport bit raised ``KeyError`` from the state key."""
    t = edited(make(), transport={"c0": None})
    with pytest.raises(PositionError, match=r"^circle c0 missing side transport bit$"):
        confluence_search(t)


def test_minimality_experiment_passes():
    report = minimality_experiment(make_t0(), 40, 5, seed=7)
    assert report.passed()
    assert report.trials == 40
    assert all(run["trace_len"] == run["k"] for run in report.runs)


def test_minimality_vacuous_at_k_zero():
    report = minimality_experiment(make_t0(), 1, 0, seed=0)
    assert report.passed()


@pytest.mark.parametrize(
    "call, args",
    [
        (perturb, (0, -1)),
        (minimality_experiment, (-3, 3)),
        (minimality_experiment, (3, -1)),
        (roundtrip_report, (-3, 3)),
        (roundtrip_report, (3, -1)),
    ],
)
def test_negative_counts_rejected(call, args):
    with pytest.raises(PositionError, match=r"-\d"):
        call(make_t0(), *args)
    zero = tuple(max(n, 0) for n in args)
    assert call(make_t0(), *zero) is not None  # zero stays allowed


def test_minimality_requires_normal_input():
    from normaltori.fixtures import make_t1

    with pytest.raises(PositionError, match="normal"):
        minimality_experiment(make_t1(), 1, 1)


def test_roundtrip_solid_torus_stability():
    report = roundtrip_report(make_t0(), 25, 5, seed=3)
    assert report.passed()
    base = decorate(to_normal_torus(make_t0()))
    assert bounds_solid_torus(base)
    report2 = roundtrip_report(make_t2(), 25, 5, seed=3)
    assert report2.passed()


def test_failure_reports_carry_counterexamples():
    report = minimality_experiment(make_t0(), 5, 3, seed=1)
    payload = report.to_json()
    assert payload["kind"] == "fuzz_report"
    assert payload["failures"] == []
    assert len(payload["runs"]) == 5


def test_random_graphs_roundtrip():
    for rank in (2, 3):
        g = random_cubic(rank, rank)
        for seed in range(3):
            base = random_normal_torus(g, seed, 4)
            report = roundtrip_report(base, 6, 4, seed=seed)
            assert report.passed(), report.failures[0].detail


def test_some_seed_reproduces_t1_exactly():
    """A k=1 dome split of the s0 circle is the t1 desk fixture up to ids."""
    from normaltori.fixtures import make_t1
    from normaltori.normal_graph import canonicalize

    t0 = make_t0()
    t1 = make_t1()
    want = {
        "vector": intersection_vector(t1),
        "kinds": sorted(
            (len(p.boundary), p.pants) for p in t1.pieces.values()
        ),
    }
    for seed in range(60):
        p = perturb(t0, seed, 1)
        got = {
            "vector": intersection_vector(p),
            "kinds": sorted((len(q.boundary), q.pants) for q in p.pieces.values()),
        }
        if got == want:
            moves = find_moves(p)
            slide = moves[0]
            assert slide.piece in p.pieces
            return
    raise AssertionError("no seed produced the t1 shape")


def test_perturb_includes_inverse_caps():
    t0 = make_t0()
    for seed in range(60):
        p = perturb(t0, seed, 1)
        if intersection_vector(p)["s2"] == 1:
            # a finger through the untouched sphere: the inverse cap shape
            assert len(p.pieces) == 3
            return
    raise AssertionError("no finger perturbation sampled")


def test_rejected_inverse_move_raises_at_once(monkeypatch):
    from normaltori import oracle

    tried = []

    def no_op(t, cand):
        tried.append(cand)
        return edited(t), set(), set(), None

    monkeypatch.setattr(oracle, "_inverse", no_op)
    with pytest.raises(PositionError, match=r"inverse move \('(dome|finger)'.* did not raise the total by one"):
        perturb(make_t0(), 0, 1)
    assert len(tried) == 1


def test_perturb_validates_input_before_drawing():
    from normaltori.fixtures import make_klein

    with pytest.raises(PositionError, match=r"^invalid position: monodromy nontrivial on cycle \(F0,F1\)$"):
        perturb(make_klein(), 3, 2)


def _flip_gauge(t, pid):
    """Swap one piece's A and B sides: same surface, other labels and bits."""
    piece = t.pieces[pid]
    uncrossed = {he: "B" if side == "A" else "A" for he, side in piece.uncrossed.items()}
    boundary = [slot._replace(region_a=t.trees[slot.half_edge.sphere].other_region(slot.circle, slot.region_a))
                for slot in piece.boundary]
    transport = {}
    for slot in piece.boundary:
        transport[slot.circle] = not transport.get(slot.circle, t.transport[slot.circle])
    return edited(t, pieces={pid: replace(piece, boundary=boundary, uncrossed=uncrossed)}, transport=transport)


def _candidates_by_side_of_region(t):
    """The inverse-move candidates, read region by region off ``side_of_region``."""
    from normaltori.position import end_slot, side_of_region

    cands = []
    for cid in sorted(t.circles):
        a, b = t.trees[t.circles[cid].sphere].adjacent(cid)
        for host_end in (0, 1):
            host, _ = end_slot(t, cid, host_end)
            other, _ = end_slot(t, cid, 1 - host_end)
            if host.id != other.id:
                cands += [("dome", cid, host_end, rx) for rx in sorted((a, b))]
    for pid in sorted(t.pieces):
        piece = t.pieces[pid]
        mates = [o for o in t.pieces.values() if o.id != pid and o.pants == piece.pants]
        anchor = piece.boundary[0]
        for he in sorted(piece.uncrossed):
            for region in sorted(t.trees[he.sphere].regions):
                if all(
                    side_of_region(t, o, he, region) == side_of_region(t, o, anchor.half_edge, anchor.region_a)
                    for o in mates
                ):
                    cands.append(("finger", pid, he, region))
    return cands


def test_inverse_candidates_match_side_of_region():
    from test_step_check import _inverse_candidates

    corpus = []
    for rank in range(2, 7):
        for g in (build_standard(rank), random_cubic(rank, 5 * rank)):
            for seed in (rank, rank + 50):
                base = random_normal_torus(g, seed, 2 * rank)
                corpus += [perturb(base, 31 * seed + k, k) for k in (0, 4, 8, 12)]
                corpus.append(_flip_gauge(corpus[-1], min(corpus[-1].pieces)))
    loops = nested = flipped = narrowed = 0
    for t in corpus:
        assert validate_position(t) == []
        cands = _inverse_candidates(t)
        assert cands == _candidates_by_side_of_region(t)
        loops += any(is_loop(t.graph, s) for s in t.graph.sphere_edges)
        nested += any(
            sum(len(across) > 1 for across in tree.neighbors.values()) > 1 for tree in t.trees.values()
        )
        flipped += not all(t.transport.values())
        reachable = sum(len(t.trees[he.sphere].regions) for p in t.pieces.values() for he in p.uncrossed)
        narrowed += sum(c[0] == "finger" for c in cands) < reachable
    assert loops and nested and flipped and narrowed


def _regauging_slides(t, trace) -> int:
    """How many slides of ``trace``, replayed from ``t``, flip the transport bit of a circle they keep."""
    count = 0
    for record in trace:
        nxt = apply_move(t, record.move)
        kept = t.circles.keys() & nxt.circles.keys()
        count += type(record.move) is Slide and any(t.transport[c] != nxt.transport[c] for c in kept)
        t = nxt
    return count


def test_gauge_flips_do_not_matter():
    """Swapping the sides of any one piece of a perturbed torus changes no verdict of ``normalize``.

    The flipped position is the same surface with other labels and bits,
    so it is valid, and ``normalize`` takes it in as many moves to the same
    intersection vector and canonical code.  A flipped bit reaches the
    slides: some slide must regauge a far piece and so flip the bit of a
    circle it keeps, a branch that all-True generated bits never take.
    """
    flips = regauging = 0
    for rank in range(2, 6):
        for g, seed, k in product((build_standard(rank), random_cubic(rank, 3 * rank)), (rank, rank + 20), (3, 7, 12)):
            messy = perturb(random_normal_torus(g, seed, 2 + rank), 10 * seed + k, k)
            want = normalize(messy)
            code = canonicalize(decorate(want.torus))
            for pid in sorted(messy.pieces):
                flipped = _flip_gauge(messy, pid)
                assert validate_position(flipped) == []
                got = normalize(flipped)
                assert len(got.trace) == len(want.trace) == k
                assert intersection_vector(got.position) == intersection_vector(want.position)
                assert canonicalize(decorate(got.torus)) == code
                regauging += _regauging_slides(flipped, got.trace)
                flips += 1
    assert regauging
    print(f"{flips} gauge flips, {regauging} slides that regauge a kept circle")


def _outcome(experiment, t, seed: int):
    """``"raised"``, or the kinds of the failures ``experiment`` records on ``t``; each counterexample must be valid."""
    try:
        report = experiment(t, 6, 3, seed=seed)
    except PositionError:
        return "raised"
    for failure in report.failures:
        kind, position = load_any(failure.counterexample)
        assert kind == "position" and validate_position(position) == []
    return {failure.kind for failure in report.failures}


@pytest.mark.parametrize("bug", list(PLANTS))
def test_the_experiments_catch_planted_bugs(bug):
    """Two wrong move rules, each caught on every base by an error or a recorded failure with a counterexample.

    The merged circle of a slide gets the inverted transport bit, or a cap
    takes the disk's other side for its ball.  Unplanted, every base passes
    both experiments; the wrong cap side is caught by a raise on some bases
    and by each experiment's recorded failure on others.
    """
    bases = [(seed, random_normal_torus(build_standard(rank), seed, 8)) for rank in (2, 3, 4) for seed in range(4)]
    experiments = (minimality_experiment, roundtrip_report)
    assert all(_outcome(experiment, t, seed) == set() for seed, t in bases for experiment in experiments)
    with swapped(*PLANTS[bug]):
        outcomes = [[_outcome(experiment, t, seed) for experiment in experiments] for seed, t in bases]
    assert all(any(outcome) for outcome in outcomes)
    if bug == "wrong cap side":
        kinds = set().union(*(o for row in outcomes for o in row if o != "raised"))
        assert kinds == {"minimality", "roundtrip"}


def test_a_failing_report_writes_its_failures(tmp_path, capsys):
    """Under the wrong cap side, these bases give failing reports, not raises; each entry's counterexample is a valid position.

    ``minimality -o`` exits 1 and writes the report's entries.
    """
    failing = [(minimality_experiment, 3, 1), (minimality_experiment, 4, 1), (minimality_experiment, 4, 3),
               (roundtrip_report, 3, 2)]
    with swapped(*PLANTS["wrong cap side"]):
        for experiment, rank, seed in failing:
            t = random_normal_torus(build_standard(rank), seed, 8)
            entries = experiment(t, 6, 3, seed=seed).to_json()["failures"]
            assert entries
            for entry in entries:
                assert set(entry) == {"seed", "failure_kind", "detail", "counterexample"}
                assert entry["failure_kind"] == experiment.__name__.split("_")[0] and entry["detail"]
                kind, position = load_any(entry["counterexample"])
                assert kind == "position" and validate_position(position) == []
            if experiment is minimality_experiment:
                path, out = tmp_path / "base.json", tmp_path / "report.json"
                path.write_text(dumps(position_to_json(t)), encoding="utf-8")
                argv = ["minimality", str(path), "--trials", "6", "--depth", "3", "--seed", str(seed), "-o", str(out)]
                assert main(argv) == 1
                assert capsys.readouterr().out == f"minimality: 6 trials, {len(entries)} failures\n"
                assert json.loads(out.read_text(encoding="utf-8"))["failures"] == entries
