"""Acceptance suite.

Each test realizes one acceptance criterion at desk scale (ranks 2-4,
at most 30 circles) and prints a single pass line with the evidence
counts.  Tolerances are exact: the engine is combinatorial, so every
criterion is an all-or-nothing property over its corpus.
"""

from __future__ import annotations

import time

from conftest import criterion_3_inputs, make_u_tubes

from normaltori.fixtures import make_klein, make_t0, make_t1, make_t2
from normaltori.graphs import build_standard, label_generators, random_cubic
from normaltori.moves import NormalizeError, apply_move, find_moves, normalize
from normaltori.normal_graph import (
    KleinBottleError,
    axis_word,
    bounds_solid_torus,
    canonicalize,
    decorate,
    equivalent,
    format_word,
    sides,
    to_normal_torus,
)
from normaltori.oracle import confluence_search, minimality_experiment, perturb, random_normal_torus
from normaltori.position import (
    intersection_vector,
    is_normal,
    validate_position,
)

RANKS = (2, 3, 4)


def piece_graph_betti(t) -> int:
    """First betti number of the piece graph: circles are its edges, pieces its vertices."""
    return len(t.circles) - len(t.pieces) + 1


def _graphs_for(rank: int):
    return [build_standard(rank), random_cubic(rank, rank), random_cubic(rank, 100 + rank)]


def _fuzz_corpus(per_graph: int, size: int = 4):
    for rank in RANKS:
        for g in _graphs_for(rank):
            for seed in range(per_graph):
                yield rank, g, random_normal_torus(g, seed, size)


def test_criterion_1_normalization_soundness():
    """Every fuzzed trace drops the total by one per move, no stuck states."""
    started = time.time()
    instances = 0
    stuck = 0
    for rank, g, base in _fuzz_corpus(per_graph=38):
        for i in range(3):
            k = (instances % 8) + 1
            perturbed = perturb(base, 1_000 + 37 * instances, k)
            try:
                result = normalize(perturbed)  # per-step count checks are built in
            except NormalizeError as exc:
                if "stuck" in str(exc):
                    stuck += 1
                    continue
                raise
            assert len(result.trace) == k
            assert intersection_vector(result.position) == intersection_vector(base)
            for record in result.trace:
                assert sum(record.counts_after.values()) == sum(record.counts_before.values()) - 1
                assert all(
                    record.counts_after[s] <= record.counts_before[s]
                    for s in record.counts_before
                )
            instances += 1
    elapsed = time.time() - started
    assert instances >= 1000
    assert stuck == 0
    assert elapsed < 120
    print(f"PASS criterion 1: {instances} fuzzed normalizations, 0 stuck, {elapsed:.1f}s")


def test_criterion_2_idempotence():
    """Normalize returns an empty trace on every random normal torus."""
    count = 0
    for rank in RANKS:
        for g in _graphs_for(rank):
            for seed in range(56):
                t = random_normal_torus(g, 5_000 + seed, 2 + seed % 5)
                result = normalize(t)
                assert result.trace == []
                count += 1
    assert count >= 500
    print(f"PASS criterion 2: empty trace on {count}/{count} normal inputs")


def test_criterion_3_unique_normal_form():
    """Exhaustive move-order search always ends in one decorated form."""
    checked = explored = 0
    for label, p in criterion_3_inputs():
        result = confluence_search(p)
        assert result.confluent and len(result.outcomes) == 1 and result.stuck == 0, f"{label}: {result.outcomes}"
        checked += 1
        explored += result.explored
    assert checked >= 200
    # The state key decides which states dedup, so it alone moves this total.
    assert (checked, explored) == (219, 1508)
    print(f"PASS criterion 3: single canonical outcome on {checked} exhaustive searches, {explored} states explored")


def test_criterion_4_minimality():
    """Per-sphere counts of the normal form are minimal under perturbation."""
    started = time.time()
    trials = 0
    for base, n in ((make_t0(), 1000), (make_t2(), 1000)):
        report = minimality_experiment(base, n, 5, seed=42)
        assert report.passed(), report.failures[0].detail
        trials += report.trials
    for rank in RANKS:
        per_torus = 50  # 1000 trials spread over the rank's twenty tori
        for seed in range(20):
            g = _graphs_for(rank)[seed % 3]
            base = random_normal_torus(g, 300 + seed, 4)
            report = minimality_experiment(base, per_torus, 5, seed=777 + seed)
            assert report.passed(), report.failures[0].detail
            trials += report.trials
    elapsed = time.time() - started
    print(f"PASS criterion 4: {trials} minimality trials, 0 failures, {elapsed:.1f}s")


def test_criterion_5_decoration_laws():
    """Disk leaves signed oppositely; flip/relabel invariance; solid-torus law."""
    checked = 0
    for rank, g, base in _fuzz_corpus(per_graph=17):
        result = normalize(perturb(base, 50_000 + checked, (checked % 5) + 1))
        nt = result.torus
        d = decorate(nt)
        for node, (_, kind) in nt.nodes.items():
            if kind == "disk":
                signs = sorted(s for leaf, s in d.signs.items() if leaf.node == node)
                assert signs == ["+", "-"]
        base_piece = min(nt.nodes)
        assert canonicalize(decorate(nt, base_piece, "A")) == canonicalize(
            decorate(nt, base_piece, "B")
        )
        relabeled = result.position.clone()
        mapping = {pid: f"Q{i}" for i, pid in enumerate(sorted(relabeled.pieces, reverse=True))}
        relabeled.pieces = {
            mapping[pid]: piece for pid, piece in relabeled.pieces.items()
        }
        for new_id, piece in relabeled.pieces.items():
            piece.id = new_id
        d_re = decorate(to_normal_torus(relabeled))
        assert canonicalize(d_re) == canonicalize(d)
        pos, neg = sides(d)
        labels = set(d.signs.values())
        assert bounds_solid_torus(d) == (not pos or not neg) == (len(labels) <= 1)
        checked += 1
    assert checked >= 150
    print(f"PASS criterion 5: decoration laws on {checked} decorated graphs")


def test_criterion_6_structural_invariants():
    """Validity, betti one, type counts and axis words along every trace."""
    moves_checked = 0
    instances = 0
    for rank, g, base in _fuzz_corpus(per_graph=4):
        lab = label_generators(g)
        current = perturb(base, 60_000 + instances, (instances % 4) + 1)
        assert validate_position(current) == []
        while True:
            moves = find_moves(current)
            if not moves:
                break
            current = apply_move(current, moves[0])
            assert validate_position(current) == []
            if all(p.genus == 0 for p in current.pieces.values()):
                assert piece_graph_betti(current) == 1
            moves_checked += 1
        ok, _ = is_normal(current)
        assert ok
        nt = to_normal_torus(current)
        kinds = [kind for _, kind in nt.nodes.values()]
        assert kinds.count("disk") == kinds.count("pants")
        word = axis_word(nt, lab)
        assert word, "axis word must be nonempty"
        # label_generators shares no code with canonicalize: an independent oracle of the class
        assert word == axis_word(to_normal_torus(base), lab), "perturbing then normalizing changed the axis word"
        instances += 1
    klein = make_klein()
    problems = validate_position(klein)
    assert "monodromy nontrivial on cycle (F0,F1)" in problems
    try:
        decorate(to_normal_torus(klein))
        raise AssertionError("Klein bottle decoration must fail")
    except KleinBottleError:
        pass
    try:
        normalize(make_u_tubes())
        raise AssertionError("self-banded fixpoint must report stuck")
    except NormalizeError as exc:
        assert "stuck non-normal" in str(exc)
    print(
        f"PASS criterion 6: invariants held across {instances} traces "
        f"({moves_checked} moves), each ending on its base's axis word; Klein-bottle input rejected"
    )


def test_criterion_7_fixture_regression():
    """t1 normalizes to t0 in one move; axis words pin the x1 class."""
    result = normalize(make_t1())
    assert len(result.trace) == 1
    assert intersection_vector(result.position) == {"s0": 1, "s1": 1, "s2": 0}
    d_t0 = decorate(to_normal_torus(make_t0()))
    assert equivalent(decorate(result.torus), d_t0)
    lab = label_generators(make_t0().graph)
    w0 = format_word(axis_word(to_normal_torus(make_t0()), lab))
    w2 = format_word(axis_word(to_normal_torus(make_t2()), lab))
    assert w0 == "x1"
    assert w2 == "x1"
    print("PASS criterion 7: t1 -> t0 in one slide; axis words x1 = x1")
