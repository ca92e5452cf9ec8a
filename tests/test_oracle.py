from __future__ import annotations

import pytest

from normaltori.fixtures import make_t0, make_t2
from normaltori.graphs import build_standard, random_cubic
from normaltori.moves import find_moves, normalize
from normaltori.normal_graph import bounds_solid_torus, decorate, equivalent, to_normal_torus
from normaltori.oracle import (
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
    from normaltori.position import RegionTree, TorusPosition

    g = theta_graph()
    trees = {s: RegionTree(s, {f"q{i}"}, {}) for i, s in enumerate(g.sphere_edges)}
    empty = TorusPosition(g, {}, {}, trees, {})
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


def test_minimality_experiment_passes():
    report = minimality_experiment(make_t0(), 40, 5, seed=7)
    assert report.passed()
    assert report.trials == 40
    assert all(run["trace_len"] == run["k"] for run in report.runs)


def test_minimality_vacuous_at_k_zero():
    report = minimality_experiment(make_t0(), 1, 0, seed=0)
    assert report.passed()


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
        return t.clone()

    monkeypatch.setattr(oracle, "_apply_inverse", no_op)
    with pytest.raises(PositionError, match=r"inverse move \('(dome|finger)'.* did not raise the total by one"):
        perturb(make_t0(), 0, 1)
    assert len(tried) == 1
