from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normaltori.fixtures import make_t0
from normaltori.graphs import (
    Attachment,
    GraphError,
    HalfEdge,
    SphereGraph,
    build_standard,
    label_generators,
    random_cubic,
    validate_graph,
    walk,
)
from normaltori.serialize import graph_from_json, graph_to_json


def test_standard_rank2_is_theta():
    g = build_standard(2)
    assert len(g.p_vertices) == 2
    assert len(g.sphere_edges) == 3
    assert len(g.sphere_edges) - len(g.p_vertices) + 1 == 2
    for s in g.sphere_edges:
        assert set(g.ends_of(s)) == {"p0", "p1"}
    assert validate_graph(g) == []


def test_standard_rank3_counts():
    g = build_standard(3)
    assert len(g.p_vertices) == 4
    assert len(g.sphere_edges) == 6
    assert validate_graph(g) == []


def test_standard_rank1_rejected():
    with pytest.raises(GraphError, match="rank below 2"):
        build_standard(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_standard_euler_counts(n):
    g = build_standard(n)
    v, e = len(g.p_vertices), len(g.sphere_edges)
    assert 3 * v == 2 * e
    assert e - v + 1 == n
    assert validate_graph(g) == []


def test_validator_flags_missing_edge():
    g = build_standard(2)
    incidence = {he: att for he, att in g.incidence.items() if he.sphere != "s2"}
    g = SphereGraph(g.rank, g.p_vertices, [s for s in g.sphere_edges if s != "s2"], incidence)
    problems = validate_graph(g)
    assert any("p0 has 2 half-edges" in p for p in problems)


def test_validator_flags_disconnected():
    # two disjoint theta blocks, betti bookkeeping forced to match
    g1 = build_standard(2)
    incidence = dict(g1.incidence)
    vertices = list(g1.p_vertices) + ["q0", "q1"]
    edges = list(g1.sphere_edges)
    for j in range(3):
        s = f"u{j}"
        edges.append(s)
        incidence[HalfEdge(s, 0)] = Attachment("q0", j)
        incidence[HalfEdge(s, 1)] = Attachment("q1", j)
    g = SphereGraph(3, vertices, edges, incidence)
    problems = validate_graph(g)
    assert "graph disconnected" in problems


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=5), seed=st.integers(min_value=0, max_value=10_000))
def test_random_cubic_is_valid_and_deterministic(n, seed):
    g1 = random_cubic(n, seed)
    g2 = random_cubic(n, seed)
    assert g1 == g2
    assert validate_graph(g1) == []


def test_random_cubic_rank1_rejected():
    with pytest.raises(GraphError, match="rank below 2 unsupported"):
        random_cubic(1, 0)


def test_validator_flags_low_rank_foreign_sphere_and_missing_end():
    g = build_standard(2)
    low = SphereGraph(1, g.p_vertices, g.sphere_edges, g.incidence)
    assert validate_graph(low) == ["rank 1 below 2", "betti number 2 differs from rank 1"]
    foreign = SphereGraph(2, g.p_vertices, g.sphere_edges, {**g.incidence, HalfEdge("s9", 0): Attachment("p0", 0)})
    assert validate_graph(foreign) == ["half-edge s9@0 references unknown sphere"]
    incidence = {he: att for he, att in g.incidence.items() if he != HalfEdge("s1", 1)}
    open_end = SphereGraph(2, g.p_vertices, g.sphere_edges, incidence)
    assert validate_graph(open_end) == ["sphere s1 missing end 1", "P-vertex p1 has 2 half-edges"]


def test_random_cubic_rank2_shape():
    g = random_cubic(2, 0)
    assert len(g.p_vertices) == 2
    assert len(g.sphere_edges) == 3


def test_label_generators_theta():
    g = build_standard(2)
    lab = label_generators(g)
    assert lab.spanning_tree == {"s0"}
    assert set(lab.labels) == {"s1", "s2"}
    assert lab.labels["s1"][0] == 1
    assert lab.labels["s2"][0] == 2


def test_label_generators_dumbbell():
    incidence = {
        HalfEdge("l0", 0): Attachment("p0", 0),
        HalfEdge("l0", 1): Attachment("p0", 1),
        HalfEdge("l1", 0): Attachment("p1", 0),
        HalfEdge("l1", 1): Attachment("p1", 1),
        HalfEdge("b", 0): Attachment("p0", 2),
        HalfEdge("b", 1): Attachment("p1", 2),
    }
    g = SphereGraph(2, ["p0", "p1"], ["b", "l0", "l1"], incidence)
    assert validate_graph(g) == []
    lab = label_generators(g)
    assert lab.spanning_tree == {"b"}
    assert lab.labels["l0"][0] == 1
    assert lab.labels["l1"][0] == 2


def test_label_count_matches_rank():
    g = random_cubic(3, 1)
    lab = label_generators(g)
    assert len(lab.labels) == 3
    assert len(lab.spanning_tree) == len(g.p_vertices) - 1


def test_word_letter_orientation():
    g = build_standard(2)
    lab = label_generators(g)
    idx, sign = lab.word_letter("s1", lab.labels["s1"][1])
    assert (idx, sign) == (1, 1)
    idx, sign = lab.word_letter("s1", 1 - lab.labels["s1"][1])
    assert (idx, sign) == (1, -1)
    assert lab.word_letter("s0", 0) is None


def test_random_cubic_rank4_seed7_valid():
    assert validate_graph(random_cubic(4, 7)) == []


def _scan(g: SphereGraph, pants: str) -> list[HalfEdge]:
    """The per-pants scan that the graph's table replaced: the half-edges at ``pants``, by slot."""
    at = [(att.slot, he) for he, att in g.incidence.items() if att.pants == pants]
    return [he for _, he in sorted(at)]


def _assert_table_matches_scan(g: SphereGraph) -> None:
    named = {att.pants for att in g.incidence.values()}
    assert g.by_pants.keys() == {*g.p_vertices, *named}
    for pants in {*g.p_vertices, *named, "nowhere"}:
        assert list(g.half_edges_at(pants)) == _scan(g, pants)


@pytest.mark.parametrize("n", range(2, 9))
def test_half_edges_at_matches_the_scan_on_standard_graphs(n):
    _assert_table_matches_scan(build_standard(n))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=10_000))
def test_half_edges_at_matches_the_scan_on_random_graphs(n, seed):
    _assert_table_matches_scan(random_cubic(n, seed))


@pytest.mark.parametrize("pants, slot, counts", [
    ("p1", 3, {"p0": 2, "p1": 4}),  # one end moved onto another pants
    ("q9", 0, {"p0": 2, "q9": 1}),  # one end at a pants the graph does not list
])
def test_half_edges_at_matches_the_scan_on_loaded_malformed_graphs(pants, slot, counts):
    obj = graph_to_json(build_standard(3))
    obj["edges"][0]["ends"][0] = {"p": pants, "slot": slot}
    g = graph_from_json(obj)
    assert {p: len(g.half_edges_at(p)) for p in counts} == counts
    assert validate_graph(g) != []
    _assert_table_matches_scan(g)


def test_graph_is_an_immutable_value():
    g = build_standard(3)
    for name, value in (("rank", 4), ("p_vertices", ()), ("sphere_edges", ()), ("incidence", {}), ("by_pants", {})):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, value)
    he = HalfEdge("s0", 0)
    with pytest.raises(TypeError):
        g.incidence[he] = Attachment("p1", 0)
    with pytest.raises(TypeError):
        del g.incidence[he]
    with pytest.raises(TypeError):
        g.by_pants["p0"] = ()
    assert copy.deepcopy(g) is g
    assert pickle.loads(pickle.dumps(g)) == g
    t = make_t0()
    assert t.clone().graph is t.graph


def test_graph_from_lists_equals_graph_from_tuples():
    g = build_standard(3)
    incidence = dict(g.incidence)
    from_lists = SphereGraph(3, list(g.p_vertices), list(g.sphere_edges), incidence)
    from_tuples = SphereGraph(3, tuple(g.p_vertices), tuple(g.sphere_edges), dict(g.incidence))
    assert from_lists == from_tuples == g
    assert type(from_lists.p_vertices) is tuple and type(from_lists.sphere_edges) is tuple
    incidence[HalfEdge("s0", 0)] = Attachment("p3", 0)  # the graph keeps its own copy
    assert from_lists == g
    assert from_lists.half_edges_at("p0") == g.half_edges_at("p0")


def _parent_connected(g: SphereGraph) -> bool:
    """The connectivity check the one graph walk replaced: a deque BFS over neighbour sets from the first pants."""
    neighbors: dict[str, set[str]] = {p: set() for p in g.p_vertices}
    for s in g.sphere_edges:
        a, b = g.ends_of(s)
        neighbors[a].add(b)
        neighbors[b].add(a)
    reached = {g.p_vertices[0]}
    queue = deque(reached)
    while queue:
        for q in neighbors.get(queue.popleft(), ()):
            if q not in reached:
                reached.add(q)
                queue.append(q)
    return len(reached) == len(g.p_vertices)


def _parent_labeling(g: SphereGraph) -> tuple[set[str], dict[str, tuple[int, int]]]:
    """The spanning tree and labels of ``label_generators``' own deque BFS, which the one graph walk replaced."""
    root = min(g.p_vertices)
    tree: set[str] = set()
    reached = {root}
    frontier = deque([root])
    by_pants: dict[str, list[str]] = {p: [] for p in g.p_vertices}
    for s in sorted(g.sphere_edges):
        a, b = g.ends_of(s)
        by_pants[a].append(s)
        if b != a:
            by_pants[b].append(s)
    while frontier:
        p = frontier.popleft()
        for s in by_pants[p]:
            a, b = g.ends_of(s)
            q = b if a == p else a
            if q not in reached:
                reached.add(q)
                tree.add(s)
                frontier.append(q)
    labels: dict[str, tuple[int, int]] = {}
    idx = 1
    for s in sorted(g.sphere_edges):
        if s in tree:
            continue
        a, b = g.ends_of(s)
        labels[s] = (idx, 0 if a <= b else 1)
        idx += 1
    return tree, labels


def _stub_pairing(n: int, rng: random.Random) -> SphereGraph:
    """A cubic multigraph of betti ``n`` from one shuffled pairing of its stubs, connected or not."""
    p_vertices = [f"p{i}" for i in range(2 * n - 2)]
    stubs = [(p, slot) for p in p_vertices for slot in range(3)]
    rng.shuffle(stubs)
    incidence = {}
    for i in range(0, len(stubs), 2):
        incidence[HalfEdge(f"s{i // 2}", 0)] = Attachment(*stubs[i])
        incidence[HalfEdge(f"s{i // 2}", 1)] = Attachment(*stubs[i + 1])
    return SphereGraph(n, p_vertices, [f"s{i}" for i in range(3 * n - 3)], incidence)


def test_walk_stops_after_a_component_with_a_bad_cycle():
    """The least node's component holds an odd cycle, so the walk stops there and leaves c and d unreached."""
    reached, side, _, bad = walk(["a", "b", "c", "d"], [("e1", "a", "b", True), ("e2", "a", "b", False),
                                                         ("e3", "c", "d", False)])
    assert (reached, list(side), bad) == (2, ["a", "b"], ["a", "b"])


def test_the_graph_walk_reads_what_the_parent_searches_read():
    """Connectivity, spanning tree and labels off ``graphs.walk`` equal the two deque searches it replaced."""
    rng = random.Random(24)
    grid = [build_standard(n) for n in range(2, 13)]
    grid += [random_cubic(n, seed) for n in range(2, 13) for seed in range(50)]
    grid += [_stub_pairing(n, rng) for n in range(2, 9) for _ in range(300)]
    disconnected = 0
    for g in grid:
        connected = _parent_connected(g)
        assert g.problems == (() if connected else ("graph disconnected",))
        if not connected:
            disconnected += 1
            with pytest.raises(GraphError, match="graph disconnected"):
                label_generators(g)
            continue
        lab = label_generators(g)
        assert (lab.spanning_tree, lab.labels) == _parent_labeling(g)
        assert list(lab.labels) == sorted(lab.labels)
    assert len(grid) == 2661
    assert disconnected > 0
