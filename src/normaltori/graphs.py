"""Cubic multigraphs modeling a maximal sphere system.

The manifold is a connected sum of n copies of S2 x S1, cut along a maximal
system of essential 2-spheres into 3-punctured 3-spheres ("pants").  The
quotient dual graph has one vertex per pants and one edge per sphere; since
every pants has exactly three boundary spheres the graph is cubic, and its
first Betti number equals the rank n of the free fundamental group.

Edges are handled through half-edges (sphere ends) so that loops - a sphere
whose two sides are glued to the same pants - need no special casing.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple


class GraphError(ValueError):
    """Raised when a graph violates a structural precondition."""


class HalfEdge(NamedTuple):
    """One end of a sphere edge: ``end`` is 0 or 1."""

    sphere: str
    end: int

    def other(self) -> "HalfEdge":
        return HalfEdge(self.sphere, 1 - self.end)

    def label(self) -> str:
        return f"{self.sphere}@{self.end}"


class Attachment(NamedTuple):
    """Where a half-edge lands: pants vertex and slot in {0,1,2}."""

    pants: str
    slot: int


@dataclass
class SphereGraph:
    """Cubic multigraph: vertices are pants, edges are spheres.

    ``incidence`` maps each of the 2E half-edges to a (pants, slot) pair.
    Valid graphs are trivalent, connected and have betti number exactly
    ``rank`` (forcing V = 2n-2 and E = 3n-3).
    """

    rank: int
    p_vertices: list[str]
    sphere_edges: list[str]
    incidence: dict[HalfEdge, Attachment]

    def pants_of(self, he: HalfEdge) -> str:
        return self.incidence[he].pants

    def half_edges_at(self, pants: str) -> list[HalfEdge]:
        """The three half-edges at one pants, ordered by slot."""
        at = [(att.slot, he) for he, att in self.incidence.items() if att.pants == pants]
        return [he for _, he in sorted(at)]

    def ends_of(self, sphere: str) -> tuple[str, str]:
        return (self.pants_of(HalfEdge(sphere, 0)), self.pants_of(HalfEdge(sphere, 1)))

    def is_loop(self, sphere: str) -> bool:
        a, b = self.ends_of(sphere)
        return a == b


def build_standard(n: int) -> SphereGraph:
    """Deterministic fixture graph of rank ``n``.

    A necklace of doubled-edge blocks closed by single edges: blocks
    ``(p_{2i}, p_{2i+1})`` carry parallel edges ``s_{3i}, s_{3i+1}`` and the
    chain edge ``s_{3i+2}`` runs from ``p_{2i+1}`` to the next block.  For
    n = 2 the single block closes onto itself, giving the theta graph.
    """
    if n < 2:
        raise GraphError("rank below 2 unsupported")
    p_vertices = [f"p{i}" for i in range(2 * n - 2)]
    sphere_edges: list[str] = []
    incidence: dict[HalfEdge, Attachment] = {}
    slots = {p: 0 for p in p_vertices}

    def attach(sphere: str, end: int, pants: str) -> None:
        incidence[HalfEdge(sphere, end)] = Attachment(pants, slots[pants])
        slots[pants] += 1

    blocks = n - 1
    for i in range(blocks):
        u, v = f"p{2 * i}", f"p{2 * i + 1}"
        w = f"p{2 * ((i + 1) % blocks)}"
        for j in (0, 1):
            s = f"s{3 * i + j}"
            sphere_edges.append(s)
            attach(s, 0, u)
            attach(s, 1, v)
        s = f"s{3 * i + 2}"
        sphere_edges.append(s)
        attach(s, 0, v)
        attach(s, 1, w)
    return SphereGraph(n, p_vertices, sphere_edges, incidence)


def validate_graph(g: SphereGraph) -> list[str]:
    """Check all structural invariants; returns one message per violation."""
    problems: list[str] = []
    if g.rank < 2:
        problems.append(f"rank {g.rank} below 2")
    seen: dict[tuple[str, int], HalfEdge] = {}
    counts = {p: 0 for p in g.p_vertices}
    for he, att in g.incidence.items():
        if he.sphere not in g.sphere_edges:
            problems.append(f"half-edge {he.label()} references unknown sphere")
            continue
        if att.pants not in counts:
            problems.append(f"half-edge {he.label()} attached to unknown pants {att.pants}")
            continue
        counts[att.pants] += 1
        key = (att.pants, att.slot)
        if key in seen:
            problems.append(f"slot {att.slot} of {att.pants} used twice")
        seen[key] = he
        if att.slot not in (0, 1, 2):
            problems.append(f"half-edge {he.label()} uses slot {att.slot} outside 0..2")
    for s in g.sphere_edges:
        for end in (0, 1):
            if HalfEdge(s, end) not in g.incidence:
                problems.append(f"sphere {s} missing end {end}")
    for p, c in counts.items():
        if c != 3:
            problems.append(f"P-vertex {p} has {c} half-edges")
    v, e = len(g.p_vertices), len(g.sphere_edges)
    if e - v + 1 != g.rank:
        problems.append(f"betti number {e - v + 1} differs from rank {g.rank}")
    if v and not problems:
        reached = _component_of(g, g.p_vertices[0])
        if len(reached) != v:
            problems.append("graph disconnected")
    return problems


def reachable(neighbors: Mapping[str, Iterable[str]], start: str) -> set[str]:
    """Everything reachable from ``start``; a node missing from ``neighbors`` has none."""
    reached = {start}
    queue = deque([start])
    while queue:
        for q in neighbors.get(queue.popleft(), ()):
            if q not in reached:
                reached.add(q)
                queue.append(q)
    return reached


def _component_of(g: SphereGraph, start: str) -> set[str]:
    neighbors: dict[str, set[str]] = {p: set() for p in g.p_vertices}
    for s in g.sphere_edges:
        a, b = g.ends_of(s)
        neighbors[a].add(b)
        neighbors[b].add(a)
    return reachable(neighbors, start)


def random_cubic(n: int, seed: int) -> SphereGraph:
    """Random connected cubic multigraph of betti ``n`` (configuration model).

    The 6n-6 half-edge stubs are shuffled with ``random.Random(seed)`` and
    paired off consecutively; disconnected pairings are rejected and
    resampled from the same generator, so results are reproducible per seed.
    """
    if n < 2:
        raise GraphError("rank below 2 unsupported")
    rng = random.Random(seed)
    p_vertices = [f"p{i}" for i in range(2 * n - 2)]
    stubs = [(p, slot) for p in p_vertices for slot in range(3)]
    for _ in range(10_000):
        order = stubs[:]
        rng.shuffle(order)
        incidence: dict[HalfEdge, Attachment] = {}
        sphere_edges = []
        for i in range(0, len(order), 2):
            s = f"s{i // 2}"
            sphere_edges.append(s)
            incidence[HalfEdge(s, 0)] = Attachment(*order[i])
            incidence[HalfEdge(s, 1)] = Attachment(*order[i + 1])
        g = SphereGraph(n, p_vertices, sphere_edges, incidence)
        if len(_component_of(g, p_vertices[0])) == len(p_vertices):
            return g
    raise GraphError("failed to sample a connected cubic graph")


@dataclass
class GeneratorLabeling:
    """Spanning tree plus oriented generator labels on the non-tree edges.

    ``labels`` maps each non-tree sphere edge to (generator index, tail end):
    crossing the sphere from ``tail_end`` to the other end reads the
    generator positively.
    """

    spanning_tree: set[str]
    labels: dict[str, tuple[int, int]] = field(default_factory=dict)

    def word_letter(self, sphere: str, from_end: int) -> tuple[int, int] | None:
        """(generator index, +1/-1) for a crossing, or None on a tree edge."""
        if sphere in self.spanning_tree:
            return None
        idx, tail = self.labels[sphere]
        return (idx, 1 if from_end == tail else -1)


def label_generators(g: SphereGraph) -> GeneratorLabeling:
    """Deterministic free-group basis from the dual graph.

    Breadth-first spanning tree rooted at the least pants id, scanning edges
    in id order; the n non-tree edges get generators x1..xn in id order,
    oriented from the lesser towards the greater pants (loops from end 0).
    """
    problems = validate_graph(g)
    if problems:
        raise GraphError("; ".join(problems))
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
        tail = 0 if (a <= b) else 1
        labels[s] = (idx, tail)
        idx += 1
    return GeneratorLabeling(tree, labels)
