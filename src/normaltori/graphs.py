"""Cubic multigraphs modeling a maximal sphere system.

The manifold is a connected sum of n copies of S2 x S1, cut along a maximal
system of essential 2-spheres into 3-punctured 3-spheres ("pants").  The
quotient dual graph has one vertex per pants and one edge per sphere; since
every pants has exactly three boundary spheres the graph is cubic, and its
first Betti number equals the rank n of the free fundamental group.

Edges are handled through half-edges (sphere ends) so that loops - a sphere
whose two sides are glued to the same pants - need no special casing.

``walk`` is the one breadth-first walk over a graph given as (edge, node,
node, flip) edges: the sphere graph's connectivity check, the spanning
tree of ``label_generators`` and every walk over a piece graph read it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple


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


@dataclass(frozen=True)
class SphereGraph:
    """Cubic multigraph: vertices are pants, edges are spheres.

    ``incidence`` maps each of the 2E half-edges to a (pants, slot) pair.
    Valid graphs are trivalent, connected and have betti number exactly
    ``rank`` (forcing V = 2n-2 and E = 3n-3).

    An immutable value, which ``copy.deepcopy`` returns as is: two tuples, a
    read-only ``incidence`` copy and, built once, ``by_pants``, the read-only
    table of each pants' half-edges in slot order, with an entry (maybe
    empty) for every pants that ``p_vertices`` or ``incidence`` names, and
    ``problems``, one message per violated invariant, which
    ``validate_graph`` returns.  Building never raises.
    """

    rank: int
    p_vertices: tuple[str, ...]
    sphere_edges: tuple[str, ...]
    incidence: Mapping[HalfEdge, Attachment]
    by_pants: Mapping[str, tuple[HalfEdge, ...]] = field(init=False, repr=False, compare=False)
    problems: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        incidence = MappingProxyType(dict(self.incidence))
        at: dict[str, list[HalfEdge]] = {p: [] for p in self.p_vertices}
        for att, he in sorted((att, he) for he, att in incidence.items()):
            at.setdefault(att.pants, []).append(he)
        object.__setattr__(self, "p_vertices", tuple(self.p_vertices))
        object.__setattr__(self, "sphere_edges", tuple(self.sphere_edges))
        object.__setattr__(self, "incidence", incidence)
        object.__setattr__(self, "by_pants", MappingProxyType({p: tuple(hes) for p, hes in at.items()}))
        problems: list[str] = []
        if self.rank < 2:
            problems.append(f"rank {self.rank} below 2")
        seen: dict[tuple[str, int], HalfEdge] = {}
        counts = {p: 0 for p in self.p_vertices}
        for he, att in incidence.items():
            if he.sphere not in self.sphere_edges:
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
        for s in self.sphere_edges:
            for end in (0, 1):
                if HalfEdge(s, end) not in incidence:
                    problems.append(f"sphere {s} missing end {end}")
        for p, c in counts.items():
            if c != 3:
                problems.append(f"P-vertex {p} has {c} half-edges")
        v, e = len(self.p_vertices), len(self.sphere_edges)
        if e - v + 1 != self.rank:
            problems.append(f"betti number {e - v + 1} differs from rank {self.rank}")
        if v and not problems and walk(self.p_vertices, self._edges())[0] != v:
            problems.append("graph disconnected")
        object.__setattr__(self, "problems", tuple(problems))

    def __deepcopy__(self, memo) -> "SphereGraph":
        return self

    def __reduce__(self):  # a read-only mapping cannot be pickled; its dict can
        return SphereGraph, (self.rank, self.p_vertices, self.sphere_edges, dict(self.incidence))

    def pants_of(self, he: HalfEdge) -> str:
        return self.incidence[he].pants

    def half_edges_at(self, pants: str) -> tuple[HalfEdge, ...]:
        """The half-edges at one pants, ordered by slot: three in a valid graph, none at an unknown pants."""
        return self.by_pants.get(pants, ())

    def ends_of(self, sphere: str) -> tuple[str, str]:
        return (self.pants_of(HalfEdge(sphere, 0)), self.pants_of(HalfEdge(sphere, 1)))

    def _edges(self) -> list[tuple[str, str, str, bool]]:
        """(sphere, pants at end 0, pants at end 1, no flip) per sphere, in sphere id order: ``walk``'s edges."""
        return [(s, *self.ends_of(s), False) for s in sorted(self.sphere_edges)]


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
    """One message per violated structural invariant, as the graph found them when it was built."""
    return list(g.problems)


def walk(nodes, edges):
    """(nodes reached from the least node, side bits, BFS tree, first bad cycle).

    The one breadth-first walk over a graph, read by ``SphereGraph`` (its
    connectivity) and ``label_generators`` (its spanning tree) off the
    sphere graph, off ``position._piece_edges`` by the full check and by
    the step check when its certificate falls back, and off the same edges,
    listed in its own pass over the circles, by every ``NormalTorus``; a
    check's side bits go on in a ``Tally`` to later step checks.  ``edges``
    holds (edge, node, node, flip) in edge id order, and each node's edges
    are read in that order, whichever endpoint is listed first; an endpoint
    of an edge that is no self-loop is a node even when ``nodes`` lacks it.
    The side bits list each component's nodes together, starting from its
    least node; a node's bit is its flip parity along the tree path from
    there.  The tree maps a node to (its parent, the edge joining them), or
    None at a least node, the only one with no parent; self-loops are never
    tree edges.  The bad cycle is the nodes of the first cycle with an odd
    flip count, or None.  The walk always finishes the least node's
    component, so the count stays exact, and stops after the first component
    that ends with a bad cycle found.
    """
    adj: dict[str, list[tuple[str, bool, str]]] = {n: [] for n in nodes}
    bad = None
    for eid, a, b, flip in edges:
        if a == b:
            if flip and bad is None:
                bad = [a]
            continue
        adj.setdefault(a, []).append((b, flip, eid))
        adj.setdefault(b, []).append((a, flip, eid))
    side: dict[str, bool] = {}
    parent: dict[str, tuple[str, str] | None] = {}
    reached = 0
    for start in sorted(adj):
        if start in side:
            continue
        if reached and bad is not None:
            break
        side[start] = False
        parent[start] = None
        queue = [start]
        for n in queue:  # breadth first: the list grows as it is read
            for other, flip, eid in adj[n]:
                want = side[n] ^ flip
                if other not in side:
                    side[other] = want
                    parent[other] = (n, eid)
                    queue.append(other)
                elif side[other] != want and bad is None:
                    bad = tree_path(parent, n, other)[0]
        reached = reached or len(side)
    return reached, side, parent, bad


def tree_path(parent, a: str, b: str) -> tuple[list[str], list[str]]:
    """The path from ``a`` to ``b`` in ``walk``'s tree: its nodes, and the edge joining each to the next."""
    def chain(x: str) -> list[str]:
        out = [x]
        while parent[x] is not None:
            x = parent[x][0]
            out.append(x)
        return out
    ca, cb = chain(a), chain(b)
    seen = set(ca)
    common = next(x for x in cb if x in seen)
    up, down = ca[: ca.index(common)], cb[: cb.index(common)][::-1]
    nodes = up + [common] + down
    return nodes, [parent[x][1] for x in up] + [parent[x][1] for x in down]


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
        if not g.problems:  # a pairing of the stubs can only be disconnected
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

    ``walk``'s breadth-first spanning tree, rooted at the least pants id,
    scanning edges in id order; the n non-tree edges get generators x1..xn
    in id order, oriented from the lesser towards the greater pants (loops
    from end 0).
    """
    problems = validate_graph(g)
    if problems:
        raise GraphError("; ".join(problems))
    edges = g._edges()
    tree = {link[1] for link in walk(g.p_vertices, edges)[2].values() if link is not None}
    cotree = [(s, a, b) for s, a, b, _ in edges if s not in tree]
    return GeneratorLabeling(tree, {s: (i, 0 if a <= b else 1) for i, (s, a, b) in enumerate(cotree, 1)})
