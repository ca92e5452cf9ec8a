"""The one-pass ``NormalTorus`` build against a frozen copy of the derivation it replaced.

The build takes the nodes, leaves and leaf attachments in one pass over the
pieces, and the crossings, crossing attachments and the piece graph's edges
in one pass over the circles.  ``_derived`` keeps the earlier derivation
verbatim: separate ``ends``, ``crossings``, ``leaves`` and attachment
passes, the walk over ``position._piece_edges`` (frozen here too) and the
extra crossing taken from ``sorted(crossings)``.  The two agree on ``nodes``,
``crossings`` and ``leaves`` in order, each node's attachments, ``side`` in
order, the ``axis`` and ``fundamental_domain``, on:

* every fixture that ``to_normal_torus`` accepts;
* 600 draws of ``random_normal_torus(random_cubic(r, s), s2, 8)`` for ranks
  2-7 and seeds 0-9 of each, 90 of them with a self-loop crossing (so an
  axis of length 1), ``random_cubic(2, 0)`` at draw seed 1 among them;
* the tori that ``normalize`` builds from the index it carried through its
  steps, whose circles may list their two slots in either order.
"""

from __future__ import annotations

from types import SimpleNamespace

from conftest import make_u_tubes

from normaltori import fixtures
from normaltori.graphs import HalfEdge, build_standard, random_cubic, tree_path, walk
from normaltori.moves import normalize
from normaltori.normal_graph import LeafStub, NormalTorus, fundamental_domain, to_normal_torus
from normaltori.oracle import perturb, random_normal_torus
from normaltori.position import PositionError, piece_kind


# ---------------------------------------------------------------------------
# frozen: the derivation in separate passes


def _piece_edges(t, index):
    """(circle, piece, piece, flip) per circle of ``t`` with two slots, in circle order."""
    edges = []
    for cid in sorted(t.circles):
        pair = index.get(cid, ())
        if len(pair) == 2:
            (piece_a, _), (piece_b, _) = pair
            edges.append((cid, piece_a.id, piece_b.id, not t.transport.get(cid, True)))
    return edges


def _derived(t, index):
    """(nodes, crossings, leaves, attachments, side, axis) as the torus derived them."""
    nodes = {pid: (piece.pants, piece_kind(piece)) for pid, piece in t.pieces.items()}
    ends = {cid: {slot.half_edge.end: piece.id for piece, slot in pairs} for cid, pairs in index.items()}
    crossings = {cid: (c.sphere, ends[cid][0], ends[cid][1]) for cid, c in t.circles.items()}
    leaves = tuple(LeafStub(pid, he) for pid, piece in t.pieces.items() for he in sorted(piece.uncrossed))
    att: dict[str, dict[HalfEdge, tuple]] = {node: {} for node in nodes}
    for cid, (sphere, n0, n1) in crossings.items():
        att[n0][HalfEdge(sphere, 0)] = ("crossing", cid)
        att[n1][HalfEdge(sphere, 1)] = ("crossing", cid)
    for leaf in leaves:
        att[leaf.node][leaf.half_edge] = ("leaf", leaf)
    _, side, parent, _ = walk(nodes, _piece_edges(t, index))
    tree = {link[1] for link in parent.values() if link is not None}
    extra = next(cid for cid in sorted(crossings) if cid not in tree)
    _, a, b = crossings[extra]
    cycle, cut = tree_path(parent, b, a)
    cut.append(extra)
    i = cycle.index(min(cycle))
    cycle, cut = cycle[i:] + cycle[:i], cut[i:] + cut[:i]
    if cut[-1] < cut[0]:
        cycle, cut = cycle[:1] + cycle[:0:-1], cut[::-1]
    return nodes, crossings, leaves, att, side, (tuple(cycle), tuple(cut))


# ---------------------------------------------------------------------------


def _assert_built_as_derived(nt: NormalTorus) -> None:
    t = nt.position
    nodes, crossings, leaves, att, side, axis = _derived(t, t._index)  # the index the torus read
    assert list(nt.nodes.items()) == list(nodes.items())
    assert list(nt.crossings.items()) == list(crossings.items())
    assert nt.leaves == leaves
    assert list(nt.attachments) == list(att)
    assert {node: dict(here) for node, here in nt.attachments.items()} == att
    assert list(nt.side.items()) == list(side.items())
    assert nt.axis == axis
    frozen = SimpleNamespace(graph=t.graph, nodes=nodes, crossings=crossings, attachments=att, axis=axis)
    assert fundamental_domain(nt) == fundamental_domain(frozen)


def test_every_accepted_fixture_builds_as_derived():
    makers = [getattr(fixtures, name) for name in dir(fixtures) if name.startswith("make_")] + [make_u_tubes]
    accepted = []
    for maker in makers:
        try:
            nt = to_normal_torus(maker())
        except PositionError:
            continue
        _assert_built_as_derived(nt)
        _assert_built_as_derived(NormalTorus(nt.position))
        accepted.append(maker.__name__)
    assert accepted == ["make_t0", "make_t2"]


def test_drawn_tori_build_as_derived():
    self_loops = set()
    for rank in range(2, 8):
        for seed in range(10):
            g = random_cubic(rank, seed)
            for draw in range(10):
                nt = NormalTorus(random_normal_torus(g, draw, 8))
                _assert_built_as_derived(nt)
                if any(n0 == n1 for _, n0, n1 in nt.crossings.values()):
                    assert len(nt.axis[0]) == 1
                    self_loops.add((rank, seed, draw))
    assert len(self_loops) == 90 and (2, 0, 1) in self_loops


def test_normalized_tori_build_as_derived():
    for rank, bound, k in ((3, 8, 8), (6, 32, 16), (12, 64, 16)):
        for g in (build_standard(rank), random_cubic(rank, rank)):
            for seed in range(2):
                _assert_built_as_derived(normalize(perturb(random_normal_torus(g, seed, bound), seed, k)).torus)
