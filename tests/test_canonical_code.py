"""Pinned canonical codes, the walk a normal torus reads, the least rotation, and hanging branches deeper than the recursion limit.

The digests below hold every byte of every code and fundamental domain of
a seeded corpus.  Canonical codes are compared across runs and versions,
so a change to how they are computed must reproduce these exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tracemalloc

from conftest import is_loop, recorded
from normaltori import normal_graph
from normaltori.cli import main
from normaltori.fixtures import make_t0, make_t2
from normaltori.graphs import HalfEdge, build_standard, random_cubic, walk
from normaltori.moves import normalize
from normaltori.normal_graph import _least_code, canonicalize, decorate, fundamental_domain, to_normal_torus
from normaltori.oracle import _assemble, _Node, perturb, random_normal_torus
from normaltori.position import _piece_edges, is_normal, validate_position
from normaltori.serialize import dumps, position_to_json

PINNED = {
    "random": "fc0d90413f97d4b4c95e266672906b8f4f176bb2f3eb3e67131ce1a6cf5f6ba6",
    "t0": "ce056ddeaf9fc517b3dedb366cb60a6ff9d6203f2b3ea22651c720ae094f59d6",
    "t2": "95c2464b893a62b45bb34493942184a1fdb1b4e6d5804ae7a779368268961aa9",
    "perturbed": "5147bf6e69025b78376d2d553b66f7c58df73ae7cb105f0646222537fea097b9",
}


def _corpus():
    """(group, name, normal torus, base choices); ``None`` is decorate's default base."""
    for rank in range(2, 7):
        graphs = [("standard", build_standard(rank))]
        graphs += [(f"cubic{s}", random_cubic(rank, s)) for s in (rank, rank + 7)]
        for gname, g in graphs:
            for seed in range(6):
                t = random_normal_torus(g, seed, 3 + 2 * seed)
                yield "random", f"{rank} {gname} {seed}", to_normal_torus(t), [None]
    for group, maker in (("t0", make_t0), ("t2", make_t2)):
        nt = normalize(maker()).torus
        yield group, group, nt, [(piece, side) for piece in sorted(nt.nodes) for side in "AB"]
    for seed in range(4):
        base = random_normal_torus(build_standard(3), seed, 6)
        yield "perturbed", str(seed), normalize(perturb(base, seed, 3)).torus, [None]


def test_canonical_codes_are_pinned():
    lines = {group: [] for group in PINNED}
    axis_lengths = set()
    loop_graphs = 0
    for group, name, nt, bases in _corpus():
        codes = [canonicalize(decorate(nt) if base is None else decorate(nt, *base)) for base in bases]
        axis, branches = fundamental_domain(nt)
        axis_lengths.add(len(axis))
        loop_graphs += any(is_loop(nt.graph, s) for s in nt.graph.sphere_edges)
        lines[group].append(json.dumps([name, codes, axis, branches]))
    # the corpus reaches a self-loop crossing, a double crossing and graphs with sphere loops
    assert {1, 2} <= axis_lengths
    assert loop_graphs > 0
    digests = {group: hashlib.sha256("\n".join(rows).encode()).hexdigest() for group, rows in lines.items()}
    assert digests == PINNED


def _crossing_edges(nt):
    """Frozen reference, the end-oriented crossing list: (circle, node at end 0, node at end 1, flip) in circle order."""
    return [(cid, n0, n1, not nt.position.transport[cid]) for cid, (_, n0, n1) in sorted(nt.crossings.items())]


def _ladder_tori():
    """Perturbed, then normalized tori on ranks 3 to 12, as the benchmark's ladder draws them."""
    for rank, bound, k in ((3, 8, 8), (6, 32, 16), (12, 64, 16)):
        for g in (build_standard(rank), random_cubic(rank, rank)):
            for seed in range(2):
                yield normalize(perturb(random_normal_torus(g, seed, bound), seed, k)).torus


def test_the_piece_graph_walk_equals_the_crossing_walk():
    """The full check walks ``_piece_edges``, whose edges list their pieces as ``circle_slots`` does, not by end.

    ``NormalTorus`` walks the end-oriented crossing list.  ``walk`` reads
    each node's edges in edge id order whichever endpoint is listed first,
    so the two walks give the same side bits and tree, and with them the
    same axis.
    """
    tori = [nt for _, _, nt, _ in _corpus()] + list(_ladder_tori())
    swapped = 0
    for nt in tori:
        edges = _piece_edges(nt.position, nt.position._index)
        old = _crossing_edges(nt)
        assert [(cid, {a, b}, flip) for cid, a, b, flip in edges] == [(cid, {a, b}, flip) for cid, a, b, flip in old]
        swapped += sum(new[1:3] != was[1:3] for new, was in zip(edges, old))
        _, side, parent, bad = walk(nt.nodes, edges)
        _, old_side, old_parent, old_bad = walk(nt.nodes, old)
        assert (side, parent, bad) == (old_side, old_parent, old_bad)
        assert list(side.items()) == list(old_side.items()) and side == nt.side
    # the two lists differ in which endpoint comes first on some edges
    assert swapped > 0


def _slice_scan(tokens):
    """Frozen reference, the least rotation as every axis-length slice of the doubled string, each compared."""
    doubled = "|".join(tokens + tokens)
    size, start, best = len(doubled) // 2, 0, None
    for token in tokens:
        code = doubled[start:start + size]
        if best is None or code < best:
            best = code
        start += len(token) + 1
    return best


def _at_least_token(tokens):
    """The least of the rotations that start at the least token itself: exact only when that token is no proper prefix."""
    doubled, least = "|".join(tokens + tokens), min(tokens)
    starts = [sum(len(token) + 1 for token in tokens[:r]) for r in range(len(tokens))]
    return min(doubled[start:start + len(doubled) // 2] for start, token in zip(starts, tokens) if token == least)


def _token_lists():
    """Seeded token lists over ``ab[]|!``: prefixes of one word among other words, repeated as periods, m from 1."""
    rng = random.Random(39)
    for _ in range(4000):
        word = "".join(rng.choice("ab[]|!") for _ in range(rng.randint(1, 6)))
        pool = [word[:k] for k in range(1, len(word) + 1)]
        pool += ["".join(rng.choice("ab[]|!") for _ in range(rng.randint(1, 4))) for _ in range(2)]
        yield [rng.choice(pool) for _ in range(rng.randint(1, 4))] * rng.randint(1, 3)
    yield ["p[x>y|+]", "p[x>y|+]q[u>v|-]"]  # the least start is the longer token's


def test_the_least_rotation_equals_the_slice_scan_on_token_lists():
    lists = list(_token_lists())
    for tokens in lists:
        assert _least_code(tokens) == _slice_scan(tokens), tokens
    assert {1, 2} <= {len(tokens) for tokens in lists}
    # the lists reach periodic tokens and the starts at longer tokens that begin with the least one
    assert sum(len(set(tokens)) < len(tokens) for tokens in lists) > 1000
    assert sum(_at_least_token(tokens) != _slice_scan(tokens) for tokens in lists) > 500


def test_the_least_rotation_equals_the_slice_scan_on_drawn_graphs():
    calls = 0
    for rank in range(2, 7):
        for seed in range(4):
            for g in (build_standard(rank), random_cubic(rank, seed)):
                for bound in (4, 16, 64):
                    nt = to_normal_torus(random_normal_torus(g, seed, bound))
                    for side in "AB":
                        with recorded(normal_graph._least_code) as rotations:
                            code = canonicalize(decorate(nt, None, side))
                        assert [result for _, result in rotations] == [_slice_scan(*args) for args, _ in rotations]
                        assert code == min(result for _, result in rotations)
                        calls += len(rotations)
    assert calls == 4 * 5 * 4 * 2 * 3 * 2


def _deep_chain(depth: int):
    """A normal torus on the theta graph with a cylinder chain ``depth`` nodes deep.

    The axis runs through pants A and cylinder B over s0 and s1; the chain
    hangs off A at s2 and ends in a disk.
    """
    g = build_standard(2)
    a, b = _Node("A", "p0"), _Node("B", "p1")
    a.ports = {HalfEdge("s0", 0): "x0", HalfEdge("s1", 0): "x1", HalfEdge("s2", 1): "h0"}
    b.ports = {HalfEdge("s0", 1): "x0", HalfEdge("s1", 1): "x1", HalfEdge("s2", 0): None}
    nodes = [a, b]
    entry = HalfEdge("s2", 0)
    for i in range(depth):
        node = _Node(f"C{i}", g.pants_of(entry))
        node.ports[entry] = f"h{i}"
        exit_he, other = sorted(he for he in g.half_edges_at(node.pants) if he != entry)
        if i == depth - 1:
            node.ports[exit_he] = None
        else:
            node.ports[exit_he] = f"h{i + 1}"
            entry = exit_he.other()
        node.ports[other] = None
        nodes.append(node)
    return _assemble(g, nodes)


def test_branches_deeper_than_the_recursion_limit(tmp_path, capsys):
    depth = 2000
    assert depth > sys.getrecursionlimit() // 2
    t = _deep_chain(depth)
    assert len(t.circles) == depth + 2
    assert validate_position(t) == []
    assert is_normal(t)[0]
    nt = to_normal_torus(t)
    d = decorate(nt)
    tracemalloc.start()
    try:
        code = canonicalize(d)
        axis, branches = fundamental_domain(nt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the codes nest, so keeping every subtree's code alive would take ~100 MB here
    assert peak < 16e6
    assert code.count("<") == depth
    assert axis == ["A", "B"]
    assert list(branches) == ["A"] and branches["A"][0].count("<") == depth
    path = tmp_path / "deep.json"
    path.write_text(dumps(position_to_json(t)), encoding="utf-8")
    assert main(["compare", str(path), str(path)]) == 0
    assert capsys.readouterr().out == "EQUIVALENT\n"
