from __future__ import annotations

import dataclasses
import pickle
import random
import re

import pytest
from conftest import edited, swapped

from normaltori.fixtures import make_klein, make_t0, make_t1, make_t2
from normaltori.graphs import HalfEdge, SphereGraph, build_standard, label_generators, random_cubic, walk
from normaltori.normal_graph import (
    KleinBottleError,
    axis_word,
    bounds_solid_torus,
    canonicalize,
    decorate,
    equivalent,
    format_word,
    fundamental_domain,
    sides,
    to_normal_torus,
)
from normaltori.moves import normalize
from normaltori.oracle import confluence_search, perturb, random_normal_torus
from normaltori.position import (
    BoundarySlot,
    Circle,
    Piece,
    PositionError,
    RegionTree,
    TorusPosition,
    intersection_vector,
    is_normal,
    position_of,
    validate_position,
)


def test_position_without_pieces_raises_position_error():
    """Decorating or searching it raised ``ValueError`` from ``min()``; ``to_normal_torus`` now rejects it."""
    from normaltori.fixtures import theta_graph
    from normaltori.oracle import confluence_search
    from normaltori.position import RegionTree

    g = theta_graph()
    empty = position_of(g, {}, {}, {s: RegionTree(s, {f"q{i}"}, {}) for i, s in enumerate(g.sphere_edges)}, {})
    with pytest.raises(PositionError, match=r"^position has no pieces$"):
        decorate(to_normal_torus(empty))
    with pytest.raises(PositionError, match=r"^position has no pieces$"):
        confluence_search(empty)


def test_to_normal_torus_t0():
    nt = to_normal_torus(make_t0())
    assert {nid: kind for nid, (_, kind) in nt.nodes.items()} == {
        "F0": "cylinder",
        "F1": "cylinder",
    }
    assert len(nt.crossings) == 2
    assert len(nt.leaves) == 2
    assert len(nt.crossings) - len(nt.nodes) + 1 == 1


def test_to_normal_torus_t2():
    nt = to_normal_torus(make_t2())
    kinds = sorted(kind for _, kind in nt.nodes.values())
    assert kinds == ["cylinder", "disk", "pants"]
    assert len(nt.crossings) == 3
    assert len(nt.leaves) == 3


def test_to_normal_torus_rejects_t1():
    with pytest.raises(PositionError, match="not normal"):
        to_normal_torus(make_t1())


def test_decorate_t0_signs():
    nt = to_normal_torus(make_t0())
    plus = decorate(nt, "F0", "A")
    assert sorted(plus.signs.values()) == ["+", "+"]
    minus = decorate(nt, "F0", "B")
    assert sorted(minus.signs.values()) == ["-", "-"]


def test_decorate_t2_disk_signs_opposite():
    nt = to_normal_torus(make_t2())
    d = decorate(nt, "F2", "A")
    disk_signs = sorted(sign for leaf, sign in d.signs.items() if leaf.node == "F2")
    assert disk_signs == ["+", "-"]


@pytest.mark.parametrize("make", [make_t0, make_t2])
def test_missing_transport_bit_raises_position_error(make):
    """A normal position without a circle's transport bit raised ``KeyError`` from ``decorate``."""
    t = edited(make(), transport={"c0": None})
    with pytest.raises(PositionError, match=r"^circle c0 missing side transport bit$"):
        decorate(to_normal_torus(t))


def test_decorate_klein_rejected():
    """Nontrivial monodromy is the Klein bottle's one problem, so it gets no torus to decorate."""
    with pytest.raises(KleinBottleError, match=r"^monodromy nontrivial on cycle \(F0,F1\)$"):
        to_normal_torus(make_klein())


def test_canonical_form_flip_invariant():
    nt = to_normal_torus(make_t0())
    assert canonicalize(decorate(nt, "F0", "A")) == canonicalize(decorate(nt, "F0", "B"))
    nt2 = to_normal_torus(make_t2())
    assert canonicalize(decorate(nt2, "F2", "A")) == canonicalize(decorate(nt2, "F2", "B"))


def test_canonical_form_relabel_invariant():
    t = make_t0()
    pieces = {
        "Z9": dataclasses.replace(t.pieces["F0"], id="Z9"),
        "A1": dataclasses.replace(t.pieces["F1"], id="A1"),
    }
    renamed = position_of(t.graph, pieces, t.circles, t.trees, t.transport)
    d1 = decorate(to_normal_torus(t))
    d2 = decorate(to_normal_torus(renamed))
    assert canonicalize(d1) == canonicalize(d2)
    assert equivalent(d1, d2)


def _renamed(obj: dict, seed: int) -> dict:
    """A position's JSON with its pieces, circles and regions renamed by a seeded shuffle."""
    import random

    rng = random.Random(seed)
    ids = {
        "P": sorted(p["id"] for p in obj["pieces"]),
        "k": sorted(c["id"] for c in obj["circles"]),
        "q": sorted({r for tree in obj["region_trees"] for r in tree["regions"]}),
    }
    name = {}
    for prefix, old in ids.items():
        new = list(range(len(old)))
        rng.shuffle(new)
        name.update((o, f"{prefix}{n}") for o, n in zip(old, new))
    out = dict(obj)
    out["pieces"] = [
        {
            **p,
            "id": name[p["id"]],
            "boundary": [{**s, "circle": name[s["circle"]], "region_a": name[s["region_a"]]} for s in p["boundary"]],
        }
        for p in obj["pieces"]
    ]
    out["circles"] = [{**c, "id": name[c["id"]]} for c in obj["circles"]]
    out["region_trees"] = [
        {
            **tree,
            "regions": [name[r] for r in tree["regions"]],
            "edges": [{"circle": name[e["circle"]], "regions": [name[r] for r in e["regions"]]} for e in tree["edges"]],
        }
        for tree in obj["region_trees"]
    ]
    out["side_transport"] = {name[c]: bit for c, bit in obj["side_transport"].items()}
    return out


def test_renaming_before_normalizing_keeps_the_class():
    from normaltori.graphs import build_standard, random_cubic
    from normaltori.moves import normalize
    from normaltori.oracle import perturb, random_normal_torus
    from normaltori.position import intersection_vector
    from normaltori.serialize import position_from_json, position_to_json

    checked = 0
    for rank in (2, 3, 4, 5):
        for g in (build_standard(rank), random_cubic(rank, rank)):
            for seed in range(6):
                t = perturb(random_normal_torus(g, seed, 4 + seed % 3), seed, 2 + seed)
                renamed = position_from_json(_renamed(position_to_json(t), seed))
                assert set(renamed.pieces).isdisjoint(t.pieces)
                one, two = normalize(t), normalize(renamed)
                assert intersection_vector(one.position) == intersection_vector(two.position)
                assert canonicalize(decorate(one.torus)) == canonicalize(decorate(two.torus))
                checked += 1
    assert checked == 48


def test_canonical_form_separates_t0_t2():
    d0 = decorate(to_normal_torus(make_t0()))
    d2 = decorate(to_normal_torus(make_t2()))
    assert canonicalize(d0) != canonicalize(d2)
    assert not equivalent(d0, d2)


def test_equivalent_base_choice_irrelevant():
    nt = to_normal_torus(make_t2())
    assert equivalent(decorate(nt, "F0", "A"), decorate(nt, "F2", "B"))


def test_different_raw_signs_are_distinct():
    nt = to_normal_torus(make_t0())
    d = decorate(nt, "F0", "A")
    mixed = decorate(nt, "F0", "A")
    mixed.signs = dict(mixed.signs)
    first = next(iter(mixed.signs))
    mixed.signs[first] = "-"
    assert not equivalent(d, mixed)


def test_sides_and_solid_torus():
    d0 = decorate(to_normal_torus(make_t0()), "F0", "A")
    pos, neg = sides(d0)
    assert len(pos) == 2 and len(neg) == 0
    assert bounds_solid_torus(d0)

    d2 = decorate(to_normal_torus(make_t2()), "F2", "A")
    pos, neg = sides(d2)
    assert sorted((len(pos), len(neg))) == [1, 2]
    assert not bounds_solid_torus(d2)

    flipped = decorate(to_normal_torus(make_t2()), "F2", "B")
    pos2, neg2 = sides(flipped)
    assert (len(pos2), len(neg2)) == (len(neg), len(pos))


def test_fundamental_domain_t0_t2():
    axis, branches = fundamental_domain(to_normal_torus(make_t0()))
    assert sorted(axis) == ["F0", "F1"]
    assert branches == {}
    axis2, branches2 = fundamental_domain(to_normal_torus(make_t2()))
    assert sorted(axis2) == ["F0", "F1"]
    assert set(branches2) == {"F0"}
    assert len(branches2["F0"]) == 1


def _uncross(t, cid, sides):
    """``t`` with circle ``cid`` taken out: each piece it joined gets the side ``sides[piece]`` at that sphere end instead."""
    sphere = t.circles[cid].sphere
    pieces = {}
    for pid, side in sides.items():
        piece = t.pieces[pid]
        (slot,) = [slot for slot in piece.boundary if slot.circle == cid]
        uncrossed = piece.uncrossed.copy()
        uncrossed[slot.half_edge] = side
        pieces[pid] = dataclasses.replace(piece, boundary=[s for s in piece.boundary if s != slot], uncrossed=uncrossed)
    tree = t.trees[sphere]
    tree = RegionTree(sphere, tree.regions - {tree.edges[cid][1]}, {c: e for c, e in tree.edges.items() if c != cid})
    return edited(t, pieces=pieces, circles={cid: None}, trees={sphere: tree}, transport={cid: None})


def test_canonical_form_of_a_tree_is_an_error():
    """t2 with its axis circle c0 taken out is normal, but its piece graph is a tree: a sphere, which has no torus."""
    t = _uncross(make_t2(), "c0", {"F0": "A", "F1": "B"})
    assert is_normal(t)[0]
    with pytest.raises(PositionError, match=r"^total euler characteristic 2 nonzero$"):
        canonicalize(decorate(to_normal_torus(t)))


def _lose_a_leaf(t):
    piece = t.pieces["F0"]
    uncrossed = {he: side for he, side in piece.uncrossed.items() if he != HalfEdge("s2", 1)}
    return edited(t, pieces={"F0": dataclasses.replace(piece, uncrossed=uncrossed)})


def _make_f0_a_disk(t):
    piece = t.pieces["F0"]
    boundary = [slot for slot in piece.boundary if slot.circle != "c1"]
    uncrossed = {**piece.uncrossed, HalfEdge("s1", 0): "B"}
    return edited(t, pieces={"F0": dataclasses.replace(piece, boundary=boundary, uncrossed=uncrossed)})


def _cut_c0(t):
    return _uncross(t, "c0", {"F0": "B", "F1": "B"})


def _join_the_leaves(t, bit=True):
    """A circle c2 on s2 joins F0 and F1 where t0 has two leaves."""
    pieces = {}
    for pid, end in (("F0", 1), ("F1", 0)):
        piece = t.pieces[pid]
        uncrossed = {he: side for he, side in piece.uncrossed.items() if he != HalfEdge("s2", end)}
        boundary = [*piece.boundary, BoundarySlot("c2", HalfEdge("s2", end), "r4")]
        pieces[pid] = dataclasses.replace(piece, boundary=boundary, uncrossed=uncrossed)
    return edited(t, pieces=pieces, circles={"c2": Circle("c2", "s2")},
                  trees={"s2": RegionTree("s2", {"r4", "r5"}, {"c2": ("r4", "r5")})},
                  transport={} if bit is None else {"c2": bit})


def _two_copies(t):
    """A second copy of t0, parallel to the first: c0' and c1' next to c0 and c1, on their B sides."""
    pieces = {}
    for pid, pants, end in (("F0", "p0", 0), ("F1", "p1", 1)):
        pieces[pid + "'"] = Piece(pid + "'", pants, 0, [
            BoundarySlot("c0'", HalfEdge("s0", end), "r1"),
            BoundarySlot("c1'", HalfEdge("s1", end), "r3"),
        ], t.pieces[pid].uncrossed)
    trees = {"s0": RegionTree("s0", {"r0", "r1", "r6"}, {"c0": ("r0", "r1"), "c0'": ("r1", "r6")}),
             "s1": RegionTree("s1", {"r2", "r3", "r7"}, {"c1": ("r2", "r3"), "c1'": ("r3", "r7")})}
    return edited(t, pieces=pieces, circles={"c0'": Circle("c0'", "s0"), "c1'": Circle("c1'", "s1")}, trees=trees,
                  transport={"c0'": True, "c1'": True})


@pytest.mark.parametrize("edit, message", [
    (_lose_a_leaf, "piece F0 missing uncrossed side at s2@p0"),
    (_make_f0_a_disk, "circle c1 has one incident piece"),
    (_cut_c0, "total euler characteristic 2 nonzero"),  # a tree: two disks, no pants
    (lambda t: _join_the_leaves(t, None), "circle c2 missing side transport bit"),
    (_join_the_leaves, "total euler characteristic -2 nonzero"),  # two cycles
    (_two_copies, "piece graph disconnected"),  # betti number one, but disconnected
], ids=["immersion", "disk-pants-count", "tree", "transport-bit", "two-cycles", "two-copies"])
def test_building_a_torus_checks_its_graph(edit, message):
    """t0 edited one way so that its graph does not immerse or is not one cycle with trees: still normal, and ``to_normal_torus`` rejects it with validate's one message."""
    t = edit(make_t0())
    assert is_normal(t)[0]
    assert validate_position(t) == [message]
    with pytest.raises(PositionError, match="^" + re.escape(message) + "$"):
        to_normal_torus(t)


def test_the_library_accepts_only_what_validate_accepts():
    """Mutants that ``is_normal`` accepts and ``validate_position`` rejects get no torus and no confluence outcome.

    120 mutants (``_mutate`` of ``tests/test_step_check.py``) of each of 48
    bases: ranks 2-4, ``build_standard(rank)`` and ``random_cubic(rank,
    rank)``, seeds 0-7, size bound 4.  ``to_normal_torus`` and
    ``confluence_search`` must each raise ``PositionError`` with validate's
    problems; any other exception fails the test.
    """
    from test_step_check import _mutate

    rng = random.Random(0)
    kept = 0
    for rank in (2, 3, 4):
        for g in (build_standard(rank), random_cubic(rank, rank)):
            for seed in range(8):
                base = random_normal_torus(g, seed, 4)
                for _ in range(120):
                    mutant = _mutate(rng, base)
                    problems = validate_position(mutant)
                    if not problems or not is_normal(mutant)[0]:
                        continue
                    kept += 1
                    for call in (to_normal_torus, confluence_search):
                        with pytest.raises(PositionError) as caught:
                            call(mutant)
                        assert str(caught.value) == "; ".join(problems)
    assert kept == 3288


def test_a_built_torus_is_read_not_derived_again():
    """Once built, a torus is immutable and its readers run no walk over it; its attachments are a field."""
    nt = to_normal_torus(make_t2())
    labeling = label_generators(nt.graph)  # a walk over the sphere graph

    def no_walk(*args):
        raise AssertionError("a built torus was walked again")

    with swapped(walk, no_walk):
        d = decorate(nt)
        canonicalize(d)
        fundamental_domain(nt)
        axis_word(nt, labeling)
        with pytest.raises(dataclasses.FrozenInstanceError):
            nt.nodes = {}
        for mapping in (nt.nodes, nt.crossings, nt.attachments, nt.attachments["F0"], nt.side):
            with pytest.raises(TypeError):
                mapping["F9"] = None
        assert type(nt.leaves) is tuple
    again = pickle.loads(pickle.dumps(nt))
    assert (again.nodes, again.crossings, again.leaves, again.axis) == (nt.nodes, nt.crossings, nt.leaves, nt.axis)


@pytest.mark.parametrize("side", ["C", None, "a"])
def test_decorate_rejects_a_base_side_other_than_a_or_b(side):
    """Any other side signed every leaf "-", so t2, which bounds no solid torus, read as bounding one."""
    with pytest.raises(PositionError, match="base side must be A or B"):
        decorate(to_normal_torus(make_t2()), None, side)


def test_decorate_rejects_a_base_piece_the_torus_lacks():
    with pytest.raises(PositionError) as caught:
        decorate(to_normal_torus(make_t0()), "F9")
    assert str(caught.value) == "unknown base piece F9"


def test_equivalent_rejects_two_sphere_graphs():
    d0 = decorate(to_normal_torus(make_t0()))
    d3 = decorate(to_normal_torus(random_normal_torus(build_standard(3), 0, 3)))
    for a, b in ((d0, d3), (d3, d0)):
        with pytest.raises(PositionError) as caught:
            equivalent(a, b)
        assert str(caught.value) == "decorated graphs live over different sphere graphs"


def test_axis_words_fixture():
    lab = label_generators(make_t0().graph)
    w0 = axis_word(to_normal_torus(make_t0()), lab)
    w2 = axis_word(to_normal_torus(make_t2()), lab)
    assert format_word(w0) == "x1"
    assert format_word(w2) == "x1"


def test_axis_word_nonempty_and_reduced_on_random_tori():
    from normaltori.graphs import build_standard, random_cubic
    from normaltori.oracle import random_normal_torus

    for rank, gseed in ((2, 0), (3, 2), (4, 5)):
        g = random_cubic(rank, gseed)
        lab = label_generators(g)
        for seed in range(10):
            nt = to_normal_torus(random_normal_torus(g, seed, 5))
            word = axis_word(nt, lab)
            assert word
            for i, (idx, sign) in enumerate(word):
                nidx, nsign = word[(i + 1) % len(word)]
                assert not (idx == nidx and sign == -nsign) or len(word) == 1


def test_word_normalization_least_rotation():
    from normaltori.normal_graph import _least_rotation

    assert _least_rotation([(1, -1)]) == [(1, 1)]
    assert _least_rotation([(2, 1), (1, 1)]) == [(1, 1), (2, 1)]
    word = [(1, 1), (2, -1), (1, 1)]
    rotated = _least_rotation(word)
    assert rotated == min(
        [rotated[i:] + rotated[:i] for i in range(len(rotated))],
        key=lambda w: [(i, 0 if s > 0 else 1) for i, s in w],
    )


def _swapped_ends(t: TorusPosition, sphere: str) -> TorusPosition:
    """``t`` with ``sphere``'s ends 0 and 1 swapped in the graph and in every slot and ``uncrossed`` key.

    The trees, transport bits and side anchors stay as they are.
    """
    def swap(he: HalfEdge) -> HalfEdge:
        return he.other() if he.sphere == sphere else he

    g = t.graph
    graph = SphereGraph(g.rank, g.p_vertices, g.sphere_edges, {swap(he): att for he, att in g.incidence.items()})
    pieces = {
        pid: Piece(pid, p.pants, p.genus, [BoundarySlot(s.circle, swap(s.half_edge), s.region_a) for s in p.boundary],
                   {swap(he): side for he, side in p.uncrossed.items()})
        for pid, p in t.pieces.items()
    }
    return position_of(graph, pieces, t.circles, t.trees, t.transport)


def test_swapping_a_spheres_ends_keeps_the_axis_word():
    """Which end of a sphere is end 0 is a label: normalize, the intersection vector and the axis word ignore it.

    On a loop sphere the swap reverses the generator ``label_generators``
    reads off it (a loop is oriented from end 0), so that letter is
    inverted and the word normalized again.  The handcuff graph
    ``random_cubic(2, 0)`` has two loops and tori that read both.
    """
    from normaltori.normal_graph import _least_rotation

    cases = []
    for rank in range(2, 6):
        for g in (build_standard(rank), random_cubic(rank, 3 * rank)):
            for seed in (rank, rank + 20):
                cases.append((g, perturb(random_normal_torus(g, seed, 2 + rank), 10 * seed + 5, 5)))
    handcuff = random_cubic(2, 0)
    for seed in range(12):
        cases.append((handcuff, perturb(random_normal_torus(handcuff, seed, 5), seed, 5)))
    swaps = inverted = changed = 0
    for g, messy in cases:
        want = normalize(messy)
        lab = label_generators(g)
        word = axis_word(want.torus, lab)
        for sphere in g.sphere_edges:
            swapped = _swapped_ends(messy, sphere)
            assert validate_position(swapped) == []
            got = normalize(swapped)
            assert len(got.trace) == len(want.trace)
            assert intersection_vector(got.position) == intersection_vector(want.position)
            expected = word
            a, b = g.ends_of(sphere)
            if a == b and sphere in lab.labels:
                idx = lab.labels[sphere][0]
                expected = _least_rotation([(i, -sign if i == idx else sign) for i, sign in word])
                inverted += 1
            assert axis_word(got.torus, label_generators(swapped.graph)) == expected
            changed += expected != word
            swaps += 1
    assert swaps == 156 and inverted > 0 and changed > 0
    print(f"{swaps} end swaps, {inverted} on labelled loops, {changed} axis words inverted")


def test_counts_match_node_types():
    for maker in (make_t0, make_t2):
        nt = to_normal_torus(maker())
        kinds = [kind for _, kind in nt.nodes.values()]
        assert kinds.count("disk") == kinds.count("pants")
        assert len(nt.leaves) == 2 * kinds.count("disk") + kinds.count("cylinder")


def _brute_force_equivalent(d1, d2) -> bool:
    """Exhaustive isomorphism search over node bijections and sign flips.

    Independent of the canonical code: tries every kind- and pants-
    preserving bijection, demands crossings and leaves match over the
    sphere graph, and allows one global sign flip.
    """
    import itertools

    n1, n2 = d1.torus, d2.torus
    if len(n1.nodes) != len(n2.nodes) or len(n1.crossings) != len(n2.crossings):
        return False
    ids1, ids2 = sorted(n1.nodes), sorted(n2.nodes)
    cross1 = sorted(
        (s, tuple(sorted((a, b)))) for s, a, b in n1.crossings.values()
    )
    for perm in itertools.permutations(ids2):
        f = dict(zip(ids1, perm))
        if any(n1.nodes[a] != n2.nodes[f[a]] for a in ids1):
            continue
        mapped = sorted(
            (s, tuple(sorted((f[a], f[b])))) for s, a, b in n1.crossings.values()
        )
        target = sorted(
            (s, tuple(sorted((a, b)))) for s, a, b in n2.crossings.values()
        )
        if mapped != target:
            continue
        leaves1 = {(f[l.node], l.half_edge) for l in n1.leaves}
        leaves2 = {(l.node, l.half_edge) for l in n2.leaves}
        if leaves1 != leaves2:
            continue
        for flip in (False, True):
            ok = True
            for leaf, sign in d1.signs.items():
                want = sign if not flip else ("-" if sign == "+" else "+")
                from normaltori.normal_graph import LeafStub

                if d2.signs[LeafStub(f[leaf.node], leaf.half_edge)] != want:
                    ok = False
                    break
            if ok:
                return True
    return False


def test_canonical_form_matches_brute_force_search():
    from normaltori.moves import normalize
    from normaltori.oracle import perturb, random_normal_torus
    from normaltori.graphs import build_standard

    decorated = []
    g = build_standard(2)
    for maker in (make_t0, make_t2):
        decorated.append(decorate(to_normal_torus(maker())))
    for seed in range(6):
        base = random_normal_torus(g, seed, 4)
        decorated.append(decorate(to_normal_torus(base)))
        decorated.append(decorate(normalize(perturb(base, seed, 2)).torus))
    agree = 0
    for i, a in enumerate(decorated):
        for b in decorated[i:]:
            assert equivalent(a, b) == _brute_force_equivalent(a, b)
            agree += 1
    assert agree >= 50
