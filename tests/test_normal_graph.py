from __future__ import annotations

import pytest

from normaltori.fixtures import make_klein, make_t0, make_t1, make_t2
from normaltori.graphs import label_generators
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
from normaltori.position import PositionError


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


def test_decorate_klein_rejected():
    nt = to_normal_torus(make_klein())
    with pytest.raises(KleinBottleError, match="Klein"):
        decorate(nt)


def test_canonical_form_flip_invariant():
    nt = to_normal_torus(make_t0())
    assert canonicalize(decorate(nt, "F0", "A")) == canonicalize(decorate(nt, "F0", "B"))
    nt2 = to_normal_torus(make_t2())
    assert canonicalize(decorate(nt2, "F2", "A")) == canonicalize(decorate(nt2, "F2", "B"))


def test_canonical_form_relabel_invariant():
    t = make_t0()
    renamed = t.clone()
    renamed.pieces = {
        "Z9": renamed.pieces["F0"],
        "A1": renamed.pieces["F1"],
    }
    renamed.pieces["Z9"].id = "Z9"
    renamed.pieces["A1"].id = "A1"
    d1 = decorate(to_normal_torus(t))
    d2 = decorate(to_normal_torus(renamed))
    assert canonicalize(d1) == canonicalize(d2)
    assert equivalent(d1, d2)


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


def test_canonical_form_of_a_tree_is_an_error():
    # A loaded normal torus is not re-checked; with an axis crossing gone its graph is a tree.
    nt = to_normal_torus(make_t2())
    del nt.crossings["c0"]
    with pytest.raises(PositionError, match="no cycle found"):
        canonicalize(decorate(nt))


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


def test_no_reversal_flag():
    d = decorate(to_normal_torus(make_t0()))
    flipped = decorate(to_normal_torus(make_t0()), "F0", "B")
    assert equivalent(d, flipped, allow_reversal=False)
    assert equivalent(d, d, allow_reversal=False)
    code_with = canonicalize(d, allow_reversal=True)
    code_without = canonicalize(d, allow_reversal=False)
    assert code_with <= code_without
