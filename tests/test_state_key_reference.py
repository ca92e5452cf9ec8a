"""The confluence state key against a frozen copy of its dict-based form.

``test_oracle.test_state_key_partitions_like_the_reference`` checks that
``oracle._state_key`` partitions states as the string-building key before
it did; this module pins the key itself.  It keeps ``_state_key`` and
``_intern`` verbatim as they read while every table was a dict keyed by
id, and asserts that the package's key, which lists pieces, circles and
regions by their place in the position's dicts and recomputes only the
kinds that can split, spells the same tuple on:

* every state popped by criterion 3's searches;
* every state popped by searches shaped like the confluence-exhaust
  workload: t0 and t2 perturbed by 3 to 5 inverse moves, and 5-circle
  bases at ranks 2-4 perturbed by 2 and 3;
* states whose trees share region ids, which ``validate_position``
  rejects, so no search pops them: t2 and t2 perturbed by 3 with s1's
  regions renamed to s0's, and every state popped by the search of the
  perturbed t2, renamed so;
* copies of all of those whose ``pieces``, ``circles``, ``trees``,
  ``transport`` and each tree's ``edges`` list their items in reverse, so
  that an index leaking the dicts' order into the key shows.

Equal tuples mean equal dedup, so every ``explored`` count holds.
"""

from __future__ import annotations

from collections import defaultdict

from conftest import criterion_3_inputs, recorded, shared_region_ids

from normaltori import oracle
from normaltori.fixtures import make_t0, make_t2
from normaltori.graphs import build_standard
from normaltori.oracle import confluence_search, perturb, random_normal_torus
from normaltori.position import RegionTree, TorusPosition, total_intersections


# ---------------------------------------------------------------------------
# frozen: the key with dict tables


def _state_key(t: TorusPosition) -> tuple:
    """State fingerprint: the position with ids renamed in the order of refined colours.

    Colours come from 1-dim Weisfeiler-Leman refinement over pieces,
    circles and regions: each round a colour's signature is its previous
    colour plus its neighbours' colours, interned to its rank among its
    kind's distinct signatures.  A signature starts with the old colour,
    so a round that splits no class gives back the old colours, and so
    would every later round: refinement stops after 4 rounds or once no
    kind's colour count grew, and skips a kind whose colours are already
    all distinct.  Half-edges enter as their rank in sorted order, which
    keeps every sort and so every colour.  The key is a tuple spelling out
    the position under the renaming, so two states share a key only if
    they are isomorphic and the search never gives a wrong answer; the
    colours decide only how much exploration is duplicated.
    """
    he_rank = {he: i for i, he in enumerate(sorted(t.graph.incidence))}
    piece_init, slots, ends = {}, {}, defaultdict(list)
    for pid, p in t.pieces.items():
        piece_init[pid] = (p.pants, p.genus, tuple(sorted(p.uncrossed.items())))
        slots[pid] = [(he_rank[slot.half_edge], slot.circle, slot.region_a) for slot in p.boundary]
        for slot in p.boundary:
            ends[slot.circle].append((slot.half_edge.end, pid))
    # circle -> (its ends in circle_slots order, stably sorted by end; its two regions)
    circles = {cid: (sorted(ends[cid], key=lambda e: e[0]), *t.trees[c.sphere].edges[cid])
               for cid, c in t.circles.items()}
    region_init, inc = {}, {}
    for s, tree in t.trees.items():
        for r in tree.regions:
            inc[r] = [c for c, _ in tree.neighbors.get(r, ())]
            region_init[r] = (s, len(inc[r]))
    circle_init = {cid: (c.sphere, t.transport[cid]) for cid, c in t.circles.items()}
    # piece, circle and region colours, and how many distinct ones of each
    (pc, n_p), (cc, n_c), (rc, n_r) = _intern(piece_init), _intern(circle_init), _intern(region_init)
    for _ in range(4):
        counts = n_p, n_c, n_r
        (pc, n_p), (cc, n_c), (rc, n_r) = (
            (pc, n_p) if n_p == len(pc) else _intern(
                {pid: (pc[pid], tuple(sorted([(h, cc[c], rc[r]) for h, c, r in sl]))) for pid, sl in slots.items()}
            ),
            (cc, n_c) if n_c == len(cc) else _intern(
                {cid: (cc[cid], tuple([(e, pc[pid]) for e, pid in es]), tuple(sorted((rc[a], rc[b]))))
                 for cid, (es, a, b) in circles.items()}
            ),
            (rc, n_r) if n_r == len(rc) else _intern(
                {r: (rc[r], tuple(sorted([cc[c] for c in cs]))) for r, cs in inc.items()}
            ),
        )
        if (n_p, n_c, n_r) == counts:
            break
    circle_order = [cid for _, cid in sorted(zip(cc.values(), cc))]
    new_c = {cid: i for i, cid in enumerate(circle_order)}
    new_r = {r: (s, i) for s in sorted(t.trees)
             for i, (_, r) in enumerate(sorted([(rc[x], x) for x in t.trees[s].regions]))}
    return (
        tuple((piece_init[pid], tuple(sorted([(h, new_c[c], new_r[r]) for h, c, r in slots[pid]])))
              for _, pid in sorted(zip(pc.values(), pc))),
        tuple((t.circles[cid].sphere, t.transport[cid], tuple(sorted([new_r[r] for r in circles[cid][1:]])))
              for cid in circle_order),
    )


def _intern(signatures: dict) -> tuple[dict, int]:
    """Replace each signature with its rank among the distinct signatures; also return their number."""
    rank = {sig: i for i, sig in enumerate(sorted(set(signatures.values())))}
    return {x: rank[sig] for x, sig in signatures.items()}, len(rank)


# ---------------------------------------------------------------------------
# corpus


def _workload_shaped() -> list[TorusPosition]:
    """Small searches of the confluence-exhaust shapes, each of at most 12 circles."""
    inputs = [perturb(make(), seed, k) for make in (make_t0, make_t2) for seed, k in ((1, 3), (2, 4), (3, 5))]
    for rank in (2, 3, 4):
        bases = (random_normal_torus(build_standard(rank), seed, 5) for seed in range(40))
        base = next(b for b in bases if len(b.circles) == 5)
        inputs += [perturb(base, 7, k) for k in (2, 3)]
    return [t for t in inputs if total_intersections(t) <= 12]


def _reversed(t: TorusPosition) -> TorusPosition:
    """``t`` with its dicts, and each tree's edges, listing their items in reverse."""
    def flip(d: dict) -> dict:
        return dict(reversed(list(d.items())))

    trees = {s: RegionTree(s, tree.regions, flip(tree.edges)) for s, tree in flip(t.trees).items()}
    return TorusPosition(t.graph, flip(t.pieces), flip(t.circles), trees, flip(t.transport))


def _popped(inputs) -> list[tuple[TorusPosition, tuple]]:
    """(state, its key) for every state the searches of ``inputs`` popped."""
    with recorded(oracle._state_key, lambda args, key: (args[0], key)) as popped:
        for t in inputs:
            confluence_search(t)
    return popped


def _assert_keys_match(popped):
    for t, key in popped:
        assert key == _state_key(t)
        flipped = _reversed(t)
        assert oracle._state_key(flipped) == _state_key(flipped)


def test_key_matches_the_frozen_key_on_criterion_3():
    states = _popped(p for _, p in criterion_3_inputs())
    assert len(states) > 1508  # every explored state, and the duplicates popped besides
    _assert_keys_match(states)


def test_key_matches_the_frozen_key_on_workload_shaped_searches():
    states = _popped(_workload_shaped())
    assert len(states) > 200
    _assert_keys_match(states)


def test_key_matches_the_frozen_key_on_shared_region_ids():
    """Keyed directly: the check rejects these states, so no search pops them; the perturbed one is renamed after perturbing."""
    perturbed = perturb(make_t2(), 5, 3)
    popped = _popped([perturbed])
    states = [make_t2(), perturbed] + [t for t, _ in popped]
    shared = [shared_region_ids(t, "s1", "s0") for t in states]
    assert len(shared) > 20
    _assert_keys_match([(t, oracle._state_key(t)) for t in shared])
