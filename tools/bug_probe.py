"""How the step checks meet two planted move bugs, over a fixed grid of round trips.

    python3 tools/bug_probe.py

Run from the root of a checkout; the package is imported from ``src/``.
Each case draws ``random_normal_torus(g, seed, 8)`` on ``build_standard(rank)``
or ``random_cubic(rank, seed)``, for ranks 2, 3, 4 and 6 and seeds 0-9,
perturbs it by ``k`` inverse moves (4, 16 and 48) with that seed, and
normalizes the result: 240 cases.  A case either raises, or ends in a
torus with the base's canonical code ("same"), or ends in another code
with no error ("silent").  The grid runs once unplanted and once with each
bug of ``tests/test_oracle.py::test_the_experiments_catch_planted_bugs``:
a slide that gives its merged circle the inverted transport bit, and a cap
that takes the disk's other side for its ball.  One row per plant; the
rows depend only on the code.  Exit status 1 when the unplanted row is not
every case the same.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normaltori import moves  # noqa: E402
from normaltori.graphs import build_standard, random_cubic  # noqa: E402
from normaltori.moves import normalize  # noqa: E402
from normaltori.normal_graph import canonicalize, decorate, to_normal_torus  # noqa: E402
from normaltori.oracle import perturb, random_normal_torus  # noqa: E402
from normaltori.position import PositionError  # noqa: E402

RANKS, SEEDS, BOUND, KS = (2, 3, 4, 6), range(10), 8, (4, 16, 48)


def _inverted_bit(t, m, index, slide=moves._apply_slide):
    out, pieces, circles, sphere = slide(t, m, index)
    (merged,) = circles - t.circles.keys()
    out.transport[merged] = not out.transport[merged]
    return out, pieces, circles, sphere


def _other_side(t, disk, ball=moves._ball_region):
    slot = disk.boundary[0]
    return t.trees[t.circles[slot.circle].sphere].other_region(slot.circle, ball(t, disk))


PLANTS = {"unplanted": {}, "inverted merged bit": {"_apply_slide": _inverted_bit},
          "wrong cap side": {"_ball_region": _other_side}}


def _cases():
    """(base, its canonical code, seed, k) of every case, drawn and coded unplanted."""
    for rank in RANKS:
        for seed in SEEDS:
            for g in (build_standard(rank), random_cubic(rank, seed)):
                base = random_normal_torus(g, seed, BOUND)
                code = canonicalize(decorate(to_normal_torus(base)))
                for k in KS:
                    yield base, code, seed, k


def _outcome(base, code, seed: int, k: int) -> str:
    try:
        torus = normalize(perturb(base, seed, k)).torus
    except PositionError:
        return "raised"
    return "same" if canonicalize(decorate(torus)) == code else "silent"


def main() -> int:
    cases = list(_cases())
    rows = {}
    print(f"{'plant':<20} raised  same  silent  (of {len(cases)})")
    for plant, patch in PLANTS.items():
        real = {name: getattr(moves, name) for name in patch}
        for name, planted in patch.items():
            setattr(moves, name, planted)
        try:
            outcomes = [_outcome(*case) for case in cases]
        finally:
            for name, value in real.items():
                setattr(moves, name, value)
        rows[plant] = [outcomes.count(kind) for kind in ("raised", "same", "silent")]
        print(f"{plant:<20} {rows[plant][0]:>6} {rows[plant][1]:>5} {rows[plant][2]:>7}")
    return 0 if rows["unplanted"] == [0, len(cases), 0] else 1


if __name__ == "__main__":
    raise SystemExit(main())
