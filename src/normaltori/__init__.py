"""Combinatorics of essential tori relative to a maximal sphere system.

The package models how an essential torus in a connected sum of S2 x S1's
sits relative to a maximal system of 2-spheres, normalizes the position by
tube slides and disk caps, extracts the decorated-graph invariant that
classifies normal tori up to normal homotopy, and certifies that normal
positions realize the minimal intersection numbers in their class.
"""

from .graphs import (
    GeneratorLabeling,
    GraphError,
    HalfEdge,
    SphereGraph,
    build_standard,
    label_generators,
    random_cubic,
    validate_graph,
)
from .position import (
    SIDE_A,
    SIDE_B,
    BoundarySlot,
    Circle,
    Piece,
    PositionError,
    RegionTree,
    TorusPosition,
    euler_characteristic,
    intersection_vector,
    is_normal,
    total_intersections,
    validate_position,
)
from .moves import (
    Cap,
    Move,
    MoveError,
    NormalizeError,
    NormalizeResult,
    Slide,
    apply_move,
    find_moves,
    normalize,
)
from .normal_graph import (
    DecoratedGraph,
    KleinBottleError,
    NormalTorus,
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
from .oracle import (
    FuzzReport,
    confluence_search,
    minimality_experiment,
    perturb,
    random_normal_torus,
    roundtrip_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
