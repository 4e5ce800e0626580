"""Dihedral symmetry toolkit for impartial misere super tic-tac-toe.

Spiral numbering of square grids, the layer rotations and reflections that
generate a dihedral action on boards and games, orbit and canonical form
computation, and an exhaustive census of winning 2x2 boards grouped into
isomorphism classes.
"""

from .board import (
    BitstringError,
    Board,
    act_board,
    canonical_form,
    from_bitstring,
    image_bitstrings,
    to_bitstring,
)
from .census import (
    CensusDiff,
    ClosureError,
    IsoClass,
    ListingParseError,
    bundled_census_text,
    classes_from_jsonl,
    classes_to_jsonl,
    classes_to_listing_text,
    declared_class_counts,
    diff_census,
    enumerate_winning_boards,
    parse_census_text,
    partition_classes,
    size_histogram,
)
from .dihedral import (
    DihedralReport,
    GroupElement,
    RelationCheck,
    dihedral_order,
    group_element,
    group_elements,
    layer_reflection,
    layer_rotation,
    ring_sizes,
    verify_dihedral,
)
from .game import (
    GameState,
    GameValidation,
    IllegalMoveError,
    InvalidGameError,
    Move,
    TerminalStateError,
    act_game,
    apply_move,
    final_board,
    game_orbit,
    grid_lines,
    is_valid_game,
    legal_moves,
    replay,
)
from .perm import Permutation
from .spiral import (
    InvalidLayerError,
    InvalidSizeError,
    NumberedSquare,
    spiral_numbering,
)

__version__ = "0.1.0"

__all__ = [
    "BitstringError",
    "Board",
    "CensusDiff",
    "ClosureError",
    "DihedralReport",
    "GameState",
    "GameValidation",
    "GroupElement",
    "IllegalMoveError",
    "InvalidGameError",
    "InvalidLayerError",
    "InvalidSizeError",
    "IsoClass",
    "ListingParseError",
    "Move",
    "NumberedSquare",
    "Permutation",
    "RelationCheck",
    "TerminalStateError",
    "act_board",
    "act_game",
    "apply_move",
    "bundled_census_text",
    "canonical_form",
    "classes_from_jsonl",
    "classes_to_jsonl",
    "classes_to_listing_text",
    "declared_class_counts",
    "diff_census",
    "dihedral_order",
    "enumerate_winning_boards",
    "final_board",
    "from_bitstring",
    "game_orbit",
    "grid_lines",
    "group_element",
    "group_elements",
    "image_bitstrings",
    "is_valid_game",
    "layer_reflection",
    "layer_rotation",
    "legal_moves",
    "parse_census_text",
    "partition_classes",
    "replay",
    "ring_sizes",
    "size_histogram",
    "spiral_numbering",
    "to_bitstring",
    "verify_dihedral",
]
