"""Dihedral symmetry toolkit for impartial misere super tic-tac-toe.

Spiral numbering of square grids, the layer rotations and reflections that
generate a dihedral action on boards and games, orbit and canonical form
computation, and an exhaustive census of winning 2x2 boards grouped into
isomorphism classes.
"""

from .board import *
from .census import *
from .dihedral import *
from .game import *
from .perm import *
from .spiral import *

__version__ = "0.1.0"

# each module declares its public names once, in its own __all__
__all__ = sorted(
    board.__all__ + census.__all__ + dihedral.__all__
    + game.__all__ + perm.__all__ + spiral.__all__
)
