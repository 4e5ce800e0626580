"""Boards for the impartial game and the dihedral action on them.

A board for side length n has n^2 fields, each holding n^2 positions; both
are addressed by spiral labels, and a cell (field i, position j) is either
empty or an X.  Only X is representable: both players place the same symbol.

Two label conventions coexist.  All computation uses spiral labels; the
bitstring serialization enumerates fields in reading order across the board
and positions in reading order within each field, one character per cell,
``1`` for an X.  For n=2 the spiral-to-reading map is 1->1, 2->3, 3->4, 4->2.

The group action moves the content of cell (i, j) to cell (g(i), g(j)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dihedral import GroupElement, group_elements
from .spiral import spiral_numbering


class BitstringError(ValueError):
    """Malformed board bitstring."""


@dataclass(frozen=True)
class Board:
    """Immutable board: side length and the set of X cells (spiral labels)."""

    n: int
    xs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"side length must be a positive integer, got {self.n}")
        if not isinstance(self.xs, frozenset):
            object.__setattr__(self, "xs", frozenset(self.xs))
        n_sq = self.n * self.n
        for field, pos in self.xs:
            if not (1 <= field <= n_sq and 1 <= pos <= n_sq):
                raise ValueError(f"cell ({field}, {pos}) outside 1..{n_sq} labels")

    @classmethod
    def empty(cls, n: int) -> Board:
        return cls(n, frozenset())

    @property
    def x_count(self) -> int:
        return len(self.xs)

    def __repr__(self) -> str:
        return f"Board(n={self.n}, xs={sorted(self.xs)})"


@lru_cache(maxsize=None)
def _reading_maps(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """spiral->reading and reading->spiral label maps (index 0 unused)."""
    sq = spiral_numbering(n)
    to_read = [0] * (n * n + 1)
    to_spiral = [0] * (n * n + 1)
    for label in range(1, n * n + 1):
        row, col = sq.cell_of(label)
        read = row * n + col + 1
        to_read[label] = read
        to_spiral[read] = label
    return tuple(to_read), tuple(to_spiral)


def to_bitstring(board: Board) -> str:
    """Serialize to the reading-order 0/1 string of length n^4."""
    n_sq = board.n * board.n
    to_read, _ = _reading_maps(board.n)
    chars = ["0"] * (n_sq * n_sq)
    for field, pos in board.xs:
        chars[(to_read[field] - 1) * n_sq + to_read[pos] - 1] = "1"
    return "".join(chars)


def from_bitstring(bits: str, n: int) -> Board:
    """Parse a reading-order 0/1 string of length n^4."""
    n_sq = n * n
    if len(bits) != n_sq * n_sq:
        raise BitstringError(
            f"need {n_sq * n_sq} characters for n={n}, got {len(bits)}"
        )
    _, to_spiral = _reading_maps(n)
    xs = set()
    for idx, ch in enumerate(bits):
        if ch == "1":
            xs.add((to_spiral[idx // n_sq + 1], to_spiral[idx % n_sq + 1]))
        elif ch != "0":
            raise BitstringError(f"invalid character {ch!r} at index {idx}")
    return Board(n, frozenset(xs))


def act_board(board: Board, elem: GroupElement) -> Board:
    """Move the content of every cell (i, j) to (g(i), g(j))."""
    if board.n != elem.n:
        raise ValueError(f"board is {board.n}x{board.n} but element acts on n={elem.n}")
    g = elem.perm
    return Board(board.n, frozenset((g(i), g(j)) for i, j in board.xs))


def board_orbit(board: Board) -> frozenset[Board]:
    """All images of the board under the full dihedral action."""
    return frozenset(act_board(board, g) for g in group_elements(board.n))


def canonical_form(board: Board) -> str:
    """Lexicographically smallest bitstring over the orbit; orbit-constant."""
    return min(to_bitstring(act_board(board, g)) for g in group_elements(board.n))
