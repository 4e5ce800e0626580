"""Boards for the impartial game and the dihedral action on them.

A board for side length n has n^2 fields, each holding n^2 positions; both
are addressed by spiral labels, and a cell (field i, position j) is either
empty or an X.  Only X is representable: both players place the same symbol.

Two label conventions coexist.  All computation uses spiral labels; the
bitstring serialization enumerates fields in reading order across the board
and positions in reading order within each field, one character per cell,
``1`` for an X.  For n=2 the spiral-to-reading map is 1->1, 2->3, 3->4, 4->2.

The group action moves the content of cell (i, j) to cell (g(i), g(j)).
On bitstrings it is two gathers with one index map: with R the
spiral-to-reading map (0-based) and ``src[R(g(x))] = R(x)``, the image holds
at reading index (K, k) the source cell (src[K], src[k]).  One gather
reorders the n^2 field blocks and the same gather reorders the n^2 positions
inside each block, so an element costs n^2 cached indices, not n^4.

canonical_form does not build every image.  It compares the images one
field block at a time in reading order and drops each element whose block
is larger than the smallest, as a canonical labelling search prunes its
candidates; the last element left has its image finished in one step.  A
block of all 0s or all 1s is its own image under every element, so it is
never gathered.  If every image has the same first block, the search checks
whether sigma or rho fixes the board; each that does lets it keep one element
per coset of the subgroup that generator generates.  Each element's block
order is cached beside its gather: another n^2 indices per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterator, Sequence

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
        spiral_numbering(self.n)  # the size check: InvalidSizeError for n outside 1..56
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


@lru_cache(maxsize=None)
def _spiral_to_reading(n: int) -> Callable[[Sequence[str]], tuple[str, ...]]:
    """The gather that puts n^2 items indexed by spiral label - 1 in reading
    order; it always returns a tuple, also at n = 1."""
    _, to_spiral = _reading_maps(n)
    src = [label - 1 for label in to_spiral[1:]]
    return itemgetter(*src) if n > 1 else lambda seq: (seq[0],)


def fields_to_bitstring(field_bits: Sequence[int], n: int) -> str:
    """The bitstring of the board whose field i (spiral label) holds an X at
    position p exactly when bit p-1 of ``field_bits[i-1]`` is set.

    Raises InvalidSizeError for an invalid side length, and ValueError
    unless there are n^2 bitmasks, each in 0 .. 2^(n^2) - 1.
    """
    n_sq = spiral_numbering(n).n_sq
    if len(field_bits) != n_sq or min(field_bits) < 0 or max(field_bits) >> n_sq:
        raise ValueError(f"need {n_sq} field bitmasks of {n_sq} bits for n={n}")
    gather = _spiral_to_reading(n)
    spiral_blocks = [format(bits, f"0{n_sq}b")[::-1] for bits in field_bits]
    return "".join(["".join(gather(block)) for block in gather(spiral_blocks)])


def _check_bitstring(bits: str, n: int) -> None:
    """Raise for an invalid side length, then for a wrong length or a non-0/1."""
    n_sq = spiral_numbering(n).n_sq
    if len(bits) != n_sq * n_sq:
        raise BitstringError(
            f"need {n_sq * n_sq} characters for n={n}, got {len(bits)}"
        )
    if bits.count("0") + bits.count("1") != len(bits):
        idx, ch = next((i, ch) for i, ch in enumerate(bits) if ch not in "01")
        raise BitstringError(f"invalid character {ch!r} at index {idx}")


def from_bitstring(bits: str, n: int) -> Board:
    """Parse a reading-order 0/1 string of length n^4."""
    _check_bitstring(bits, n)
    n_sq = n * n
    _, to_spiral = _reading_maps(n)
    return Board(
        n,
        frozenset(
            (to_spiral[idx // n_sq + 1], to_spiral[idx % n_sq + 1])
            for idx, ch in enumerate(bits)
            if ch == "1"
        ),
    )


def act_board(board: Board, elem: GroupElement) -> Board:
    """Move the content of every cell (i, j) to (g(i), g(j))."""
    if board.n != elem.n:
        raise ValueError(f"board is {board.n}x{board.n} but element acts on n={elem.n}")
    img = elem.perm.image  # a Board's cells are in range already
    return Board(board.n, frozenset((img[i - 1], img[j - 1]) for i, j in board.xs))


def board_orbit(board: Board) -> frozenset[Board]:
    """All images of the board under the full dihedral action."""
    return frozenset(act_board(board, g) for g in group_elements(board.n))


# an element's gather and its block order, as _gathers caches them
_Element = tuple[Callable[[Sequence[str]], tuple[str, ...]], tuple[int, ...]]


@lru_cache(maxsize=None)
def _gathers(n: int) -> tuple[_Element, ...]:
    """One (gather, block order) pair per element of group_elements(n), in
    that order.

    Each gather picks, for reading index K, the item at src[K] with
    ``src[R(g(x))] = R(x)``; it always returns a tuple, also at n = 1.  The
    block order is src itself, ``gather(range(n^2))``: image block K is the
    gathered source block ``order[K]``.
    """
    to_read, _ = _reading_maps(n)
    gathers = []
    for elem in group_elements(n):
        src = [0] * (n * n)
        for x, gx in enumerate(elem.perm.image, 1):
            src[to_read[gx] - 1] = to_read[x] - 1
        gather = itemgetter(*src) if n > 1 else lambda seq: (seq[0],)
        gathers.append((gather, tuple(src)))
    return tuple(gathers)


def image_bitstrings(bits: str, n: int) -> Iterator[str]:
    """The bitstrings of the images of a board under each of group_elements(n),
    in that order, computed from its bitstring alone.

    Checks its input as from_bitstring does (InvalidSizeError, then
    BitstringError) before it returns.
    """
    _check_bitstring(bits, n)
    gathers = _gathers(n)
    n_sq = n * n
    blocks = [bits[k : k + n_sq] for k in range(0, len(bits), n_sq)]
    join = "".join
    return (
        join([join(gather(block)) for block in gather(blocks)])
        for gather, _ in gathers
    )


def _fixes(element: _Element, blocks: list[str]) -> bool:
    """Whether the element with this entry of _gathers maps the board whose
    field blocks are ``blocks`` to itself."""
    gather, order = element
    return all("".join(gather(blocks[i])) == block for i, block in zip(order, blocks))


def canonical_form(board: Board) -> str:
    """Lexicographically smallest bitstring over the orbit; orbit-constant.

    A pruned search over the images' field blocks: block K of every live
    element's image is built, only the elements whose block is the smallest
    stay live, and the last one left has its image finished in one step.
    All-0 and all-1 blocks are their own images and are not gathered.  When
    every element ties on the first block and sigma or rho fixes the board,
    one element per coset of the subgroup it generates is searched.
    """
    n_sq = board.n * board.n
    bits = to_bitstring(board)
    blocks = [bits[k : k + n_sq] for k in range(0, len(bits), n_sq)]
    uniform = ("0" * n_sq, "1" * n_sq)
    join = "".join
    table = _gathers(board.n)
    live, head = table, []
    while len(live) > 1 and len(head) < n_sq:
        k = len(head)
        images = [
            block if (block := blocks[order[k]]) in uniform else join(gather(block))
            for gather, order in live
        ]
        best = min(images)
        live = [el for el, image in zip(live, images) if image == best]
        head.append(best)
        if k == 0 and len(live) == len(table) > 2:
            # table runs e, rho, sigma, sigma rho, ...: if sigma fixes the
            # board the images are those of e and rho, if rho fixes it those
            # of the rotations
            if _fixes(table[2], blocks):
                live = live[:2]
            if _fixes(table[1], blocks):
                live = live[::2]
    gather, order = live[0]
    head += [join(gather(blocks[i])) for i in order[len(head) :]]
    return join(head)
