"""Boards for the impartial game and the dihedral action on them.

A board for side length n has n^2 fields, each holding n^2 positions, and a
cell (field i, position j) is either empty or an X.  Only X is representable:
both players place the same symbol.

A Board is its side length and its bitstring: fields in reading order across
the board and positions in reading order within each field, one character per
cell, ``1`` for an X.  Cells are named by spiral labels.  R, the 0-based
spiral-to-reading map, is read from the numbering: R(x) is
``spiral_numbering(n).reading[x - 1]``, and ``labels`` inverts it.  For
n=2, R sends labels 1, 2, 3, 4 to 0, 2, 3, 1.

The group action moves the content of cell (i, j) to cell (g(i), g(j)).
With ``src[R(g(x))] = R(x)``, the image holds at reading index (K, k) the
source cell (src[K], src[k]): the n^2 x n^2 field/position matrix with its
rows and its columns permuted alike.  Slice c of a bitstring with step n^2,
``bits[c::n^2]``, is column c of that matrix, so an element's kernel, the
itemgetter of the slices of columns src[0], src[1], ..., gives the columns
in image order; joined, they are the column-permuted matrix stored column
by column.  The same kernel applied to that string permutes the rows and
transposes back, so an image is two kernel calls and two joins, 2 n^2
slice copies in C.  Per n, the first use caches the n^2 slices, shared by
every element, in one record, _layout(n), with the label-order kernel
below.  Each element's kernel lives in one bounded cache keyed by
n and the element's image.  The group's table and act_board both draw on
it, so act_board never needs the group.  Only the table holds the gather
of the n^2 indices src that canonical_form applies to single field blocks,
and the slice that cuts each source block.  The table is part of one record per
n, _gathers(n), with the screen below and the two uniform blocks, so
canonical_form makes one cache lookup.

One function, _spell_fields, writes every board built from cells.  It
takes one bitmask per field, bit p-1 of field f's set when cell (f, p) holds
an X: ``Board(n, cells)`` ORs its cells into them, and the rules engine and
the census hand over the bitmasks they keep.  It spells them lowest bit
first into a label-order bitstring, whose character (f-1) n^2 + (p-1) is
cell (f, p), and the same two passes put it into reading order: that is the
permutation src[K] = labels[K] - 1, whose kernel _layout(n) keeps.  So
this module alone knows the reading layout.

canonical_form does not build every image.  One gather first takes the
first n characters of every image.  If one element alone has the smallest,
its image is built at once; else only the elements whose n are the
smallest stay.  While several do, it compares their images one field block
at a time in reading order, each block cut from the bitstring by the
slice of its source block, and drops each element whose block is larger than the
smallest, as a canonical labelling search prunes its candidates.  A block
of all 0s or all 1s is its own image under every element, so it is never
gathered.  If at least half the elements tie on the first block, as
they do on every board sigma fixes, the search compares the board with its
images under sigma and rho.  A board sigma fixes has
only two distinct images, itself and its image under rho, so the smaller
is the answer.  A board rho fixes has the same image under sigma^a and
sigma^a rho, so one of each pair stays.  The first element left has its
image built by its kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from struct import Struct
from typing import Callable, Iterable, Iterator, Sequence

from .dihedral import _GROUP_SIZES, GroupElement, group_elements
from .spiral import spiral_numbering

__all__ = (
    "BitstringError", "Board", "to_bitstring", "from_bitstring", "act_board",
    "image_bitstrings", "canonical_form",
)


class BitstringError(ValueError):
    """Malformed board bitstring."""


@dataclass(frozen=True, init=False)
class Board:
    """Immutable board: side length n and the reading-order bitstring of its
    n^4 cells, ``bits``.  ``Board(n, cells)`` builds it from the X cells, as
    (field, pos) pairs of spiral labels, through their per-field bitmasks
    and _spell_fields; ``xs`` gives them back.  A cell that is not a
    (field, pos) pair raises ValueError, one whose field or position is not
    an int, a bool included, TypeError, and one outside 1..n^2 ValueError,
    each naming the first such cell."""

    n: int = field(compare=False)  # equality and hashing are the string's
    bits: str

    def __init__(self, n: int, cells: Iterable[tuple[int, int]]):
        n_sq = spiral_numbering(n).n_sq  # the size check: InvalidSizeError for n outside 1..56
        fields = [0] * n_sq  # bit p-1 of fields[f-1] is cell (f, p)
        for cell in cells:
            try:
                i, j = cell
            except (TypeError, ValueError):  # not iterable, or not two items
                raise ValueError(f"cell {cell!r} is not a (field, pos) pair") from None
            if type(i) is not int or type(j) is not int:
                name, bad = ("field", i) if type(i) is not int else ("position", j)
                kind = type(bad).__name__
                raise TypeError(f"cell ({i!r}, {j!r}) {name} must be an int, not {kind}")
            if not (1 <= i <= n_sq and 1 <= j <= n_sq):
                raise ValueError(f"cell ({i}, {j}) outside 1..{n_sq} labels")
            fields[i - 1] |= 1 << (j - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", _spell_fields(n, fields))

    @classmethod
    def _of(cls, n: int, bits: str) -> Board:
        """The board of a bitstring already checked for side length n."""
        # the instance dict written directly, as GameState.__init__ does,
        # about a third cheaper than two object.__setattr__ calls
        board = object.__new__(cls)
        attrs = board.__dict__
        attrs["n"] = n
        attrs["bits"] = bits
        return board

    @classmethod
    def empty(cls, n: int) -> Board:
        return cls(n, ())

    @property
    def xs(self) -> frozenset[tuple[int, int]]:
        """The X cells, as (field, pos) pairs of spiral labels."""
        n_sq = self.n * self.n
        labels = spiral_numbering(self.n).labels
        return frozenset(
            (labels[idx // n_sq], labels[idx % n_sq])
            for idx, ch in enumerate(self.bits)
            if ch == "1"
        )

    @property
    def x_count(self) -> int:
        return self.bits.count("1")

    def __repr__(self) -> str:
        return f"Board(n={self.n}, xs={sorted(self.xs)})"


def to_bitstring(board: Board) -> str:
    """The reading-order 0/1 string of length n^4.  Raises TypeError for an
    argument without a Board's attributes."""
    try:
        return board.bits
    except AttributeError:
        raise TypeError(f"to_bitstring needs a Board, not {type(board).__name__}") from None


def _check_bitstring(bits: str, n: int) -> None:
    """Raise for an invalid side length, then for a non-str, then for a
    wrong length or a non-0/1."""
    n_sq = spiral_numbering(n).n_sq
    if not isinstance(bits, str):
        raise TypeError(f"bitstring must be a str, not {type(bits).__name__}")
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
    return Board._of(n, bits)


# a label permutation's gather, block slices and kernel, as the group's
# table holds them; a plain tuple, which unpacks faster than a NamedTuple
_Element = tuple[
    Callable[[str], Sequence[str]],
    tuple[slice, ...],
    Callable[[str], Sequence[str]],
]


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[tuple[slice, ...], Callable[[str], Sequence[str]]]:
    """The reading layout for side length n: the n^2 slices
    ``slice(c, None, n^2)``, slice c of a bitstring being column c of the
    field/position matrix, and the kernel of the columns ``labels[k] - 1``,
    k = 0 .. n^2 - 1, with which _image puts a label-order bitstring in
    reading order: reading block K is label-order block ``labels[K] - 1``."""
    n_sq = n * n
    slices = tuple(slice(c, None, n_sq) for c in range(n_sq))
    return slices, itemgetter(*[slices[x - 1] for x in spiral_numbering(n).labels])


def _source(n: int, image: tuple[int, ...]) -> list[int]:
    """The reading indices src of the label permutation g with
    ``image[x-1] = g(x)``: ``src[R(g(x))] = R(x)``, so the image holds at
    reading index K the item at src[K]."""
    read = spiral_numbering(n).reading
    src = [0] * (n * n)
    for read_x, gx in zip(read, image):
        src[read[gx - 1]] = read_x
    return src


# 512 holds the 298 elements of the groups for n = 1..7 at once; the bound
# keeps the cache's memory finite for any stream of label permutations
@lru_cache(maxsize=512)
def _element(n: int, image: tuple[int, ...]) -> Callable[[str], Sequence[str]]:
    """The kernel of the label permutation g with ``image[x-1] = g(x)``,
    cached per (n, image) in one bounded cache: the slices of the columns
    src[0], src[1], ... of a bitstring, see _source and _image.  _gathers
    builds the group's table through it, so while an element stays cached,
    act_board uses the kernel canonical_form and image_bitstrings use.  At
    n = 1 it returns the string itself.
    """
    slices, src = _layout(n)[0], _source(n, image)
    return itemgetter(*[slices[c] for c in src])


def _image(kernel: Callable[[str], Sequence[str]], bits: str) -> str:
    """The image bitstring of a board under the element with this kernel,
    or, with _layout's kernel, a label-order bitstring in reading order.

    With the field/position matrix ``M[i][j] = bits[i n^2 + j]``, the
    first pass's piece k is column src[k], so the joined string holds
    the column-permuted matrix column by column.  The second pass's piece K,
    a stride-n^2 slice from offset src[K], is row src[K] of that matrix, so
    image block K is ``M[src[K]][src[k]]`` for k = 0 .. n^2 - 1.
    """
    join = "".join
    return join(kernel(join(kernel(bits))))


def _spell_fields(n: int, fields: Sequence[int]) -> str:
    """The reading-order bitstring of per-field bitmasks, bit p-1 of
    ``fields[f-1]`` set when cell (f, p) holds an X: the one writer of a
    board built from cells.  The bitmasks are joined n to an int,
    ``fields[f-1]`` above those before it, since an int of all n^4 bits
    grows at every shift, and each int is spelt lowest bit first, so
    cell (f, p) is character (f-1) n^2 + (p-1): label order, which the
    _layout kernel puts in reading order."""
    n_sq = n * n
    spell = f"0{n * n_sq}b"
    spelt = []
    for start in range(0, n_sq, n):
        joined = 0
        for bits in reversed(fields[start : start + n]):
            joined = joined << n_sq | bits
        spelt.append(format(joined, spell)[::-1])
    return _image(_layout(n)[1], "".join(spelt))


# per n: the rows of group_elements(n), the screen's gather and splitter, and
# the two uniform field blocks; a plain tuple, as _Element is
_Gathers = tuple[
    tuple[_Element, ...],
    Callable[[str], tuple[str, ...]],
    Callable[[bytes], tuple[bytes, ...]],
    tuple[str, str],
]


@lru_cache(maxsize=_GROUP_SIZES)
def _gathers(n: int) -> _Gathers:
    """What canonical_form and image_bitstrings need of group_elements(n).

    The rows hold each element's gather, block slices and kernel, in the
    group's order.  The gather picks, for reading index K, the item at
    src[K]; block slice K cuts source block src[K] from a bitstring, and
    block K of the image is that block gathered.  The kernel is
    _element's.  The screen gathers the first n characters of every image,
    the first row of its first block, and the splitter cuts their joined
    bytes into the 2m rows.  The uniform blocks, all 0s and all 1s, are
    their own images.
    """
    n_sq = n * n
    # one slice per field block, shared by every row
    cuts = tuple(slice(start, start + n_sq) for start in range(0, n_sq * n_sq, n_sq))
    rows, firsts = [], []
    for elem in group_elements(n):
        src = _source(n, elem.perm.image)
        blocks = tuple(map(cuts.__getitem__, src))
        rows.append((itemgetter(*src), blocks, _element(n, elem.perm.image)))
        firsts += [src[0] * n_sq + s for s in src[:n]]
    split = Struct(f"{n}s" * len(rows)).unpack
    return tuple(rows), itemgetter(*firsts), split, ("0" * n_sq, "1" * n_sq)


def act_board(board: Board, elem: GroupElement) -> Board:
    """Move the content of every cell (i, j) to (g(i), g(j)).

    Raises TypeError for arguments without a Board's or a GroupElement's
    attributes, and ValueError for an element of another side length.
    """
    try:
        n = board.n
        if n != elem.n:
            raise ValueError(f"board is {n}x{n} but element acts on n={elem.n}")
        return Board._of(n, _image(_element(n, elem.perm.image), board.bits))
    except AttributeError:  # caught, not tested for, so a valid call pays nothing
        kinds = f"{type(board).__name__} and {type(elem).__name__}"
        raise TypeError(f"act_board needs a Board and a GroupElement, not {kinds}") from None


def image_bitstrings(bits: str, n: int) -> Iterator[str]:
    """The bitstrings of the images of a board under each of group_elements(n),
    in that order, computed from its bitstring alone.

    Checks its input as from_bitstring does (InvalidSizeError, then
    BitstringError) before it returns.
    """
    _check_bitstring(bits, n)
    return (_image(kernel, bits) for _, _, kernel in _gathers(n)[0])


def canonical_form(board: Board) -> str:
    """Lexicographically smallest bitstring over the orbit; orbit-constant.

    A pruned search.  One gather screens every element by the first n
    characters of its image; if one element alone has the smallest, its
    image is the answer.  Else those with the smallest stay live, and while
    several do, block K of every live element's image is built, for K in
    reading order, from the one source block it needs, and again only the
    smallest stay live.  All-0 and all-1 blocks are their own images and are
    not gathered.  If at least half the elements tie on the first block,
    whole images test whether sigma fixes the board, which leaves it two
    images, or rho does, which leaves one live element per rotation.  The
    first element left has its image built whole by its kernel: survivors
    that tie on every block have equal images.  Raises TypeError for an
    argument without a Board's attributes.
    """
    try:
        n, bits = board.n, board.bits
    except AttributeError:
        raise TypeError(f"canonical_form needs a Board, not {type(board).__name__}") from None
    rows, screen, split, uniform = _gathers(n)
    join = "".join
    prefixes = split(join(screen(bits)).encode())
    least = min(prefixes)
    if prefixes.count(least) == 1:
        return _image(rows[prefixes.index(least)][2], bits)
    live = [row for row, prefix in zip(rows, prefixes) if prefix == least]
    for k in range(n * n):
        images = [
            block if (block := bits[blocks[k]]) in uniform else join(gather(block))
            for gather, blocks, _ in live
        ]
        best = min(images)
        live = [row for row, image in zip(live, images) if image == best]
        if len(live) == 1:
            break
        if k == 0 and 2 * len(live) >= len(rows) > 2:
            # rows run e, rho, sigma, sigma rho, ...: a board sigma fixes
            # has the images of e and rho, and one rho fixes has those of
            # the rotations, each twice in a row
            flipped = _image(rows[1][2], bits)
            if _image(rows[2][2], bits) == bits:
                return min(bits, flipped)
            if flipped == bits:
                live = live[::2]
    return _image(live[0][2], bits)
