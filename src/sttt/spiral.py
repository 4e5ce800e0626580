"""Counterclockwise spiral numbering of a square grid and its ring layers.

An n x n grid is numbered 1..n^2 starting in the top-left corner and walking
counterclockwise one ring at a time: down the left edge, along the bottom,
up the right edge and back along the top, then inward to the next ring.  The
grid decomposes into floor((n+1)/2) concentric rings, or layers, counted from
the innermost (layer 1) outward; a layer's sorted label list is its level
set.  Since each ring is numbered whole before the next, every level set is
a consecutive block of labels.

Boards are serialized in reading order, so the numbering also fixes R, the
spiral-to-reading map: R(x) = row * n + col for the cell of label x.  This
module is its one owner; other modules read R and its inverse from
NumberedSquare's ``reading`` and ``labels`` tuples.

It also owns the wording of the package's two wrong-type errors: _needs
builds "<caller> needs <what>, not <types>" for an entry point whose
argument lacks the attributes it reads, and _not_int builds "<name> must be
an int, not <type>", which _check_int raises.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

__all__ = ("InvalidSizeError", "InvalidLayerError", "NumberedSquare", "spiral_numbering")


def _needs(caller: str, wanted: str, *args) -> TypeError:
    """The TypeError of ``caller``, which needs ``wanted`` and got ``args``."""
    kinds = " and ".join(type(arg).__name__ for arg in args)
    return TypeError(f"{caller} needs {wanted}, not {kinds}")


def _not_int(name: str, value) -> TypeError:
    """The TypeError of a ``name`` that is not an int."""
    return TypeError(f"{name} must be an int, not {type(value).__name__}")


def _check_int(name: str, value) -> None:
    """Raise _not_int's TypeError unless ``value`` is an int, not a bool."""
    if type(value) is not int:
        raise _not_int(name, value)


class InvalidSizeError(ValueError):
    """Side length outside the supported range."""


class InvalidLayerError(ValueError):
    """Layer index outside 1..layer_count."""


@dataclass(frozen=True, init=False, repr=False)
class NumberedSquare:
    """Spiral-numbered n x n grid with its layer decomposition.

    Cells are (row, col) pairs, 0-indexed from the top-left; labels run
    1..n^2; ``reading[x - 1]`` is label x's 0-based reading index and
    ``labels[k]`` the label at reading index k.  A frozen dataclass
    (assigning or deleting an attribute raises AttributeError), so the
    tables :func:`spiral_numbering` caches per size can be shared.
    Side lengths are ints from 1 to 56: a board on the grid has n^4 cells,
    and n >= 57 would exceed 10^7.  Any other type raises TypeError, a bool
    too, so ``True`` is not cached as a second side length 1.  So does a
    layer, label, row or column that is not an int, while an int out of
    range raises InvalidLayerError, ValueError or IndexError.
    """

    n: int
    reading: tuple[int, ...]
    labels: tuple[int, ...]
    _level_sets: tuple[tuple[int, ...], ...]

    def __init__(self, n: int):
        _check_int("side length", n)
        if n < 1:
            raise InvalidSizeError(f"side length must be a positive integer, got {n}")
        if n**4 > 10**7:
            raise InvalidSizeError(
                f"side length {n} is too large: a board of n^4 = {n**4} cells "
                f"exceeds 10^7 (the largest supported n is 56)"
            )
        reading: list[int] = []
        level_sets: list[tuple[int, ...]] = []
        for lo in range((n + 1) // 2):  # rings from the outside in
            hi = n - 1 - lo
            ring = (
                [(r, lo) for r in range(lo, hi + 1)]  # down the left edge
                + [(hi, c) for c in range(lo + 1, hi + 1)]  # along the bottom
                + [(r, hi) for r in range(hi - 1, lo - 1, -1)]  # up the right edge
                + [(lo, c) for c in range(hi - 1, lo, -1)]  # back along the top
            )
            first = len(reading) + 1
            reading += [r * n + c for r, c in ring]
            level_sets.append(tuple(range(first, len(reading) + 1)))
        level_sets.reverse()  # layer 1 is the innermost ring

        labels = tuple(label for _, label in sorted(zip(reading, range(1, n * n + 1))))
        tables = (n, tuple(reading), labels, tuple(level_sets))
        for f, value in zip(fields(self), tables):
            object.__setattr__(self, f.name, value)

    @property
    def n_sq(self) -> int:
        return self.n * self.n

    @property
    def layer_count(self) -> int:
        return len(self._level_sets)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Labels in row-major order, one tuple per grid row."""
        n = self.n
        return tuple(self.labels[k : k + n] for k in range(0, n * n, n))

    def label_at(self, row: int, col: int) -> int:
        _check_int("row", row)
        _check_int("column", col)
        if not (0 <= row < self.n and 0 <= col < self.n):
            raise IndexError(f"cell ({row}, {col}) outside a {self.n}x{self.n} grid")
        return self.labels[row * self.n + col]

    def cell_of(self, label: int) -> tuple[int, int]:
        self._check_label(label)
        return divmod(self.reading[label - 1], self.n)

    def layer_of(self, label: int) -> int:
        self._check_label(label)
        # level sets are consecutive blocks, the innermost holding the largest labels
        return next(k for k, ring in enumerate(self._level_sets, 1) if label >= ring[0])

    def level_set(self, k: int) -> tuple[int, ...]:
        """Sorted labels of layer k (1 = innermost)."""
        _check_int("layer", k)
        if not (1 <= k <= self.layer_count):
            raise InvalidLayerError(
                f"layer {k} invalid for n={self.n}; expected 1..{self.layer_count}"
            )
        return self._level_sets[k - 1]

    def _check_label(self, label: int) -> None:
        _check_int("label", label)
        if not (1 <= label <= self.n_sq):
            raise ValueError(f"label {label} outside 1..{self.n_sq}")

    def __repr__(self) -> str:
        return f"NumberedSquare(n={self.n})"


@lru_cache(maxsize=None)
def spiral_numbering(n: int) -> NumberedSquare:
    """The spiral numbering of an n x n grid (cached per n)."""
    return NumberedSquare(n)
