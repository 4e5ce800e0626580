"""Permutations of the labels 1..N: composition, powers, cycle structure."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

__all__ = ("Permutation",)


@dataclass(frozen=True, init=False, repr=False)
class Permutation:
    """A bijection on {1..N}: ``image[x - 1]`` is the image of label x, an
    int; any other entry, a bool or a float included, raises TypeError.
    Every permutation, a product, power or inverse included, is built by
    this constructor, so each passes the type and bijection checks.

    Composition follows function application: ``(p * q)(x) == p(q(x))``.
    A product with another type, and a power with an exponent that is not
    an int (a bool included), raise TypeError.
    A frozen dataclass: assigning or deleting an attribute raises
    AttributeError, and equality and hashing are the image tuple's.
    """

    image: tuple[int, ...]

    def __init__(self, image: Iterable[int]):
        img = tuple(image)
        if not {int}.issuperset(map(type, img)):
            bad = next(x for x in img if type(x) is not int)
            kind = type(bad).__name__
            raise TypeError(f"permutation entry {bad!r} must be an int, not {kind}")
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError(f"not a bijection on 1..{len(img)}: {img}")
        object.__setattr__(self, "image", img)

    @classmethod
    def identity(cls, n_sq: int) -> Permutation:
        return cls(range(1, n_sq + 1))

    @classmethod
    def from_cycles(cls, n_sq: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        """Build from disjoint cycles; labels not mentioned are fixed.

        Raises TypeError naming the first label that is not an int (a bool
        included), and ValueError naming the first outside 1..n_sq, or the
        first that appears twice, in one cycle or across cycles.
        """
        img, seen = list(range(1, n_sq + 1)), set()
        for cyc in cycles:
            cyc = tuple(cyc)
            for i, x in enumerate(cyc):
                if type(x) is not int:
                    raise TypeError(f"label {x!r} must be an int, not {type(x).__name__}")
                if not 1 <= x <= n_sq:
                    raise ValueError(f"label {x} outside 1..{n_sq}")
                if x in seen:
                    raise ValueError(f"label {x} appears twice in the cycles")
                seen.add(x)
                img[x - 1] = cyc[(i + 1) % len(cyc)]
        return cls(img)

    def __call__(self, label: int) -> int:
        if label > 0:
            try:
                return self.image[label - 1]
            except IndexError:
                pass
        raise ValueError(f"label {label} outside 1..{len(self.image)}")

    def __mul__(self, other: Permutation) -> Permutation:
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.image) != len(other.image):
            raise ValueError("cannot compose permutations of different domains")
        return Permutation(self.image[y - 1] for y in other.image)

    def inverse(self) -> Permutation:
        inv = [0] * len(self.image)
        for i, y in enumerate(self.image):
            inv[y - 1] = i + 1
        return Permutation(inv)

    def __pow__(self, k: int) -> Permutation:
        if type(k) is not int:
            raise TypeError(f"exponent must be an int, not {type(k).__name__}")
        img = [0] * len(self.image)
        for cyc in self.cycles(include_fixed=True):
            s = len(cyc)
            for i, x in enumerate(cyc):
                img[x - 1] = cyc[(i + k) % s]
        return Permutation(img)

    def cycles(self, include_fixed: bool = False) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its smallest label, sorted by it."""
        seen = [False] * (len(self.image) + 1)
        out = []
        for start in range(1, len(self.image) + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.image[start - 1]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.image[x - 1]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return tuple(out)

    def order(self) -> int:
        """Smallest k > 0 with self**k the identity: LCM of cycle lengths."""
        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def is_identity(self) -> bool:
        return all(y == i + 1 for i, y in enumerate(self.image))

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, n_sq={len(self.image)})"
