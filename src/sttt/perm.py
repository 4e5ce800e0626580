"""Permutations of the labels 1..N: composition, powers, cycle structure."""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence


class Permutation:
    """A bijection on {1..N} stored as an image tuple.

    Composition follows function application: ``(p * q)(x) == p(q(x))``.
    Instances are immutable (assigning or deleting an attribute raises
    AttributeError) and hashable.
    """

    __slots__ = ("_image",)

    def __init__(self, image: Iterable[int]):
        img = tuple(image)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError(f"not a bijection on 1..{len(img)}: {img}")
        object.__setattr__(self, "_image", img)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Permutation is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Permutation is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return Permutation, (self._image,)

    @classmethod
    def identity(cls, n_sq: int) -> Permutation:
        return cls(range(1, n_sq + 1))

    @classmethod
    def from_cycles(cls, n_sq: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        """Build from disjoint cycles; labels not mentioned are fixed."""
        img = list(range(1, n_sq + 1))
        for cyc in cycles:
            cyc = tuple(cyc)
            for i, x in enumerate(cyc):
                img[x - 1] = cyc[(i + 1) % len(cyc)]
        return cls(img)

    @property
    def n_sq(self) -> int:
        return len(self._image)

    @property
    def image(self) -> tuple[int, ...]:
        return self._image

    def __call__(self, label: int) -> int:
        if not (1 <= label <= len(self._image)):
            raise ValueError(f"label {label} outside 1..{len(self._image)}")
        return self._image[label - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if len(self._image) != len(other._image):
            raise ValueError("cannot compose permutations of different domains")
        return Permutation(self._image[y - 1] for y in other._image)

    def inverse(self) -> Permutation:
        inv = [0] * len(self._image)
        for i, y in enumerate(self._image):
            inv[y - 1] = i + 1
        return Permutation(inv)

    def __pow__(self, k: int) -> Permutation:
        img = [0] * len(self._image)
        for cyc in self.cycles(include_fixed=True):
            s = len(cyc)
            for i, x in enumerate(cyc):
                img[x - 1] = cyc[(i + k) % s]
        return Permutation(img)

    def cycles(self, include_fixed: bool = False) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its smallest label, sorted by it."""
        seen = [False] * (len(self._image) + 1)
        out = []
        for start in range(1, len(self._image) + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self._image[start - 1]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self._image[x - 1]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return tuple(out)

    def order(self) -> int:
        """Smallest k > 0 with self**k the identity: LCM of cycle lengths."""
        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def is_identity(self) -> bool:
        return all(y == i + 1 for i, y in enumerate(self._image))

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Permutation):
            return self._image == other._image
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._image)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, n_sq={len(self._image)})"
