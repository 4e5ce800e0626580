"""Layer rotations, layer reflections, and the dihedral group they generate.

Layer k of a spiral-numbered square is a ring whose sorted level set is
[k_0, ..., k_j].  The layer rotation is the single cycle sending each k_i to
k_{i+1} (one step along the spiral); the layer reflection swaps k_i with
k_{s-i} for ring size s = j + 1, indices mod s, which reflects the ring
across the grid's main diagonal (k_0 is always fixed, and so is k_{s/2} when
s is even).  The full rotation sigma and reflection rho act on every layer at
once, so sigma^a rho^b sends k_i to k_{a - i} when b = 1 and to k_{a + i}
when b = 0, indices mod s; GroupElement builds its image from that
formula.

The group generated by sigma and rho is dihedral of order 2m, where m is the
least common multiple of the ring sizes: m = LCM(4, 12, ..., 4n-4) for even n
and m = LCM(1, 8, 16, ..., 4n-4) for odd n.  Elements are written
sigma^a rho^b with the reflection applied first: the realized permutation
sends x to sigma^a(rho^b(x)).  Under the action, the content at label p
moves to label g(p), so the cell labelled f shows what was at g^-1(f).
Since rho sigma rho = sigma^-1, products follow the dihedral law
sigma^a rho^b * sigma^c rho^d = sigma^(a - c if b else a + c) rho^(b xor d).

An element keeps its map x -> g(x) as its ``image`` tuple, laid out as
``Permutation.image``, and is called through ``Permutation.__call__``
itself, so the two share one label map; ``perm`` builds the checked
Permutation only when asked, for the relation checks and the CLI.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from math import lcm

from .perm import Permutation
from .spiral import InvalidSizeError, NumberedSquare, _check_int, _needs, spiral_numbering

__all__ = (
    "ring_sizes", "dihedral_order", "layer_rotation", "layer_reflection", "GroupElement",
    "group_element", "group_elements", "RelationCheck", "DihedralReport", "verify_dihedral",
)


def ring_sizes(n: int) -> tuple[int, ...]:
    """Layer cardinalities, innermost first: the sizes of the numbering's
    level sets, so n is checked as spiral_numbering checks it."""
    return tuple(map(len, spiral_numbering(n)._level_sets))


def dihedral_order(n: int) -> int:
    """Order m of the full rotation: LCM of the ring sizes."""
    return lcm(*ring_sizes(n))


def _ring(caller: str, sq: NumberedSquare, k: int) -> tuple[int, tuple[int, ...]]:
    """n^2 and the level set of ring k, or TypeError naming the types
    ``caller`` received when ``sq`` lacks a NumberedSquare's attributes."""
    try:
        return sq.n_sq, sq.level_set(k)
    except AttributeError:
        raise _needs(caller, "a NumberedSquare and an int", sq, k) from None


def layer_rotation(sq: NumberedSquare, k: int) -> Permutation:
    """One spiral step along ring k; all other labels fixed."""
    n_sq, ring = _ring("layer_rotation", sq, k)
    return Permutation.from_cycles(n_sq, [ring])


def layer_reflection(sq: NumberedSquare, k: int) -> Permutation:
    """Reflection of ring k across the main diagonal; other labels fixed."""
    n_sq, ring = _ring("layer_reflection", sq, k)
    s = len(ring)
    swaps = [(ring[i], ring[s - i]) for i in range(1, (s - 1) // 2 + 1)]
    return Permutation.from_cycles(n_sq, swaps)


@dataclass(frozen=True)
class GroupElement:
    """Element sigma^a rho^b of the dihedral action for side length n; a and
    b are ints (not bools), a is reduced mod m, b must be 0 or 1.

    ``image[x - 1]`` is g(x), built from a and b by the ring formula;
    ``perm`` puts it through the checked Permutation constructor."""

    n: int
    a: int
    b: int
    image: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, b = self.n, self.b
        _check_int("rotation exponent", self.a)
        _check_int("reflection flag", b)
        if b not in (0, 1):
            raise ValueError(f"reflection flag must be 0 or 1, got {b}")
        sq = spiral_numbering(n)
        a = self.a % dihedral_order(n)
        image = [0] * sq.n_sq
        for ring in sq._level_sets:
            for i, x in enumerate(ring):
                image[x - 1] = ring[(a - i if b else a + i) % len(ring)]
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "image", tuple(image))

    __call__ = Permutation.__call__

    @property
    def perm(self) -> Permutation:
        """The element's permutation, built by the checked constructor."""
        return Permutation(self.image)

    def __mul__(self, other: GroupElement) -> GroupElement:
        """Composition: (g * h) acts as g after h.  By the dihedral law,
        sigma^a rho^b * sigma^c rho^d = sigma^(a - c if b else a + c) rho^(b xor d).
        A product with another type raises TypeError."""
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"group elements for different sizes: {self.n} != {other.n}")
        a = self.a - other.a if self.b else self.a + other.a
        return GroupElement(self.n, a, self.b ^ other.b)

    def inverse(self) -> GroupElement:
        return GroupElement(self.n, self.a if self.b else -self.a, self.b)


def group_element(n: int, a: int, b: int) -> GroupElement:
    """The element sigma^a rho^b; a is reduced mod m, b must be 0 or 1.

    The same as ``GroupElement(n, a, b)``, which the library and its CLI
    call; this name stays only because ``bench/setup_probe.py`` calls it."""
    return GroupElement(n, a, b)


# The side lengths whose group, and board.py's tables of it, stay cached,
# the ones used last: the benchmark and the fuzz suites use n = 2..5.
_GROUP_SIZES = 4


@lru_cache(maxsize=_GROUP_SIZES)
def group_elements(n: int) -> tuple[GroupElement, ...]:
    """All 2m elements, ordered by rotation exponent then reflection flag.

    Raises ValueError, before building anything, when the 2m images of
    n^2 labels would hold over 10^7 entries: n = 14, 16, 18 and n >= 19.
    """
    m = dihedral_order(n)
    if 2 * m * n * n > 10**7:
        raise ValueError(
            f"refusing to build the group for n={n}: its 2m = {2 * m} "
            f"permutations of {n * n} labels exceed 10^7 entries"
        )
    return tuple(GroupElement(n, a, b) for a in range(m) for b in (0, 1))


@dataclass(frozen=True)
class RelationCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class DihedralReport:
    """Outcome of checking the dihedral presentation for one side length."""

    n: int
    m: int
    group_order: int
    relations: tuple[RelationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.relations)

    def failed(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.relations if not r.ok)

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}

    def __str__(self) -> str:
        lines = [f"n={self.n}  m={self.m}  group order {self.group_order}"]
        for r in self.relations:
            mark = "pass" if r.ok else "FAIL"
            detail = f"  [{r.detail}]" if r.detail else ""
            lines.append(f"  {mark}  {r.name}{detail}")
        return "\n".join(lines)


def verify_dihedral(n: int) -> DihedralReport:
    """Check the presentation sigma^m = rho^2 = (sigma rho)^2 = 1, the
    exactness of m, and the distinctness of the 2m realized permutations.

    Checks n as spiral_numbering does (TypeError for a non-int, True
    included; InvalidSizeError outside 1..56), then raises
    InvalidSizeError for n = 1, whose action is trivial.  A failed relation
    signals an implementation bug, not bad input.
    """
    spiral_numbering(n)
    if n < 2:
        raise InvalidSizeError(
            f"verification needs n >= 2 (the n={n} action collapses to the trivial group)"
        )
    elems = group_elements(n)  # first, so a group too large to build fails at once
    sigma, rho = GroupElement(n, 1, 0).perm, GroupElement(n, 0, 1).perm
    m = dihedral_order(n)
    ident = Permutation.identity(n * n)

    checks = [
        RelationCheck("sigma^m = 1", sigma**m == ident, f"m = {m}"),
    ]
    early = [d for d in range(1, m) if m % d == 0 and sigma**d == ident]
    checks.append(
        RelationCheck(
            "sigma^d != 1 for every proper divisor d of m",
            not early,
            "order is exactly m" if not early else f"collapses at d = {early[0]}",
        )
    )
    checks.append(RelationCheck("rho^2 = 1", (rho * rho) == ident))
    sr = sigma * rho
    checks.append(RelationCheck("(sigma rho)^2 = 1", (sr * sr) == ident))
    distinct = len({e.image for e in elems})
    checks.append(
        RelationCheck(
            "the 2m elements sigma^a rho^b are pairwise distinct",
            distinct == 2 * m,
            f"{distinct} distinct permutations of {2 * m}",
        )
    )
    checks.append(
        RelationCheck(
            "LCM formula matches the realized rotation order",
            sigma.order() == m,
            f"realized order {sigma.order()}",
        )
    )
    return DihedralReport(n=n, m=m, group_order=2 * m, relations=tuple(checks))
