"""Exhaustive census of winning boards and their isomorphism classes.

A winning board is the final board of a completed game: the position at the
moment a move completes n collinear marks on the board grid.  For n <= 2 the
census walks the full game tree in one serial depth-first search, pruned by a
transposition set keyed on (field bitmasks, dictated field).  It keeps the
field bitmasks of each terminal state, spells each distinct set once through
board.py's writer of a board built from cells, and partitions the boards into
orbits of the dihedral action; at n=3 the search does not finish.  Classes
are ordered by orbit size, then by canonical bitstring.

The same class structure can be read back from two formats: newline
delimited JSON (one class per line) and a human readable listing whose
classes are parenthesized, comma separated tuples of bitstrings, possibly
spanning lines.  A known-good listing for n=2 ships with the package.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import asdict, dataclass
from importlib import resources
from itertools import groupby

from .board import _spell_fields, image_bitstrings
from .dihedral import group_elements
from .game import GameState, apply_move, legal_moves
from .spiral import _needs, spiral_numbering

__all__ = (
    "ClosureError", "ListingParseError", "IsoClass", "enumerate_winning_boards",
    "partition_classes", "size_histogram", "parse_census_text", "declared_class_counts",
    "CensusDiff", "diff_census", "classes_to_jsonl", "classes_from_jsonl",
    "classes_to_listing_text", "bundled_census_text",
)


class ClosureError(ValueError):
    """A board set that is not closed under the group action."""


class ListingParseError(ValueError):
    """Malformed class listing; ``line`` is the offending 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class IsoClass:
    """One isomorphism class: its member bitstrings, whose least is the
    canonical form."""

    members: tuple[str, ...]

    @property
    def canonical(self) -> str:
        return min(self.members)

    @property
    def orbit_size(self) -> int:
        return len(self.members)

    @classmethod
    def from_members(cls, members) -> IsoClass:
        return cls(tuple(sorted(members)))


def enumerate_winning_boards(n: int = 2, *, jobs: int = 1) -> frozenset[str]:
    """Bitstrings of every reachable winning board, deduplicated.

    One serial exhaustive search, refused for n > 2, where it does not finish.
    It keeps a set of the terminal states' field bitmasks, so each winning
    board is spelt once, by board.py's writer, however many games reach it.
    ``jobs`` is kept for callers that pass it and accepts only the int 1.
    """
    if jobs != 1 or type(jobs) is not int:
        raise ValueError(f"the census search is serial; jobs must be 1, got {jobs}")
    if n > 2:
        raise ValueError(f"the exhaustive census runs for n <= 2 only, got n={n}")
    found = set()  # the field bitmasks of every winning board
    seen = set()
    stack = [GameState.initial(n)]
    while stack:
        state = stack.pop()
        key = (state.field_bits, state.dictated)
        if key in seen:
            continue
        seen.add(key)
        for move in legal_moves(state):
            nxt = apply_move(state, move)
            if nxt.terminal:
                found.add(nxt.field_bits)
            else:
                stack.append(nxt)
    return frozenset(_spell_fields(n, fields) for fields in found)


def partition_classes(boards, n: int) -> list[IsoClass]:
    """Partition a closed set of board bitstrings into group orbits.

    Raises ClosureError naming an offending pair if some image escapes the
    input set, and BitstringError for a malformed member.
    """
    pool = set(boards)
    elems = group_elements(n)
    classes = []
    assigned: set[str] = set()
    for bits in sorted(pool):
        if bits in assigned:
            continue
        # an image of any orbit member is an image of bits, so checking the
        # images of bits alone checks closure for the whole orbit;
        # image_bitstrings validates bits, and every member of the pool is
        # a representative or an image of one, so every member is validated
        members = set()
        for g, img in zip(elems, image_bitstrings(bits, n)):
            if img not in pool:
                raise ClosureError(
                    f"board {bits} maps to {img} under sigma^{g.a} rho^{g.b}, "
                    "which is not in the input set"
                )
            members.add(img)
        assigned |= members
        classes.append(IsoClass.from_members(members))
    classes.sort(key=lambda c: (c.orbit_size, c.canonical))
    return classes


def size_histogram(classes) -> dict[int, int]:
    """The number of classes of each orbit size, in increasing size.
    Raises TypeError for classes without an IsoClass's attributes."""
    # the classes come by orbit size, so the counts do
    return dict(Counter(c.orbit_size for c in _in_order("size_histogram", classes)))


def _is_bitstring(value) -> bool:
    return isinstance(value, str) and value != "" and set(value) <= {"0", "1"}


# a candidate class tuple: parenthesized 0/1 strings separated by commas
_TUPLE_RE = re.compile(r"\(([\s,01]+)\)")
_COUNT_RE = re.compile(
    r"(\d+)\s+isomorphism\s+class(?:es)?\s+of\s+order\s+(\d+)", re.I
)


def _claim(members, want: int, line: int, owner: dict[str, int]) -> None:
    """Record the members as in the class on this line: each must have
    ``want`` characters, and each board is in one class."""
    for m in members:
        if len(m) != want:
            raise ListingParseError(
                f"bitstring {m!r} has length {len(m)}, expected {want}", line
            )
        if m in owner:
            raise ListingParseError(
                f"board {m} is already in the class on line {owner[m]}", line
            )
        owner[m] = line


def parse_census_text(text: str, n: int = 2) -> list[IsoClass]:
    """Read classes from a listing of parenthesized bitstring tuples.

    Tuples may span lines; prose outside parentheses, and parenthesized text
    that is not made of 0/1 strings, is ignored.  A tuple containing a string
    of the wrong length, or a board already in a class, raises
    ListingParseError with its line number.  An invalid side length raises
    InvalidSizeError before the text is read.
    """
    want = spiral_numbering(n).n_sq ** 2
    classes, owner = [], {}
    line, counted = 1, 0  # text[counted] is on this line
    for m in _TUPLE_RE.finditer(text):
        body = m.group(1).strip()
        if not body:
            continue
        parts = [p.strip() for p in re.split(r"\s*,\s*", body)]
        line += text.count("\n", counted, m.start())
        counted = m.start()
        for part in parts:
            if not _is_bitstring(part):
                raise ListingParseError(f"malformed tuple entry {part!r}", line)
        _claim(parts, want, line, owner)
        classes.append(IsoClass.from_members(parts))
    return classes


def declared_class_counts(text: str) -> dict[int, int]:
    """Class counts promised by a listing's own header, keyed by order."""
    counts = Counter()
    for count, order in _COUNT_RE.findall(text):
        counts[int(order)] += int(count)
    return dict(counts)


@dataclass(frozen=True)
class CensusDiff:
    """Class-level comparison of two censuses (keyed by canonical form)."""

    only_in_computed: tuple[str, ...]
    only_in_reference: tuple[str, ...]
    member_mismatches: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]
    notes: tuple[str, ...] = ()

    @property
    def match(self) -> bool:
        return not (
            self.only_in_computed or self.only_in_reference or self.member_mismatches
        )

    def as_dict(self) -> dict:
        """The fields and ``match``, with each mismatch triple as an object."""
        mismatches = [
            {"canonical": c, "computed": a, "reference": b}
            for c, a, b in self.member_mismatches
        ]
        return {**asdict(self), "match": self.match, "member_mismatches": mismatches}

    def summary(self) -> str:
        lines = ["censuses match" if self.match else "censuses differ"]
        if self.only_in_computed:
            lines.append(f"  {len(self.only_in_computed)} classes only in computed:")
            lines.extend(f"    {c}" for c in self.only_in_computed)
        if self.only_in_reference:
            lines.append(f"  {len(self.only_in_reference)} classes only in reference:")
            lines.extend(f"    {c}" for c in self.only_in_reference)
        for canonical, mine, theirs in self.member_mismatches:
            lines.append(f"  class {canonical}: members disagree")
            lines.append(f"    computed:  {', '.join(mine)}")
            lines.append(f"    reference: {', '.join(theirs)}")
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def diff_census(
    computed, reference, declared_counts: dict[int, int] | None = None
) -> CensusDiff:
    """Compare two class lists; optional declared counts become notes when
    they disagree with the reference listing's actual contents.  Raises
    TypeError for class lists without an IsoClass's attributes, and for
    declared counts without a dict's ``get``."""
    try:
        mine = {c.canonical: c for c in computed}
        theirs = {c.canonical: c for c in reference}
    except AttributeError:
        raise _needs("diff_census", "two lists of IsoClasses", computed, reference) from None
    only_mine = tuple(sorted(set(mine) - set(theirs)))
    only_theirs = tuple(sorted(set(theirs) - set(mine)))
    mismatches = tuple(
        (canon, mine[canon].members, theirs[canon].members)
        for canon in sorted(set(mine) & set(theirs))
        if mine[canon].members != theirs[canon].members
    )
    notes = []
    if declared_counts:
        actual = size_histogram(reference)
        try:
            declared = declared_counts.get
        except AttributeError:
            raise _needs("diff_census", "declared counts in a dict", declared_counts) from None
        for order in sorted(set(declared_counts) | set(actual)):
            d, a = declared(order, 0), actual.get(order, 0)
            if d != a:
                notes.append(
                    f"reference header declares {d} classes of order {order} "
                    f"but the listing contains {a}"
                )
    return CensusDiff(only_mine, only_theirs, mismatches, tuple(notes))


def _in_order(caller: str, classes) -> list[IsoClass]:
    """The classes by orbit size, then canonical form, or TypeError naming
    what ``caller`` received when they lack an IsoClass's attributes."""
    try:
        return sorted(classes, key=lambda c: (c.orbit_size, c.canonical))
    except AttributeError:
        raise _needs(caller, "IsoClasses", classes) from None


def classes_to_jsonl(classes) -> str:
    """One class per line: {canonical, orbit_size, members}, sorted stably.
    Raises TypeError for classes without an IsoClass's attributes."""
    lines = [
        json.dumps(
            {
                "canonical": c.canonical,
                "orbit_size": c.orbit_size,
                "members": list(c.members),
            },
            sort_keys=True,
            separators=(", ", ": "),
        )
        for c in _in_order("classes_to_jsonl", classes)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def classes_from_jsonl(text: str, n: int = 2) -> list[IsoClass]:
    """Read classes from JSONL.  A malformed line, a member of the wrong
    length, or a board already in a class, raises ListingParseError with its
    line number.  An invalid side length raises InvalidSizeError before the
    text is read, and a text without ``splitlines`` TypeError."""
    want = spiral_numbering(n).n_sq ** 2
    try:
        lines = text.splitlines()
    except AttributeError:
        raise _needs("classes_from_jsonl", "a str", text) from None
    classes, owner = [], {}
    for line, raw in enumerate(lines, 1):
        if not raw.strip():
            continue
        try:
            members = json.loads(raw)["members"]
        except (ValueError, TypeError, KeyError):  # not JSON, or not an object
            members = None
        ok = isinstance(members, list) and members and all(map(_is_bitstring, members))
        if not ok:
            raise ListingParseError(
                "not an object with a non-empty members list of 0/1 strings", line
            )
        _claim(members, want, line, owner)
        classes.append(IsoClass.from_members(members))
    return classes


def classes_to_listing_text(classes) -> str:
    """Human readable listing, grouped and numbered by orbit size.  Raises
    TypeError for classes without an IsoClass's attributes."""
    chunks = []
    ordered = _in_order("classes_to_listing_text", classes)
    for size, group in groupby(ordered, key=lambda c: c.orbit_size):
        chunks += [f"Isomorphism of Order {size}:", ""]
        chunks += [f"{i}. ({', '.join(c.members)})" for i, c in enumerate(group, 1)]
        chunks.append("")
    return "\n".join(chunks)


def bundled_census_text() -> str:
    """The known-good n=2 census listing shipped with the package."""
    return (
        resources.files("sttt").joinpath("data/census_2x2.txt").read_text("utf-8")
    )
