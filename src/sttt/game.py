"""Rules engine for impartial misere super tic-tac-toe.

Both players place X.  A move (i, j) marks position j of field i.  The
position of each move dictates the field of the next one: after (i, j) the
next move must be in field j if that field is still open; if field j is
closed the next player may use any open field.  The first move is free.
Each move settles this, so a state's ``dictated`` is the field the next move
must use, or None exactly when that move is free.

A field closes the moment it holds n collinear X's (row, column, or either
diagonal of its grid), and its square on the board grid is marked; a field is
closed exactly when its square is marked.  The game ends the moment the board
grid holds n collinear marks, and the player who made that move loses.  Since
every mark is an X, neither a field nor the board grid can fill without a
line, so every finished game has a loser.

The state is kept in ints: one bitmask per field, where bit p-1 is set when
position p holds an X, and one bitmask of the marked (closed) fields, where
bit f-1 is set when field f is marked.  Two tables, cached per n and indexed
directly by label (index 0 unused), hold each label x's bit ``1 << (x-1)``
and the bitmasks of the grid lines through x; at n = 56 that is 3,136 ints
and 3,136 small tuples, about 0.9 MB.  A move tests only the lines through
the cell it fills, and only once its field holds n X's, since a line has n
cells.  One function, :func:`_advance`, steps a ``GameState`` by moves,
checking each is a pair of integers; :func:`apply_move` is one call to it.
:func:`replay` is the one place a game is stepped from
``GameState.initial(n)``, one shared empty state per n: ``final_board``,
``is_valid_game``, ``act_game`` and ``game_orbit`` all call it.  It
remembers the final states of the games of Moves of two ints it replayed
last, in a bounded ``functools.lru_cache``, so a game and its images,
checked again and again, are each stepped once.
``GameState.field_cells``, ``marks`` and ``board`` are views of the bits;
``board`` is the one decoder of the field bitmasks: it spells them in label
order, and board.py, which alone knows the reading layout, reorders them.

:func:`act_game` maps a game move by move, (i, j) -> (g(i), g(j)), and
replays both the input and its image, so every image it returns has been
stepped by the rules; an image it has replayed lately, or the game itself,
comes from the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .board import Board, _image, _relabel
from .dihedral import GroupElement, group_elements
from .spiral import spiral_numbering

__all__ = (
    "IllegalMoveError", "TerminalStateError", "InvalidGameError", "Move", "GameValidation",
    "grid_lines", "GameState", "legal_moves", "apply_move", "replay", "is_valid_game",
    "final_board", "act_game", "game_orbit",
)


class IllegalMoveError(ValueError):
    """A move that breaks the rules; ``rule`` names the violated rule."""

    def __init__(self, rule: str, message: str, index: int | None = None):
        super().__init__(message)
        self.rule = rule
        self.index = index


class TerminalStateError(ValueError):
    """No moves exist: the game is over."""


class InvalidGameError(ValueError):
    """A move sequence that does not replay legally from the empty board."""


class Move(NamedTuple):
    field: int
    pos: int


class GameValidation(NamedTuple):
    valid: bool
    index: int | None  # 1-based index of the first offending move
    rule: str | None
    message: str | None


@lru_cache(maxsize=None)
def grid_lines(n: int) -> tuple[frozenset[int], ...]:
    """Label sets of all n-in-a-row lines of the n x n grid."""
    rows = spiral_numbering(n).rows
    lines = set(map(frozenset, rows + tuple(zip(*rows))))
    lines.add(frozenset(row[i] for i, row in enumerate(rows)))
    lines.add(frozenset(row[n - 1 - i] for i, row in enumerate(rows)))
    return tuple(sorted(lines, key=sorted))


@lru_cache(maxsize=None)
def _label_tables(
    n: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Two tables indexed by label x, index 0 unused: ``bit[x] = 1 << (x-1)``
    and ``through[x]``, the bitmasks of the grid lines through x.  Between
    them comes ``bit[1:]``, the bits of a field's positions 1..n^2."""
    bit = tuple([0] + [1 << x for x in range(n * n)])
    through: list[list[int]] = [[] for _ in bit]
    for line in grid_lines(n):
        mask = sum(bit[x] for x in line)
        for x in line:
            through[x].append(mask)
    return bit, bit[1:], tuple(map(tuple, through))


def _labels(bits: int) -> Iterator[int]:
    """The labels whose bits are set, in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length()
        bits ^= low


@dataclass(frozen=True, init=False)
class GameState:
    """Immutable snapshot of a game in progress.

    ``field_bits[i-1]`` has bit p-1 set when position p of field i holds an
    X; ``mark_bits`` has bit f-1 set when the board square of field f is
    marked, which is exactly when field f is closed; ``dictated`` is the open
    field the next move must use, or None when that move is free (the first
    move, or a move dictated into a closed field).  ``loser`` is 1 or 2 once
    a board line is completed, per the parity of the terminal move.
    """

    n: int
    moves: tuple[Move, ...]
    field_bits: tuple[int, ...]
    mark_bits: int
    dictated: int | None
    loser: int | None = None

    def __init__(
        self,
        n: int,
        moves: tuple[Move, ...],
        field_bits: tuple[int, ...],
        mark_bits: int,
        dictated: int | None,
        loser: int | None = None,
    ):
        # the generated __init__ of a frozen dataclass sets each field through
        # object.__setattr__, about half the cost of a move; writing the
        # instance dict directly skips that, and the class stays frozen
        attrs = self.__dict__
        attrs["n"] = n
        attrs["moves"] = moves
        attrs["field_bits"] = field_bits
        attrs["mark_bits"] = mark_bits
        attrs["dictated"] = dictated
        attrs["loser"] = loser

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def initial(cls, n: int) -> GameState:
        """The empty game: one shared state per n, as it is immutable.

        ``typed``, so that ``initial(3.0)`` raises as ``spiral_numbering``
        does, whether or not ``initial(3)`` ran before.
        """
        return cls(n, (), (0,) * spiral_numbering(n).n_sq, 0, None)

    @property
    def terminal(self) -> bool:
        return self.loser is not None

    @property
    def field_cells(self) -> tuple[frozenset[int], ...]:
        """The X positions of each field, as sets of labels."""
        return tuple(frozenset(_labels(bits)) for bits in self.field_bits)

    @property
    def marks(self) -> frozenset[int]:
        """The labels of the marked board squares: the closed fields."""
        return frozenset(_labels(self.mark_bits))

    @property
    def board(self) -> Board:
        """The board of the X cells.  Each bitmask ``field_bits[f-1]`` is
        spelt lowest bit first, so the joined spellings hold cell (f, p) at
        character (f-1) n^2 + (p-1): label order, which board.py's _relabel
        kernel puts in reading order."""
        spell = f"0{self.n ** 2}b"
        labelled = "".join([format(bits, spell)[::-1] for bits in self.field_bits])
        return Board._of(self.n, _image(_relabel(self.n), labelled))

    def open_fields(self) -> tuple[int, ...]:
        unmarked = ~self.mark_bits & ((1 << self.n * self.n) - 1)
        # through a list, so the tuple is allocated at its final size: CPython
        # builds tuple(generator) oversized and shrinks it, and the shrunk
        # tuples pile up in its per-size free lists (about 1 MB of peak RSS
        # over a 30 s playout benchmark run)
        return tuple([*_labels(unmarked)])


# The move rows kept: the playout benchmark uses 9 + 16 and the census 4,
# while a free move at n = 56 builds 3,136 rows, about 10 M Moves.
_MOVE_ROWS = 64


@lru_cache(maxsize=_MOVE_ROWS)
def _move_row(n: int, field: int) -> tuple[Move, ...]:
    """Move(field, p) for p = 1..n^2, cached per field and size, so a call
    builds the rows of the fields it uses, not all n^4 Moves.  The rows
    share their position ints, the numbering's labels."""
    return tuple([Move(field, p) for p in sorted(spiral_numbering(n).labels)])


def legal_moves(state: GameState) -> tuple[Move, ...]:
    """Every move the next player may make, in increasing (field, pos) order."""
    if state.terminal:
        raise TerminalStateError("the game is over; no moves remain")
    fields = (state.dictated,) if state.dictated is not None else state.open_fields()
    n, bits = state.n, state.field_bits
    pos_bits = _label_tables(n)[1]
    moves = []
    for f in fields:  # open fields come in increasing order
        cells = bits[f - 1]
        moves += [move for move, b in zip(_move_row(n, f), pos_bits) if not cells & b]
    return tuple(moves)


def _advance(state: GameState, moves: Iterable[Move | tuple[int, int]]) -> GameState:
    """Apply moves to ``state`` and return the resulting state.

    The checks run in this order: a pair of integers (else ValueError),
    terminal game, out of range, closed field, wrong field, occupied cell.
    An IllegalMoveError carries the offending move's 1-based number in the
    whole game, counting the moves ``state`` already holds, as ``index``.
    """
    n, marks, dictated, loser = state.n, state.mark_bits, state.dictated, state.loser
    fields = [0, *state.field_bits]  # index 0 unused: fields[f] is field f
    before, played = len(state.moves), []  # played holds only the new moves
    exact = type(moves) is tuple  # cleared by a move that is not a Move
    n_sq = n * n
    bit, _, through = _label_tables(n)
    try:
        for move in moves:
            if type(move) is not Move:
                move, exact = _as_move(move), False
            field, pos = move
            if type(field) is not int or type(pos) is not int:
                _as_move(move)  # raises unless both are ints (bools pass)
            if loser is not None:
                raise IllegalMoveError("terminal game", "the game is already over")
            if not (1 <= field <= n_sq and 1 <= pos <= n_sq):
                raise IllegalMoveError(
                    "out of range", f"move ({field}, {pos}) outside 1..{n_sq} labels"
                )
            if marks & bit[field]:
                raise IllegalMoveError("closed field", f"field {field} is closed")
            if dictated is not None and field != dictated:
                raise IllegalMoveError(
                    "wrong field",
                    f"move dictated into open field {dictated}, not field {field}",
                )
            cells = fields[field]
            pos_bit = bit[pos]  # also field pos's mark bit
            if cells & pos_bit:
                raise IllegalMoveError(
                    "occupied cell", f"position {pos} of field {field} is already an X"
                )
            cells |= pos_bit
            fields[field] = cells
            played.append(move)
            if cells.bit_count() >= n:  # a line has n cells
                for line in through[pos]:
                    if cells & line == line:  # the field closes: mark its board square
                        marks |= bit[field]
                        for board_line in through[field]:
                            if marks & board_line == board_line:
                                loser = 1 if (before + len(played)) % 2 else 2
                                break
                        break
            dictated = None if marks & pos_bit else pos
    except IllegalMoveError as err:
        err.index = before + len(played) + 1
        raise
    del fields[0]  # cheaper than slicing a copy
    # a tuple of Moves is its own record of them: the state keeps that tuple,
    # so a replayed game and its final state share it
    new = moves if exact else tuple(played)
    made = state.moves + new if before else new
    return GameState(n, made, tuple(fields), marks, dictated, loser)


def _as_move(move) -> Move:
    try:
        field, pos = move
    except (TypeError, ValueError):
        raise ValueError(f"move {move!r} is not a (field, pos) pair") from None
    if not (isinstance(field, int) and isinstance(pos, int)):
        raise ValueError(f"move {move!r} is not a pair of integers")
    return Move(field, pos)


def apply_move(state: GameState, move: Move) -> GameState:
    """Place an X and return the resulting state.

    Raises IllegalMoveError for a move the rules forbid, with ``index`` its
    number in the game, ``len(state.moves) + 1``, as :func:`replay` gives
    it; and ValueError for a move that is not a pair of integers.
    """
    return _advance(state, (move,))


# The replay memo's bounds: it holds the _MEMO_GAMES games used last, each of
# at most _MEMO_GAME_UNITS moves plus n^2 fields, which every full game at
# n <= 8 fits.  The playout benchmark's symmetry checks replay a game and its
# images, at n = 4 games of 85-150 moves; 16 games serve them as often as
# more would.
_MEMO_GAME_UNITS = 4096
_MEMO_GAMES = 16


@lru_cache(maxsize=_MEMO_GAMES)
def _replayed(n: int, moves: tuple[Move, ...]) -> GameState:
    """The final state of a game of Moves of two ints that fits the memo."""
    return _advance(GameState.initial(n), moves)


def replay(moves: Iterable[Move | tuple[int, int]], n: int) -> GameState:
    """Replay a move sequence from the empty board.

    Raises IllegalMoveError on the first violation, including a move made
    after the game ended, with ``index`` the move's 1-based number, as
    :func:`apply_move` reports it; and ValueError for a move that is not a
    pair of integers, once every move before it has been checked.

    A game given as a tuple of Moves of two ints, with an int n, whose moves
    plus n^2 fields come to at most ``_MEMO_GAME_UNITS``, is replayed once:
    the final states of the ``_MEMO_GAMES`` such games used last are
    remembered, and a later call with an equal game returns its state.
    Every other input, and every game that breaks a rule, is replayed on
    each call.
    """
    # the exact types are checked in C before the game is hashed, so an
    # equal tuple holding 1.0, True or an int subclass, which _advance
    # rejects or keeps as given, never meets a stored game
    if (
        type(moves) is tuple
        and type(n) is int
        and len(moves) + n * n <= _MEMO_GAME_UNITS
        and {*map(type, moves)} <= {Move}
        and {*map(type, chain.from_iterable(moves))} <= {int}
    ):
        return _replayed(n, moves)
    return _advance(GameState.initial(n), moves)


def is_valid_game(moves: Iterable[Move | tuple[int, int]], n: int) -> GameValidation:
    """Replay the moves and report the first fault in them, if any.

    An invalid side length is not a fault of the moves: it raises
    InvalidSizeError, as :func:`replay` does.
    """
    GameState.initial(n)  # the size check, before any fault is caught
    try:
        replay(moves, n)
    except IllegalMoveError as err:
        return GameValidation(False, err.index, err.rule, str(err))
    except ValueError as err:
        return GameValidation(False, None, "malformed", str(err))
    return GameValidation(True, None, None, None)


def final_board(moves: Iterable[Move | tuple[int, int]], n: int) -> Board:
    """Replay and return the ending board."""
    return replay(moves, n).board


def _checked(moves: Iterable[Move | tuple[int, int]], n: int) -> tuple[Move, ...]:
    """Return the input game ``moves`` as a tuple of Moves if it replays
    legally, else raise InvalidGameError naming its first offending move, or
    ValueError at a move that is not a pair of integers, whichever comes
    first."""
    try:
        return replay(moves, n).moves
    except IllegalMoveError as err:
        raise InvalidGameError(f"input game invalid at move {err.index}: {err}") from err


def _game_image(moves: tuple[Move, ...], elem: GroupElement) -> tuple[Move, ...]:
    """The image under ``elem`` of ``moves``, a game that replayed legally.

    The image is replayed; if it breaks a rule, InvalidGameError names
    ``elem`` and the input game.
    """
    n, img = elem.n, elem.perm.image  # moves that replayed legally have labels in range
    if n * n <= _MOVE_ROWS:  # all n^2 rows fit the cache: share their Moves
        rows = [_move_row(n, y) for y in img]  # the row of g(i) for each field i
        mapped = tuple([rows[i - 1][img[j - 1] - 1] for i, j in moves])
    else:  # tuple.__new__ skips Move's own __new__, two thirds of the cost
        new = tuple.__new__
        mapped = tuple([new(Move, (img[i - 1], img[j - 1])) for i, j in moves])
    try:
        return replay(mapped, n).moves
    except IllegalMoveError as err:
        why = f"action a={elem.a} b={elem.b} broke game {list(moves)}: {err}"
        raise InvalidGameError(why) from err


def act_game(
    moves: Iterable[Move | tuple[int, int]], elem: GroupElement
) -> tuple[Move, ...]:
    """Transform every move (i, j) to (g(i), g(j)).

    Raises ValueError for a move that is not a pair of integers, and
    InvalidGameError if the input game, or its image, does not replay
    legally; an error in the input is reported at its first offending move.
    The input and its image are both checked by :func:`replay`, which steps
    a game it has not replayed lately.  An element that maps the grid's
    lines onto lines maps a legal game to a legal one, while the others can
    break it for n >= 3.
    """
    return _game_image(_checked(moves, elem.n), elem)


def game_orbit(
    moves: Iterable[Move | tuple[int, int]], n: int
) -> frozenset[tuple[Move, ...]]:
    """All images of a valid game under the 2m group elements.

    Raises InvalidGameError as :func:`act_game` does.
    """
    moves = _checked(moves, n)
    return frozenset(_game_image(moves, elem) for elem in group_elements(n))
