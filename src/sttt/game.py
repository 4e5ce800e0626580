"""Rules engine for impartial misere super tic-tac-toe.

Both players place X.  A move (i, j) marks position j of field i.  The
position of each move dictates the field of the next one: after (i, j) the
next move must be in field j if that field is still open; if field j is
closed the next player may use any open field.  The first move is free.
:func:`apply_move` settles this once per move, so a state's ``dictated`` is
the field the next move must use, or None exactly when that move is free.

A field closes the moment it holds n collinear X's (row, column, or either
diagonal of its grid), and its square on the board grid is marked; a field is
closed exactly when its square is marked.  The game ends the moment the board
grid holds n collinear marks, and the player who made that move loses.  Since
every mark is an X, neither a field nor the board grid can fill without a
line, so every finished game has a loser.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .board import Board
from .dihedral import GroupElement, group_elements
from .spiral import spiral_numbering


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
    sq = spiral_numbering(n)
    lines = {frozenset(sq.label_at(r, c) for c in range(n)) for r in range(n)}
    lines |= {frozenset(sq.label_at(r, c) for r in range(n)) for c in range(n)}
    lines.add(frozenset(sq.label_at(i, i) for i in range(n)))
    lines.add(frozenset(sq.label_at(i, n - 1 - i) for i in range(n)))
    return tuple(sorted(lines, key=sorted))


@lru_cache(maxsize=None)
def _lines_through(n: int) -> tuple[tuple[frozenset[int], ...], ...]:
    """For each label (index label-1), the lines containing it."""
    through: list[list[frozenset[int]]] = [[] for _ in range(n * n)]
    for line in grid_lines(n):
        for label in line:
            through[label - 1].append(line)
    return tuple(tuple(ls) for ls in through)


@dataclass(frozen=True)
class GameState:
    """Immutable snapshot of a game in progress.

    ``field_cells[i-1]`` holds the X positions of field i; ``marks`` the
    labels of board squares marked X, which are exactly the closed fields;
    ``dictated`` the open field the next move must use, or None when that
    move is free (the first move, or a move dictated into a closed field).
    ``loser`` is 1 or 2 once a board line is completed, per the parity of the
    terminal move.
    """

    n: int
    moves: tuple[Move, ...]
    field_cells: tuple[frozenset[int], ...]
    marks: frozenset[int]
    dictated: int | None
    loser: int | None = None

    @classmethod
    def initial(cls, n: int) -> GameState:
        return cls(
            n=n,
            moves=(),
            field_cells=(frozenset(),) * spiral_numbering(n).n_sq,
            marks=frozenset(),
            dictated=None,
        )

    @property
    def terminal(self) -> bool:
        return self.loser is not None

    @property
    def board(self) -> Board:
        return Board(
            self.n,
            frozenset(
                (f + 1, p) for f, cells in enumerate(self.field_cells) for p in cells
            ),
        )

    def open_fields(self) -> tuple[int, ...]:
        return tuple(f for f in range(1, self.n * self.n + 1) if f not in self.marks)


def legal_moves(state: GameState) -> set[Move]:
    """Every move the next player may make."""
    if state.terminal:
        raise TerminalStateError("the game is over; no moves remain")
    n_sq = state.n * state.n
    fields = (state.dictated,) if state.dictated is not None else state.open_fields()
    out = set()
    for f in fields:
        cells = state.field_cells[f - 1]
        for p in range(1, n_sq + 1):
            if p not in cells:
                out.add(Move(f, p))
    return out


def _check_legal(state: GameState, move: Move) -> None:
    if state.terminal:
        raise IllegalMoveError("terminal game", "the game is already over")
    field, pos = move
    n_sq = state.n * state.n
    if not (1 <= field <= n_sq and 1 <= pos <= n_sq):
        raise IllegalMoveError(
            "out of range", f"move ({field}, {pos}) outside 1..{n_sq} labels"
        )
    if field in state.marks:
        raise IllegalMoveError("closed field", f"field {field} is closed")
    if state.dictated is not None and field != state.dictated:
        raise IllegalMoveError(
            "wrong field",
            f"move dictated into open field {state.dictated}, not field {field}",
        )
    if pos in state.field_cells[field - 1]:
        raise IllegalMoveError(
            "occupied cell", f"position {pos} of field {field} is already an X"
        )


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

    Raises IllegalMoveError for a move the rules forbid, and ValueError for
    one that is not a pair of integers.
    """
    move = _as_move(move)
    _check_legal(state, move)
    field, pos = move
    lines_through = _lines_through(state.n)

    cells = state.field_cells[field - 1] | {pos}
    field_cells = (
        state.field_cells[: field - 1] + (cells,) + state.field_cells[field:]
    )
    marks = state.marks
    loser = None
    if any(line <= cells for line in lines_through[pos - 1]):
        marks = marks | {field}
        if any(line <= marks for line in lines_through[field - 1]):
            loser = 1 if (len(state.moves) + 1) % 2 else 2
    return GameState(
        n=state.n,
        moves=state.moves + (move,),
        field_cells=field_cells,
        marks=marks,
        dictated=None if pos in marks else pos,
        loser=loser,
    )


def replay(moves: Iterable[Move | tuple[int, int]], n: int) -> GameState:
    """Replay a move sequence from the empty board.

    Raises IllegalMoveError (with the 1-based move index) on the first
    violation, including a move made after the game ended.
    """
    state = GameState.initial(n)
    for idx, mv in enumerate(moves, 1):
        try:
            state = apply_move(state, mv)
        except IllegalMoveError as err:
            err.index = idx
            raise
    return state


def is_valid_game(moves: Iterable[Move | tuple[int, int]], n: int) -> GameValidation:
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


def _checked(
    moves: tuple[Move, ...],
    n: int,
    source: tuple[Move, ...] = (),
    elem: GroupElement | None = None,
) -> tuple[Move, ...]:
    """Return ``moves`` if they replay legally, else raise InvalidGameError.

    With ``elem`` given, ``moves`` is the image of the game ``source`` under
    it, and the message names both.
    """
    try:
        replay(moves, n)
    except IllegalMoveError as err:
        if elem is None:
            why = f"input game invalid at move {err.index}: {err}"
        else:
            why = f"action a={elem.a} b={elem.b} broke game {list(source)}: {err}"
        raise InvalidGameError(why) from err
    return moves


def _image(moves: tuple[Move, ...], elem: GroupElement) -> tuple[Move, ...]:
    img = elem.perm.image  # moves that replayed legally have labels in range
    mapped = tuple(Move(img[i - 1], img[j - 1]) for i, j in moves)
    return _checked(mapped, elem.n, moves, elem)


def act_game(
    moves: Iterable[Move | tuple[int, int]], elem: GroupElement
) -> tuple[Move, ...]:
    """Transform every move (i, j) to (g(i), g(j)).

    Raises ValueError for a move that is not a pair of integers, and
    InvalidGameError if the input game, or its image, does not replay
    legally; the image can fail for n >= 3, where not every group element
    maps field lines to field lines.
    """
    moves = _checked(tuple(map(_as_move, moves)), elem.n)
    return _image(moves, elem)


def game_orbit(
    moves: Iterable[Move | tuple[int, int]], n: int
) -> frozenset[tuple[Move, ...]]:
    """All images of a valid game under the 2m group elements.

    Raises InvalidGameError as :func:`act_game` does.
    """
    moves = _checked(tuple(map(_as_move, moves)), n)
    return frozenset(_image(moves, elem) for elem in group_elements(n))
