import dataclasses
import itertools
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from sttt import game as game_module
from sttt.board import Board, act_board, to_bitstring
from sttt.dihedral import GroupElement, dihedral_order, group_elements
from sttt.game import (
    GameState,
    IllegalMoveError,
    InvalidGameError,
    Move,
    TerminalStateError,
    act_game,
    apply_move,
    final_board,
    game_orbit,
    grid_lines,
    is_valid_game,
    legal_moves,
    replay,
)
from sttt.spiral import InvalidSizeError

from test_board import _reference_bitstring

EXAMPLE_GAME = (Move(3, 1), Move(1, 1), Move(1, 3), Move(3, 3))


def test_grid_lines_n2_every_pair_is_a_line():
    lines = set(grid_lines(2))
    pairs = {frozenset(p) for p in itertools.combinations(range(1, 5), 2)}
    assert lines == pairs


def test_grid_lines_n3():
    lines = grid_lines(3)
    assert len(lines) == 8
    assert frozenset({1, 8, 7}) in lines  # top row
    assert frozenset({1, 2, 3}) in lines  # left column
    assert frozenset({1, 9, 5}) in lines  # main diagonal
    assert frozenset({7, 9, 3}) in lines  # anti diagonal
    assert frozenset({2, 9, 6}) in lines  # middle row
    assert frozenset({8, 9, 4}) in lines  # middle column


def test_first_move_is_free():
    state = GameState.initial(2)
    moves = legal_moves(state)
    assert len(moves) == 16
    assert moves == tuple(Move(i, j) for i in range(1, 5) for j in range(1, 5))


def test_dictation_into_open_field():
    state = apply_move(GameState.initial(2), Move(3, 1))
    assert state.dictated == 1
    assert legal_moves(state) == tuple(Move(1, j) for j in range(1, 5))


def test_free_choice_after_closed_dictation():
    # after three moves field 1 is won; the dictated field 3 is open
    state = replay(EXAMPLE_GAME[:3], 2)
    assert state.marks == frozenset({1})
    assert legal_moves(state) == (Move(3, 2), Move(3, 3), Move(3, 4))


def test_dictation_into_a_closed_field_is_free():
    # field 5 closes on its left column; the last move then points into it
    state = replay([(5, 1), (1, 5), (5, 2), (2, 5), (5, 3), (3, 5)], 3)
    assert state.marks == frozenset({5})
    assert state.dictated is None
    assert legal_moves(state) == tuple(
        Move(f, p)
        for f in state.open_fields()
        for p in range(1, 10)
        if p not in state.field_cells[f - 1]
    )


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_legal_moves_is_a_strictly_increasing_tuple_of_moves(n):
    # every state of seeded games, free moves after a closed field included
    rng = random.Random(70 + n)
    free = 0
    for _ in range(6):
        state = GameState.initial(n)
        while not state.terminal:
            got = legal_moves(state)
            assert type(got) is tuple and got
            assert all(type(m) is Move for m in got)
            assert all(a < b for a, b in zip(got, got[1:]))
            free += state.dictated is None and bool(state.moves)
            state = apply_move(state, rng.choice(got))
    assert free > 0 or n == 1  # at n = 1 only the first move is free


def test_a_field_closes_on_a_line_not_on_a_count():
    # field 5 holds three X's off every line of the n = 3 grid and stays open
    state = replay([(5, 1), (1, 5), (5, 2), (2, 5), (5, 4), (4, 5)], 3)
    assert state.field_cells[4] == frozenset({1, 2, 4})
    assert state.marks == frozenset()
    assert state.dictated == 5
    # the X that completes the line {1, 2, 3} closes it and marks the board
    state = apply_move(state, Move(5, 3))
    assert state.marks == frozenset({5})
    assert state.dictated == 3  # field 3 is open
    # a field also closes on its third X, the least that can make a line
    state = replay([(5, 1), (1, 5), (5, 2), (2, 5), (5, 3)], 3)
    assert state.field_cells[4] == frozenset({1, 2, 3})
    assert state.marks == frozenset({5})
    assert state.dictated == 3


def test_n1_first_move_closes_the_field_and_ends_the_game():
    state = replay([(1, 1)], 1)
    assert state.marks == frozenset({1})
    assert state.dictated is None
    assert (state.terminal, state.loser) == (True, 1)


def test_initial_state_is_shared():
    for n in (1, 2, 3, 4):
        empty = GameState(n, (), (0,) * (n * n), 0, None)
        assert GameState.initial(n) is GameState.initial(n)
        assert GameState.initial(n) == empty
        apply_move(GameState.initial(n), Move(1, 1))
        assert is_valid_game([(1, 1)], n).valid
        final_board([(1, 1)], n)
        assert GameState.initial(n) == empty
    # the cache tells 3.0 from 3: a float size raises as spiral_numbering does
    with pytest.raises(TypeError):
        GameState.initial(3.0)


def test_game_state_is_a_frozen_value():
    # GameState writes its fields itself; the dataclass still supplies
    # immutability, equality, hashing, repr and asdict from those fields
    state = replay([(3, 1)], 2)
    for name in ("n", "moves", "field_bits", "mark_bits", "dictated", "loser"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(state, name)
    same = dataclasses.replace(state)
    assert same is not state and same == state and hash(same) == hash(state)
    moved = dataclasses.replace(state, dictated=2)
    assert moved != state and moved.dictated == 2
    assert repr(state) == (
        "GameState(n=2, moves=(Move(field=3, pos=1),), field_bits=(0, 0, 1, 0), "
        "mark_bits=0, dictated=1, loser=None)"
    )
    assert dataclasses.asdict(state) == {
        "n": 2,
        "moves": ((3, 1),),
        "field_bits": (0, 0, 1, 0),
        "mark_bits": 0,
        "dictated": 1,
        "loser": None,
    }
    assert GameState(2, (), (0,) * 4, 0, None).loser is None


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7, 8, 9, 13))
def test_board_decodes_any_field_bitmasks(n):
    # the one writer of a board built from cells, reached through a state's
    # field bitmasks and through Board(n, cells), against the cell loop of
    # test_board.py, on X sets no game reaches: the empty board, the full
    # board and 20 seeded random boards; its relabel kernel has no group
    # bound, so n goes past n = 7, the largest n whose group act_board
    # tabulates, and past n = 8, where the bitmasks join n fields per int
    n_sq = n * n
    cells = [(f, p) for f in range(1, n_sq + 1) for p in range(1, n_sq + 1)]
    rng = random.Random(100 + n)
    samples = [set(), set(cells)]
    samples += [rng.sample(cells, rng.randint(0, len(cells))) for _ in range(20)]
    for xs in samples:
        field_bits = [0] * n_sq
        for field, pos in xs:
            field_bits[field - 1] |= 1 << (pos - 1)
        state = GameState(n, (), tuple(field_bits), 0, None)
        want = _reference_bitstring(n, xs)
        assert to_bitstring(state.board) == want
        assert to_bitstring(Board(n, xs)) == want


@pytest.mark.parametrize("n", (0, 57))
def test_is_valid_game_raises_on_a_bad_size(n):
    # a bad size is not a fault of the moves: raised, not reported
    with pytest.raises(InvalidSizeError):
        is_valid_game([(1, 1)], n)
    with pytest.raises(InvalidSizeError):
        replay([(1, 1)], n)


def test_example_game_replay():
    state = GameState.initial(2)
    state = apply_move(state, Move(3, 1))
    assert 3 not in state.marks and not state.terminal
    state = apply_move(state, Move(1, 1))
    assert state.marks == frozenset()
    state = apply_move(state, Move(1, 3))
    assert state.marks == frozenset({1})
    assert not state.terminal
    state = apply_move(state, Move(3, 3))
    assert state.marks == frozenset({1, 3})
    assert state.terminal
    assert state.loser == 2  # the fourth move loses
    assert to_bitstring(state.board) == "1001000000001001"


def test_terminal_state_accepts_no_moves():
    state = replay(EXAMPLE_GAME, 2)
    with pytest.raises(TerminalStateError):
        legal_moves(state)
    with pytest.raises(IllegalMoveError) as err:
        apply_move(state, Move(2, 1))
    assert err.value.rule == "terminal game"


def test_illegal_moves_name_their_rule():
    state = apply_move(GameState.initial(2), Move(3, 1))
    with pytest.raises(IllegalMoveError) as err:
        apply_move(state, Move(2, 2))
    assert err.value.rule == "wrong field"
    with pytest.raises(IllegalMoveError) as err:
        apply_move(state, Move(3, 1))
    # the dictation rule is checked before occupancy
    assert err.value.rule == "wrong field"
    state = apply_move(state, Move(1, 1))
    with pytest.raises(IllegalMoveError) as err:
        apply_move(state, Move(1, 5))
    assert err.value.rule == "out of range"
    state = apply_move(state, Move(1, 3))  # field 1 won
    with pytest.raises(IllegalMoveError) as err:
        apply_move(state, Move(1, 2))
    assert err.value.rule == "closed field"
def test_occupied_cell_error():
    state = apply_move(GameState.initial(3), Move(5, 1))
    state = apply_move(state, Move(1, 5))
    with pytest.raises(IllegalMoveError) as err:
        apply_move(state, Move(5, 1))
    assert err.value.rule == "occupied cell"


def test_is_valid_game():
    assert is_valid_game((), 2).valid
    assert is_valid_game(EXAMPLE_GAME, 2).valid
    check = is_valid_game((Move(3, 1), Move(2, 2)), 2)
    assert not check.valid
    assert check.index == 2
    assert check.rule == "wrong field"


def test_malformed_moves_are_invalid():
    for moves in ([(1, 2, 3)], [(1,)], [(1, "2")], [7]):
        check = is_valid_game(moves, 2)
        assert not check.valid
        assert check.index is None
        assert check.rule == "malformed"
        with pytest.raises(ValueError, match="not a"):
            act_game(moves, GroupElement(2, 1, 0))
        with pytest.raises(ValueError, match="not a"):
            game_orbit(moves, 2)


def test_moves_after_terminal_are_invalid():
    check = is_valid_game(EXAMPLE_GAME + (Move(2, 1),), 2)
    assert not check.valid
    assert check.index == 5
    assert check.rule == "terminal game"


def test_replay_determinism():
    a = replay(EXAMPLE_GAME, 2)
    b = replay(EXAMPLE_GAME, 2)
    assert a == b
    assert a.board == b.board


@pytest.mark.parametrize("n", (2, 3, 4))
def test_every_closed_field_is_marked(n):
    # a field is marked exactly when its cells contain a line of its grid
    rng = random.Random(n * 17)
    for _ in range(100):
        state = GameState.initial(n)
        while not state.terminal and rng.random() < 0.95:
            state = apply_move(state, rng.choice(legal_moves(state)))
            for f, cells in enumerate(state.field_cells, 1):
                has_line = any(line <= cells for line in grid_lines(n))
                assert (f in state.marks) == has_line


def test_n2_terminal_exactly_when_second_field_closes():
    # in a 2x2 grid any two cells are collinear, so two marks always end it
    rng = random.Random(5)
    for _ in range(200):
        state = GameState.initial(2)
        while not state.terminal:
            state = apply_move(state, rng.choice(legal_moves(state)))
            assert state.terminal == (len(state.marks) == 2)
        assert len(state.marks) == 2
        assert 4 <= state.board.x_count <= 6


def test_act_game_identity_and_goldens():
    ident = group_elements(2)[0]
    assert act_game(EXAMPLE_GAME, ident) == EXAMPLE_GAME
    sigma = GroupElement(2, 1, 0)
    assert act_game(EXAMPLE_GAME, sigma) == (
        Move(4, 2), Move(2, 2), Move(2, 4), Move(4, 4)
    )
    rho = GroupElement(2, 0, 1)
    assert act_game(EXAMPLE_GAME, rho) == EXAMPLE_GAME  # rho fixes labels 1 and 3


def test_act_game_rejects_invalid_input():
    with pytest.raises(InvalidGameError):
        act_game((Move(3, 1), Move(2, 2)), group_elements(2)[0])
    with pytest.raises(InvalidGameError):
        game_orbit((Move(3, 1), Move(2, 2)), 2)


def test_act_game_rejects_invalid_image_without_asserts():
    # sigma bends the top row of a 3x3 field into an L, so this game's image
    # breaks at move 7; the check must survive python -O
    code = (
        "from sttt.game import InvalidGameError, act_game\n"
        "from sttt.dihedral import GroupElement\n"
        "game = [(5, 1), (1, 5), (5, 2), (2, 5), (5, 3), (3, 5), (1, 1)]\n"
        "try:\n"
        "    act_game(game, GroupElement(3, 1, 0))\n"
        "except InvalidGameError as err:\n"
        "    print('rejected:', err)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("rejected: action a=1 b=0 broke game")


def test_game_orbit_of_example_matches_listing():
    orbit = game_orbit(EXAMPLE_GAME, 2)
    expected = {
        (Move(3, 1), Move(1, 1), Move(1, 3), Move(3, 3)),
        (Move(1, 3), Move(3, 3), Move(3, 1), Move(1, 1)),
        (Move(4, 2), Move(2, 2), Move(2, 4), Move(4, 4)),
        (Move(2, 4), Move(4, 4), Move(4, 2), Move(2, 2)),
    }
    assert orbit == frozenset(expected)


def test_game_orbit_of_empty_game():
    assert game_orbit((), 2) == frozenset({()})


def test_final_board_golden():
    assert to_bitstring(final_board(EXAMPLE_GAME, 2)) == "1001000000001001"


def test_final_board_orbit_has_two_members():
    boards = {to_bitstring(final_board(g, 2)) for g in game_orbit(EXAMPLE_GAME, 2)}
    assert boards == {"0000011001100000", "1001000000001001"}


@pytest.mark.parametrize("n", (2, 3))
def test_orbit_sizes_divide_group_order(n):
    # restricted to games whose whole orbit replays legally: guaranteed for
    # n=2, and true of a large share of short n=3 games
    rng = random.Random(n * 31)
    elems = group_elements(n)
    tested = 0
    for _ in range(40):
        state = GameState.initial(n)
        steps = rng.randint(0, 6)
        while not state.terminal and len(state.moves) < steps:
            state = apply_move(state, rng.choice(legal_moves(state)))
        moves = state.moves
        if all(
            is_valid_game(tuple((g(i), g(j)) for i, j in moves), n).valid
            for g in elems
        ):
            orbit = game_orbit(moves, n)
            assert (2 * dihedral_order(n)) % len(orbit) == 0
            tested += 1
    assert tested > 0


def test_n2_action_preserves_validity_and_commutes():
    rng = random.Random(12)
    for _ in range(300):
        state = GameState.initial(2)
        stop = rng.randint(0, 8)
        while not state.terminal and len(state.moves) < stop:
            state = apply_move(state, rng.choice(legal_moves(state)))
        moves = state.moves
        for g in group_elements(2):
            mapped = act_game(moves, g)
            assert is_valid_game(mapped, 2).valid
            assert final_board(mapped, 2) == act_board(final_board(moves, 2), g)


def _reference_step(n, cells, marks, dictated, loser, made, move):
    """The rules on frozensets: a second implementation to compare with.

    ``cells`` is a tuple of per-field position sets and ``made`` the number
    of moves before this one.  Every grid line is tested, not only the lines
    through the move, since no field or board line is complete before it.
    """
    field, pos = move
    n_sq = n * n
    if loser is not None:
        raise IllegalMoveError("terminal game", "the game is already over")
    if not (1 <= field <= n_sq and 1 <= pos <= n_sq):
        raise IllegalMoveError(
            "out of range", f"move ({field}, {pos}) outside 1..{n_sq} labels"
        )
    if field in marks:
        raise IllegalMoveError("closed field", f"field {field} is closed")
    if dictated is not None and field != dictated:
        raise IllegalMoveError(
            "wrong field",
            f"move dictated into open field {dictated}, not field {field}",
        )
    if pos in cells[field - 1]:
        raise IllegalMoveError(
            "occupied cell", f"position {pos} of field {field} is already an X"
        )
    changed = cells[field - 1] | {pos}
    cells = cells[: field - 1] + (changed,) + cells[field:]
    if any(line <= changed for line in grid_lines(n)):
        marks = marks | {field}
        if any(line <= marks for line in grid_lines(n)):
            loser = 1 if (made + 1) % 2 else 2
    return cells, marks, None if pos in marks else pos, loser


def _illegal_moves(n, cells, marks, dictated, loser):
    """One move per rule that the rule forbids in this position, if any."""
    n_sq = n * n
    if loser is not None:
        return {"terminal game": (1, 1)}
    out = {"out of range": (n_sq + 1, 1)}
    if marks:
        out["closed field"] = (min(marks), 1)
    open_fields = [f for f in range(1, n_sq + 1) if f not in marks]
    if dictated is not None and len(open_fields) > 1:
        out["wrong field"] = (min(f for f in open_fields if f != dictated), 1)
    allowed = [dictated] if dictated is not None else open_fields
    taken = [(f, min(cells[f - 1])) for f in allowed if cells[f - 1]]
    if taken:
        out["occupied cell"] = taken[0]
    return out


def _reference_error(n, position, made, move):
    with pytest.raises(IllegalMoveError) as err:
        _reference_step(n, *position, made, move)
    return err.value


@pytest.mark.parametrize("n, games", ((1, 1), (2, 40), (3, 20), (4, 8), (5, 3), (6, 1)))
def test_int_engine_matches_the_frozenset_reference(n, games):
    rng = random.Random(1000 + n)
    rules = set()
    for _ in range(games):
        position = ((frozenset(),) * (n * n), frozenset(), None, None)
        state = GameState.initial(n)
        moves = []
        while True:
            cells, marks, dictated, loser = position
            replayed = replay(moves, n)
            for got in (state, replayed):
                assert got.field_cells == cells
                assert got.marks == marks
                assert (got.dictated, got.loser) == (dictated, loser)
                assert got.moves == tuple(moves)
                assert got.board == Board(n, {(f, p) for f, ps in enumerate(cells, 1) for p in ps})
            assert final_board(moves, n) == replayed.board
            for rule, bad in _illegal_moves(n, *position).items():
                want = _reference_error(n, position, len(moves), bad)
                with pytest.raises(IllegalMoveError) as err:
                    apply_move(state, bad)
                assert (err.value.rule, str(err.value)) == (rule, str(want))
                assert err.value.index == len(moves) + 1
                with pytest.raises(IllegalMoveError) as err:
                    replay(moves + [bad], n)
                assert (err.value.rule, str(err.value)) == (rule, str(want))
                assert err.value.index == len(moves) + 1
                assert is_valid_game(moves + [bad], n) == (
                    False, err.value.index, err.value.rule, str(err.value)
                )
                rules.add(rule)
            if loser is not None:
                break
            allowed = [dictated] if dictated is not None else state.open_fields()
            expected = {
                Move(f, p)
                for f in allowed
                for p in range(1, n * n + 1)
                if p not in cells[f - 1]
            }
            got = legal_moves(state)
            assert got == tuple(sorted(expected))
            assert all(type(m) is Move for m in got)
            move = rng.choice(sorted(expected))
            position = _reference_step(n, *position, len(moves), move)
            state = apply_move(state, move)
            moves.append(move)
    if n == 1:  # the first move ends the game, so no field is ever closed or taken
        assert rules == {"terminal game", "out of range"}
    else:
        assert rules == {
            "terminal game", "out of range", "closed field", "wrong field", "occupied cell"
        }


def test_an_illegal_move_is_reported_before_a_later_malformed_one():
    moves = [(3, 1), (2, 2), (1,)]
    assert is_valid_game(moves, 2) == (
        False,
        2,
        "wrong field",
        "move dictated into open field 1, not field 2",
    )
    with pytest.raises(IllegalMoveError) as err:
        replay(moves, 2)
    assert (err.value.index, err.value.rule) == (2, "wrong field")
    # with every earlier move legal, the malformed one is reported
    assert is_valid_game([(3, 1), (1,)], 2) == (
        False,
        None,
        "malformed",
        "move (1,) is not a (field, pos) pair",
    )


def test_moves_must_be_pairs_of_ints():
    # int subclasses are integers, kept as Moves of two ints; a Move holding
    # other values is not
    state = replay([(True, 1)], 2)
    assert state.moves == (Move(1, 1),)
    assert type(state.moves[0]) is Move
    assert type(state.moves[0].field) is type(state.moves[0].pos) is int
    for move in (Move("1", 2), Move(1.0, 2)):
        check = is_valid_game([move], 2)
        assert check.rule == "malformed"
        assert check.message == f"move {move!r} is not a pair of integers"


def _line_preserving(n):
    """The elements that map the grid lines onto lines."""
    lines = set(grid_lines(n))
    return [
        g for g in group_elements(n) if {frozenset(map(g, line)) for line in lines} == lines
    ]


@pytest.mark.parametrize("n", range(2, 8))
def test_line_preserving_elements_are_the_readme_list(n):
    # exactly these elements map every legal game to a legal one
    m = dihedral_order(n)
    if n == 2:
        expected = {(a, b) for a in range(m) for b in (0, 1)}
    elif n == 3:
        expected = {(a, b) for a in range(0, m, 2) for b in (0, 1)}
    elif n % 2 == 0:
        expected = {(0, 0), (0, 1), (m // 2, 0), (m // 2, 1)}
    else:
        expected = {(0, 0), (0, 1)}
    assert {(g.a, g.b) for g in _line_preserving(n)} == expected


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_act_game_returns_the_mapped_game_exactly_when_it_is_legal(n):
    # compare act_game with the verdict of is_valid_game on the moves
    # mapped here label by label
    rng = random.Random(40 + n)
    for _ in range(10):
        state = GameState.initial(n)
        stop = rng.randint(1, 4 * n**4)
        while not state.terminal and len(state.moves) < stop:
            state = apply_move(state, rng.choice(legal_moves(state)))
        game = state.moves
        for g in group_elements(n):
            mapped = tuple(Move(g(i), g(j)) for i, j in game)
            valid = is_valid_game(mapped, n).valid
            try:
                image = act_game(game, g)
            except InvalidGameError:
                assert not valid, (n, g, game)
                continue
            assert valid and image == mapped, (n, g, game)
            assert final_board(image, n) == act_board(final_board(game, n), g)


def test_act_game_at_n14_does_not_build_the_group():
    # group_elements refuses n = 14; acting by one element must not need it
    rho = GroupElement(14, 0, 1)
    game = (Move(5, 1), Move(1, 5), Move(5, 2))
    before = group_elements.cache_info()
    assert act_game(game, rho) == tuple(Move(rho(i), rho(j)) for i, j in game)
    assert group_elements.cache_info() == before


def _played(n, seed):
    """A seeded random game played to the end, as apply_move records it."""
    rng = random.Random(seed)
    state = GameState.initial(n)
    while not state.terminal:
        state = apply_move(state, rng.choice(legal_moves(state)))
    return state.moves


@pytest.fixture
def advance_calls(monkeypatch):
    """Counts the calls to game._advance, the one stepping function."""
    calls = []
    advance = game_module._advance

    def counted(state, moves):
        calls.append(len(state.moves))
        return advance(state, moves)

    monkeypatch.setattr(game_module, "_advance", counted)
    return calls


def _uncached(moves, n):
    return game_module._advance(GameState.initial(n), moves)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_a_replayed_game_is_not_stepped_again(n, advance_calls):
    game = _played(n, 900 + n)
    del advance_calls[:]
    state = replay(game, n)
    assert advance_calls == [0]
    assert state == _uncached(game, n) and state.moves is game
    del advance_calls[:]
    assert final_board(game, n) == state.board
    assert is_valid_game(game, n).valid
    assert is_valid_game(tuple(Move(f, p) for f, p in game), n).valid  # an equal copy
    assert advance_calls == []
    # act_game steps each image once from the empty state, but the identity
    # image, which is the game itself
    kept = _line_preserving(n)
    images = [act_game(game, g) for g in kept]
    assert game in images
    assert advance_calls == [0] * len(set(images) - {game})
    # then neither an image nor an equal image built afresh is stepped
    del advance_calls[:]
    for g, image in zip(kept, images):
        assert replay(image, n).moves is image
        assert final_board(image, n) == act_board(state.board, g)
        assert is_valid_game(tuple(Move(g(i), g(j)) for i, j in game), n).valid
    assert advance_calls == []


@pytest.fixture
def memo():
    """replay's memo of final states, emptied before and after the test."""
    cached = game_module._replayed
    cached.cache_clear()
    yield cached
    cached.cache_clear()


def _int_moves(moves):
    """Whether ``moves`` are Moves of two ints, with no bool among them."""
    return all(
        type(move) is Move and type(move.field) is type(move.pos) is int for move in moves
    )


def test_an_equal_game_of_other_types_gets_the_stored_state(memo):
    # True == 1 and (3, 1) == Move(3, 1), and replay makes Moves of two ints
    # of both, so an equal game of either gets the stored state
    flagged = (Move(3, True),) + EXAMPLE_GAME[1:]
    pairs = tuple((f, p) for f, p in EXAMPLE_GAME)
    want = _uncached(flagged, 2)
    assert want == _uncached(EXAMPLE_GAME, 2) and _int_moves(want.moves)
    for _ in range(2):
        for game in (flagged, pairs, EXAMPLE_GAME):
            state = replay(game, 2)
            assert state == want and _int_moves(state.moves)
    assert memo.cache_info()[:2] == (5, 1)
    # 1.0 == 1 and hashes alike, but a float field is malformed, whether or
    # not the memo holds the equal game
    floated = (Move(3, 1.0),) + EXAMPLE_GAME[1:]
    assert floated == EXAMPLE_GAME
    message = f"move {floated[0]!r} is not a pair of integers"
    for clear in (False, True):
        if clear:
            memo.cache_clear()
        with pytest.raises(ValueError, match=re.escape(message)):
            replay(floated, 2)
        assert is_valid_game(floated, 2) == (False, None, "malformed", message)
    assert memo.cache_info().currsize == 0
    # a tuple of lists cannot be stored; changed in place, it replays anew
    lists = tuple([f, p] for f, p in EXAMPLE_GAME)
    assert replay(lists, 2) == replay(EXAMPLE_GAME, 2)
    lists[3][1] = 2
    assert replay(lists, 2) == _uncached(lists, 2) != replay(EXAMPLE_GAME, 2)
    assert memo.cache_info().currsize == 1


@pytest.mark.parametrize("first", ("bool", "pairs", "exact"))
def test_equal_games_of_int_or_bool_fields_are_stepped_once(memo, advance_calls, first):
    # a bool field, plain pairs and Moves of two ints: whichever comes first
    # is stepped once and stored, and the others get its state
    games = {
        "bool": (Move(3, True),) + EXAMPLE_GAME[1:],
        "pairs": tuple((f, p) for f, p in EXAMPLE_GAME),
        "exact": tuple(Move(f, p) for f, p in EXAMPLE_GAME),  # not EXAMPLE_GAME itself
    }
    want = _uncached(EXAMPLE_GAME, 2)
    del advance_calls[:]
    order = [games.pop(first), *games.values()]
    stored = replay(order[0], 2)
    assert stored == want and _int_moves(stored.moves)
    assert (stored.moves is order[0]) == (first == "exact")
    for game in order * 2:
        assert replay(game, 2) is stored
    assert replay(EXAMPLE_GAME, 2) is stored
    assert advance_calls == [0]
    assert memo.cache_info()[:2] == (7, 1)


def test_an_unhashable_field_raises_as_the_uncached_replay(memo):
    # Move(1, [2]) cannot be hashed, so it is not looked up, and _advance
    # reports it as for any input it replays
    for game in ((Move(1, [2]),), EXAMPLE_GAME[:2] + (Move(1, [2]),)):
        with pytest.raises(ValueError) as uncached:
            _uncached(game, 2)
        with pytest.raises(ValueError) as cached:
            replay(game, 2)
        assert type(cached.value) is type(uncached.value) is ValueError
        assert str(cached.value) == str(uncached.value)
        assert str(cached.value) == f"move {game[-1]!r} is not a pair of integers"
    assert memo.cache_info().currsize == 0


@pytest.fixture
def type_scans(monkeypatch):
    """Counts the calls to game._int_pairs, the memo's scan of a game's types."""
    calls = []
    scan = game_module._int_pairs

    def counted(moves):
        calls.append(len(moves))
        return scan(moves)

    monkeypatch.setattr(game_module, "_int_pairs", counted)
    return calls


def test_a_memo_hit_on_the_same_tuple_or_a_miss_scans_no_types(memo, type_scans):
    game = _played(3, 903)  # Moves of two ints, which the state keeps
    state = replay(game, 3)  # a miss
    assert final_board(game, 3) == state.board  # a hit on the same tuple
    assert is_valid_game(game, 3).valid
    image = act_game(game, GroupElement(3, 0, 1))  # a hit, and a miss for the image
    assert replay(image, 3).moves is image
    assert memo.cache_info()[:2] == (4, 2)
    assert type_scans == []
    # an equal tuple is scanned once, then served the stored state
    copy = tuple(Move(f, p) for f, p in game)
    assert replay(copy, 3) is state
    assert type_scans == [len(game)]


def test_the_memo_tells_sizes_apart():
    # EXAMPLE_GAME is legal at n = 2 and 3, with different states
    two = replay(EXAMPLE_GAME, 2)
    three = replay(EXAMPLE_GAME, 3)
    assert (two.n, three.n) == (2, 3)
    assert three == _uncached(EXAMPLE_GAME, 3) != two
    # a float size raises as it does on an empty memo
    with pytest.raises(TypeError):
        replay(EXAMPLE_GAME, 3.0)
    with pytest.raises(TypeError):
        is_valid_game(EXAMPLE_GAME, 3.0)
    with pytest.raises(TypeError):
        final_board(EXAMPLE_GAME, 2.0)


def _distinct_games(n, count):
    """``count`` distinct seeded random games played to the end."""
    games = list(dict.fromkeys(_played(n, seed) for seed in range(2 * count)))
    assert len(games) >= count
    return games[:count]


def test_the_memo_holds_at_most_its_budget_of_moves(memo, monkeypatch):
    # the memo keeps the _MEMO_GAMES games used last
    size = game_module._MEMO_GAMES
    games = _distinct_games(2, size + 24)
    for k, game in enumerate(games, 1):
        assert replay(game, 2).moves is game
        assert memo.cache_info().currsize == min(k, size)
        hits = memo.cache_info().hits
        assert replay(game, 2).moves is game  # the newest game stays
        assert memo.cache_info().hits == hits + 1
    # a hit makes the oldest game the newest, so the next game stored
    # drops the second oldest instead
    oldest, second = games[-size], games[-size + 1]
    replay(oldest, 2)
    replay(_played(3, 99), 3)
    info = memo.cache_info()
    replay(oldest, 2)
    assert memo.cache_info()[:2] == (info.hits + 1, info.misses)
    replay(second, 2)
    assert memo.cache_info()[:2] == (info.hits + 1, info.misses + 1)
    # a full game at n = 5 is stored
    long_game = _played(5, 7)
    info = memo.cache_info()
    assert replay(long_game, 5) == _uncached(long_game, 5)
    assert replay(long_game, 5).moves is long_game
    assert memo.cache_info()[:2] == (info.hits + 1, info.misses + 1)
    # under a bound of 65 moves plus n^2 fields, a longer game is replayed
    # but not stored, and so is a short game at n = 9, whose fields alone
    # are over it, and the full game is no longer looked up
    monkeypatch.setattr(game_module, "_MEMO_GAME_UNITS", 65)
    info = memo.cache_info()
    wide = (Move(1, 1),)
    assert replay(wide, 9) == _uncached(wide, 9)
    assert replay(long_game[:41], 5) == _uncached(long_game[:41], 5)
    assert replay(long_game, 5) == _uncached(long_game, 5)
    assert memo.cache_info() == info
    # while a game of exactly 65 units is
    replay(long_game[:40], 5)
    assert memo.cache_info().misses == info.misses + 1
    assert memo.cache_info().currsize == size


def test_the_memo_stays_within_budget_under_threads(memo):
    # threads share the memo: replays, hits and evictions interleave, and
    # every result must still be the uncached state
    games = _distinct_games(2, 24)  # more than the memo holds
    wrong = []

    def work(offset):
        for k in range(300):
            game = games[(k + offset) % len(games)]
            if replay(tuple(Move(f, p) for f, p in game), 2) != _uncached(game, 2):
                wrong.append(game)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert memo.cache_info().currsize <= game_module._MEMO_GAMES


def test_legal_moves_keeps_a_bounded_number_of_move_rows():
    # a free move at n = 9 builds the rows of all 81 fields; the cache keeps
    # the _MOVE_ROWS used last, and the moves do not change
    rows = game_module._move_row
    rows.cache_clear()
    moves = legal_moves(GameState.initial(9))
    assert moves == tuple(Move(f, p) for f in range(1, 82) for p in range(1, 82))
    assert rows.cache_info().misses == 81
    assert rows.cache_info().currsize <= game_module._MOVE_ROWS < 81
    # rows share their position ints, also those above 256, which Python
    # does not share by itself
    first, last = rows(17, 1), rows(17, 289)
    assert [move.pos for move in first] == list(range(1, 290))
    assert all(a.pos is b.pos for a, b in zip(first, last))


def test_act_game_at_n14_fetches_no_move_rows():
    # the 196 rows of n = 14 do not fit the row cache, so the image of a
    # short game is built move by move, without filling it
    rows = game_module._move_row
    rows.cache_clear()
    rho = GroupElement(14, 0, 1)
    game = (Move(5, 1), Move(1, 5), Move(5, 2))
    assert act_game(game, rho) == tuple(Move(rho(i), rho(j)) for i, j in game)
    assert all(type(move) is Move for move in act_game(game, rho))
    assert rows.cache_info().misses == 0
