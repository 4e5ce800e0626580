"""Inputs, operations and output checks of the three benchmark workloads.

Every operation takes one pre-generated input and a
``call(name, n, fn, *args, **kwargs)`` hook through which it makes each call
into the public ``sttt`` API.  The untraced hook only forwards the call; the
traced hook in ``run.py`` records a span around it.  An operation is a
generator: it yields at the boundaries between its stages, which the runner
times one by one, and returns ``(ok, counts)``, the verdict of its output
checks and the deterministic work counters that the traced run reports.

Only public names that survive the planned refactors are used: no private
helpers, no ``allow_large``, ``draw``, ``history``, ``board_marks``,
``state_at``, ``perm_order``, ``level_set`` or ``FieldStatus.FULL``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from sttt import (
    Board,
    GameState,
    Move,
    act_board,
    act_game,
    apply_move,
    bundled_census_text,
    canonical_form,
    classes_from_jsonl,
    classes_to_jsonl,
    diff_census,
    enumerate_winning_boards,
    final_board,
    from_bitstring,
    grid_lines,
    group_elements,
    is_valid_game,
    legal_moves,
    parse_census_text,
    partition_classes,
    replay,
    spiral_numbering,
    to_bitstring,
)

# The paper's n=2 census; every census operation is gated on all of it.
CENSUS_EXPECTED = {
    "boards": 1902,
    "classes": 248,
    "histogram": {2: 1, 4: 19, 8: 228},
}

# Per-workload side lengths and how often each appears in one round of the
# input order.  Canon uses equal thirds, so its median operation sits inside
# the n=4 cluster.  Playout uses n=3 twice as often as n=4, so its median sits
# inside the n=3 cluster instead of on the gap between the two sizes, where it
# would jump from run to run.
SIZE_PATTERN = {
    "census-n2": (2,),
    "canon": (3, 4, 5),
    "playout": (3, 3, 4),
}

# Inputs per run.  A run makes passes over all of them until its time is up;
# the counts keep one pass under two seconds on the seed code, so a 30 s run
# times every stage of every input about fifteen times.
INPUT_COUNT = {"canon": 90, "playout": 60}


@dataclass(frozen=True)
class CanonInput:
    n: int
    board: Board
    element: object  # a GroupElement of the same n


@dataclass(frozen=True)
class PlayoutInput:
    n: int
    draws: tuple[int, ...]  # one random draw per move; picks among sorted legal moves


def automorphisms(n: int) -> tuple:
    """Group elements that map the grid's lines onto lines (the game's symmetries)."""
    lines = set(grid_lines(n))
    return tuple(
        g
        for g in group_elements(n)
        if {frozenset(g(label) for label in line) for line in lines} == lines
    )


def warm_caches(workload: str) -> None:
    """The first calls of a fresh process that fill the program's caches."""
    for n in sorted(set(SIZE_PATTERN[workload])):
        spiral_numbering(n)
        group_elements(n)
        to_bitstring(Board.empty(n))
        if workload == "playout":
            automorphisms(n)
            state = GameState.initial(n)
            apply_move(state, min(legal_moves(state)))
    if workload == "census-n2":
        bundled_census_text()


def make_inputs(workload: str, seed: int, count: int | None = None) -> list:
    """The seeded input list; the program sees only these values."""
    count = INPUT_COUNT[workload] if count is None else count
    pattern = SIZE_PATTERN[workload]
    sizes = [pattern[i % len(pattern)] for i in range(count)]
    if workload == "census-n2":
        return sizes
    rng = random.Random(f"{workload}:{seed}")
    if workload == "playout":
        return [
            PlayoutInput(n, tuple(rng.getrandbits(32) for _ in range(n**4)))
            for n in sizes
        ]
    # canon: X counts are stratified over 0..n^4 within each size, so every
    # seed covers sparse and dense boards in the same proportions
    per_n = Counter(sizes)
    x_counts = {}
    for n, k in per_n.items():
        choices = n**4 + 1
        xs = [min(n**4, int((j + rng.random()) * choices / k)) for j in range(k)]
        rng.shuffle(xs)
        x_counts[n] = xs
    cells = {
        n: [(i, j) for i in range(1, n * n + 1) for j in range(1, n * n + 1)]
        for n in per_n
    }
    inputs = []
    for n in sizes:
        board = Board(n, frozenset(rng.sample(cells[n], x_counts[n].pop())))
        elems = group_elements(n)
        inputs.append(CanonInput(n, board, elems[rng.randrange(len(elems))]))
    return inputs


def census_op(n: int, call, expected=CENSUS_EXPECTED):
    """The census pipeline: search, partition, emit, reparse, diff."""
    boards = call(
        "census.enumerate_winning_boards", n, enumerate_winning_boards, n, jobs=1
    )
    yield
    classes = call("census.partition_classes", n, partition_classes, boards, n)
    yield
    text = call("census.classes_to_jsonl", n, classes_to_jsonl, classes)
    back = call("census.classes_from_jsonl", n, classes_from_jsonl, text)
    listing = call("census.bundled_census_text", n, bundled_census_text)
    reference = call("census.parse_census_text", n, parse_census_text, listing, n)
    diff = call("census.diff_census", n, diff_census, back, reference)
    histogram = dict(Counter(c.orbit_size for c in back))
    ok = (
        len(boards) == expected["boards"]
        and len(classes) == expected["classes"]
        and histogram == expected["histogram"]
        and sum(histogram.values()) == len(back)
        and diff.match
    )
    order = len(call("dihedral.group_elements", n, group_elements, n))
    return ok, {
        "census.boards": len(boards),
        "census.classes": len(classes),
        "census.orbit_images": len(boards) * order,
    }


def canon_op(x: CanonInput, call):
    """Canonical form is constant on the orbit; bitstrings round-trip."""
    n, board = x.n, x.board
    canon = call("board.canonical_form", n, canonical_form, board)
    yield
    image = call("board.act_board", n, act_board, board, x.element)
    canon_image = call("board.canonical_form", n, canonical_form, image)
    yield
    bits = call("board.to_bitstring", n, to_bitstring, board)
    back = call("board.from_bitstring", n, from_bitstring, bits, n)
    ok = canon == canon_image and back == board and len(bits) == n**4
    return ok, {}


def _map_moves(game, g):
    return tuple(Move(g(i), g(j)) for i, j in game)


def playout_op(x: PlayoutInput, call, autos: dict):
    """Play to the end, then check the game under every grid symmetry.

    ``autos[n]`` holds the automorphisms; ``act_game`` is called only with
    those, since it rejects (by ``assert``) the elements that break legality.
    """
    n, draws = x.n, x.draws
    state = call("game.GameState.initial", n, GameState.initial, n)
    branching = 0
    while not state.terminal:
        moves = sorted(call("game.legal_moves", n, legal_moves, state))
        branching += len(moves)
        move = moves[draws[len(state.moves)] % len(moves)]
        state = call("game.apply_move", n, apply_move, state, move)
    game = state.moves
    yield
    replayed = call("game.replay", n, replay, game, n)
    board = call("game.final_board", n, final_board, game, n)
    ok = (
        state.loser is not None
        and replayed.terminal
        and replayed.moves == game
        and board == replayed.board
    )
    yield
    for g in autos[n]:
        image = call("game.act_game", n, act_game, game, g)
        ok = ok and image == _map_moves(game, g)
        ok = ok and call("game.final_board", n, final_board, image, n) == call(
            "board.act_board", n, act_board, board, g
        )
        yield
    valid = 0
    elems = call("dihedral.group_elements", n, group_elements, n)
    for g in elems:
        mapped = call("dihedral.GroupElement.__call__", n, _map_moves, game, g)
        verdict = call("game.is_valid_game", n, is_valid_game, mapped, n)
        valid += verdict.valid
        ok = ok and (verdict.valid or g not in autos[n])
        yield
    return ok, {
        "game.moves_applied": len(game),
        "game.branching_sum": branching,
        "game.valid_images": valid,
        "game.images_attempted": len(elems),
    }

