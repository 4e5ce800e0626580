"""Seeded randomized self-checks of the core invariants.

Each suite checks one case drawn from its own deterministic RNG.
run_suite draws a fixed number of cases and reports how many failed and how
many were skipped, keeping the first counterexample for diagnosis.
The game suites draw random legal playouts on 2x2 and 3x3 boards; the board
suites draw random boards up to 5x5.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from .board import (
    Board,
    act_board,
    canonical_form,
    from_bitstring,
)
from .dihedral import group_elements
from .game import (
    GameState,
    InvalidGameError,
    act_game,
    apply_move,
    final_board,
    legal_moves,
)

@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: int
    skipped: int = 0
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def random_board(rng: random.Random, sizes=(2, 3, 4, 5)) -> Board:
    """A board with k X cells at random, k uniform in 0..n^4."""
    n = rng.choice(sizes)
    chars = ["0"] * n**4
    for idx in rng.sample(range(n**4), rng.randint(0, n**4)):
        chars[idx] = "1"
    return from_bitstring("".join(chars), n)


def random_valid_game(rng: random.Random, n: int) -> tuple:
    """A random legal playout, stopped early at a random length."""
    state = GameState.initial(n)
    stop = rng.randint(0, 4 * n * n)
    while not state.terminal and len(state.moves) < stop:
        state = apply_move(state, rng.choice(legal_moves(state)))
    return state.moves


# what a suite returns for a case it skips; a case that passes returns None
# and one that fails returns its failure text
_SKIPPED = object()


def _suite_board_action_law(rng: random.Random) -> str | None:
    b = random_board(rng)
    g = rng.choice(group_elements(b.n))
    h = rng.choice(group_elements(b.n))
    if act_board(act_board(b, h), g) != act_board(b, g * h):
        return f"n={b.n} g=({g.a},{g.b}) h=({h.a},{h.b}) xs={sorted(b.xs)}"


def _suite_x_count(rng: random.Random) -> str | None:
    b = random_board(rng)
    g = rng.choice(group_elements(b.n))
    if act_board(b, g).x_count != b.x_count:
        return f"n={b.n} g=({g.a},{g.b}) xs={sorted(b.xs)}"


def _suite_canonical_constancy(rng: random.Random) -> str | None:
    b = random_board(rng, sizes=(2, 3))
    g = rng.choice(group_elements(b.n))
    if canonical_form(act_board(b, g)) != canonical_form(b):
        return f"n={b.n} g=({g.a},{g.b}) xs={sorted(b.xs)}"


def _suite_round_trip(rng: random.Random) -> str | None:
    """A bitstring read back as X cells and written again as a Board is the
    same bitstring: Board's cell writer and its xs reader agree."""
    n = rng.choice((2, 3, 4, 5))
    if rng.random() < 0.5:
        bits = "".join(rng.choice("01") for _ in range(n**4))
        if Board(n, from_bitstring(bits, n).xs).bits != bits:
            return f"n={n} bits={bits}"
    else:
        b = random_board(rng, sizes=(n,))
        if Board(n, b.xs) != b:
            return f"n={n} xs={sorted(b.xs)}"


def _suite_game_action_validity(rng: random.Random) -> str | None:
    n = rng.choice((2, 3))
    moves = random_valid_game(rng, n)
    g = rng.choice(group_elements(n))
    try:
        act_game(moves, g)
    except InvalidGameError as err:
        return f"n={n} g=({g.a},{g.b}) {err}"


def _suite_commutation(rng: random.Random) -> str | object | None:
    """final_board of the acted game equals the acted final board.

    Both game suites take their images from act_game.  Games whose image
    does not replay legally are counted as skipped here; the
    game-action-validity suite owns those findings.
    """
    n = rng.choice((2, 3))
    moves = random_valid_game(rng, n)
    g = rng.choice(group_elements(n))
    try:
        mapped = act_game(moves, g)
    except InvalidGameError:
        return _SKIPPED
    if final_board(mapped, n) != act_board(final_board(moves, n), g):
        return f"n={n} g=({g.a},{g.b}) game={[tuple(m) for m in moves]}"


_SUITES = {
    "board-action-law": _suite_board_action_law,
    "x-count-invariance": _suite_x_count,
    "canonical-orbit-constancy": _suite_canonical_constancy,
    "bitstring-round-trip": _suite_round_trip,
    "game-action-validity": _suite_game_action_validity,
    "replay-action-commutation": _suite_commutation,
}
# the position of a name here seeds its suite's RNG stream
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cases: int = 10_000, seed: int = 0) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if cases < 1:
        raise ValueError(f"a suite needs at least one case, got cases={cases}")
    # each suite gets an independent deterministic stream
    rng = random.Random(seed * len(SUITE_NAMES) + SUITE_NAMES.index(name))
    result = SuiteResult(name=name, cases=cases, failures=0)
    for _ in range(cases):
        outcome = _SUITES[name](rng)
        if outcome is _SKIPPED:
            result.skipped += 1
        elif outcome is not None:
            result.failures += 1
            result.first_failure = result.first_failure or outcome
    return result
