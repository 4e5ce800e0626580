import re

import pytest

from sttt.checks import SUITE_NAMES, run_suite


def test_game_suite_counts_are_pinned(suite_run):
    # both game suites take their images from act_game; any change to the
    # action, to act_game's checks or to the suites' draws moves these counts
    validity = suite_run("game-action-validity", cases=2000, seed=2024)
    assert validity.failures == 139
    assert validity.first_failure.startswith(
        "n=3 g=(5,1) action a=5 b=1 broke game [Move(field=6, pos=8)"
    )
    commutation = suite_run("replay-action-commutation", cases=2000, seed=2024)
    assert commutation.failures == 0
    assert commutation.skipped == 135


def test_round_trip_suite_passes(suite_run):
    # the suite writes each board's X cells back through Board(n, cells), so
    # a cell writer that disagrees with xs fails it
    result = suite_run("bitstring-round-trip", cases=2000, seed=2024)
    assert result.failures == 0 and result.skipped == 0


def test_an_unknown_suite_names_the_suites():
    message = f"unknown suite 'nope'; choose from {SUITE_NAMES}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite("nope")
