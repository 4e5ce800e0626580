import copy
import pickle
import re

import pytest

from sttt.board import Board
from sttt.dihedral import group_elements
from sttt.game import GameState, grid_lines, replay
from sttt.spiral import (
    InvalidLayerError,
    InvalidSizeError,
    NumberedSquare,
    spiral_numbering,
)

# 5x5 grid, row by row from the top left
GRID_5 = (
    (1, 16, 15, 14, 13),
    (2, 17, 24, 23, 12),
    (3, 18, 25, 22, 11),
    (4, 19, 20, 21, 10),
    (5, 6, 7, 8, 9),
)

GRID_4 = (
    (1, 12, 11, 10),
    (2, 13, 16, 9),
    (3, 14, 15, 8),
    (4, 5, 6, 7),
)

GRID_3 = (
    (1, 8, 7),
    (2, 9, 6),
    (3, 4, 5),
)


def test_single_cell():
    sq = spiral_numbering(1)
    assert sq.rows == ((1,),)
    assert sq.layer_count == 1
    assert sq.level_set(1) == (1,)


def test_two_by_two():
    sq = spiral_numbering(2)
    assert sq.label_at(0, 0) == 1
    assert sq.label_at(1, 0) == 2
    assert sq.label_at(1, 1) == 3
    assert sq.label_at(0, 1) == 4
    assert sq.level_set(1) == (1, 2, 3, 4)
    assert sq.layer_count == 1


def test_three_by_three():
    assert spiral_numbering(3).rows == GRID_3


def test_four_by_four():
    assert spiral_numbering(4).rows == GRID_4


def test_five_by_five():
    assert spiral_numbering(5).rows == GRID_5


def test_numbering_walks_down_first():
    for n in range(2, 10):
        assert spiral_numbering(n).cell_of(2) == (1, 0)


def test_invalid_sizes():
    for n in (0, -1, -7, 57):  # n = 57: a board's n^4 cells exceed 10^7
        with pytest.raises(InvalidSizeError):
            NumberedSquare(n)


def test_side_length_must_be_an_int():
    # a bool is an int to Python, but not a side length: True would build and
    # cache a second n = 1 square, and GameState(n=True, ...) would follow
    calls = (
        spiral_numbering,
        GameState.initial,
        lambda n: replay([(1, 1)], n),
        lambda n: Board(n, [(1, 1)]),
        group_elements,
    )
    for call in calls:
        with pytest.raises(TypeError, match="side length must be an int, not bool"):
            call(True)
    for n in (False, 3.0, "3"):
        with pytest.raises(TypeError, match="side length must be an int, not"):
            replay([(1, 1)], n)


def test_level_sets_n5():
    sq = spiral_numbering(5)
    assert sq.layer_count == 3
    assert sq.level_set(1) == (25,)
    assert sq.level_set(2) == (17, 18, 19, 20, 21, 22, 23, 24)
    assert sq.level_set(3) == tuple(range(1, 17))


def test_level_set_out_of_range():
    sq = spiral_numbering(5)
    for k in (0, 4, -1):
        with pytest.raises(InvalidLayerError):
            sq.level_set(k)


@pytest.mark.parametrize("n", range(1, 13))
def test_level_sets_partition_all_labels(n):
    sq = spiral_numbering(n)
    assert sq.layer_count == (n + 1) // 2
    seen = []
    for k in range(1, sq.layer_count + 1):
        seen.extend(sq.level_set(k))
    assert sorted(seen) == list(range(1, n * n + 1))
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("n", range(1, 13))
def test_level_set_cardinalities(n):
    sq = spiral_numbering(n)
    for k in range(1, sq.layer_count + 1):
        size = len(sq.level_set(k))
        if n % 2:
            assert size == (1 if k == 1 else 8 * (k - 1))
        else:
            assert size == 4 + 8 * (k - 1)


@pytest.mark.parametrize("n", range(1, 13))
def test_level_sets_are_consecutive_blocks(n):
    sq = spiral_numbering(n)
    for k in range(1, sq.layer_count + 1):
        ring = sq.level_set(k)
        assert ring == tuple(range(ring[0], ring[0] + len(ring)))


@pytest.mark.parametrize("n", range(1, 13))
def test_label_cell_bijection(n):
    sq = spiral_numbering(n)
    labels = set()
    for r in range(n):
        for c in range(n):
            label = sq.label_at(r, c)
            assert sq.cell_of(label) == (r, c)
            labels.add(label)
    assert labels == set(range(1, n * n + 1))


def test_layer_of_matches_ring_distance():
    sq = spiral_numbering(6)
    for label in range(1, 37):
        r, c = sq.cell_of(label)
        assert sq.layer_of(label) == 3 - min(r, c, 5 - r, 5 - c)


@pytest.mark.parametrize("n", [*range(1, 10), 56])
def test_layer_of_names_the_level_set_of_each_label(n):
    sq = spiral_numbering(n)
    assert [sq.layer_of(x) for x in range(1, n * n + 1)] == [
        k for k in range(sq.layer_count, 0, -1) for _ in sq.level_set(k)
    ]


def test_deterministic_rebuild():
    a = NumberedSquare(7)
    b = NumberedSquare(7)
    assert a == b
    assert a.rows == b.rows
    assert [a.level_set(k) for k in range(1, 5)] == [b.level_set(k) for k in range(1, 5)]


@pytest.mark.parametrize("name", ["n", "reading", "labels"])
def test_cached_square_rejects_assignment_and_deletion(name):
    # spiral_numbering shares one instance per n, so a write would corrupt
    # every later caller's tables
    sq = spiral_numbering(2)
    with pytest.raises(AttributeError):
        setattr(sq, name, (9, 9, 9, 9))
    with pytest.raises(AttributeError):
        delattr(sq, name)
    assert spiral_numbering(2).labels == (1, 4, 2, 3)
    assert spiral_numbering(2).reading == (0, 2, 3, 1)
    assert spiral_numbering(2).n == 2
    assert copy.deepcopy(sq) == pickle.loads(pickle.dumps(sq)) == sq


def test_bad_lookups():
    sq = spiral_numbering(3)
    with pytest.raises(IndexError):
        sq.label_at(3, 0)
    with pytest.raises(ValueError):
        sq.cell_of(10)
    with pytest.raises(ValueError):
        sq.layer_of(0)


@pytest.mark.parametrize(
    "lookup, args, message",
    (
        ("level_set", (True,), "layer must be an int, not bool"),
        ("level_set", (1.0,), "layer must be an int, not float"),
        ("layer_of", (True,), "label must be an int, not bool"),
        ("cell_of", (1.5,), "label must be an int, not float"),
        ("cell_of", ("1",), "label must be an int, not str"),
        ("label_at", (0.0, 0), "row must be an int, not float"),
        ("label_at", (0, True), "column must be an int, not bool"),
    ),
)
def test_lookups_take_ints_only(lookup, args, message):
    # a layer, label, row or column that is not an int, a bool included,
    # raises TypeError naming its type, as a side length does
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        getattr(spiral_numbering(2), lookup)(*args)


@pytest.mark.parametrize("n", [*range(1, 9), 56])
def test_reading_tables_invert_each_other(n):
    sq = spiral_numbering(n)
    assert sorted(sq.reading) == list(range(n * n))
    assert sq.labels == tuple(label for row in sq.rows for label in row)
    for label, k in enumerate(sq.reading, 1):
        assert sq.labels[k] == label
        assert divmod(k, n) == sq.cell_of(label)
        assert sq.label_at(*divmod(k, n)) == label


def _grid_lines_by_label_at(n):
    """grid_lines as first written, one label_at call per cell."""
    sq = spiral_numbering(n)
    lines = {frozenset(sq.label_at(r, c) for c in range(n)) for r in range(n)}
    lines |= {frozenset(sq.label_at(r, c) for r in range(n)) for c in range(n)}
    lines.add(frozenset(sq.label_at(i, i) for i in range(n)))
    lines.add(frozenset(sq.label_at(i, n - 1 - i) for i in range(n)))
    return tuple(sorted(lines, key=sorted))


@pytest.mark.parametrize("n", range(1, 9))
def test_grid_lines_match_label_at(n):
    assert grid_lines(n) == _grid_lines_by_label_at(n)
