import random

import pytest

from sttt.board import (
    BitstringError,
    Board,
    act_board,
    canonical_form,
    from_bitstring,
    image_bitstrings,
    to_bitstring,
    _element,
    _gathers,
    _image,
    _layout,
)
from sttt.census import (
    classes_from_jsonl,
    classes_to_jsonl,
    classes_to_listing_text,
    diff_census,
    size_histogram,
)
from sttt.dihedral import (
    GroupElement,
    dihedral_order,
    group_elements,
    layer_reflection,
    layer_rotation,
)
from sttt.game import Move, act_game, apply_move, legal_moves
from sttt.spiral import InvalidSizeError, spiral_numbering

# the two boards of the unique orbit of size 2 for n=2
ORDER2_A = "0000011001100000"
ORDER2_B = "1001000000001001"


def test_board_construction_and_lookup():
    b = Board(2, frozenset({(1, 1), (3, 3)}))
    assert b.x_count == 2
    assert sorted(b.xs) == [(1, 1), (3, 3)]
    assert Board(2, b.xs | {(2, 4)}).x_count == 3


def _reference_bitstring(n: int, cells) -> str:
    """The bitstring of the X cells, placed one by one through the grid
    coordinates of their spiral labels."""
    sq = spiral_numbering(n)
    chars = ["0"] * n**4
    for field, pos in cells:
        (fr, fc), (pr, pc) = sq.cell_of(field), sq.cell_of(pos)
        chars[(fr * n + fc) * n * n + pr * n + pc] = "1"
    return "".join(chars)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_board_bitstring_matches_a_cell_loop(n):
    for board in _boards(n, count=5):
        cells = sorted(board.xs)
        assert to_bitstring(Board(n, cells)) == _reference_bitstring(n, cells)
        assert board.x_count == len(board.xs) == len(cells)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_board_value_semantics(n):
    identity = GroupElement(n, 0, 0)
    for board in _boards(n, count=5):
        same = (
            Board(n, board.xs),
            from_bitstring(to_bitstring(board), n),
            act_board(board, identity),
        )
        for other in same:
            assert other == board and hash(other) == hash(board)
        assert len({board, *same}) == 1
    assert Board.empty(n) != Board.empty(n + 1)
    assert Board.empty(n) != to_bitstring(Board.empty(n))


def test_board_is_immutable():
    # from_bitstring builds through Board._of, which writes the instance dict
    for b in (Board(2, frozenset({(1, 1)})), from_bitstring("1" + "0" * 15, 2)):
        for name, value in (("n", 3), ("bits", "0" * 16), ("xs", frozenset())):
            with pytest.raises(AttributeError):
                setattr(b, name, value)
            with pytest.raises(AttributeError):
                delattr(b, name)
        assert to_bitstring(b) == "1" + "0" * 15 and b.n == 2


def test_board_repr_golden():
    b = Board(2, frozenset({(3, 3), (1, 1), (2, 4)}))
    assert repr(b) == "Board(n=2, xs=[(1, 1), (2, 4), (3, 3)])"
    assert repr(Board.empty(2)) == "Board(n=2, xs=[])"


def test_board_rejects_bad_cells():
    with pytest.raises(ValueError, match=r"^cell \(5, 1\) outside 1\.\.4 labels$"):
        Board(2, frozenset({(5, 1)}))
    with pytest.raises(ValueError, match=r"^cell \(1, 0\) outside 1\.\.4 labels$"):
        Board(2, frozenset({(1, 0)}))
    with pytest.raises(ValueError):
        Board(0, frozenset())
    # the first bad cell is named, whichever check it fails
    with pytest.raises(ValueError, match=r"^cell \(5, 1\) outside 1\.\.4 labels$"):
        Board(2, [(5, 1), (True, 1)])
    with pytest.raises(TypeError, match=r"^cell \(True, 1\) field must be an int, not bool$"):
        Board(2, [(True, 1), (5, 1)])


@pytest.mark.parametrize(
    "cell, message",
    (
        ((1, 2, 3), "cell (1, 2, 3) is not a (field, pos) pair"),
        ((1,), "cell (1,) is not a (field, pos) pair"),
        ((True, 3), "cell (True, 3) field must be an int, not bool"),
        ((2, 3.0), "cell (2, 3.0) position must be an int, not float"),
        ((5, 3.0), "cell (5, 3.0) position must be an int, not float"),
        (("1", 9), "cell ('1', 9) field must be an int, not str"),
        (1, "cell 1 is not a (field, pos) pair"),
    ),
)
def test_board_rejects_a_cell_that_is_not_a_pair(cell, message):
    # a cell that does not unpack into two values raises ValueError naming
    # it, as a move that is not a (field, pos) pair does; one whose field or
    # position is not an int, a bool included, TypeError, before its range
    # is checked
    error = TypeError if "must be an int" in message else ValueError
    with pytest.raises(error) as err:
        Board(2, frozenset({(1, 2), cell}))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "n, message",
    (
        (0, "side length must be a positive integer, got 0"),
        (57, "side length 57 is too large"),
    ),
)
def test_sizes_are_checked_first(n, message):
    # the side length is checked before the cells, the length or the characters
    with pytest.raises(InvalidSizeError, match=message):
        Board(n, frozenset())
    with pytest.raises(InvalidSizeError, match=message):
        Board(n, frozenset({(1, 1)}))
    with pytest.raises(InvalidSizeError, match=message):
        Board(n, [(True, 1.5)])
    with pytest.raises(InvalidSizeError, match=message):
        from_bitstring("1", n)
    with pytest.raises(InvalidSizeError, match=message):
        image_bitstrings("1", n)


def test_empty_board_bitstring():
    assert to_bitstring(Board.empty(2)) == "0" * 16
    assert to_bitstring(Board.empty(3)) == "0" * 81


def test_bitstring_goldens():
    cross = Board(2, frozenset({(1, 1), (1, 3), (3, 1), (3, 3)}))
    assert to_bitstring(cross) == ORDER2_B
    rotated = Board(2, frozenset({(2, 2), (2, 4), (4, 2), (4, 4)}))
    assert to_bitstring(rotated) == ORDER2_A


def test_bitstring_round_trip():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        n_sq = n * n
        for _ in range(50):
            cells = [
                (i, j)
                for i in range(1, n_sq + 1)
                for j in range(1, n_sq + 1)
                if rng.random() < 0.3
            ]
            b = Board(n, frozenset(cells))
            assert from_bitstring(to_bitstring(b), n) == b
        for _ in range(50):
            bits = "".join(rng.choice("01") for _ in range(n_sq * n_sq))
            assert to_bitstring(from_bitstring(bits, n)) == bits


def test_from_bitstring_errors():
    # image_bitstrings refuses malformed input with the same messages
    cases = (
        ("010", "need 16 characters for n=2, got 3"),
        ("0" * 15 + "2", "invalid character '2' at index 15"),
        ("01x0" + "1" * 11 + "y", "invalid character 'x' at index 2"),
    )
    for bits, message in cases:
        for parse in (from_bitstring, image_bitstrings):
            with pytest.raises(BitstringError) as err:
                parse(bits, 2)
            assert str(err.value) == message


@pytest.mark.parametrize("bits", (list(ORDER2_A), tuple(ORDER2_A), ORDER2_A.encode()))
def test_from_bitstring_rejects_a_non_str(bits):
    # a list of sixteen "0"/"1" items passed every other check and made a
    # Board that was unhashable and unequal to its str twin
    message = f"^bitstring must be a str, not {type(bits).__name__}$"
    for parse in (from_bitstring, image_bitstrings):
        with pytest.raises(TypeError, match=message):
            parse(bits, 2)


def _boards(n: int, count: int = 20):
    """The empty board, the full board and ``count`` seeded random boards."""
    n_sq = n * n
    cells = [(i, j) for i in range(1, n_sq + 1) for j in range(1, n_sq + 1)]
    rng = random.Random(100 + n)
    yield Board.empty(n)
    yield Board(n, frozenset(cells))
    for _ in range(count):
        yield Board(n, frozenset(rng.sample(cells, rng.randint(0, len(cells)))))


# image_bitstrings and act_board share each element's kernel, so this checks
# the pruned canonical_form against the least image
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7, 9))
def test_image_bitstrings_match_act_board(n):
    elems = group_elements(n)
    for board in _boards(n):
        expected = [to_bitstring(act_board(board, g)) for g in elems]
        assert list(image_bitstrings(to_bitstring(board), n)) == expected
        assert canonical_form(board) == min(expected)


def _sparse_board(n: int, rng: random.Random) -> Board:
    """About 60 random X cells and three corner cells."""
    n_sq = n * n
    cells = {(rng.randint(1, n_sq), rng.randint(1, n_sq)) for _ in range(60)}
    return Board(n, frozenset(cells | {(1, 1), (n_sq, n_sq), (1, n_sq)}))


# at n = 8 and 9, sparse boards and a sample of the elements keep the test
# fast; test_act_board_with_more_elements_than_the_cache acts with all of n = 8
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7, 8, 9))
def test_act_board_maps_each_cell(n):
    elems = group_elements(n)
    boards = list(_boards(n, count=5))
    if n >= 8:
        rng = random.Random(300 + n)
        elems = rng.sample(elems, 12)
        boards = [Board.empty(n)] + [_sparse_board(n, rng) for _ in range(3)]
    for board in boards:
        for g in elems:
            expected = Board(n, frozenset((g(i), g(j)) for i, j in board.xs))
            assert act_board(board, g) == expected


@pytest.mark.parametrize("n, a, b", ((14, 3, 1), (14, 5, 0), (19, 7, 1), (19, 2, 0)))
def test_act_board_without_the_group(n, a, b):
    # group_elements refuses n = 14 and n = 19, so act_board must build its
    # element's kernel alone, with no group and no table of the group
    g = GroupElement(n, a, b)
    board = _sparse_board(n, random.Random(n + a + b))
    before = group_elements.cache_info(), _gathers.cache_info()
    image = act_board(board, g)
    assert (group_elements.cache_info(), _gathers.cache_info()) == before
    assert image == Board(n, frozenset((g(i), g(j)) for i, j in board.xs))
    assert image.x_count == board.x_count


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7, 8, 9))
def test_table_has_one_kernel_per_element(n):
    # each element's gather, block slices and kernel follow its block
    # order, the same permutation of the n^2 reading indices, and all
    # kernels draw on the n^2 column slices of the layout record
    rows = _gathers(n)[0]
    n_sq = n * n
    slices = _layout(n)[0]
    assert slices == tuple(slice(c, None, n_sq) for c in range(n_sq))
    assert len(rows) == len(group_elements(n)) == 2 * dihedral_order(n)
    drawn = set()
    for gather, blocks, kernel in rows:
        order = gather.__reduce__()[1]  # an itemgetter's items
        assert sorted(order) == list(range(n_sq))
        assert blocks == tuple(slice(c * n_sq, c * n_sq + n_sq) for c in order)
        pieces = kernel.__reduce__()[1]
        assert pieces == tuple(slices[c] for c in order)
        drawn |= {id(s) for s in pieces}
    assert drawn == {id(s) for s in slices}
    assert {id(s) for s in _layout(n)[1].__reduce__()[1]} == drawn


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 7))
def test_screen_splits_the_first_row_of_every_image(n):
    # the record's screen and splitter give each image's first n characters,
    # in the group's order; its uniform blocks are all 0s and all 1s
    _, screen, split, uniform = _gathers(n)
    assert uniform == ("0" * n * n, "1" * n * n)
    for board in _boards(n, count=4):
        prefixes = split("".join(screen(board.bits)).encode())
        images = image_bitstrings(board.bits, n)
        assert prefixes == tuple(image[:n].encode() for image in images)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7))
def test_act_board_shares_the_table_kernels(n):
    # act_board and the group's table take their kernels from one cache,
    # which holds the 298 elements of n = 1..7 at once; cleared first, since
    # earlier tests at n = 8 and 9 cycle the cache
    _element.cache_clear()
    _gathers.cache_clear()
    for k in range(1, 8):
        _gathers(k)
    for g, entry in zip(group_elements(n), _gathers(n)[0], strict=True):
        assert _element(n, g.perm.image) is entry[2]


def test_act_board_with_more_elements_than_the_cache():
    # n = 8 has 2m = 840 elements, more than _element's cache holds; acting
    # with each of them leaves the cache bounded and every image right
    rng = random.Random(8)
    board = _sparse_board(8, rng)
    for g in group_elements(8):
        assert act_board(board, g) == Board(8, frozenset((g(i), g(j)) for i, j in board.xs))
    info = _element.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def _two_level_image(order: tuple[int, ...], bits: str) -> str:
    """The image by block order alone: field block order[K] moves to block K,
    and inside every block position order[k] moves to position k."""
    n_sq = len(order)
    blocks = [bits[i : i + n_sq] for i in range(0, len(bits), n_sq)]
    return "".join(blocks[K][k] for K in order for k in order)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7, 8, 9))
def test_kernel_matches_the_two_level_gather(n):
    *_, board = _boards(n, count=1)  # a random board, after the empty and the full
    for _, blocks, kernel in _gathers(n)[0]:
        order = tuple(block.start // (n * n) for block in blocks)
        assert _image(kernel, board.bits) == _two_level_image(order, board.bits)


def _union_of_orbit(board: Board, elems) -> Board:
    return Board(board.n, frozenset().union(*(act_board(board, g).xs for g in elems)))


def _tie_heavy_boards(n: int):
    """Boards on which many images agree for many field blocks."""
    n_sq = n * n
    labels = range(1, n_sq + 1)
    rng = random.Random(200 + n)
    elems = group_elements(n)
    # the fields that some element moves to the first field block: a board
    # empty there ties every image on the first block
    first = min(from_bitstring("1" * n_sq + "0" * (n_sq * n_sq - n_sq), n).xs)[0]
    hollow = {g(first) for g in elems}
    yield Board.empty(n)
    yield Board(n, frozenset((i, j) for i in labels for j in labels))
    for field in (1, n_sq):
        yield Board(n, frozenset((field, j) for j in labels))
    yield Board(n, frozenset((i, i) for i in labels))
    for _ in range(3):
        cells = {(rng.choice(labels), rng.choice(labels)) for _ in range(n_sq)}
        for xs in (cells, {(i, j) for i, j in cells if i not in hollow}):
            seed = Board(n, frozenset(xs))
            yield _union_of_orbit(seed, elems)  # fixed by every element
            turned = _union_of_orbit(seed, elems[::2])  # fixed by the rotations
            # the screen leaves the rotations on one of these and the
            # reflections on the other
            yield turned
            yield act_board(turned, elems[1])
            yield _union_of_orbit(seed, elems[:2])  # fixed by rho
            yield _union_of_orbit(seed, elems[:4:3])  # fixed by sigma rho
        if n > 1:  # every block the same pattern, neither all 0 nor all 1
            pattern = rng.sample(labels, rng.randint(1, n_sq - 1))
            yield Board(n, frozenset((i, j) for i in labels for j in pattern))


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7, 9))
def test_canonical_form_on_tie_heavy_boards(n):
    for board in _tie_heavy_boards(n):
        expected = min(image_bitstrings(to_bitstring(board), n))
        assert canonical_form(board) == expected


def test_identity_action_fixes_everything():
    b = from_bitstring(ORDER2_B, 2)
    ident = group_elements(2)[0]
    assert act_board(b, ident) == b


def test_single_x_moves_with_the_rotation():
    b = Board(2, frozenset({(1, 1)}))
    sigma = GroupElement(2, 1, 0)
    assert act_board(b, sigma) == Board(2, frozenset({(2, 2)}))


def test_reflection_fixes_the_diagonal_cross():
    b = Board(2, frozenset({(1, 1), (1, 3), (3, 1), (3, 3)}))
    rho = GroupElement(2, 0, 1)
    assert act_board(b, rho) == b


def test_rotation_table_for_all_cells():
    # every cell (i, j) travels to (sigma^k(i), sigma^k(j)) and returns after 4 steps
    sigma = GroupElement(2, 1, 0)
    for i in range(1, 5):
        for j in range(1, 5):
            start = Board(2, frozenset({(i, j)}))
            cur, ci, cj = start, i, j
            for _ in range(4):
                cur = act_board(cur, sigma)
                ci, cj = sigma(ci), sigma(cj)
                assert cur == Board(2, frozenset({(ci, cj)}))
            assert cur == start


def test_rotate_reflect_twice_is_identity():
    sr = GroupElement(2, 1, 1)
    for i in range(1, 5):
        for j in range(1, 5):
            b = Board(2, frozenset({(i, j)}))
            assert act_board(act_board(b, sr), sr) == b


def test_act_board_size_mismatch():
    with pytest.raises(ValueError):
        act_board(Board.empty(2), group_elements(3)[0])


_B, _G = from_bitstring(ORDER2_B, 2), GroupElement(2, 1, 0)
_GAME = ((3, 1), (1, 1), (1, 3), (3, 3))
_JUNK = (ORDER2_B, None, 3, _G.perm)
_CLASS_LISTS = ("x", [ORDER2_B], (_B,))


@pytest.mark.parametrize(
    "call, args",
    (
        *((act_board, (junk, _G)) for junk in _JUNK),
        *((act_board, (_B, junk)) for junk in _JUNK),
        (act_board, (_G, _B)),
        *((canonical_form, (junk,)) for junk in (*_JUNK, _G)),
        *((act_game, (_GAME, junk)) for junk in (*_JUNK, _B)),
        (act_game, (_G, _GAME)),
        *((to_bitstring, (junk,)) for junk in (None, ORDER2_B, _G)),
        *((apply_move, (junk, Move(1, 1))) for junk in (None, _B, _GAME)),
        *((legal_moves, (junk,)) for junk in (None, _B, _G)),
        *((classes_from_jsonl, (junk,)) for junk in (None, 3, [ORDER2_B])),
        *((fn, (junk,)) for fn in (classes_to_jsonl, classes_to_listing_text, size_histogram)
          for junk in _CLASS_LISTS),
        *((diff_census, (junk, [])) for junk in _CLASS_LISTS),
        (diff_census, ([], "x")),
        *((fn, (junk, 1)) for fn in (layer_rotation, layer_reflection) for junk in (None, 2, _B)),
    ),
)
def test_entry_points_refuse_arguments_of_the_wrong_type(call, args):
    # a missing attribute becomes TypeError naming the types received, as
    # every other contract in the package raises TypeError or ValueError;
    # the rules engine's, the census's and the layer maps' entry points too
    kinds = " and ".join(type(arg).__name__ for arg in args)
    with pytest.raises(TypeError, match=f"^{call.__name__} needs .*, not {kinds}$"):
        call(*args)


def _orbit(board: Board) -> set[str]:
    return set(image_bitstrings(to_bitstring(board), board.n))


def test_orbit_of_empty_board():
    assert _orbit(Board.empty(2)) == {"0" * 16}
    assert canonical_form(Board.empty(2)) == "0" * 16


def test_orbit_of_order2_class():
    b = from_bitstring(ORDER2_B, 2)
    assert _orbit(b) == {ORDER2_A, ORDER2_B}
    assert canonical_form(b) == ORDER2_A
    assert canonical_form(from_bitstring(ORDER2_A, 2)) == ORDER2_A


def test_orbit_of_single_x():
    # rho fixes labels 1 and 3, so the stabilizer of (1, 1) has order 2
    assert len(_orbit(Board(2, frozenset({(1, 1)})))) == 4


@pytest.mark.parametrize("n", (2, 3))
def test_orbit_sizes_divide_group_order(n):
    rng = random.Random(n)
    n_sq = n * n
    cells = [(i, j) for i in range(1, n_sq + 1) for j in range(1, n_sq + 1)]
    for _ in range(25):
        b = Board(n, frozenset(rng.sample(cells, rng.randint(0, len(cells)))))
        assert 2 * dihedral_order(n) % len(_orbit(b)) == 0


@pytest.mark.parametrize("n", (2, 3))
def test_action_law_exhaustive_elements(n):
    rng = random.Random(n + 10)
    n_sq = n * n
    cells = [(i, j) for i in range(1, n_sq + 1) for j in range(1, n_sq + 1)]
    elems = group_elements(n)
    for _ in range(5):
        b = Board(n, frozenset(rng.sample(cells, rng.randint(0, len(cells)))))
        for g in elems:
            for h in elems:
                assert act_board(act_board(b, h), g) == act_board(b, g * h)
                assert act_board(b, g).x_count == b.x_count


def test_canonical_form_is_orbit_constant():
    rng = random.Random(99)
    cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    for _ in range(100):
        b = Board(2, frozenset(rng.sample(cells, rng.randint(0, 16))))
        expected = canonical_form(b)
        for g in group_elements(2):
            assert canonical_form(act_board(b, g)) == expected
