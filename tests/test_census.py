import itertools
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from sttt import census
from sttt.board import BitstringError, Board, from_bitstring, to_bitstring
from sttt.census import (
    ClosureError,
    IsoClass,
    ListingParseError,
    bundled_census_text,
    classes_from_jsonl,
    classes_to_jsonl,
    classes_to_listing_text,
    declared_class_counts,
    diff_census,
    enumerate_winning_boards,
    parse_census_text,
    partition_classes,
    size_histogram,
)
from sttt.spiral import InvalidSizeError

ORDER2_A = "0000011001100000"
ORDER2_B = "1001000000001001"


@pytest.fixture(scope="module")
def winning_boards():
    return enumerate_winning_boards(2)


@pytest.fixture(scope="module")
def classes(winning_boards):
    return partition_classes(winning_boards, 2)


def test_census_size(winning_boards):
    assert len(winning_boards) == 1902
    assert ORDER2_B in winning_boards
    assert ORDER2_A in winning_boards


def test_winning_boards_have_four_to_six_xs(winning_boards):
    assert {bits.count("1") for bits in winning_boards} <= {4, 5, 6}


def test_class_histogram(classes):
    assert size_histogram(classes) == {2: 1, 4: 19, 8: 228}
    assert len(classes) == 248


def test_orbit_sizes_account_for_every_board(classes, winning_boards):
    assert sum(c.orbit_size for c in classes) == len(winning_boards)
    members = [m for c in classes for m in c.members]
    assert len(members) == len(set(members))


def test_order2_class_is_first(classes):
    head = classes[0]
    assert head.orbit_size == 2
    assert head.members == (ORDER2_A, ORDER2_B)
    assert head.canonical == ORDER2_A


def test_classes_sorted_deterministically(classes):
    keys = [(c.orbit_size, c.canonical) for c in classes]
    assert keys == sorted(keys)


def test_census_work_counts_are_pinned(monkeypatch):
    # the search's work does not depend on the order legal_moves gives
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(census, "legal_moves", counted("legal_moves", census.legal_moves))
    monkeypatch.setattr(census, "apply_move", counted("apply_move", census.apply_move))
    boards = census.enumerate_winning_boards(2)
    assert (calls["legal_moves"], calls["apply_move"], len(boards)) == (1685, 6616, 1902)


def test_enumerate_guards_large_sizes():
    with pytest.raises(ValueError, match="n <= 2 only"):
        enumerate_winning_boards(3)


def test_enumerate_one_by_one_board():
    # the only game marks the single cell, completing both field and board
    assert enumerate_winning_boards(1) == frozenset({"1"})


def test_enumerate_is_serial():
    # only the int 1: a bool or a float equal to 1 is refused as 2 is
    for jobs in (2, True, 1.0):
        message = f"^the census search is serial; jobs must be 1, got {jobs}$"
        with pytest.raises(ValueError, match=message):
            enumerate_winning_boards(2, jobs=jobs)
    assert len(enumerate_winning_boards(2, jobs=1)) == 1902


def test_import_leaves_multiprocessing_unloaded():
    # nothing in the package needs a process pool or what it pulls in
    code = "import sys, sttt; print('multiprocessing' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_partition_singleton_empty_board():
    empty = to_bitstring(Board.empty(2))
    classes = partition_classes({empty}, 2)
    assert len(classes) == 1
    assert classes[0].members == (empty,)
    assert classes[0].orbit_size == 1


def test_partition_rejects_non_closed_sets():
    with pytest.raises(ClosureError):
        partition_classes({ORDER2_B}, 2)


@pytest.mark.parametrize(
    "bad, message",
    (
        ("010", "need 16 characters for n=2, got 3"),
        ("0" * 15 + "2", "invalid character '2' at index 15"),
        ("2" + "0" * 15, "invalid character '2' at index 0"),
    ),
)
def test_partition_refuses_malformed_members(bad, message):
    # a malformed member is never the image of a valid one, so it is checked
    # as an orbit representative, whether it sorts before or after the orbit
    with pytest.raises(BitstringError) as err:
        partition_classes({ORDER2_A, ORDER2_B, bad}, 2)
    assert str(err.value) == message


def test_closure_error_names_the_missing_board(winning_boards):
    with pytest.raises(ClosureError) as err:
        partition_classes(winning_boards - {ORDER2_A}, 2)
    assert str(err.value) == (
        f"board {ORDER2_B} maps to {ORDER2_A} under sigma^1 rho^0, "
        "which is not in the input set"
    )


def test_parse_single_tuple():
    classes = parse_census_text(f"({ORDER2_A}, {ORDER2_B})")
    assert classes == [IsoClass.from_members((ORDER2_A, ORDER2_B))]


def test_parse_order4_item_golden():
    text = "(0000000000110011, 0000010100000101, 1010000010100000, 1100110000000000)"
    (cls,) = parse_census_text(text)
    assert cls.orbit_size == 4
    assert all(m.count("1") == 4 for m in cls.members)


def test_parse_tuple_spanning_lines():
    text = f"1. ({ORDER2_A},\n    {ORDER2_B})"
    (cls,) = parse_census_text(text)
    assert cls.members == (ORDER2_A, ORDER2_B)


def test_parse_empty_text():
    assert parse_census_text("") == []
    assert parse_census_text("no tuples here") == []


def test_parse_wrong_length_raises_with_line():
    with pytest.raises(ListingParseError) as err:
        parse_census_text("header\n\n1. (0101, 1010)")
    assert err.value.line == 3


def test_parse_reads_a_long_listing_in_linear_time():
    # counting each tuple's line from the start of the text is quadratic:
    # 8.4 s for this 1.4 MB listing, against 0.2 s carrying it forward
    boards = [format(i, "081b") for i in range(15_999)]
    text = "".join(f"({b})\n" for b in boards) + f"({boards[0]})\n"
    start = time.perf_counter()
    with pytest.raises(ListingParseError) as info:
        parse_census_text(text, n=3)
    assert time.perf_counter() - start < 2
    assert str(info.value) == (
        f"line 16000: board {boards[0]} is already in the class on line 1"
    )


@pytest.mark.parametrize("n", (0, -2))
def test_parse_checks_the_side_length(n):
    # n^4 is 16 at n = -2, so the n = 2 listing used to parse as its census
    with pytest.raises(InvalidSizeError, match="side length must be a positive integer"):
        parse_census_text(bundled_census_text(), n=n)


def test_parse_ignores_prose_parentheses():
    text = f"intro (with an aside) then\n1. ({ORDER2_A}, {ORDER2_B})"
    assert len(parse_census_text(text)) == 1


def test_declared_counts_from_bundled_header():
    counts = declared_class_counts(bundled_census_text())
    assert counts == {2: 1, 4: 1, 8: 228}


def test_bundled_listing_shape():
    ref = parse_census_text(bundled_census_text())
    assert size_histogram(ref) == {2: 1, 4: 19, 8: 228}
    assert len({m for c in ref for m in c.members}) == 1902


def test_computed_census_matches_bundled_listing(classes):
    text = bundled_census_text()
    ref = parse_census_text(text)
    diff = diff_census(classes, ref, declared_class_counts(text))
    assert diff.match
    # the listing header understates the order-4 section; surfaced as a note
    assert any("order 4" in note for note in diff.notes)
    assert "censuses match" in diff.summary()


def test_diff_reports_missing_and_mismatched_classes(classes):
    ref = parse_census_text(bundled_census_text())
    dropped = diff_census(classes[:-1], ref)
    assert not dropped.match
    assert dropped.only_in_reference == (classes[-1].canonical,)
    assert dropped.only_in_computed == ()

    mutated = list(ref)
    victim = mutated[3]
    mutated[3] = IsoClass(victim.members[:-1] + (victim.members[0],))
    tampered = diff_census(classes, mutated)
    assert not tampered.match
    assert tampered.member_mismatches[0][0] == victim.canonical
    assert "members disagree" in tampered.summary()


def test_diff_summary_lists_classes_only_in_computed(classes):
    ref = parse_census_text(bundled_census_text())
    extra = diff_census(classes, ref[:-1])
    assert extra.only_in_computed == (ref[-1].canonical,)
    assert extra.only_in_reference == ()
    assert extra.summary().splitlines() == [
        "censuses differ",
        "  1 classes only in computed:",
        f"    {ref[-1].canonical}",
    ]


def test_jsonl_round_trip(classes):
    text = classes_to_jsonl(classes)
    lines = text.strip().splitlines()
    assert len(lines) == 248
    first = json.loads(lines[0])
    assert first == {
        "canonical": ORDER2_A,
        "orbit_size": 2,
        "members": [ORDER2_A, ORDER2_B],
    }
    assert classes_from_jsonl(text) == classes


@pytest.mark.parametrize(
    "groups, line, owner",
    [([[ORDER2_A, ORDER2_B], [ORDER2_B]], 2, 1), ([[ORDER2_A, ORDER2_B, ORDER2_A]], 1, 1)],
    ids=["shared-by-two-classes", "repeated-within-a-class"],
)
def test_readers_reject_a_board_in_two_classes(groups, line, owner):
    # diff_census keys classes by canonical form, so an overlap would
    # otherwise collapse into one class and pass as a match
    jsonl = "".join(json.dumps({"members": g}) + "\n" for g in groups)
    listing = "".join(f"({', '.join(g)})\n" for g in groups)
    for read, text in ((classes_from_jsonl, jsonl), (parse_census_text, listing)):
        with pytest.raises(ListingParseError) as info:
            read(text)
        assert info.value.line == line
        assert str(info.value) == (
            f"line {line}: board {groups[-1][-1]} is already in the class on line {owner}"
        )


def test_readers_reject_a_class_of_mixed_widths():
    # a JSONL class of mixed widths used to be read, and only census diff
    # checked its members' lengths
    jsonl = json.dumps({"members": [ORDER2_A, "0101"]}) + "\n"
    listing = f"({ORDER2_A}, 0101)\n"
    for read, text in ((classes_from_jsonl, jsonl), (parse_census_text, listing)):
        with pytest.raises(ListingParseError) as info:
            read(text)
        assert str(info.value) == "line 1: bitstring '0101' has length 4, expected 16"


def test_listing_round_trip(classes):
    text = classes_to_listing_text(classes)
    assert parse_census_text(text) == classes
    assert "Isomorphism of Order 2:" in text


def test_census_closed_under_action(winning_boards):
    # partition_classes validates closure on every member; reaching here
    # without a ClosureError is the check, this asserts it directly too
    classes = partition_classes(winning_boards, 2)
    assert {m for c in classes for m in c.members} == set(winning_boards)


def test_class_count_by_orbit_counting(winning_boards, classes):
    # independent route to the class count: average the number of boards
    # each group element fixes (orbit-counting lemma)
    from sttt.board import act_board, from_bitstring, to_bitstring
    from sttt.dihedral import group_elements

    elems = group_elements(2)
    fixed_counts = []
    for g in elems:
        fixed_counts.append(
            sum(
                1
                for s in winning_boards
                if to_bitstring(act_board(from_bitstring(s, 2), g)) == s
            )
        )
    assert fixed_counts == [1902, 8, 0, 22, 22, 8, 0, 22]
    assert sum(fixed_counts) == len(elems) * len(classes)


def test_winning_boards_form_84_classes_under_all_label_permutations(winning_boards):
    # at n = 2 every pair of labels is a grid line, so each of the 24
    # permutations of the labels (S4), acting on field and position alike,
    # maps winning boards to winning boards; the 248 dihedral classes merge
    # into 84 classes under S4
    maps = [(0, *perm) for perm in itertools.permutations(range(1, 5))]
    orbits = set()
    for bits in winning_boards:
        xs = from_bitstring(bits, 2).xs
        orbit = frozenset(
            to_bitstring(Board(2, frozenset((pi[f], pi[p]) for f, p in xs)))
            for pi in maps
        )
        assert orbit <= winning_boards
        orbits.add(orbit)
    assert len(orbits) == 84
    assert Counter(map(len, orbits)) == {6: 1, 12: 8, 24: 75}
