"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
a single pass/fail line (visible with ``pytest -s`` or ``-rA``).  The
randomized suites run 10,000 cases each from a fixed seed.
"""

import time

import pytest

from sttt.board import act_board, from_bitstring, to_bitstring
from sttt.census import (
    bundled_census_text,
    declared_class_counts,
    diff_census,
    enumerate_winning_boards,
    parse_census_text,
    partition_classes,
    size_histogram,
)
from sttt.checks import SUITE_NAMES
from sttt.dihedral import (
    GroupElement,
    dihedral_order,
    group_elements,
    verify_dihedral,
)
from sttt.game import Move, final_board, game_orbit
from sttt.spiral import spiral_numbering

FUZZ_CASES = 10_000
FUZZ_SEED = 2024

# m for each side length: the LCM of the ring sizes, cross-checked below
# against the realized order of the constructed rotation
EXPECTED_ORDERS = {2: 4, 3: 8, 4: 12, 5: 16, 6: 60, 7: 48, 8: 420}

ORDER2_A = "0000011001100000"
ORDER2_B = "1001000000001001"

GRID_5 = (
    (1, 16, 15, 14, 13),
    (2, 17, 24, 23, 12),
    (3, 18, 25, 22, 11),
    (4, 19, 20, 21, 10),
    (5, 6, 7, 8, 9),
)
ROTATED_5 = (
    (16, 15, 14, 13, 12),
    (1, 24, 23, 22, 11),
    (2, 17, 25, 21, 10),
    (3, 18, 19, 20, 9),
    (4, 5, 6, 7, 8),
)
REFLECTED_5 = (
    (1, 2, 3, 4, 5),
    (16, 17, 18, 19, 6),
    (15, 24, 25, 20, 7),
    (14, 23, 22, 21, 8),
    (13, 12, 11, 10, 9),
)


def _report(label: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_dihedral_verification():
    start = time.perf_counter()
    problems = []
    for n in range(2, 9):
        report = verify_dihedral(n)
        if not report.ok:
            problems.append(f"n={n} relations failed: {report.failed()}")
        expected = EXPECTED_ORDERS[n]
        realized = GroupElement(n, 1, 0).perm.order()
        if not (dihedral_order(n) == expected == realized):
            problems.append(
                f"n={n}: formula {dihedral_order(n)}, expected {expected}, "
                f"realized {realized}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _report(
        "criterion 1 (dihedral verification n=2..8)",
        not problems,
        "; ".join(problems) or f"{elapsed * 1000:.0f}ms",
    )


def test_criterion_2_layout_goldens():
    sq = spiral_numbering(5)
    ok = sq.rows == GRID_5
    sigma_inv = GroupElement(5, 1, 0).perm.inverse()
    rho_inv = GroupElement(5, 0, 1).perm.inverse()
    rotated = tuple(
        tuple(sigma_inv(sq.label_at(r, c)) for c in range(5)) for r in range(5)
    )
    reflected = tuple(
        tuple(rho_inv(sq.label_at(r, c)) for c in range(5)) for r in range(5)
    )
    ok = ok and rotated == ROTATED_5 and reflected == REFLECTED_5
    _report("criterion 2 (5x5 numbering and one-step action layouts)", ok)


def test_criterion_3_example_orbit_reproduction():
    game = (Move(3, 1), Move(1, 1), Move(1, 3), Move(3, 3))
    orbit = game_orbit(game, 2)
    expected_games = {
        (Move(3, 1), Move(1, 1), Move(1, 3), Move(3, 3)),
        (Move(1, 3), Move(3, 3), Move(3, 1), Move(1, 1)),
        (Move(4, 2), Move(2, 2), Move(2, 4), Move(4, 4)),
        (Move(2, 4), Move(4, 4), Move(4, 2), Move(2, 2)),
    }
    boards = {to_bitstring(final_board(g, 2)) for g in orbit}
    ok = orbit == frozenset(expected_games) and boards == {ORDER2_A, ORDER2_B}
    _report(
        "criterion 3 (orbit of the four-move game and its final boards)",
        ok,
        f"{len(orbit)} games, {len(boards)} boards",
    )


def test_criterion_4_census_reproduction():
    start = time.perf_counter()
    boards = enumerate_winning_boards(2)
    classes = partition_classes(boards, 2)
    elapsed = time.perf_counter() - start
    hist = size_histogram(classes)
    text = bundled_census_text()
    diff = diff_census(classes, parse_census_text(text), declared_class_counts(text))
    problems = []
    if hist != {2: 1, 4: 19, 8: 228}:
        problems.append(f"histogram {hist}")
    if len(boards) != 1902:
        problems.append(f"{len(boards)} boards")
    if not diff.match:
        problems.append(diff.summary())
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _report(
        "criterion 4 (census: 1902 boards in classes 2:1/4:19/8:228, zero diffs)",
        not problems,
        "; ".join(problems) or f"{elapsed:.2f}s",
    )


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_criterion_5_property_suites(suite, suite_run):
    result = suite_run(suite, cases=FUZZ_CASES, seed=FUZZ_SEED)
    detail = f"{result.cases} cases"
    if result.skipped:
        detail += f", {result.skipped} skipped"
    if result.failures:
        detail = (
            f"{result.failures}/{result.cases} failed; first: {result.first_failure}"
        )
    _report(f"criterion 5 (property suite {suite})", result.ok, detail)


def test_criterion_6_reference_classes_regenerate_as_orbits():
    classes = parse_census_text(bundled_census_text())
    elems = group_elements(2)
    regenerated = 0
    first_bad = None
    for cls in classes:
        seed_board = from_bitstring(cls.members[0], 2)
        orbit = {to_bitstring(act_board(seed_board, g)) for g in elems}
        if orbit == set(cls.members):
            regenerated += 1
        elif first_bad is None:
            first_bad = cls.canonical
    ok = regenerated == len(classes) == 248
    _report(
        "criterion 6 (every reference class is exactly one orbit)",
        ok,
        f"{regenerated}/{len(classes)}" + (f"; first bad {first_bad}" if first_bad else ""),
    )
