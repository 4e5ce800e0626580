"""Mutation check: every mutant in MUTANTS must make its named tests fail.

Each mutant replaces one exact source snippet in a temporary copy of the
tree (``src/``, ``tests/``, ``pyproject.toml`` and ``README.md``) and runs
pytest on the tests named beside it, test files or single tests by node id.
The mutant is killed when those tests fail.  Before any mutant, the named
tests run once on an unmutated copy and must pass, so a kill shows the tests
noticed the mutation.

    python3 tools/mutants.py

Exits 0 when every mutant is killed, 1 when a mutant survives or a snippet
does not occur exactly once in its file, and 2 when the unmutated tests fail.
Standard library only, apart from pytest, which the tests need anyway.  The
mutants run one at a time, each in its own pytest process.

Mutation testing is DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11 (1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str  # must occur exactly once in file
    replacement: str
    tests: tuple[str, ...]  # test files or pytest node ids, at least one of which must fail


MUTANTS = (
    Mutant(
        "board-cell-transposed",
        "src/sttt/board.py",
        'chars[read[i - 1] * n_sq + read[j - 1]] = "1"',
        'chars[read[j - 1] * n_sq + read[i - 1]] = "1"',
        ("tests/test_board.py",),
    ),
    Mutant(
        "board-cell-transposed-via-fuzz",
        "src/sttt/board.py",
        'chars[read[i - 1] * n_sq + read[j - 1]] = "1"',
        'chars[read[j - 1] * n_sq + read[i - 1]] = "1"',
        ("tests/test_checks.py",),
    ),
    Mutant(
        "fields-one-position-late",
        "src/sttt/game.py",
        "format(bits, spell)[::-1]",
        "format(bits, spell)",
        ("tests/test_game.py",),
    ),
    Mutant(
        "relabel-from-reading-indices",
        "src/sttt/board.py",
        "for x in spiral_numbering(n).labels])",
        "for x in spiral_numbering(n).reading])",
        ("tests/test_game.py",),
    ),
    Mutant(
        "xs-without-label-map",
        "src/sttt/board.py",
        "(labels[idx // n_sq], labels[idx % n_sq])",
        "(idx // n_sq + 1, idx % n_sq + 1)",
        ("tests/test_board.py",),
    ),
    Mutant(
        "reading-table-transposed",
        "src/sttt/spiral.py",
        "reading += [r * n + c for r, c in ring]",
        "reading += [c * n + r for r, c in ring]",
        ("tests/test_spiral.py",),
    ),
    Mutant(
        "kernel-permutes-columns-only",
        "src/sttt/board.py",
        "return join(kernel(join(kernel(bits))))",
        "return join(kernel(bits))",
        ("tests/test_board.py",),
    ),
    Mutant(
        "kernel-from-inverse-block-order",
        "src/sttt/board.py",
        "itemgetter(*[slices[c] for c in src])",
        "itemgetter(*[slices[src.index(c)] for c in range(len(src))])",
        ("tests/test_board.py",),
    ),
    Mutant(
        "kernel-slices-blocks-not-columns",
        "src/sttt/board.py",
        "slice(c, None, n_sq) for c in range(n_sq)",
        "slice(c * n_sq, c * n_sq + n_sq) for c in range(n_sq)",
        ("tests/test_board.py",),
    ),
    Mutant(
        "act-board-through-the-table",
        "src/sttt/board.py",
        "_image(_element(n, elem.perm.image), board.bits)",
        "_image(_gathers(n)[2 * elem.a + elem.b][2], board.bits)",
        ("tests/test_board.py",),
    ),
    Mutant(
        "element-cache-unbounded",
        "src/sttt/board.py",
        "@lru_cache(maxsize=512)",
        "@lru_cache(maxsize=None)",
        ("tests/test_board.py",),
    ),
    Mutant(
        "bitstring-type-unchecked",
        "src/sttt/board.py",
        "if not isinstance(bits, str):",
        "if False:",
        ("tests/test_board.py",),
    ),
    Mutant(
        "element-from-g-not-source-map",
        "src/sttt/board.py",
        "src[read[gx - 1]] = read_x",
        "src[read_x] = read[gx - 1]",
        ("tests/test_board.py",),
    ),
    Mutant(
        "grid-lines-without-anti-diagonal",
        "src/sttt/game.py",
        "    lines.add(frozenset(row[n - 1 - i] for i, row in enumerate(rows)))\n",
        "",
        ("tests/test_game.py",),
    ),
    Mutant(
        "grid-lines-without-main-diagonal",
        "src/sttt/game.py",
        "    lines.add(frozenset(row[i] for i, row in enumerate(rows)))\n",
        "",
        ("tests/test_game.py",),
    ),
    Mutant(
        "product-always-adds",
        "src/sttt/dihedral.py",
        "a = self.a - other.a if self.b else self.a + other.a",
        "a = self.a + other.a",
        ("tests/test_dihedral.py",),
    ),
    Mutant(
        "inverse-always-negates",
        "src/sttt/dihedral.py",
        "GroupElement(self.n, self.a if self.b else -self.a, self.b)",
        "GroupElement(self.n, -self.a, self.b)",
        ("tests/test_dihedral.py",),
    ),
    Mutant(
        "reflection-adds-ring-index",
        "src/sttt/dihedral.py",
        "ring[(a - i if b else a + i) % len(ring)]",
        "ring[(a + i) % len(ring)]",
        ("tests/test_dihedral.py",),
    ),
    Mutant(
        "canonical-keeps-every-element",
        "src/sttt/board.py",
        "live = [el for el, image in zip(live, images) if image == best]",
        "live = list(live)",
        ("tests/test_board.py",),
    ),
    Mutant(
        "canonical-block-ungathered",
        "src/sttt/board.py",
        "block if (block := blocks[order[k]]) in uniform else join(gather(block))",
        "blocks[order[k]]",
        ("tests/test_board.py",),
    ),
    Mutant(
        "canonical-sigma-branch-returns-the-board",
        "src/sttt/board.py",
        "return min(bits, flipped)",
        "return bits",
        ("tests/test_board.py",),
    ),
    Mutant(
        "canonical-tests-sigma-rho-for-sigma",
        "src/sttt/board.py",
        "if _image(table[2][2], bits) == bits:",
        "if _image(table[3][2], bits) == bits:",
        ("tests/test_board.py",),
    ),
    Mutant(
        "canonical-rho-cut-keeps-e-and-rho",
        "src/sttt/board.py",
        "live = live[::2]",
        "live = live[:2]",
        ("tests/test_board.py",),
    ),
    Mutant(
        "screen-keeps-the-largest-prefix",
        "src/sttt/board.py",
        "least = min(prefixes)",
        "least = max(prefixes)",
        ("tests/test_board.py",),
    ),
    Mutant(
        "advance-index-one-short",
        "src/sttt/game.py",
        "err.index = before + len(played) + 1",
        "err.index = before + len(played)",
        ("tests/test_game.py",),
    ),
    Mutant(
        "advance-forgets-earlier-moves",
        "src/sttt/game.py",
        "made = state.moves + new if before else new",
        "made = new",
        ("tests/test_game.py",),
    ),
    Mutant(
        "loser-parity-flipped",
        "src/sttt/game.py",
        "loser = 1 if (before + len(played)) % 2 else 2",
        "loser = 2 if (before + len(played)) % 2 else 1",
        ("tests/test_game.py",),
    ),
    Mutant(
        "legal-moves-fields-reversed",
        "src/sttt/game.py",
        "for f in fields:  # open fields come in increasing order",
        "for f in reversed(fields):",
        ("tests/test_game.py",),
    ),
    Mutant(
        "game-state-init-drops-dictated",
        "src/sttt/game.py",
        '        attrs["dictated"] = dictated\n',
        "",
        ("tests/test_game.py",),
    ),
    Mutant(
        "line-gate-one-high",
        "src/sttt/game.py",
        "if cells.bit_count() >= n:",
        "if cells.bit_count() > n:",
        ("tests/test_game.py",),
    ),
    Mutant(
        "dictated-by-field-bit",
        "src/sttt/game.py",
        "dictated = None if marks & pos_bit else pos",
        "dictated = None if marks & bit[field] else pos",
        ("tests/test_game.py",),
    ),
    Mutant(
        "bad-size-reported-as-malformed",
        "src/sttt/game.py",
        "    GameState.initial(n)  # the size check, before any fault is caught\n    try:\n",
        "    try:\n        GameState.initial(n)\n",
        ("tests/test_game.py",),
    ),
    Mutant(
        "memo-exactness-unscanned",
        "src/sttt/game.py",
        "        and {*map(type, moves)} <= {Move}\n"
        "        and {*map(type, chain.from_iterable(moves))} <= {int}\n",
        "",
        ("tests/test_game.py",),
    ),
    Mutant(
        "memo-field-types-unscanned",
        "src/sttt/game.py",
        "        and {*map(type, chain.from_iterable(moves))} <= {int}\n",
        "",
        ("tests/test_game.py",),
    ),
    Mutant(
        "memo-game-size-uncapped",
        "src/sttt/game.py",
        "        and len(moves) + n * n <= _MEMO_GAME_UNITS\n",
        "",
        ("tests/test_game.py",),
    ),
    Mutant(
        "memo-game-cap-one-low",
        "src/sttt/game.py",
        "len(moves) + n * n <= _MEMO_GAME_UNITS",
        "len(moves) + n * n < _MEMO_GAME_UNITS",
        ("tests/test_game.py",),
    ),
    Mutant(
        "memo-unbounded",
        "src/sttt/game.py",
        "@lru_cache(maxsize=_MEMO_GAMES)",
        "@lru_cache(maxsize=None)",
        ("tests/test_game.py",),
    ),
    Mutant(
        "move-rows-unbounded",
        "src/sttt/game.py",
        "@lru_cache(maxsize=_MOVE_ROWS)",
        "@lru_cache(maxsize=None)",
        ("tests/test_game.py",),
    ),
    Mutant(
        "move-rows-unshared-positions",
        "src/sttt/game.py",
        "for p in sorted(spiral_numbering(n).labels)]",
        "for p in range(1, n * n + 1)]",
        ("tests/test_game.py",),
    ),
    Mutant(
        "image-rows-at-every-size",
        "src/sttt/game.py",
        "    if n * n <= _MOVE_ROWS:",
        "    if True:",
        ("tests/test_game.py",),
    ),
    Mutant(
        "advance-keeps-converted-moves",
        "src/sttt/game.py",
        "move, exact = _as_move(move), False",
        "move = _as_move(move)",
        ("tests/test_game.py",),
    ),
    Mutant(
        "verify-size-after-trivial-test",
        "src/sttt/dihedral.py",
        "    spiral_numbering(n)\n    if n < 2:\n",
        "    if n < 2:\n",
        ("tests/test_dihedral.py",),
    ),
    Mutant(
        "ring-sizes-outermost-first",
        "src/sttt/dihedral.py",
        "map(len, spiral_numbering(n)._level_sets)",
        "map(len, reversed(spiral_numbering(n)._level_sets))",
        ("tests/test_dihedral.py",),
    ),
    Mutant(
        "element-exponent-unreduced",
        "src/sttt/dihedral.py",
        "a = self.a % dihedral_order(n)",
        "a = self.a",
        ("tests/test_dihedral.py",),
    ),
    Mutant(
        "name-dropped-from-module-all",
        "src/sttt/dihedral.py",
        '"ring_sizes", "dihedral_order",',
        '"dihedral_order",',
        # one test: the file's others read tools/, which the copy leaves out
        ("tests/test_source.py::test_each_public_name_is_declared_once",),
    ),
    Mutant(
        "element-call-accepts-zero",
        "src/sttt/dihedral.py",
        "if label > 0:",
        "if label >= 0:",
        ("tests/test_dihedral.py",),
    ),
    Mutant(
        "image-never-replayed",
        "src/sttt/game.py",
        "return replay(mapped, n).moves",
        "return mapped",
        ("tests/test_game.py",),
    ),
    Mutant(
        "size-admits-bool",
        "src/sttt/spiral.py",
        "if type(n) is not int:",
        "if type(n) not in (int, bool):",
        ("tests/test_spiral.py",),
    ),
    Mutant(
        "layer-of-ring-comparison-off-by-one",
        "src/sttt/spiral.py",
        "if label >= ring[0])",
        "if label > ring[0])",
        ("tests/test_spiral.py",),
    ),
    Mutant(
        "square-not-frozen",
        "src/sttt/spiral.py",
        "@dataclass(frozen=True, init=False, repr=False)",
        "@dataclass(init=False, repr=False)",
        ("tests/test_spiral.py",),
    ),
    Mutant(
        "from-cycles-accepts-repeated-labels",
        "src/sttt/perm.py",
        "if x in seen:",
        "if False:",
        ("tests/test_perm.py",),
    ),
    Mutant(
        "permutation-not-frozen",
        "src/sttt/perm.py",
        "@dataclass(frozen=True, init=False, repr=False)",
        "@dataclass(init=False, repr=False)",
        ("tests/test_perm.py",),
    ),
    Mutant(
        "diff-reads-bundled-reference-for-any-n",
        "src/sttt/cli.py",
        "if args.n != 2 and not args.reference:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "emit-text-under-json-format",
        "src/sttt/cli.py",
        'if args.format == "json":',
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "emit-text-lines-without-newline",
        "src/sttt/cli.py",
        'f"{line}\\n" for line in lines',
        'f"{line}" for line in lines',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "emit-json-keys-unsorted",
        "src/sttt/cli.py",
        "sort_keys=True, indent=2",
        "sort_keys=False, indent=2",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "listing-width-from-unchecked-n",
        "src/sttt/census.py",
        "want = spiral_numbering(n).n_sq ** 2\n    classes, owner = [], {}\n    line, counted",
        "want = n * n * n * n\n    classes, owner = [], {}\n    line, counted",
        ("tests/test_census.py",),
    ),
    Mutant(
        "member-width-unchecked",
        "src/sttt/census.py",
        "if len(m) != want:",
        "if False:",
        ("tests/test_census.py",),
    ),
    Mutant(
        "canonical-is-the-largest-member",
        "src/sttt/census.py",
        "return min(self.members)",
        "return max(self.members)",
        ("tests/test_census.py",),
    ),
    Mutant(
        "jsonl-classes-may-overlap",
        "src/sttt/census.py",
        "        _claim(members, want, line, owner)\n",
        "",
        ("tests/test_census.py",),
    ),
    Mutant(
        "skip-counted-as-failure",
        "src/sttt/checks.py",
        "result.skipped += 1",
        "result.failures += 1",
        ("tests/test_checks.py",),
    ),
)


def misplaced() -> list[str]:
    """The mutants whose snippet does not occur exactly once in its file."""
    return [
        f"{m.name}: snippet occurs {count} times in {m.file}"
        for m in MUTANTS
        if (count := (ROOT / m.file).read_text("utf-8").count(m.snippet)) != 1
    ]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    for part in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / part, dest / part)


def _tests_pass(tree: Path, tests: tuple[str, ...]) -> bool:
    """Whether pytest passes on these tests of the tree."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            cmd,
            cwd=tree,
            # no bytecode: a restored file can match a mutant's size and mtime
            env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs its tests is detected, not survived
    return done.returncode == 0


def main() -> int:
    bad = misplaced()
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="sttt-mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        baseline = tuple(sorted({t for m in MUTANTS for t in m.tests}))
        if not _tests_pass(tree, baseline):
            print(f"unmutated tests fail: {' '.join(baseline)}", file=sys.stderr)
            return 2
        survivors = []
        for m in MUTANTS:
            path = tree / m.file
            original = path.read_text("utf-8")
            path.write_text(original.replace(m.snippet, m.replacement), "utf-8")
            try:
                killed = not _tests_pass(tree, m.tests)
            finally:
                path.write_text(original, "utf-8")
            print(f"{'killed' if killed else 'SURVIVED'}  {m.name}  ({' '.join(m.tests)})")
            if not killed:
                survivors.append(m.name)
    wall = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed in {wall:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
