"""Command line front end.

Every subcommand produces deterministic output: identical inputs give byte
identical text or JSON across runs.  One emitter, ``_emit``, writes every
result: the command's payload as sorted, indented JSON under ``--format
json``, else its text lines.  Only ``census`` without ``diff`` writes its own
output, the data to stdout or ``--out`` and the summary to stderr or stdout.
Exit codes: 0 success, 1 domain error (bad sizes, bitstrings, illegal
moves), 2 failed verification (relation check, census mismatch, fuzz
failure), 64 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import census as census_mod
from .board import act_board, from_bitstring, image_bitstrings, to_bitstring
from .checks import SUITE_NAMES, run_suite
from .dihedral import GroupElement, dihedral_order, verify_dihedral
from .game import GameState, IllegalMoveError, Move, act_game, apply_move
from .spiral import spiral_numbering

EX_OK = 0
EX_DOMAIN = 1
EX_VERIFY = 2
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code remapped to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _emit(args, payload: dict, lines) -> None:
    """Write a command's result: its payload under --format json, else its text lines."""
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("".join(f"{line}\n" for line in lines))


def _parse_element_arg(text: str, n: int):
    try:
        a_str, b_str = text.split(",")
        a, b = int(a_str), int(b_str)
    except ValueError:
        raise ValueError(f"element must look like 'a,b', got {text!r}") from None
    return GroupElement(n, a, b)


def _parse_moves_arg(text: str) -> tuple[Move, ...]:
    moves = []
    text = text.strip()
    if not text:
        return ()
    for chunk in text.split(","):
        try:
            f_str, p_str = chunk.strip().split(":")
            moves.append(Move(int(f_str), int(p_str)))
        except ValueError:
            raise ValueError(
                f"moves must look like 'field:pos,field:pos,...', got {chunk.strip()!r}"
            ) from None
    return tuple(moves)


def _cmd_square(args) -> int:
    sq = spiral_numbering(args.n)
    payload = {
        "command": "square",
        "n": sq.n,
        "labels": list(sq.labels),
        "layers": [list(sq.level_set(k)) for k in range(1, sq.layer_count + 1)],
    }
    width = len(str(sq.n_sq))
    _emit(args, payload, (" ".join(str(label).rjust(width) for label in row) for row in sq.rows))
    return EX_OK


def _perm_payload(perm) -> dict:
    return {"cycles": [list(c) for c in perm.cycles()], "image": list(perm.image)}


def _cmd_group(args) -> int:
    n = args.n
    sigma, rho = GroupElement(n, 1, 0).perm, GroupElement(n, 0, 1).perm
    m = dihedral_order(n)
    trivial = n == 1
    report = verify_dihedral(n) if args.verify and not trivial else None
    payload = {
        "command": "group",
        "n": n,
        "m": m,
        "group_order": 2 * m,
        "trivial": trivial,
        "sigma": _perm_payload(sigma),
        "rho": _perm_payload(rho),
        "verification": report.as_dict() if report else None,
    }
    lines = [
        f"n = {n}",
        f"m = {m}",
        f"group order = {2 * m}",
        f"sigma = {sigma.cycle_string()}",
        f"rho = {rho.cycle_string()}",
    ]
    if trivial:
        lines.append("note: sigma and rho are both the identity; the action on a")
        lines.append("      1x1 board collapses to the trivial group")
        if args.verify:
            lines.append("verification skipped for the trivial action")
    if report is not None:
        lines.append(str(report))
    _emit(args, payload, lines)
    return EX_VERIFY if report is not None and not report.ok else EX_OK


def _infer_n(bits: str, n: int | None) -> int:
    if n is not None:
        return n
    guess = round(len(bits) ** 0.25)
    if guess >= 1 and guess**4 == len(bits):
        return guess
    raise ValueError(f"cannot infer board size from a {len(bits)}-character string")


def _cmd_board(args) -> int:
    if args.board_cmd == "act":
        board = from_bitstring(args.bits, args.n)
        elem = _parse_element_arg(args.element, args.n)
        result = to_bitstring(act_board(board, elem))
        payload = {
            "command": "board-act",
            "n": args.n,
            "element": {"a": elem.a, "b": elem.b},
            "input": args.bits,
            "result": result,
        }
        _emit(args, payload, [result])
        return EX_OK
    n = _infer_n(args.bits, args.n)
    orbit = sorted(set(image_bitstrings(args.bits, n)))
    payload = {
        "command": "board-orbit",
        "n": n,
        "input": args.bits,
        "orbit": orbit,
        "size": len(orbit),
        "canonical": orbit[0],
    }
    _emit(args, payload, [f"orbit size {len(orbit)}, canonical {orbit[0]}", *orbit])
    return EX_OK


def _replay_steps(moves, n: int):
    """Per-move report rows; stops at (and includes) the first violation."""
    state = GameState.initial(n)
    steps = []
    violation = None
    for idx, mv in enumerate(moves, 1):
        try:
            state = apply_move(state, mv)
        except IllegalMoveError as err:
            violation = {"index": idx, "rule": err.rule, "message": str(err)}
            break
        closed = mv.field in state.marks
        steps.append(
            {
                "index": idx,
                "move": mv._asdict(),
                "field_status": "won" if closed else "open",
                "mark_placed": closed,
                "terminal": state.terminal,
            }
        )
    return state, steps, violation


def _cmd_game(args) -> int:
    moves = _parse_moves_arg(args.moves)
    if args.game_cmd == "act":
        elem = _parse_element_arg(args.element, args.n)
        result = act_game(moves, elem)
        payload = {
            "command": "game-act",
            "n": args.n,
            "element": {"a": elem.a, "b": elem.b},
            "moves": [m._asdict() for m in moves],
            "result": [m._asdict() for m in result],
        }
        _emit(args, payload, [",".join(f"{f}:{p}" for f, p in result)])
        return EX_OK

    state, steps, violation = _replay_steps(moves, args.n)
    final_bits = to_bitstring(state.board)
    payload = {
        "command": "game-replay",
        "n": args.n,
        "moves": [m._asdict() for m in moves],
        "steps": steps,
        "valid": violation is None,
        "violation": violation,
        "terminal": state.terminal,
        "loser": state.loser,
        "final_bits": final_bits,
    }
    lines = []
    for step in steps:
        mv = step["move"]
        notes = []
        if step["mark_placed"]:
            notes.append(f"field {mv['field']} {step['field_status']}, board mark placed")
        if step["terminal"]:
            notes.append("terminal")
        suffix = "   " + "; ".join(notes) if notes else ""
        lines.append(f"move {step['index']}: field {mv['field']} pos {mv['pos']}{suffix}")
    if violation is not None:
        lines.append(
            f"invalid at move {violation['index']}: {violation['message']} "
            f"({violation['rule']})"
        )
    elif state.terminal:
        lines.append(f"terminal: player {state.loser} completed a board line and loses")
    else:
        lines.append("game in progress")
    lines.append(f"final: {final_bits}")
    _emit(args, payload, lines)
    return EX_DOMAIN if violation is not None else EX_OK


def _cmd_census(args) -> int:
    if args.mode == "diff":
        spiral_numbering(args.n)  # the size check, before any file is read
        if not args.computed:
            raise ValueError("census diff needs --computed <classes.jsonl>")
        if args.n != 2 and not args.reference:
            raise ValueError(
                f"the bundled reference is the n = 2 census; census diff --n {args.n} "
                "needs --reference <listing>"
            )
        text = Path(args.computed).read_text("utf-8")
        # the JSONL census holds no parenthesized tuple: only a listing yields classes
        if census_mod.parse_census_text(text, n=args.n):
            raise ValueError(
                f"{args.computed} is a class listing; --computed takes the JSONL census "
                "that census --out writes without --listing-style"
            )
        computed = census_mod.classes_from_jsonl(text, n=args.n)
        if args.reference:
            ref_text = Path(args.reference).read_text("utf-8")
        else:
            ref_text = census_mod.bundled_census_text()
        reference = census_mod.parse_census_text(ref_text, n=args.n)
        declared = census_mod.declared_class_counts(ref_text)
        diff = census_mod.diff_census(computed, reference, declared)
        _emit(args, {"command": "census-diff", **diff.as_dict()}, [diff.summary()])
        return EX_OK if diff.match else EX_VERIFY

    # the census itself has its own writer: the data goes to stdout or --out,
    # and the summary to stderr or stdout
    boards = census_mod.enumerate_winning_boards(args.n)
    classes = census_mod.partition_classes(boards, args.n)
    hist = census_mod.size_histogram(classes)
    if args.listing_style:
        data = census_mod.classes_to_listing_text(classes)
    else:
        data = census_mod.classes_to_jsonl(classes)
    summary = (
        f"{len(classes)} classes over {len(boards)} boards; "
        f"size histogram {json.dumps(hist, sort_keys=True)}"
    )
    if args.out:
        # a relative path goes under STTT_OUTPUT_DIR when it is set
        path = Path(os.environ.get("STTT_OUTPUT_DIR", ""), args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(data, encoding="utf-8")
        print(summary)
    else:
        sys.stdout.write(data)
        print(summary, file=sys.stderr)
    return EX_OK


def _census_unread_flag(args) -> str | None:
    """The first flag given to census that its mode does not read, if any."""
    if args.mode == "diff":
        given = {"--out": args.out, "--listing-style": args.listing_style}
    else:
        given = {"--computed": args.computed, "--reference": args.reference}
        given["--format json"] = args.format == "json"
    return next((flag for flag, value in given.items() if value not in (None, False)), None)


def _cmd_fuzz(args) -> int:
    names = args.suite or SUITE_NAMES
    results = [run_suite(s, cases=args.cases, seed=args.seed) for s in names]
    ok = all(r.ok for r in results)
    payload = {
        "command": "fuzz",
        "seed": args.seed,
        "cases": args.cases,
        "ok": ok,
        "suites": [r.as_dict() for r in results],
    }
    lines = []
    for r in results:
        status = "pass" if r.ok else "FAIL"
        extra = f", skipped {r.skipped}" if r.skipped else ""
        lines.append(f"{status}  {r.name}: {r.cases} cases, {r.failures} failures{extra}")
        if r.first_failure:
            lines.append(f"      first failure: {r.first_failure}")
    _emit(args, payload, lines)
    return EX_OK if ok else EX_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sttt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("square", help="print the spiral numbering")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("grid", "json"), default="grid")
    p.set_defaults(func=_cmd_square)

    p = sub.add_parser("group", help="print sigma, rho, and the group order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="check the dihedral relations")
    p.add_argument("--format", choices=("cycles", "json"), default="cycles")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("board", help="act on boards and compute orbits")
    bsub = p.add_subparsers(dest="board_cmd", required=True)
    pa = bsub.add_parser("act", help="apply one group element to a board")
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--bits", required=True)
    pa.add_argument("--element", required=True, metavar="a,b")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    po = bsub.add_parser("orbit", help="full orbit and canonical form of a board")
    po.add_argument("--bits", required=True)
    po.add_argument("--n", type=int, default=None)
    po.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(func=_cmd_board)

    p = sub.add_parser("game", help="replay or transform move sequences")
    gsub = p.add_subparsers(dest="game_cmd", required=True)
    pr = gsub.add_parser("replay", help="replay moves from the empty board")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--moves", required=True, metavar="f:p,f:p,...")
    pr.add_argument("--format", choices=("text", "json"), default="text")
    pga = gsub.add_parser("act", help="apply one group element to a game")
    pga.add_argument("--n", type=int, required=True)
    pga.add_argument("--moves", required=True, metavar="f:p,f:p,...")
    pga.add_argument("--element", required=True, metavar="a,b")
    pga.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("census", help="enumerate winning boards and classes")
    p.add_argument("mode", nargs="?", choices=("diff",), default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out", default=None, help="write classes to this file")
    p.add_argument(
        "--listing-style",
        action="store_true",
        help="emit the human readable listing instead of JSONL",
    )
    p.add_argument("--computed", default=None, help="JSONL census to compare")
    p.add_argument(
        "--reference",
        default=None,
        help="listing to compare against (default: bundled n=2 census)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("fuzz", help="run the randomized invariant suites")
    p.add_argument("--cases", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", action="append", choices=SUITE_NAMES)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "census" and (flag := _census_unread_flag(args)):
            parser.error(f"census {args.mode or 'without diff'} does not take {flag}")
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EX_DOMAIN
