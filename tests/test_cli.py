import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from sttt.census import classes_from_jsonl, parse_census_text
from sttt.cli import main

from importlib import resources

SCHEMA = json.loads(
    resources.files("sttt").joinpath("data/cli_output.schema.json").read_text("utf-8")
)


def validate(payload) -> None:
    jsonschema.validate(payload, SCHEMA)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_square_grid(capsys):
    code, out, _ = run(capsys, "square", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == " 1 16 15 14 13"
    assert lines[4] == " 5  6  7  8  9"


def test_square_json_schema(capsys):
    code, out, _ = run(capsys, "square", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["labels"][:5] == [1, 16, 15, 14, 13]
    assert payload["layers"][0] == [25]
    assert payload["layers"][2] == list(range(1, 17))


def test_square_invalid_size_is_domain_error(capsys):
    code, _, err = run(capsys, "square", "--n", "0")
    assert code == 1
    assert "error" in err


def test_usage_errors_exit_64(capsys):
    assert main(["square"]) == 64  # missing --n
    capsys.readouterr()
    assert main(["no-such-command"]) == 64
    capsys.readouterr()
    assert main(["group", "--n", "2", "--bogus"]) == 64
    capsys.readouterr()


def test_group_text_with_verification(capsys):
    code, out, _ = run(capsys, "group", "--n", "2", "--verify")
    assert code == 0
    assert "m = 4" in out
    assert "sigma = (1 2 3 4)" in out
    assert "rho = (2 4)" in out
    assert "FAIL" not in out


def test_group_json_schema(capsys):
    code, out, _ = run(capsys, "group", "--n", "3", "--verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["m"] == 8
    assert payload["verification"]["ok"] is True


def test_group_trivial_size_reports(capsys):
    code, out, _ = run(capsys, "group", "--n", "1", "--verify")
    assert code == 0
    assert "trivial" in out


def test_group_too_large_to_build(capsys):
    # n = 18 has 2m = 6,126,120 elements: sigma and rho still print, but the
    # verification needs the whole group and is refused
    code, out, _ = run(capsys, "group", "--n", "18")
    assert code == 0
    assert "group order = 6126120" in out and "rho = (" in out
    code, out, err = run(capsys, "group", "--n", "18", "--verify")
    assert code == 1
    assert out == ""
    assert err.startswith("error: refusing to build the group for n=18")


@pytest.mark.parametrize(
    "argv",
    (
        ("square", "--n", "57"),
        ("group", "--n", "57"),
        ("game", "replay", "--n", "57", "--moves", "1:1"),
    ),
)
def test_side_length_bound(capsys, argv):
    # a board at n = 57 has n^4 > 10^7 cells: refused before anything is built
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error: side length 57 is too large")


def test_largest_side_length_replays(capsys):
    code, out, _ = run(capsys, "game", "replay", "--n", "56", "--moves", "1:1")
    assert code == 0
    assert out.startswith("move 1: field 1 pos 1\ngame in progress\nfinal: 1")


def test_board_act_golden(capsys):
    code, out, _ = run(
        capsys,
        "board", "act", "--n", "2",
        "--bits", "1001000000001001", "--element", "1,0",
    )
    assert code == 0
    assert out.strip() == "0000011001100000"


def test_board_act_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "board", "act", "--n", "2",
        "--bits", "1001000000001001", "--element", "1,0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["result"] == "0000011001100000"


def test_board_act_bad_bits(capsys):
    code, _, err = run(
        capsys, "board", "act", "--n", "2", "--bits", "01", "--element", "0,0"
    )
    assert code == 1
    assert "16 characters" in err


@pytest.mark.parametrize(
    "n, message",
    (
        ("0", "error: side length must be a positive integer, got 0"),
        ("57", "error: side length 57 is too large"),
    ),
)
@pytest.mark.parametrize("command", ("act", "orbit"))
def test_board_size_is_checked_before_the_bits(capsys, command, n, message):
    extra = ("--element", "0,0") if command == "act" else ()
    code, out, err = run(capsys, "board", command, "--n", n, "--bits", "1", *extra)
    assert code == 1
    assert out == ""
    assert err.startswith(message)


def test_board_orbit_json(capsys):
    code, out, _ = run(capsys, "board", "orbit", "--bits", "1001000000001001")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["size"] == 2
    assert payload["canonical"] == "0000011001100000"
    assert payload["orbit"] == ["0000011001100000", "1001000000001001"]


def test_board_act_malformed_element(capsys):
    code, out, err = run(
        capsys,
        "board", "act", "--n", "2",
        "--bits", "1001000000001001", "--element", "1;0",
    )
    assert (code, out) == (1, "")
    assert err == "error: element must look like 'a,b', got '1;0'\n"


def test_board_orbit_text(capsys):
    code, out, _ = run(
        capsys, "board", "orbit", "--bits", "1001000000001001", "--format", "text"
    )
    assert code == 0
    assert out == (
        "orbit size 2, canonical 0000011001100000\n"
        "0000011001100000\n"
        "1001000000001001\n"
    )


def test_board_orbit_size_not_inferable(capsys):
    code, out, err = run(capsys, "board", "orbit", "--bits", "1" * 15)
    assert (code, out) == (1, "")
    assert err == "error: cannot infer board size from a 15-character string\n"


def test_game_replay_of_no_moves(capsys):
    code, out, _ = run(capsys, "game", "replay", "--n", "2", "--moves", "")
    assert code == 0
    assert out == "game in progress\nfinal: 0000000000000000\n"


def test_game_replay_example(capsys):
    code, out, _ = run(
        capsys, "game", "replay", "--n", "2", "--moves", "3:1,1:1,1:3,3:3"
    )
    assert code == 0
    assert "terminal: player 2 completed a board line and loses" in out
    assert out.strip().endswith("final: 1001000000001001")


def test_game_replay_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "game", "replay", "--n", "2", "--moves", "3:1,1:1,1:3,3:3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["terminal"] is True
    assert payload["loser"] == 2
    assert payload["final_bits"] == "1001000000001001"
    assert [s["mark_placed"] for s in payload["steps"]] == [False, False, True, True]


def test_game_replay_invalid_is_domain_error(capsys):
    code, out, _ = run(capsys, "game", "replay", "--n", "2", "--moves", "3:1,2:2")
    assert code == 1
    assert "invalid at move 2" in out
    code, out, _ = run(
        capsys,
        "game", "replay", "--n", "2", "--moves", "3:1,2:2", "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    validate(payload)
    assert payload["valid"] is False
    assert payload["violation"]["rule"] == "wrong field"


def test_game_act_golden(capsys):
    code, out, _ = run(
        capsys,
        "game", "act", "--n", "2", "--moves", "3:1,1:1,1:3,3:3", "--element", "1,0",
    )
    assert code == 0
    assert out.strip() == "4:2,2:2,2:4,4:4"


def test_game_act_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "game", "act", "--n", "2", "--moves", "3:1,1:1,1:3,3:3",
        "--element", "1,0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["result"][0] == {"field": 4, "pos": 2}


def test_game_act_invalid_image_is_domain_error(capsys):
    code, out, err = run(
        capsys,
        "game", "act", "--n", "3", "--moves", "5:1,1:5,5:2,2:5,5:3,3:5,1:1",
        "--element", "1,0",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: action a=1 b=0 broke game")


def test_game_act_malformed_moves(capsys):
    code, _, err = run(
        capsys, "game", "act", "--n", "2", "--moves", "3-1", "--element", "0,0"
    )
    assert code == 1
    assert "field:pos" in err


def test_census_stdout_jsonl(capsys):
    code, out, err = run(capsys, "census", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 248
    for line in lines[:3]:
        validate(json.loads(line))
    assert "248 classes over 1902 boards" in err


def test_census_file_and_diff_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "classes.jsonl"
    code, out, _ = run(capsys, "census", "--n", "2", "--out", str(out_file))
    assert code == 0
    assert "248 classes" in out
    first = out_file.read_bytes()

    code, _, _ = run(capsys, "census", "--n", "2", "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == first  # byte-identical rerun

    code, out, _ = run(capsys, "census", "diff", "--computed", str(out_file))
    assert code == 0
    assert "censuses match" in out
    assert "note:" in out  # the listing header understates one section


def test_census_diff_json_schema(tmp_path, capsys):
    out_file = tmp_path / "classes.jsonl"
    run(capsys, "census", "--n", "2", "--out", str(out_file))
    code, out, _ = run(
        capsys, "census", "diff", "--computed", str(out_file), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["match"] is True


def test_census_diff_detects_tampering(tmp_path, capsys):
    out_file = tmp_path / "classes.jsonl"
    run(capsys, "census", "--n", "2", "--out", str(out_file))
    lines = out_file.read_text().splitlines()
    out_file.write_text("\n".join(lines[:-1]) + "\n")
    code, out, _ = run(capsys, "census", "diff", "--computed", str(out_file))
    assert code == 2
    assert "censuses differ" in out


def test_census_diff_needs_computed(capsys):
    code, _, err = run(capsys, "census", "diff")
    assert code == 1
    assert "--computed" in err


def test_census_listing_style_parses_back(tmp_path, capsys):
    out_file = tmp_path / "classes.txt"
    jsonl_file = tmp_path / "classes.jsonl"
    run(capsys, "census", "--n", "2", "--out", str(out_file), "--listing-style")
    run(capsys, "census", "--n", "2", "--out", str(jsonl_file))
    listing = parse_census_text(out_file.read_text())
    jsonl = classes_from_jsonl(jsonl_file.read_text())
    assert listing == jsonl


def test_census_small_sizes_guard(capsys):
    code, _, err = run(capsys, "census", "--n", "3")
    assert code == 1
    assert "error: the exhaustive census runs for n <= 2 only, got n=3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--jobs", "2"),
        ("--n", "3", "--allow-large"),
        ("--n", "2", "--format", "json"),
        ("--computed", "classes.jsonl"),
        ("--reference", "listing.txt"),
        ("--computed", ""),
        ("diff", "--computed", "classes.jsonl", "--out", "diff.txt"),
        ("diff", "--computed", "classes.jsonl", "--listing-style"),
    ],
    ids=[
        "jobs",
        "allow-large",
        "format-json-without-diff",
        "computed-without-diff",
        "reference-without-diff",
        "empty-computed-without-diff",
        "diff-out",
        "diff-listing-style",
    ],
)
def test_census_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, "census", *argv)
    assert code == 64
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "line", ["{}", '{"members": []}', "[1,2]", '{"members": ["0120"]}', "not json"]
)
def test_census_diff_rejects_malformed_jsonl(tmp_path, capsys, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n")
    code, out, err = run(capsys, "census", "diff", "--computed", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 1: ")


def test_census_diff_says_a_listing_is_not_jsonl(tmp_path, capsys):
    # the listing that census --listing-style writes is not what --computed
    # reads, and the error names the format it takes
    listing = tmp_path / "census.txt"
    run(capsys, "census", "--n", "2", "--out", str(listing), "--listing-style")
    code, out, err = run(capsys, "census", "diff", "--computed", str(listing))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {listing} is a class listing; --computed takes the JSONL census that "
        "census --out writes without --listing-style\n"
    )


@pytest.mark.parametrize(
    "member, argv",
    [
        ("0" * 15, ()),
        ("1" * 16, ("--n", "3", "--reference", "listing.txt")),  # listing never read
        ("0" * 81, ("--n", "2")),
    ],
    ids=["fifteen-chars", "n2-member-read-as-n3", "n3-member-read-as-n2"],
)
def test_census_diff_rejects_members_of_the_wrong_length(tmp_path, capsys, member, argv):
    # a wrong-length member is a domain error, not a census mismatch (exit 2)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"members": [member]}) + "\n")
    code, out, err = run(capsys, "census", "diff", "--computed", str(bad), *argv)
    want = int(argv[1]) ** 4 if argv else 16
    assert code == 1
    assert out == ""
    assert err == f"error: line 1: bitstring '{member}' has length {len(member)}, expected {want}\n"


@pytest.mark.parametrize("n", ("0", "-2"))
def test_census_diff_checks_the_side_length_first(tmp_path, capsys, n):
    # neither file exists: the size is checked before either is read
    code, out, err = run(
        capsys, "census", "diff", "--n", n, "--computed", str(tmp_path / "F"),
        "--reference", str(tmp_path / "listing.txt"),
    )
    assert code == 1
    assert out == ""
    assert err == f"error: side length must be a positive integer, got {n}\n"


def test_census_diff_beyond_n2_needs_a_reference(tmp_path, capsys):
    # the bundled listing is the n = 2 census; reading it as n = 3 blamed a
    # line of a file the user never named
    member = "0" * 40 + "1" + "0" * 40
    computed = tmp_path / "classes.jsonl"
    computed.write_text(json.dumps({"members": [member]}) + "\n")
    code, out, err = run(capsys, "census", "diff", "--n", "3", "--computed", str(computed))
    assert code == 1
    assert out == ""
    assert err == (
        "error: the bundled reference is the n = 2 census; "
        "census diff --n 3 needs --reference <listing>\n"
    )
    listing = tmp_path / "listing.txt"
    listing.write_text(f"({member})\n")
    code, out, _ = run(
        capsys, "census", "diff", "--n", "3", "--computed", str(computed),
        "--reference", str(listing),
    )
    assert code == 0
    assert out == "censuses match\n"


def test_census_diff_rejects_a_repeated_class(tmp_path, capsys):
    # classes are keyed by canonical form, so a repeated class collapsed
    # into one and the file passed as a match
    out_file = tmp_path / "classes.jsonl"
    run(capsys, "census", "--n", "2", "--out", str(out_file))
    lines = out_file.read_text().splitlines()
    out_file.write_text("\n".join(lines + lines[-1:]) + "\n")
    code, out, err = run(capsys, "census", "diff", "--computed", str(out_file))
    first = json.loads(lines[-1])["members"][0]
    assert code == 1
    assert out == ""
    assert err == f"error: line 249: board {first} is already in the class on line 248\n"


def test_output_dir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STTT_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "census", "--n", "2", "--out", "nested/classes.jsonl")
    assert code == 0
    assert (tmp_path / "nested" / "classes.jsonl").exists()


def test_fuzz_passing_suites(capsys):
    code, out, _ = run(
        capsys,
        "fuzz", "--cases", "60", "--seed", "3",
        "--suite", "board-action-law", "--suite", "bitstring-round-trip",
    )
    assert code == 0
    assert out.count("pass") == 2


def test_fuzz_exit_code_tracks_suite_outcome(capsys, monkeypatch, suite_run):
    monkeypatch.setattr("sttt.cli.run_suite", suite_run)
    expected = suite_run("game-action-validity", cases=40, seed=0)
    code, out, _ = run(
        capsys,
        "fuzz", "--cases", "40", "--seed", "0", "--suite", "game-action-validity",
    )
    assert code == (0 if expected.ok else 2)


@pytest.mark.parametrize("cases", ("0", "-3"))
def test_fuzz_needs_a_case(capsys, cases):
    code, out, err = run(capsys, "fuzz", "--cases", cases)
    assert code == 1
    assert out == ""
    assert err == f"error: a suite needs at least one case, got cases={cases}\n"


def test_fuzz_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "fuzz", "--cases", "30", "--seed", "1",
        "--suite", "x-count-invariance", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["suites"][0]["name"] == "x-count-invariance"


# the pinned CLI outputs: arguments, exit status and the md5 of stdout
FIXED_OUTPUTS = (
    (("census", "--n", "2"), 0, "375eb2abf00a31746bb4b911e572a894"),
    (
        ("fuzz", "--cases", "2000", "--seed", "2024", "--format", "json"),
        2,
        "f7b72906df243ecfcd54853e10f5bbac",
    ),
    (("square", "--n", "5"), 0, "0f613f5705ec04d327046a0105a9d43d"),
    (("square", "--n", "5", "--format", "json"), 0, "2cf9cf32a76fb9ad784f18ce478161a7"),
    (("group", "--n", "2", "--verify"), 0, "688b84ad28c51b180a730f770142030e"),
    (
        ("group", "--n", "2", "--verify", "--format", "json"),
        0,
        "6e6f6dea656385b38c3082dc3884d32d",
    ),
    (("group", "--n", "1", "--verify"), 0, "318e1eca6d12b82aedababd2b933b051"),
    (
        ("board", "act", "--n", "2", "--bits", "1001000000001001", "--element", "1,0"),
        0,
        "21783c40ae4cbec4bd05e356de19de3c",
    ),
    (
        ("board", "act", "--n", "2", "--bits", "1001000000001001", "--element", "1,0",
         "--format", "json"),
        0,
        "70aedbd204ff0fb003b54902639b7fb7",
    ),
    (("board", "orbit", "--bits", "1001000000001001"), 0, "d027a75221acb7b65510f4f0bc4b7846"),
    (
        ("board", "orbit", "--bits", "1001000000001001", "--format", "text"),
        0,
        "7df088405543c799e8f9bac3948aecb4",
    ),
    (
        ("game", "replay", "--n", "2", "--moves", "3:1,1:1,1:3,3:3"),
        0,
        "c85ee45aeb48bf7575e55c671ddc5344",
    ),
    (
        ("game", "replay", "--n", "2", "--moves", "3:1,1:1,1:3,3:3", "--format", "json"),
        0,
        "753a26e2209ed7557d694cf18ad3bc76",
    ),
    (
        ("game", "replay", "--n", "2", "--moves", "1:1,2:2"),
        1,
        "f1a375ecf73f126934ddeb4fb46c3257",
    ),
    (
        ("game", "replay", "--n", "2", "--moves", "1:1,2:2", "--format", "json"),
        1,
        "4f245efda04ea072f03f81fe726a57dd",
    ),
    (
        ("game", "act", "--n", "2", "--moves", "3:1,1:1,1:3,3:3", "--element", "1,0"),
        0,
        "1bece2fb88b05bd9a2f035a64032961d",
    ),
    (
        ("game", "act", "--n", "2", "--moves", "3:1,1:1,1:3,3:3", "--element", "1,0",
         "--format", "json"),
        0,
        "e23707c9d0e7cf40638e7500e1c3099b",
    ),
    (("fuzz", "--cases", "100", "--seed", "2024"), 2, "9a223416d1022d9d2e53a5557a88c5a1"),
    (("fuzz", "--cases", "10000", "--seed", "2024"), 2, "4461abe4570c44dafeb4da598c9faf35"),
)


@pytest.mark.parametrize(
    "argv, status, md5",
    FIXED_OUTPUTS,
    # each row named by its index and md5
    ids=[f"argv{i}-{md5}" for i, (_, _, md5) in enumerate(FIXED_OUTPUTS)],
)
def test_fixed_outputs_are_pinned(capsys, monkeypatch, suite_run, argv, status, md5):
    # the outputs that stay byte-identical unless a change says otherwise:
    # census and fuzz, then the README's CLI examples in text and JSON, an
    # illegal replay (exit 1), the trivial group's notes, fuzz's text and
    # the 10,000-case fuzz run, so every result path of the CLI has a pinned
    # output and exit status; fuzz exits 2 for game-action-validity, which
    # fails by design.  The suites come from the session's memo, so the
    # 10,000-case streams that the acceptance suite runs are not drawn again
    monkeypatch.setattr("sttt.cli.run_suite", suite_run)
    code, out, _ = run(capsys, *argv)
    assert (code, hashlib.md5(out.encode("utf-8")).hexdigest()) == (status, md5)


def test_package_runs_as_a_module():
    # `python -m sttt` is the sttt command: the pinned census output with
    # exit 0, and a bare call is a usage error
    src = Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}

    def sttt(*argv):
        command = [sys.executable, "-m", "sttt", *argv]
        return subprocess.run(command, env=env, capture_output=True, timeout=120)

    census = sttt("census", "--n", "2")
    assert census.returncode == 0, census.stderr
    assert hashlib.md5(census.stdout).hexdigest() == "375eb2abf00a31746bb4b911e572a894"
    bare = sttt()
    assert bare.returncode == 64 and bare.stdout == b""


def test_census_and_fuzz_outputs_ignore_hash_seed_and_asserts():
    # the pinned census and fuzz outputs and exit statuses come out alike
    # under hash seeds 0 and 12345, the second under python -O, which strips
    # assert statements; the four processes run at once
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for argv, status, md5 in FIXED_OUTPUTS[:2]:
        for seed, flags in (("0", ()), ("12345", ("-O",))):
            env = {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": seed}
            command = [sys.executable, *flags, "-m", "sttt", *argv]
            proc = subprocess.Popen(
                command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
            )
            runs.append((seed, proc, status, md5))
    got = []
    for seed, proc, _, _ in runs:  # every process is read before any assert
        out, _ = proc.communicate(timeout=120)
        got.append((seed, proc.returncode, hashlib.md5(out).hexdigest()))
    assert got == [(seed, status, md5) for seed, _, status, md5 in runs]
