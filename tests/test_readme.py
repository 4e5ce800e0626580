import doctest
import shlex
from pathlib import Path

from sttt.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0 and failed == 0

    # every command of the CLI section must still parse, so the docs cannot
    # name a removed subcommand or flag
    section = README.read_text("utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0] for line in block.splitlines()]
    commands = [shlex.split(c) for c in commands if c.startswith("sttt ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
