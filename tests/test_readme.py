import ast
import doctest
import importlib
import re
import shlex
from pathlib import Path

import sttt
from sttt.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "sttt"


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


def test_readme_library_table_names_resolve():
    # each backticked span of a row names one attribute of that row's module,
    # so the table cannot list a removed name or merge two into one span
    section = README.read_text("utf-8").split("## Library overview", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines()
            if line.startswith("| `")]
    assert len(rows) >= 7
    listed = {}
    for row in rows:
        module_cell, contents = row.strip("| ").split("|", 1)
        module = importlib.import_module(module_cell.strip().strip("`"))
        names = re.findall(r"`([^`]*)`", contents)
        assert names, row
        for name in names:
            assert name.isidentifier() and hasattr(module, name), (
                f"{module.__name__}: {name!r}"
            )
        listed[module.__name__] = set(names)

    # and the table lists the whole public API, each name in its module's row
    missing = [
        f"{getattr(sttt, name).__module__}: {name}"
        for name in sttt.__all__
        if name not in listed.get(getattr(sttt, name).__module__, ())
    ]
    assert not missing, missing


def _cached(scope: ast.Module | ast.ClassDef, prefix: str):
    """The qualified names of the functions in ``scope`` that an lru_cache
    decorates, classes searched too."""
    for node in scope.body:
        if isinstance(node, ast.ClassDef):
            yield from _cached(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef) and any(
            "lru_cache" in ast.unparse(d) for d in node.decorator_list
        ):
            yield prefix + node.name


def test_readme_cache_table_lists_every_cache():
    # one row per functools.lru_cache in src/, named module.qualname, and
    # every row a cache, so the table cannot miss a cache or keep a gone one;
    # the prose above it gives their number
    cached = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name in _cached(ast.parse(path.read_text("utf-8")), f"{path.stem}.")
    ]
    text = README.read_text("utf-8")
    table = text.split("| Cache | Key | Bound | Worst case |\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1].strip().strip("`") for line in table.splitlines()[1:]]
    assert len(rows) == len(set(rows)), rows
    assert sorted(set(cached) - set(rows)) == [], "caches without a row"
    assert sorted(set(rows) - set(cached)) == [], "rows that name no cache"
    assert len(cached) == 9
    assert f"Every cache in `src/`, {len(cached)} in all," in text
