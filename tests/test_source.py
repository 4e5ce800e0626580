import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sttt"


def test_library_has_no_assert():
    # `python -O` strips assert statements, so a contract must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 1
    assert not found, found


def test_only_spiral_maps_cells_to_labels():
    # the spiral-to-reading map has one owner; other modules read its tables
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "spiral.py"
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("cell_of", "label_at")
    ]
    assert not found, found


def test_only_spiral_and_board_read_the_reading_map():
    # board.py alone writes the reading layout: the rules engine hands it
    # label order, so no other module reads a ``reading`` table
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("spiral.py", "board.py")
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "reading"
    ]
    assert not found, found


def _calls(node, name: str) -> bool:
    func = getattr(node, "func", None)
    return getattr(func, "id", getattr(func, "attr", None)) == name


def test_only_advance_builds_a_game_state():
    # one stepping function: game._advance is the only GameState(...) call,
    # so the engine cannot grow a second stepping path (GameState.initial
    # builds through cls, the empty game every replay steps from)
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in SRC.glob("*.py")}
    advance = next(f for f in trees["game.py"].body if getattr(f, "name", "") == "_advance")
    inside = [node for node in ast.walk(advance) if _calls(node, "GameState")]
    assert len(inside) == 1
    found = [
        f"{name}:{node.lineno}"
        for name, tree in sorted(trees.items())
        for node in ast.walk(tree)
        if _calls(node, "GameState") and node not in inside
    ]
    assert not found, found


def test_every_permutation_passes_the_constructor():
    # Permutation.__init__ checks the entries' type and the bijection, and no
    # permutation skips it: each method that returns one calls Permutation or
    # cls, only __init__ writes an image, perm.py names no __new__, and no
    # module calls __new__ on Permutation
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in SRC.glob("*.py")}
    perm = _def(trees["perm.py"], "Permutation")
    init = set(ast.walk(_def(perm, "__init__")))
    producers = [
        node for node in perm.body
        if isinstance(node, ast.FunctionDef) and getattr(node.returns, "id", "") == "Permutation"
    ]
    assert len(producers) >= 5  # identity, from_cycles, __mul__, inverse, __pow__
    for func in producers:
        returns = [
            node.value for node in ast.walk(func)
            if isinstance(node, ast.Return) and getattr(node.value, "id", "") != "NotImplemented"
        ]
        assert returns, func.name
        assert all(_calls(value, "Permutation") or _calls(value, "cls") for value in returns), (
            func.name
        )
    found = [
        f"perm.py:{node.lineno}"
        for node in ast.walk(trees["perm.py"])
        if getattr(node, "attr", None) == "__new__"
        or node not in init and getattr(node, "attr", None) in ("__dict__", "__setattr__")
    ]
    found += [
        f"{name}:{node.lineno}"
        for name, tree in sorted(trees.items())
        for node in ast.walk(tree)
        if _calls(node, "__new__") and "Permutation" in map(ast.unparse, node.args)
    ]
    assert not found, found


def test_hot_values_have_no_hand_written_copies():
    # a group element is called through Permutation's own __call__, no
    # module skips a constructor with tuple.__new__, and a GameState is a
    # NamedTuple, so game.py writes no instance __dict__
    from sttt.dihedral import GroupElement
    from sttt.game import GameState
    from sttt.perm import Permutation

    assert GroupElement.__call__ is Permutation.__call__
    assert issubclass(GameState, tuple) and GameState._fields == (
        "n", "moves", "field_bits", "mark_bits", "dictated", "loser",
    )
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in SRC.glob("*.py")}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in sorted(trees.items())
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "tuple.__new__"
    ]
    found += [
        f"game.py:{node.lineno}"
        for node in ast.walk(trees["game.py"])
        if getattr(node, "attr", None) == "__dict__"
    ]
    assert not found, found


def test_act_board_has_one_kernel_source():
    # act_board takes its kernel from _element alone at every n, so it never
    # builds the group or a per-n table and has no second path above a bound
    tree = ast.parse((SRC / "board.py").read_text("utf-8"))
    act = next(f for f in tree.body if getattr(f, "name", "") == "act_board")
    calls = [node for node in ast.walk(act) if isinstance(node, ast.Call)]
    assert sum(_calls(node, "_element") for node in calls) == 1
    found = [
        f"board.py:{node.lineno}"
        for node in calls
        for name in ("group_elements", "_gathers", "dihedral_order")
        if _calls(node, name)
    ]
    assert not found, found


def _def(scope, name: str):
    """The first function or class called ``name`` in ``scope``."""
    return next(
        node for node in ast.walk(scope)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
    )


# the node types that spell a name, and the field that holds it
_SPELT = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _label_kernel(node) -> bool:
    """Whether ``node`` reads the label-order kernel, ``_layout(n)[1]``."""
    return (
        isinstance(node, ast.Subscript)
        and _calls(node.value, "_layout")
        and ast.unparse(node.slice) == "1"
    )


def test_one_function_spells_field_bitmasks():
    # board._spell_fields is the one writer of a board built from cells: the
    # only bit spelling and the only reader of the label-order kernel, and no
    # module but board.py names the layout record or _image.  Board.__init__,
    # GameState.board and the census reach the layout through it, and
    # Board.__init__ reads no reading table
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in SRC.glob("*.py")}
    named = [
        f"{name}:{node.lineno}"
        for name, tree in sorted(trees.items())
        if name != "board.py"
        for node in ast.walk(tree)
        if getattr(node, _SPELT.get(type(node), ""), None) in ("_layout", "_image")
    ]
    assert not named, named
    inside = set(ast.walk(_def(trees["board.py"], "_spell_fields")))
    assert any(map(_label_kernel, inside))
    spellings = [
        f"{name}:{node.lineno}"
        for name, tree in sorted(trees.items())
        for node in ast.walk(tree)
        if (_calls(node, "format") or _label_kernel(node)) and node not in inside
    ]
    assert not spellings, spellings
    init = _def(_def(trees["board.py"], "Board"), "__init__")
    writers = (
        init,
        _def(_def(trees["game.py"], "GameState"), "board"),
        _def(trees["census.py"], "enumerate_winning_boards"),
    )
    for func in writers:
        assert any(_calls(node, "_spell_fields") for node in ast.walk(func)), func.name
    assert not any(getattr(node, "attr", None) == "reading" for node in ast.walk(init))
    for name in ("game.py", "census.py"):
        private = {
            alias.name
            for node in ast.walk(trees[name])
            if isinstance(node, ast.ImportFrom) and node.module == "board"
            for alias in node.names
            if alias.name.startswith("_")
        }
        assert private == {"_spell_fields"}, name


# the two wrong-type wordings, as a message passed to a call spells them
_WRONG_TYPE = re.compile(r"\bneeds\b.*, not |must be an int, not ")


def _literal_text(node) -> str:
    """The text of a str constant, or of an f-string with {} for each
    field; "" for any other node."""
    if isinstance(node, ast.JoinedStr):
        return "".join("{}" if isinstance(p, ast.FormattedValue) else p.value for p in node.values)
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def test_one_module_words_the_wrong_type_errors():
    # spiral.py alone builds "<caller> needs <what>, not <types>" and
    # "<name> must be an int, not <type>": every other module raises them
    # through its _needs, _not_int or _check_int
    worded = {
        path.name: [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.Call)
            and any(_WRONG_TYPE.search(_literal_text(arg)) for arg in node.args)
        ]
        for path in sorted(SRC.glob("*.py"))
    }
    owner = worded.pop("spiral.py")
    assert not {name: lines for name, lines in worded.items() if lines}
    assert len(owner) == 2


def _writes_stdout(call: ast.Call) -> bool:
    if _calls(call, "print"):
        return not any(k.arg == "file" for k in call.keywords)
    return ast.unparse(call.func) == "sys.stdout.write"


def test_one_emitter_writes_every_cli_result():
    # cli._emit writes each command's result in either format, so no command
    # grows its own JSON/text branch; the census alone writes its own output,
    # since its data and its summary go to different streams
    tree = ast.parse((SRC / "cli.py").read_text("utf-8"))
    writers = [f for f in tree.body if getattr(f, "name", "") in ("_emit", "_cmd_census")]
    assert len(writers) == 2
    allowed = {node for f in writers for node in ast.walk(f)}
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _writes_stdout(node) and node not in allowed
    ]
    assert not found, found


HAND_ROLLED = {"__slots__", "__setattr__", "__delattr__", "__reduce__", "__eq__", "__hash__"}


def _names_defined_in(scope: ast.ClassDef | ast.Module) -> set[str]:
    names = set()
    for node in scope.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_value_semantics_come_from_dataclasses():
    # one way to make a value: frozen dataclasses (or NamedTuple) supply
    # immutability, equality, hashing and pickling, so no class hand-rolls them
    found = [
        f"{path.name}:{node.lineno} {node.name}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ClassDef)
        for name in sorted(_names_defined_in(node) & HAND_ROLLED)
    ]
    assert not found, found


def test_records_serialize_from_their_fields():
    # every as_dict builds on dataclasses.asdict, so a record's JSON keys are
    # its fields and no hand-listed copy of them can drift from the class
    found, seen = [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "as_dict":
                seen += 1
                if not any(_calls(call, "asdict") for call in ast.walk(node)):
                    found.append(f"{path.name}:{node.lineno}")
    assert seen >= 3
    assert not found, found


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_mutant_snippets_occur_once():
    # the full mutant run is slow and stays out of this suite; this keeps its
    # table from rotting when the code it mutates moves
    mutants = _load_tool("mutants")
    assert mutants.MUTANTS
    assert mutants.misplaced() == []
    named = {test.partition("::")[0] for m in mutants.MUTANTS for test in m.tests}
    assert all((ROOT / test).is_file() for test in named)


def test_code_lines_skips_blanks_comments_and_docstrings(capsys):
    code_lines = _load_tool("code_lines")
    source = (
        '"""A module docstring,\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "TOTAL = sum(  # a statement over three lines\n"
        "    (1, 2),\n"
        ")\n"
        "\n"
        "def f():\n"
        '    """A function docstring."""\n'
        '    return """a string\nthat is code"""\n'
    )
    assert code_lines.code_lines(source) == 6
    # the whole package, one line per module and a total
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    assert [name for name, _ in rows] == [*modules, "total"]
    counts = [int(count) for _, count in rows]
    assert all(count > 0 for count in counts)
    assert sum(counts[:-1]) == counts[-1]


# the package's public names, in the order of sttt.__all__
PUBLIC_API = (
    "BitstringError", "Board", "CensusDiff", "ClosureError", "DihedralReport", "GameState",
    "GameValidation", "GroupElement", "IllegalMoveError", "InvalidGameError",
    "InvalidLayerError", "InvalidSizeError", "IsoClass", "ListingParseError", "Move",
    "NumberedSquare", "Permutation", "RelationCheck", "TerminalStateError", "act_board",
    "act_game", "apply_move", "bundled_census_text", "canonical_form", "classes_from_jsonl",
    "classes_to_jsonl", "classes_to_listing_text", "declared_class_counts", "diff_census",
    "dihedral_order", "enumerate_winning_boards", "final_board", "from_bitstring",
    "game_orbit", "grid_lines", "group_element", "group_elements", "image_bitstrings",
    "is_valid_game", "layer_reflection", "layer_rotation", "legal_moves", "parse_census_text",
    "partition_classes", "replay", "ring_sizes", "size_histogram", "spiral_numbering",
    "to_bitstring", "verify_dihedral",
)
REEXPORTED = ("board", "census", "dihedral", "game", "perm", "spiral")


def test_each_public_name_is_declared_once():
    # each re-exported module lists its public names in its own __all__, and
    # the package re-exports their sorted union, so no name is written twice
    import sttt

    owner: dict[str, str] = {}
    for name in REEXPORTED:
        module = importlib.import_module(f"sttt.{name}")
        defined = _names_defined_in(ast.parse((SRC / f"{name}.py").read_text("utf-8")))
        assert module.__all__, name
        for public in module.__all__:
            assert not public.startswith("_") and public in defined, f"{name}: {public}"
            assert public not in owner, f"{public} in {owner.get(public)} and {name}"
            owner[public] = name
            assert getattr(sttt, public) is getattr(module, public)
    assert sttt.__all__ == sorted(owner)
    assert tuple(sttt.__all__) == PUBLIC_API
    star: dict = {}
    exec("from sttt import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC_API)
