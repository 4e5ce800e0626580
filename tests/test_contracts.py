"""The contract sweep: every public callable refuses junk with ValueError or
TypeError only.

VALID holds one valid call for each name in ``sttt.__all__``.  From the
callable's signature, each parameter in turn takes each value of JUNK while
the others keep their valid values.  Any exception other than ValueError or
TypeError, subclasses included, is a leak; a lazy result is consumed, so an
error it defers counts too.
"""

import inspect
from collections.abc import Iterator

import pytest

import sttt
from sttt import (
    GameState,
    GroupElement,
    InvalidSizeError,
    IsoClass,
    NumberedSquare,
    Permutation,
    classes_to_jsonl,
    classes_to_listing_text,
    from_bitstring,
    image_bitstrings,
)

JUNK = (None, "x", 7, 1.5, True, [], [1], Permutation((2, 1)))

_BITS = "1001000000001001"
_BOARD = from_bitstring(_BITS, 2)
_ELEM = GroupElement(2, 1, 0)
_GAME = ((3, 1), (1, 1), (1, 3), (3, 3))
_STATE = GameState.initial(2)
_CLASS = IsoClass.from_members(set(image_bitstrings(_BITS, 2)))
_CLASSES = [_CLASS]

# one valid call per public name: its positional and its keyword arguments
VALID = {
    "BitstringError": (("bad bitstring",), {}),
    "Board": ((2, [(1, 1)]), {}),
    "CensusDiff": (((), (), ()), {"notes": ()}),
    "ClosureError": (("not closed",), {}),
    "DihedralReport": ((2, 4, 8, ()), {}),
    "GameState": ((2, (), (0,) * 4, 0, None), {}),
    "GameValidation": ((True, None, None, None), {}),
    "GroupElement": ((2, 1, 0), {}),
    "IllegalMoveError": (("occupied cell", "taken", 1), {}),
    "InvalidGameError": (("invalid game",), {}),
    "InvalidLayerError": (("bad layer",), {}),
    "InvalidSizeError": (("bad size",), {}),
    "IsoClass": ((_CLASS.members,), {}),
    "ListingParseError": (("malformed", 1), {}),
    "Move": ((1, 1), {}),
    "NumberedSquare": ((2,), {}),
    "Permutation": (((2, 1, 3),), {}),
    "RelationCheck": (("rho^2 = 1", True), {"detail": ""}),
    "TerminalStateError": (("over",), {}),
    "act_board": ((_BOARD, _ELEM), {}),
    "act_game": ((_GAME, _ELEM), {}),
    "apply_move": ((_STATE, (1, 1)), {}),
    "bundled_census_text": ((), {}),
    "canonical_form": ((_BOARD,), {}),
    "classes_from_jsonl": ((classes_to_jsonl(_CLASSES),), {"n": 2}),
    "classes_to_jsonl": ((_CLASSES,), {}),
    "classes_to_listing_text": ((_CLASSES,), {}),
    "declared_class_counts": (("1 isomorphism class of order 4",), {}),
    # an empty reference, so that no count's order is compared with a junk key
    "diff_census": ((_CLASSES, [], {_CLASS.orbit_size: 1}), {}),
    "dihedral_order": ((2,), {}),
    "enumerate_winning_boards": ((1,), {"jobs": 1}),
    "final_board": ((_GAME, 2), {}),
    "from_bitstring": ((_BITS, 2), {}),
    "game_orbit": ((_GAME, 2), {}),
    "grid_lines": ((2,), {}),
    "group_element": ((2, 1, 0), {}),
    "group_elements": ((2,), {}),
    "image_bitstrings": ((_BITS, 2), {}),
    "is_valid_game": ((_GAME, 2), {}),
    "layer_reflection": ((NumberedSquare(2), 1), {}),
    "layer_rotation": ((NumberedSquare(2), 1), {}),
    "legal_moves": ((_STATE,), {}),
    "parse_census_text": ((classes_to_listing_text(_CLASSES),), {"n": 2}),
    "partition_classes": ((_CLASS.members, 2), {}),
    "replay": ((_GAME, 2), {}),
    "ring_sizes": ((2,), {}),
    "size_histogram": ((_CLASSES,), {}),
    "spiral_numbering": ((2,), {}),
    "to_bitstring": ((_BOARD,), {}),
    "verify_dihedral": ((2,), {}),
}


def _signature(fn) -> inspect.Signature:
    try:
        return inspect.signature(fn)
    except ValueError:  # an exception class that keeps BaseException's constructor
        return inspect.Signature([inspect.Parameter("args", inspect.Parameter.VAR_POSITIONAL)])


def _run(fn, args, kwargs) -> None:
    result = fn(*args, **kwargs)
    if isinstance(result, Iterator):  # a lazy result: what it raises counts too
        list(result)


def leaks(fn, args, kwargs) -> list[str]:
    """Each call of ``fn`` with one parameter of the valid call ``args``,
    ``kwargs`` swapped for junk that raises anything but ValueError or
    TypeError, as "parameter=junk: error"."""
    sig, found = _signature(fn), []
    for name, param in sig.parameters.items():
        for junk in JUNK:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            spread = {param.VAR_POSITIONAL: (junk,), param.VAR_KEYWORD: {"junk": junk}}
            bound.arguments[name] = spread.get(param.kind, junk)
            try:
                _run(fn, bound.args, bound.kwargs)
            except (TypeError, ValueError):
                pass
            except Exception as err:
                found.append(f"{name}={junk!r}: {type(err).__name__}: {err}")
    return found


def test_every_public_name_has_a_valid_call():
    assert sorted(VALID) == sttt.__all__


@pytest.mark.parametrize("name", sorted(VALID))
def test_junk_raises_only_value_and_type_errors(name):
    fn, (args, kwargs) = getattr(sttt, name), VALID[name]
    _run(fn, args, kwargs)  # the valid call succeeds, so each junk call tests its own swap
    assert leaks(fn, args, kwargs) == []


def test_the_sweep_reports_leaks():
    # an AttributeError is a leak, also one that a lazy result raises, and
    # a ValueError subclass is not
    def eager(x):
        return x.missing

    def lazy(x):
        yield x.missing

    def refusing(x):
        raise InvalidSizeError(f"refused {x!r}")

    for fn in (eager, lazy):
        found = leaks(fn, (1,), {})
        assert len(found) == len(JUNK)
        assert found[0] == "x=None: AttributeError: 'NoneType' object has no attribute 'missing'"
    assert leaks(refusing, (1,), {}) == []
