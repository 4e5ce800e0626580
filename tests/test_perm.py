import copy
import pickle
import random
import re

import pytest

from sttt.board import Board, act_board
from sttt.dihedral import group_elements
from sttt.perm import Permutation


def test_identity():
    p = Permutation.identity(5)
    assert p.is_identity()
    assert p.order() == 1
    assert p.cycles() == ()
    assert p.cycle_string() == "id"
    assert all(p(x) == x for x in range(1, 6))


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation((2, 3, 4))


@pytest.mark.parametrize(
    "image,message",
    [
        ([1.0, 2], "permutation entry 1.0 must be an int, not float"),
        ((2, True), "permutation entry True must be an int, not bool"),
        (["1", 2], "permutation entry '1' must be an int, not str"),
    ],
)
def test_entries_must_be_ints(image, message):
    # a float or bool entry equal to a label used to pass the bijection
    # check, and the permutation then failed in products
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        Permutation(image)


@pytest.mark.parametrize(
    "cycles,message",
    [
        ([(1.0, 2)], "label 1.0 must be an int, not float"),
        ([(1, 2), (False, 3)], "label False must be an int, not bool"),
    ],
)
def test_from_cycles_labels_must_be_ints(cycles, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        Permutation.from_cycles(3, cycles)


def test_products_and_powers_hold_int_entries():
    p = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    q = Permutation((2, 1, 3, 5, 4))
    for r in (p * q, q * p, p**2, p**-1, p.inverse()):
        assert {type(x) for x in r.image} == {int}
        assert sorted(r.image) == [1, 2, 3, 4, 5]
    assert p * p.inverse() == Permutation.identity(5) == p**6


def test_from_cycles():
    p = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    assert [p(x) for x in (1, 2, 3, 4)] == [2, 3, 4, 1]
    q = Permutation.from_cycles(4, [(2, 4)])
    assert [q(x) for x in (1, 2, 3, 4)] == [1, 4, 3, 2]


@pytest.mark.parametrize(
    "n_sq,cycles,message",
    [
        (3, [(1, 2, 3), (3, 2, 1)], "label 3 appears twice in the cycles"),
        (4, [(1, 1)], "label 1 appears twice in the cycles"),
        (5, [(1, 2), (4, 2, 5)], "label 2 appears twice in the cycles"),
        (3, [(1, 4)], "label 4 outside 1..3"),
        (3, [(0, 2, 1)], "label 0 outside 1..3"),
        (3, [(2, -1)], "label -1 outside 1..3"),
    ],
)
def test_from_cycles_rejects_labels_out_of_range_or_repeated(n_sq, cycles, message):
    # the cycles must be disjoint cycles of labels in 1..n_sq; anything else
    # used to be overwritten silently or fail as a non-bijection
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Permutation.from_cycles(n_sq, cycles)


def test_composition_applies_right_factor_first():
    p = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    q = Permutation.from_cycles(4, [(2, 4)])
    pq = p * q
    for x in range(1, 5):
        assert pq(x) == p(q(x))


def test_composition_domain_mismatch():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)


def test_operators_refuse_other_types():
    # a non-int exponent used to pass (p ** True was p ** 1) or fail on a
    # tuple index; a product with another type raised AttributeError
    p = Permutation.from_cycles(3, [(1, 2, 3)])
    for k, kind in ((True, "bool"), (2.0, "float"), ("2", "str")):
        with pytest.raises(TypeError, match=f"^exponent must be an int, not {kind}$"):
            p**k
    for other in (3, 1.5, (2, 3, 1), group_elements(2)[1]):
        assert p.__mul__(other) is NotImplemented
        with pytest.raises(TypeError):
            p * other


def test_inverse_and_powers():
    p = Permutation.from_cycles(6, [(1, 2, 3), (4, 5)])
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert p**0 == Permutation.identity(6)
    assert p**1 == p
    assert p**-1 == p.inverse()
    assert p**6 == Permutation.identity(6)
    assert p**7 == p


def test_order_is_lcm_of_cycle_lengths():
    p = Permutation.from_cycles(6, [(1, 2, 3), (4, 5)])
    assert p.order() == 6
    q = Permutation.from_cycles(9, [(1, 2, 3, 4), (5, 6, 7, 8, 9)])
    assert q.order() == 20
    # brute-force cross-check
    r = q
    for k in range(1, 21):
        if r.is_identity():
            assert k == 20
            break
        r = q * r


def test_cycles_canonical_form():
    p = Permutation.from_cycles(7, [(3, 5, 4), (6, 7)])
    assert p.cycles() == ((3, 5, 4), (6, 7))
    assert p.cycles(include_fixed=True) == ((1,), (2,), (3, 5, 4), (6, 7))
    assert p.cycle_string() == "(3 5 4)(6 7)"


def test_call_out_of_range():
    p = Permutation.identity(4)
    with pytest.raises(ValueError):
        p(0)
    with pytest.raises(ValueError):
        p(5)


def test_call_bounds_and_types():
    p = group_elements(3)[2].perm
    for label in (0, -1, 10):
        with pytest.raises(ValueError) as err:
            p(label)
        assert str(err.value) == f"label {label} outside 1..9"
    assert p(True) == p(1)  # a bool is an int
    with pytest.raises(TypeError):
        p(1.5)


def test_hash_and_equality():
    p = Permutation.from_cycles(4, [(1, 2)])
    q = Permutation((2, 1, 3, 4))
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_cached_element_permutation_rejects_assignment_and_deletion():
    # group_elements(n) is cached, so a write to a permutation would change
    # every later action by its element
    elem = group_elements(2)[2]
    board = Board(2, {(1, 2), (3, 4)})
    before = act_board(board, elem)
    with pytest.raises(AttributeError):
        elem.perm.image = (1, 2, 3, 4)
    with pytest.raises(AttributeError):
        del elem.perm.image
    with pytest.raises(AttributeError):
        Permutation((2, 1)).other = 1
    assert group_elements(2)[2].perm.image == elem.perm.image != (1, 2, 3, 4)
    assert act_board(board, elem) == before
    assert copy.deepcopy(elem.perm) == pickle.loads(pickle.dumps(elem.perm)) == elem.perm


def test_random_group_axioms():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 12)
        perms = []
        for _ in range(3):
            img = list(range(1, n + 1))
            rng.shuffle(img)
            perms.append(Permutation(img))
        p, q, r = perms
        assert (p * q) * r == p * (q * r)
        assert (p * q).inverse() == q.inverse() * p.inverse()
        assert (p ** p.order()).is_identity()
