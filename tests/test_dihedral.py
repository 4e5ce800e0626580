import copy
import pickle
import time
from functools import reduce

import pytest

from sttt import board, dihedral
from sttt.dihedral import (
    DihedralReport,
    GroupElement,
    RelationCheck,
    dihedral_order,
    group_elements,
    layer_reflection,
    layer_rotation,
    ring_sizes,
    verify_dihedral,
)
from sttt.perm import Permutation
from sttt.spiral import InvalidLayerError, InvalidSizeError, spiral_numbering

# orders of the full rotation, keyed by side length
EXPECTED_M = {1: 1, 2: 4, 3: 8, 4: 12, 5: 16, 6: 60, 7: 48, 8: 420}


def test_ring_sizes():
    assert ring_sizes(1) == (1,)
    assert ring_sizes(2) == (4,)
    assert ring_sizes(3) == (1, 8)
    assert ring_sizes(5) == (1, 8, 16)
    assert ring_sizes(6) == (4, 12, 20)
    assert ring_sizes(8) == (4, 12, 20, 28)
    with pytest.raises(InvalidSizeError):
        ring_sizes(0)


def test_ring_sizes_match_the_closed_formula():
    # innermost first: 1, 8, 16, ... for odd n and 4, 12, 20, ... for even n
    for n in range(1, 57):
        count = (n + 1) // 2
        if n % 2:
            assert ring_sizes(n) == (1,) + tuple(8 * k for k in range(1, count))
        else:
            assert ring_sizes(n) == tuple(4 + 8 * k for k in range(count))


def test_ring_sizes_check_the_side_length_as_the_numbering_does():
    # the closed formula alone would give 29 rings for n = 57 and m = 1 for True
    with pytest.raises(InvalidSizeError, match="side length 57 is too large"):
        ring_sizes(57)
    with pytest.raises(InvalidSizeError, match="side length 57 is too large"):
        dihedral_order(57)
    with pytest.raises(TypeError, match="^side length must be an int, not bool$"):
        dihedral_order(True)
    with pytest.raises(TypeError, match="^side length must be an int, not float$"):
        group_elements(3.0)


@pytest.mark.parametrize("n,m", sorted(EXPECTED_M.items()))
def test_dihedral_order_values(n, m):
    assert dihedral_order(n) == m


@pytest.mark.parametrize("n", range(1, 13))
def test_dihedral_order_matches_realized_rotation(n):
    assert dihedral_order(n) == GroupElement(n, 1, 0).perm.order()


def test_layer_rotation_goldens():
    sq2 = spiral_numbering(2)
    assert layer_rotation(sq2, 1) == Permutation.from_cycles(4, [(1, 2, 3, 4)])
    sq5 = spiral_numbering(5)
    assert layer_rotation(sq5, 3) == Permutation.from_cycles(25, [tuple(range(1, 17))])
    assert layer_rotation(sq5, 1).is_identity()
    with pytest.raises(InvalidLayerError):
        layer_rotation(sq5, 4)


def test_layer_reflection_goldens():
    sq2 = spiral_numbering(2)
    assert layer_reflection(sq2, 1) == Permutation.from_cycles(4, [(2, 4)])
    sq5 = spiral_numbering(5)
    outer = layer_reflection(sq5, 3)
    assert outer == Permutation.from_cycles(
        25, [(2, 16), (3, 15), (4, 14), (5, 13), (6, 12), (7, 11), (8, 10)]
    )
    assert outer(1) == 1 and outer(9) == 9
    middle = layer_reflection(sq5, 2)
    assert middle == Permutation.from_cycles(25, [(18, 24), (19, 23), (20, 22)])
    assert middle(17) == 17 and middle(21) == 21
    assert layer_reflection(sq5, 1).is_identity()


@pytest.mark.parametrize("n", range(1, 9))
def test_layer_permutation_orders(n):
    sq = spiral_numbering(n)
    for k in range(1, sq.layer_count + 1):
        rot = layer_rotation(sq, k)
        ref = layer_reflection(sq, k)
        assert rot.order() == len(sq.level_set(k))
        assert (ref * ref).is_identity()


@pytest.mark.parametrize("n", range(2, 9))
def test_layer_products_do_not_depend_on_order(n):
    # the layers have disjoint supports, so their permutations commute
    sq = spiral_numbering(n)
    layers = range(1, sq.layer_count + 1)
    for make, full in (
        (layer_rotation, GroupElement(n, 1, 0)),
        (layer_reflection, GroupElement(n, 0, 1)),
    ):
        parts = [make(sq, k) for k in layers]
        forward = reduce(lambda p, q: p * q, parts)
        backward = reduce(lambda p, q: p * q, reversed(parts))
        assert forward == backward == full.perm


@pytest.mark.parametrize("n", range(1, 12))
def test_group_element_matches_layer_definition(n):
    # the ring-index formula against powers of the per-layer products
    sq = spiral_numbering(n)
    layers = range(1, sq.layer_count + 1)
    sigma = reduce(lambda p, q: p * q, [layer_rotation(sq, k) for k in layers])
    rho = reduce(lambda p, q: p * q, [layer_reflection(sq, k) for k in layers])
    for a in range(dihedral_order(n)):
        rotation = sigma**a
        assert GroupElement(n, a, 0).perm == rotation
        assert GroupElement(n, a, 1).perm == rotation * rho


def test_full_products_n2():
    assert GroupElement(2, 1, 0).perm.cycle_string() == "(1 2 3 4)"
    assert GroupElement(2, 0, 1).perm.cycle_string() == "(2 4)"


def test_element_repr_names_its_exponents():
    # n, a and b name the element; its permutation is left out
    assert repr(GroupElement(3, 5, 1)) == "GroupElement(n=3, a=5, b=1)"


def test_element_call_matches_its_permutation():
    g = GroupElement(2, 1, 0)
    assert [g(label) for label in range(1, 5)] == [g.perm(label) for label in range(1, 5)]
    for label in (0, 5):
        with pytest.raises(ValueError) as err:
            g(label)
        assert str(err.value) == f"label {label} outside 1..4"


def test_element_call_bounds_and_types():
    g = GroupElement(3, 1, 0)
    for label in (0, -1, 10):
        with pytest.raises(ValueError) as err:
            g(label)
        assert str(err.value) == f"label {label} outside 1..9"
    assert g(True) == g(1)  # a bool is an int
    with pytest.raises(TypeError):
        g(1.5)


@pytest.mark.parametrize("n", (*range(1, 14), 15, 17))
def test_every_element_image_is_a_permutation(n):
    # an element builds its image by the ring formula, unchecked, so each
    # size group_elements accepts is checked here for a bijection on 1..n^2
    labels = list(range(1, n * n + 1))
    assert all(sorted(g.image) == labels for g in group_elements(n))


def test_element_survives_copy_and_pickle():
    g = GroupElement(3, 5, 1)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(twin) is GroupElement and twin == g
        assert twin.image == g.image and twin.perm == g.perm
        assert [twin(x) for x in range(1, 10)] == [g(x) for x in range(1, 10)]


def test_full_products_n5():
    sigma = GroupElement(5, 1, 0).perm
    assert sigma.cycles() == (tuple(range(1, 17)), tuple(range(17, 25)))
    rho = GroupElement(5, 0, 1).perm
    expected = Permutation.from_cycles(
        25,
        [(2, 16), (3, 15), (4, 14), (5, 13), (6, 12), (7, 11), (8, 10),
         (18, 24), (19, 23), (20, 22)],
    )
    assert rho == expected


def test_full_products_n1_trivial():
    assert GroupElement(1, 1, 0).perm.is_identity()
    assert GroupElement(1, 0, 1).perm.is_identity()


@pytest.mark.parametrize("n", range(2, 13))
def test_generators_preserve_layers(n):
    sq = spiral_numbering(n)
    sigma, rho = GroupElement(n, 1, 0).perm, GroupElement(n, 0, 1).perm
    for label in range(1, n * n + 1):
        assert sq.layer_of(sigma(label)) == sq.layer_of(label)
        assert sq.layer_of(rho(label)) == sq.layer_of(label)


@pytest.mark.parametrize("n", range(2, 13))
def test_sigma_rho_squared_is_identity(n):
    sr = GroupElement(n, 1, 0).perm * GroupElement(n, 0, 1).perm
    assert (sr * sr).is_identity()


def test_group_elements_enumeration():
    elems = group_elements(2)
    assert len(elems) == 8
    assert [(e.a, e.b) for e in elems] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)
    ]
    assert len({e.perm for e in elems}) == 8
    assert GroupElement(2, 0, 0).perm.is_identity()


def test_group_elements_distinct_for_larger_sizes():
    for n in (3, 4, 5):
        elems = group_elements(n)
        assert len(elems) == 2 * dihedral_order(n)
        assert len({e.perm for e in elems}) == len(elems)


def test_group_elements_degenerate_n1():
    elems = group_elements(1)
    assert len(elems) == 2
    assert all(e.perm.is_identity() for e in elems)  # the action collapses


def test_element_composition_convention():
    # sigma^a rho^b applies the reflection first
    sigma, rho = GroupElement(2, 1, 0).perm, GroupElement(2, 0, 1).perm
    e = GroupElement(2, 3, 1)
    for x in range(1, 5):
        assert e(x) == (sigma**3)(rho(x))


# the sizes the board-action-law fuzz suite draws
@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_group_element_algebra(n):
    # products and inverses come from the dihedral law on the exponents;
    # each side of these asserts is computed on the permutations instead
    elems = group_elements(n)
    for g in elems:
        assert (g * g.inverse()).perm.is_identity()
        assert g.inverse().perm == g.perm.inverse()
        assert isinstance(g * g, GroupElement)
        for h in elems:
            prod = g * h
            assert prod.perm == g.perm * h.perm
            for x in range(1, n * n + 1):
                assert prod(x) == g(h(x))


@pytest.mark.parametrize("n", (14, 16, 18, 19, 40))
def test_group_elements_refuses_large_groups(n):
    # 2m permutations of n^2 labels over 10^7 entries in all: refused before
    # any element is built
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"n={n}: its 2m = {2 * dihedral_order(n)} "):
        group_elements(n)
    assert time.perf_counter() - start < 1.0


def test_group_elements_builds_below_the_bound():
    # n = 13 is the largest size below the first refused one
    assert len(group_elements(13)) == 2 * dihedral_order(13) == 960


def test_group_caches_keep_a_few_side_lengths():
    # the group and board.py's record of it keep the sizes used last; built
    # at one more small size than they hold, they drop the oldest
    bound = dihedral._GROUP_SIZES
    assert isinstance(bound, int) and bound >= 4  # a benchmark run uses n = 2..5
    caches = (group_elements, board._gathers)
    for cache in caches:
        cache.cache_clear()
    for n in range(1, bound + 2):
        board._gathers(n)  # builds group_elements(n)
    for cache in caches:
        assert cache.cache_info()[1:] == (bound + 1, bound, bound)  # misses, maxsize, size
        cache(bound + 1)
        assert cache.cache_info().hits == 1
        cache(1)  # the oldest, built again
        assert cache.cache_info().misses == bound + 2


def test_group_element_alias_returns_an_equal_element():
    # the function name stays for bench/setup_probe.py alone
    for n, a, b in ((2, 1, 0), (3, 5, 1), (5, -1, 1)):
        g = dihedral.group_element(n, a, b)
        assert type(g) is GroupElement and g == GroupElement(n, a, b)
        assert g.perm == GroupElement(n, a, b).perm


def test_element_size_mismatch():
    with pytest.raises(ValueError):
        group_elements(2)[1] * group_elements(3)[1]
    with pytest.raises(ValueError):
        GroupElement(2, 0, 2)


def test_element_exponents_must_be_ints():
    # a float or bool exponent used to be kept as given, or to fail while
    # the permutation was built; a bool is refused as for a side length
    cases = (
        (1, 1.0, "reflection flag", "float"),
        (0, True, "reflection flag", "bool"),
        (1.0, 0, "rotation exponent", "float"),
        ("1", 0, "rotation exponent", "str"),
        (True, 0, "rotation exponent", "bool"),
    )
    for a, b, name, kind in cases:
        with pytest.raises(TypeError, match=f"^{name} must be an int, not {kind}$"):
            GroupElement(2, a, b)
    with pytest.raises(ValueError, match="^reflection flag must be 0 or 1, got 2$"):
        GroupElement(2, 0, 2)


def test_product_refuses_other_types():
    # a product with another type used to raise AttributeError for 'n'
    g = GroupElement(2, 1, 0)
    for other in (3, g.perm, (2, 1, 0)):
        assert g.__mul__(other) is NotImplemented
        with pytest.raises(TypeError):
            g * other


@pytest.mark.parametrize("n", range(2, 6))
def test_element_is_built_from_its_exponents(n):
    # the permutation follows from (n, a, b), so no element can carry
    # exponents that disagree with it
    m = dihedral_order(n)
    elems = group_elements(n)
    for g in elems:
        assert GroupElement(n, g.a + m, g.b) == GroupElement(n, g.a - m, g.b) == g
        assert GroupElement(n, g.a + m, g.b).a == g.a
    for g in elems:
        for h in elems:
            assert (g * h).perm == g.perm * h.perm


@pytest.mark.parametrize("n", range(2, 9))
def test_verify_dihedral_passes(n):
    report = verify_dihedral(n)
    assert report.ok, report.failed()
    assert report.m == EXPECTED_M.get(n, dihedral_order(n))
    assert report.group_order == 2 * report.m


def test_verify_dihedral_report_contents():
    report = verify_dihedral(2)
    assert report.group_order == 8
    names = [r.name for r in report.relations]
    assert "sigma^m = 1" in names
    assert "rho^2 = 1" in names
    assert "(sigma rho)^2 = 1" in names
    assert "pass" in str(report)
    d = report.as_dict()
    assert d["ok"] is True and d["m"] == 4


def test_report_names_its_failed_relations():
    relations = (
        RelationCheck("sigma^m = 1", True),
        RelationCheck("rho^2 = 1", False, "rho^2 moves 2"),
    )
    report = DihedralReport(n=2, m=4, group_order=8, relations=relations)
    assert not report.ok
    assert report.failed() == ("rho^2 = 1",)
    assert "  FAIL  rho^2 = 1  [rho^2 moves 2]" in str(report).splitlines()


def test_verify_dihedral_rejects_trivial_size():
    with pytest.raises(InvalidSizeError, match="collapses to the trivial group"):
        verify_dihedral(1)
    # the side length's type is checked first, as every entry point does:
    # True and 1.0 used to pass as n = 1
    for n in (True, 1.0):
        with pytest.raises(TypeError, match=f"not {type(n).__name__}$"):
            verify_dihedral(n)


# content grids after one action step on the 5x5 numbered square: the cell
# labelled f shows sigma^-1(f) (resp. rho^-1(f))
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


def _content_grid(n, perm):
    sq = spiral_numbering(n)
    inv = perm.inverse()
    return tuple(
        tuple(inv(sq.label_at(r, c)) for c in range(n)) for r in range(n)
    )


def test_rotation_action_layout_golden():
    assert _content_grid(5, GroupElement(5, 1, 0).perm) == ROTATED_5


def test_reflection_action_layout_golden():
    assert _content_grid(5, GroupElement(5, 0, 1).perm) == REFLECTED_5
    # the reflection is the transpose of the numbering
    sq = spiral_numbering(5)
    assert REFLECTED_5 == tuple(zip(*sq.rows))
