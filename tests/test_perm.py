import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmkit import InvalidPermutation, Permutation
from cmkit.perm import gather

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation))


def test_identity_and_inverse():
    e = Permutation.identity(5)
    assert e.is_identity()
    p = Permutation([2, 0, 1, 4, 3])
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


def test_rejects_non_bijections():
    with pytest.raises(InvalidPermutation):
        Permutation([0, 0, 1])
    with pytest.raises(InvalidPermutation):
        Permutation([0, 3])
    with pytest.raises(InvalidPermutation):
        Permutation([])


def test_keeps_a_tuple_of_ints_and_copies_anything_else():
    """A group's elements share the image tuples its closure built; other
    sequences are converted to a tuple of ints.  Both are checked."""
    images = (2, 0, 1)
    assert Permutation(images).images is images
    for other in ([2, 0, 1], (True, False, 2), range(3)):
        p = Permutation(other)
        assert type(p.images) is tuple and {type(x) for x in p.images} == {int}
    for bad in ((0, 0, 1), (0, 3), (-1, 0), (1, 2, 0, 0)):
        with pytest.raises(InvalidPermutation):
            Permutation(bad)


def test_degree_mismatch_in_composition():
    with pytest.raises(InvalidPermutation):
        Permutation([1, 0]) * Permutation([1, 0, 2])


def test_gather_gives_a_tuple_for_one_index_too():
    assert gather([2])("abc") == ("c",)
    assert gather(frozenset({1}))("abc") == ("b",)
    assert gather([2, 0, 2])("abc") == ("c", "a", "c")
    one = Permutation([0])
    assert one * one == one and (one * one).images == (0,)


def test_composition_is_function_composition():
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    for x in range(3):
        assert (p * q)(x) == p(q(x))


def test_order_is_lcm_of_cycle_lengths():
    p = Permutation.from_cycles(5, [(0, 1), (2, 3, 4)])
    assert p.order() == 6
    assert sorted(len(c) for c in p.all_cycles()) == [2, 3]


def test_cycle_string():
    assert Permutation([1, 0, 3, 2]).cycle_string() == "(0 1)(2 3)"
    assert Permutation.identity(3).cycle_string() == "()"
    assert Permutation.from_cycles(4, [(0, 2, 1)]).cycle_string() == "(0 2 1)"


def test_powers():
    p = Permutation.from_cycles(6, [tuple(range(6))])
    assert (p ** 6).is_identity()
    assert p ** -1 == p.inverse()
    assert p ** 4 == p * p * p * p


@given(perms)
@settings(max_examples=60, deadline=None)
def test_inverse_involutive(p):
    assert p.inverse().inverse() == p


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.permutations(list(range(n))), st.permutations(list(range(n))))))
@settings(max_examples=60, deadline=None)
def test_product_inverse_antihomomorphism(pair):
    p, q = Permutation(pair[0]), Permutation(pair[1])
    assert (p * q).inverse() == q.inverse() * p.inverse()


@given(perms)
@settings(max_examples=60, deadline=None)
def test_cycles_are_the_nontrivial_cycles_of_all_cycles(p):
    """`cycles` walks only the points that move; it lists what `all_cycles`
    lists without the fixed points, in the same order."""
    assert p.cycles() == [c for c in p.all_cycles() if len(c) > 1]
