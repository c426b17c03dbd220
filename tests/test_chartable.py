import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cmkit

from cmkit import (
    Character,
    Cyclotomic,
    FiniteGroup,
    GroupMismatch,
    NonIntegralResult,
    Permutation,
    character_table,
    fixed_space_dimension,
    inner_product,
    power_class_map,
    regular_character,
    symmetric_square,
    trivial_character,
)
from conftest import gm_bundle, symmetric_3

one = Cyclotomic.one()
zero = Cyclotomic.zero()


def table_of(G):
    return character_table(G)


def test_c2_rows():
    T = table_of(FiniteGroup.cyclic(2))
    rows = {tuple(v.to_string() for v in chi.values) for chi in T.irreducibles}
    assert rows == {("1", "1"), ("1", "-1")}


def test_s3_degrees_and_values(s3):
    T = table_of(s3)
    assert sorted(T.degrees()) == [1, 1, 2]
    std = T.irreducibles[T.degrees().index(2)]
    assert [v.to_string() for v in std.values] == ["2", "0", "-1"]


def test_gm10_degree_sum_and_class_count():
    inst, _, T = gm_bundle(10)
    assert sum(d * d for d in T.degrees()) == 40
    assert len(T.irreducibles) == len(inst.group.conjugacy_classes())


@pytest.mark.parametrize("maker", [
    lambda: FiniteGroup.cyclic(2),
    lambda: FiniteGroup.cyclic(6),
    symmetric_3,
    lambda: gm_bundle(6)[0].group,
    lambda: gm_bundle(8)[0].group,
])
def test_row_and_column_orthogonality(maker):
    G = maker()
    T = table_of(G)
    irr = T.irreducibles
    for i, a in enumerate(irr):
        for j, b in enumerate(irr):
            assert inner_product(a, b) == (one if i == j else zero)
    # column orthogonality: sum over rows chi(g) conj(chi(h)) = |C_G(g)| [g ~ h]
    classes = G.conjugacy_classes()
    for ci in range(len(classes)):
        for cj in range(len(classes)):
            total = zero
            for chi in irr:
                total = total + chi.values[ci] * chi.values[cj].conjugate()
            expected = G.order // classes[ci].size if ci == cj else 0
            assert total == Cyclotomic.rational(expected)


def test_inner_product_examples(s3):
    T = table_of(s3)
    assert inner_product(regular_character(s3), trivial_character(s3)) == one
    std = T.irreducibles[T.degrees().index(2)]
    assert inner_product(symmetric_square(std), trivial_character(s3)) == one


def test_inner_product_group_mismatch(s3):
    with pytest.raises(GroupMismatch):
        inner_product(trivial_character(s3), trivial_character(FiniteGroup.cyclic(2)))


def test_power_class_map(s3):
    k = len(s3.conjugacy_classes())
    assert power_class_map(s3, 1) == tuple(range(k))
    assert power_class_map(s3, s3.order) == (0,) * k
    # squaring: transpositions go to the identity, 3-cycles stay put
    assert power_class_map(s3, 2) == (0, 0, 2)


def test_power_class_map_is_well_defined():
    G = gm_bundle(8)[0].group
    for k in (2, 3, 5):
        pm = power_class_map(G, k)
        for ci, cls in enumerate(G.conjugacy_classes()):
            for member in cls.members:
                assert G.class_index(member ** k) == pm[ci]


def test_symmetric_square_examples(s3):
    C2 = FiniteGroup.cyclic(2)
    T2 = table_of(C2)
    sign = next(c for c in T2.irreducibles if c.values[1] == Cyclotomic.rational(-1))
    assert symmetric_square(sign) == trivial_character(C2)
    assert symmetric_square(trivial_character(s3)) == trivial_character(s3)
    T = table_of(s3)
    std = T.irreducibles[T.degrees().index(2)]
    ss = symmetric_square(std)
    assert [v.to_string() for v in ss.values] == ["3", "1", "0"]
    assert ss.degree == std.degree * (std.degree + 1) // 2


def test_symmetric_plus_alternating_is_tensor_square():
    _, _, T = gm_bundle(6)
    squares = power_class_map(T.group, 2)
    for chi in T.irreducibles:
        for j in range(len(chi.values)):
            s2 = (chi.values[j] * chi.values[j] + chi.values[squares[j]]) / 2
            l2 = (chi.values[j] * chi.values[j] - chi.values[squares[j]]) / 2
            assert s2 + l2 == chi.values[j] * chi.values[j]


def test_fixed_space_dimension_examples(s3):
    T = table_of(s3)
    std = T.irreducibles[T.degrees().index(2)]
    assert fixed_space_dimension(std, s3.trivial_subgroup()) == std.degree
    assert fixed_space_dimension(std, s3.full_subgroup()) == 0
    # analytic character of the gm(6) surface restricted to <a> has genus-size
    # fixed space (checked against the quotient genus in the surface tests)
    from cmkit import analytic_character
    inst, X, T6 = gm_bundle(6)
    chi_a = analytic_character(X, T6)
    assert fixed_space_dimension(chi_a, inst.subgroup_a()) == 2


def test_fixed_space_dimension_rejects_non_genuine(s3):
    fake = Character(s3, (Cyclotomic.rational(Fraction(1, 3)), zero, zero))
    with pytest.raises(NonIntegralResult):
        fixed_space_dimension(fake, s3.full_subgroup())


def _induced_trivial(G, H):
    """Induced character of the trivial character of H, by the direct formula."""
    values = []
    for cls in G.conjugacy_classes():
        g = cls.representative
        count = sum(1 for x in G.elements if x.inverse() * g * x in H.element_set)
        values.append(Cyclotomic.rational(Fraction(count, H.order)))
    return Character(G, tuple(values))


@pytest.mark.parametrize("maker", [symmetric_3, lambda: gm_bundle(6)[0].group,
                                   lambda: gm_bundle(8)[0].group])
def test_frobenius_reciprocity_spot_check(maker):
    G = maker()
    T = table_of(G)
    for H in G.all_subgroups():
        ind = _induced_trivial(G, H)
        for chi in T.irreducibles:
            lhs = fixed_space_dimension(chi, H)
            assert inner_product(chi, ind) == Cyclotomic.rational(lhs)


def test_degree_one_values_are_roots_of_unity():
    _, _, T = gm_bundle(8)
    for chi in T.irreducibles:
        if chi.degree == 1:
            for v in chi.values:
                assert v * v.conjugate() == one


def test_table_is_cached():
    G = FiniteGroup.cyclic(3)
    assert character_table(G) is character_table(G)


ONE_ROW_C3 = """
from cmkit import Cyclotomic, FiniteGroup, InvalidCharacterTable
from cmkit.chartable import CharacterTable, _verify_table, trivial_character
G = FiniteGroup.cyclic(3)
table = CharacterTable(G, (trivial_character(G),), (((0,), (1, 0, 0), (1, 0, 0)),))
try:
    _verify_table(table)
except InvalidCharacterTable as ex:
    print("rejected:", ex)
else:
    print("accepted")
"""


def test_verify_table_rejects_under_optimize():
    """The table checks are raises, not asserts: `python -O` keeps them."""
    env = {**os.environ, "PYTHONPATH": str(Path(cmkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", ONE_ROW_C3], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: 1 irreducibles for 3 classes")
