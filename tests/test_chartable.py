from fractions import Fraction

import pytest
from hypothesis import given, settings

from cmkit import (
    Character,
    Cyclotomic,
    FiniteGroup,
    GroupMismatch,
    InvalidCharacterTable,
    NonIntegralResult,
    character_table,
    fixed_space_dimension,
    inner_product,
    power_class_map,
    regular_character,
    symmetric_square,
    trivial_character,
)
from cmkit.chartable import CharacterTable, _from_root_multiplicities, _split
from cmkit.modp import echelon, matvec
from conftest import (
    alternating_5,
    cyclic_7_squared,
    gm_bundle,
    index_table,
    klein_4,
    psl_2_7,
    reference_table,
    run_optimized,
    small_permutation_groups,
    symmetric_3,
    symmetric_4,
    symmetric_5,
)

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


def _gm_group(m):
    return pytest.param(lambda: gm_bundle(m)[0].group, id=f"gm:{m}")


# PSL(2,7), C7 x C7 (49 classes, p = 113) and gm:10-20 repeat eigenvalues in
# the first seeded class combination, so their tables go through the
# refinement; C7 x C7 and gm:20 also through the nullspace fallback.
@pytest.mark.parametrize("maker", [
    lambda: FiniteGroup.cyclic(2),
    lambda: FiniteGroup.cyclic(6),
    symmetric_3,
    lambda: gm_bundle(6)[0].group,
    lambda: gm_bundle(8)[0].group,
    pytest.param(FiniteGroup.trivial, id="C1"),
    pytest.param(lambda: FiniteGroup.cyclic(3), id="C3"),
    pytest.param(lambda: FiniteGroup.cyclic(5), id="C5"),
    pytest.param(klein_4, id="V4"),
    pytest.param(symmetric_4, id="S4"),
    pytest.param(alternating_5, id="A5"),
    pytest.param(symmetric_5, id="S5"),
    pytest.param(psl_2_7, id="PSL(2,7)"),
    pytest.param(cyclic_7_squared, id="C7xC7"),
    *(_gm_group(m) for m in range(10, 22, 2)),
])
def test_row_and_column_orthogonality(maker):
    """Orthogonality in Cyclotomic arithmetic, independent of the integer
    checks the table passed when it was built."""
    G = maker()
    T = table_of(G)
    irr = T.irreducibles
    for i, a in enumerate(irr):
        for j, b in enumerate(irr):
            assert inner_product(a, b) == (one if i == j else zero)
    # column orthogonality: sum over rows chi(g) conj(chi(h)) = |C_G(g)| [g ~ h]
    classes = G.conjugacy_classes()
    conjugates = [chi.conjugate() for chi in irr]
    for ci in range(len(classes)):
        for cj in range(len(classes)):
            total = zero
            for chi, bar in zip(irr, conjugates):
                total = total + chi.values[ci] * bar.values[cj]
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


NOT_INVARIANT = """
from cmkit import InvalidCharacterTable
from cmkit.modp import restrict
try:
    restrict([[0, 1], [1, 0]], [[1, 0]], [0], 7)
except InvalidCharacterTable as ex:
    print("rejected:", ex)
else:
    print("accepted")
"""


def test_verify_table_rejects_under_optimize():
    """The table checks are raises, not asserts: `python -O` keeps them."""
    assert run_optimized("-c", ONE_ROW_C3).startswith("rejected: 1 irreducibles for 3 classes")
    assert run_optimized("-c", NOT_INVARIANT).startswith("rejected: subspace not invariant")


DOCTORED_SPECTRA = """
from cmkit import FiniteGroup, NonIntegralResult
from cmkit.chartable import CharacterTable, character_table
for n, doctored, name in ((2, ((1,), (1, 1)), "non-integral"),
                          (2, ((1,), (0, 3)), "negative"),
                          (3, ((1,), (0, 1, 0), (0, 1, 0)), "not rational")):
    G = FiniteGroup.cyclic(n)
    T = character_table(G)
    T = CharacterTable(G, T.irreducibles, T.spectra[:-1] + (doctored,))
    try:
        T.fixed_dimensions(G.full_subgroup())
    except NonIntegralResult:
        print(name, "rejected")
    else:
        print(name, "accepted")
"""


def test_fixed_dimensions_reject_doctored_spectra_under_optimize():
    """A fixed-space dimension that is not a non-negative integer raises."""
    assert run_optimized("-c", DOCTORED_SPECTRA).splitlines() == [
        "non-integral rejected", "negative rejected", "not rational rejected"]


def test_missing_trivial_character_is_a_table_error():
    G = FiniteGroup.cyclic(2)
    T = table_of(G)
    sign = next(chi for chi in T.irreducibles if chi.values[1] != one)
    with pytest.raises(InvalidCharacterTable):
        CharacterTable(G, (sign,), ((),)).trivial_index


class _FixedDraws:
    """Stands in for the seeded generator of `_split`."""

    def __init__(self, values):
        self.values = iter(values)

    def randrange(self, p):
        return next(self.values)


def test_split_falls_back_to_the_nullspace():
    """Eigenvalue 1 twice, on (1, 1, 0) and (1, 0, 1), and 2 on (-1, -1, -1);
    e_0 is their sum.  The extra start vector is e_0 itself, so its
    projection adds nothing and the second basis vector must come from the
    nullspace of mat - 1."""
    p = 7
    mat = [[0, 1, 1], [-1 % p, 2, 1], [-1 % p, 1, 2]]
    parts = _split(mat, [1, 0, 0], p, _FixedDraws([1, 0, 0]))
    assert [len(basis) for _, basis in parts] == [2, 1]
    for lam, (start, basis) in zip((1, 2), parts):
        assert len(echelon(basis, p)[0]) == len(basis)
        for vec in [start, *basis]:
            assert matvec(mat, vec, p) == [(lam * x) % p for x in vec]
    start = parts[0][0]
    assert [(x * pow(start[1], p - 2, p)) % p for x in start] == [2, 1, 1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_permutation_groups())
def test_random_small_groups_have_checked_tables(G):
    """The Cyclotomic norm and degree-sum oracle holds, and every stored
    spectrum re-lifts to its value."""
    T = character_table(G)
    assert len(T) == len(G.conjugacy_classes())
    assert sum(d * d for d in T.degrees()) == G.order
    e = G.exponent()
    for chi, spectra in zip(T.irreducibles, T.spectra):
        assert inner_product(chi, chi) == one
        for cls, value, spectrum in zip(G.conjugacy_classes(), chi.values, spectra):
            o = cls.order
            assert len(spectrum) == o and sum(spectrum) == chi.degree
            mults = {t * (e // o): m for t, m in enumerate(spectrum) if m}
            assert _from_root_multiplicities(e, mults) == value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_permutation_groups())
def test_random_small_groups_have_reference_cayley_tables(G):
    """The same inputs: the table and inverses equal `Permutation` products."""
    assert index_table(G) == reference_table(G)
