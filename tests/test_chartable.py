import math
import sys
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
    Permutation,
    QuasiplatonicSurface,
    Signature,
    analytic_character,
    build_gm,
    character_table,
    chevalley_weil_multiplicities,
    find_generating_vectors,
    fixed_space_dimension,
    inner_product,
    power_class_map,
    regular_character,
    streit_test,
    symmetric_square,
    trivial_character,
)
from cmkit import chartable, cyclotomic
from cmkit.chartable import CharacterTable, _split
from cmkit.modp import Slots
from cmkit.perm import commutator_quotient
from conftest import (
    alternating_5,
    cyclic_7_squared,
    cyclic_product,
    dense_dft_rows,
    elementary_abelian_2,
    gm_bundle,
    hessenberg_rows,
    index_table,
    klein_4,
    psl_2_7,
    reference_derived_subgroup,
    reference_table,
    run_optimized,
    small_permutation_groups,
    spectrum_coefficients,
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
# refinement by later combinations.
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


INTEGER_ROUTES = ("power_basis", "reduced_integer", "cyclic_product", "accumulate",
                  "class_sums", "exact_quotient")


def _surface(G, periods):
    return QuasiplatonicSurface.from_vector(find_generating_vectors(G, Signature(0, periods))[0])


@pytest.mark.parametrize("make_surface", [
    pytest.param(lambda: _surface(symmetric_3(), (2, 2, 3, 3)), id="S3"),
    pytest.param(lambda: gm_bundle(8)[1], id="gm:8"),
    pytest.param(lambda: _surface(cyclic_7_squared(), (7, 7, 7)), id="C7xC7"),
])
def test_oracle_api_runs_without_the_integer_routes(monkeypatch, make_surface):
    """`inner_product`, `fixed_space_dimension`, `symmetric_square` and
    `analytic_character` give the same values when every integer route of
    `cmkit.cyclotomic` raises, wherever it is imported: the oracle computes in
    `Cyclotomic` arithmetic alone.  The table's rows and the Chevalley-Weil
    multiplicities are its inputs, built before the routes are cut."""
    X = make_surface()
    G = X.group
    T = table_of(G)
    irr = T.irreducibles
    chevalley_weil_multiplicities(X, T)
    subgroups = G.all_subgroups()

    def oracle_values():
        T._cache.pop(("analytic", X), None)
        chi_a = analytic_character(X, T)
        rows = irr + (chi_a,)
        return (list(chi_a.values),
                [inner_product(a, b) for a in rows for b in (irr[0], irr[-1], chi_a)],
                [fixed_space_dimension(chi, H) for chi in rows for H in subgroups],
                [list(symmetric_square(chi).values) for chi in rows])

    before = oracle_values()

    def cut(*args):
        raise RuntimeError("integer route called")

    routes = {route: getattr(cyclotomic, route) for route in INTEGER_ROUTES}
    patched = set()
    for name, module in list(sys.modules.items()):
        for route, function in routes.items():
            if getattr(module, route, None) is function:
                monkeypatch.setattr(module, route, cut)
                patched.add(name)
    assert {"cmkit.cyclotomic", "cmkit.chartable", "cmkit.criteria"} <= patched
    with pytest.raises(RuntimeError, match="integer route called"):
        streit_test(X)
    assert oracle_values() == before


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
from cmkit import FiniteGroup, InvalidCharacterTable
from cmkit.chartable import CharacterTable, _verify_table
G = FiniteGroup.cyclic(3)
table = CharacterTable(G, (((1,), (1, 0, 0), (1, 0, 0)),))
try:
    _verify_table(table)
except InvalidCharacterTable as ex:
    print("rejected:", ex)
else:
    print("accepted")
"""


# D4 on the square's corners, (0 1 2 3) and (0 2).  Its degree-2 row, with
# the last spectrum dropped or with one spectrum moved off the degree, is
# rejected before any class sum reads it.
SHORT_ROW_D4 = """
from cmkit import FiniteGroup, InvalidCharacterTable, Permutation
from cmkit.chartable import CharacterTable, _verify_table, character_table
G = FiniteGroup.from_generators(4, [Permutation.from_cycles(4, [(0, 1, 2, 3)]),
                                    Permutation.from_cycles(4, [(0, 2)])])
T = character_table(G)
i = T.degrees().index(2)
row = T.spectra[i]
wrong_sum = row[:-1] + (tuple(m + 1 for m in row[-1]),)
for doctored in (row[:-1], wrong_sum):
    try:
        _verify_table(CharacterTable(G, T.spectra[:i] + (doctored,) + T.spectra[i + 1:]))
    except InvalidCharacterTable as ex:
        print("rejected:", ex)
    else:
        print("accepted")
"""


# A row copied over another keeps every row's shape and norm one, and the
# degree sum: on C3 one non-trivial row over the other, on S3 the trivial
# row over the sign row.
REPEATED_ROW = """
from cmkit import FiniteGroup, InvalidCharacterTable, Permutation
from cmkit.chartable import CharacterTable, _verify_table, character_table
C3 = FiniteGroup.cyclic(3)
S3 = FiniteGroup.from_generators(3, [Permutation.from_cycles(3, [(0, 1)]),
                                     Permutation.from_cycles(3, [(0, 1, 2)])])
for name, G, copied, replaced in (("C3", C3, (0, 1, 0), (0, 0, 1)),
                                  ("S3", S3, (1, 0), (0, 1))):
    rows = list(character_table(G).spectra)
    i, j = (next(i for i, spectra in enumerate(rows) if spectra[1] == s)
            for s in (copied, replaced))
    rows[j] = rows[i]
    try:
        _verify_table(CharacterTable(G, tuple(rows)))
    except InvalidCharacterTable as ex:
        print(name, "rejected:", ex)
    else:
        print(name, "accepted")
"""


# Two rows of one degree with their spectra swapped at one class where their
# absolute values differ keep every row's shape and partition, and at every
# class the same (degree, spectrum) pairs, so the regular-representation
# identity holds too: only norm one sees the swap.  A5's two rows of degree 3
# differ in absolute value at the 5-cycles.  A5 x C3 (order 180, e = 30) sits
# at the width switch of `packed_spectra`: (180^2 + 180) max|Psi_30| = 32,580,
# just under the 2^15 that 16-bit slots hold.  A row of degree 735 on C2, spectra (735) and (724, 11),
# fails at once, as 735^2 > |G|: past that guard its packed norm would alias,
# 735^2 + (724 - 11)^2 = 2 (mod 2^16 + 1), and pass the zero test.
SWAPPED_SPECTRA = """
from cmkit import FiniteGroup, InvalidCharacterTable, Permutation
from cmkit.chartable import CharacterTable, _verify_table, character_table
from cmkit.cyclotomic import packed_spectra
def group(*cycles):
    return FiniteGroup.from_generators(8, [Permutation.from_cycles(8, [c]) for c in cycles])
def check(name, G, rows):
    try:
        _verify_table(CharacterTable(G, tuple(rows)))
    except InvalidCharacterTable as ex:
        print(name, "rejected:", ex)
    else:
        print(name, "accepted")
for name, G in (("A5", group((0, 1, 2, 3, 4), (0, 1, 2))),
                ("A5xC3", group((0, 1, 2, 3, 4), (0, 1, 2), (5, 6, 7)))):
    T = character_table(G)
    n, e = G.order, G.exponent()
    orders = {cls.order for cls in G.conjugacy_classes()}
    print(name, "slot bits", packed_spectra(e, orders, n * n + n)[2] // e)
    irr, degrees = T.irreducibles, T.degrees()
    i, j, c = next((i, j, c) for i in range(len(T)) for j in range(i + 1, len(T))
                   if degrees[i] == degrees[j] > 1 for c in range(len(T))
                   if irr[i].values[c] * irr[i].values[c].conjugate()
                   != irr[j].values[c] * irr[j].values[c].conjugate())
    rows = [list(row) for row in T.spectra]
    rows[i][c], rows[j][c] = rows[j][c], rows[i][c]
    rows = [tuple(row) for row in rows]
    same = all(sorted(zip(degrees, a)) == sorted(zip(degrees, b))
               for a, b in zip(zip(*T.spectra), zip(*rows)))
    check(f"{name} rows {i}, {j} at class {c}, same pairs {same}:", G, rows)
C2 = FiniteGroup.cyclic(2)
check("C2 degree 735:", C2, (character_table(C2).spectra[0], ((735,), (724, 11))))
"""


NOT_SPLIT = """
from cmkit import InvalidCharacterTable
from cmkit.modp import distinct_roots
try:
    distinct_roots([1, 0, 1], 7)
except InvalidCharacterTable as ex:
    print("rejected:", ex)
else:
    print("accepted")
"""


SLOT_OVERFLOW = """
from cmkit import InternalCheckFailed
from cmkit.modp import Slots
print(Slots(433, 217).width, Slots(4099, 300).width)
try:
    Slots(2 ** 31 - 1, 5)
except InternalCheckFailed as ex:
    print("rejected:", ex)
else:
    print("accepted")
"""


def test_verify_table_rejects_under_optimize():
    """The table checks are raises, not asserts: `python -O` keeps them.
    x^2 + 1 has no root mod 7, and five products of residues mod 2^31 - 1
    overflow a 64-bit slot (217 mod 433, C3 x C6 x C12's table, fit 32 bits)."""
    assert run_optimized("-c", ONE_ROW_C3).startswith("rejected: 1 irreducibles for 3 classes")
    assert run_optimized("-c", SHORT_ROW_D4).splitlines() == [
        "rejected: row 4 has 4 spectra for 5 classes",
        "rejected: row 4: eigenvalue multiplicities are not a partition of the degree"]
    assert run_optimized("-c", REPEATED_ROW).splitlines() == [
        "C3 rejected: regular-representation identity fails at class 1",
        "S3 rejected: regular-representation identity fails at class 1"]
    assert run_optimized("-c", NOT_SPLIT).startswith(
        "rejected: polynomial of degree 2 has 0 distinct roots mod 7")
    widths, overflow = run_optimized("-c", SLOT_OVERFLOW).splitlines()
    assert widths == "32 64"
    assert overflow.startswith("rejected: 5 products mod 2147483647 overflow")


def test_norm_one_fires_when_only_norm_one_fails():
    """Both norm-one raises fire under `python -O` on tables that every
    other check accepts (`SWAPPED_SPECTRA`), one of them at the width
    switch of `packed_spectra`."""
    assert run_optimized("-c", SWAPPED_SPECTRA).splitlines() == [
        "A5 slot bits 16",
        "A5 rows 1, 2 at class 3, same pairs True: rejected: row 1 is not norm one",
        "A5xC3 slot bits 16",
        "A5xC3 rows 3, 4 at class 7, same pairs True: rejected: row 3 is not norm one",
        "C2 degree 735: rejected: row 1 is not norm one"]


DOCTORED_SPECTRA = """
from cmkit import FiniteGroup, NonIntegralResult
from cmkit.chartable import CharacterTable, character_table
for n, doctored, name in ((2, ((1,), (1, 1)), "non-integral"),
                          (2, ((1,), (0, 3)), "negative"),
                          (3, ((1,), (0, 1, 0), (0, 1, 0)), "not rational")):
    G = FiniteGroup.cyclic(n)
    T = character_table(G)
    T = CharacterTable(G, T.spectra[:-1] + (doctored,))
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
    sign = T.spectra[1 - T.trivial_index]
    with pytest.raises(InvalidCharacterTable):
        CharacterTable(G, (sign,)).trivial_index


def _packed_columns(mat, slots):
    return [slots.pack([row[l] % slots.p for row in mat]) for l in range(len(mat))]


def _apply(mat, vec, p):
    return [sum(a * x for a, x in zip(row, vec)) % p for row in mat]


def _normalized(vec, p):
    inv = pow(next(x for x in vec if x), p - 2, p)
    return [(x * inv) % p for x in vec]


def test_split_leaves_a_repeated_eigenvalue_to_a_later_combination():
    """mat has eigenvalue 1 twice, on (1, 1, 0) and (1, 0, 1), and 2 on
    (-1, -1, -1); e_0 is their sum.  Its minimal polynomial under mat is
    (x - 1)(x - 2), so it splits into 2 parts.  A later combination, diagonal
    on the same three vectors with eigenvalues 1, 2, 3, splits the part for
    1 into its two lines and leaves the part for 2 whole."""
    p = 7
    slots = Slots(p, 4)
    mat = [[0, 1, 1], [-1, 2, 1], [-1, 1, 2]]
    later = [[0, 1, 2], [-2, 3, 2], [-1, 1, 3]]
    for vec in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        assert _apply(mat, _apply(later, vec, p), p) == _apply(later, _apply(mat, vec, p), p)
    parts = _split(_packed_columns(mat, slots), [1, 0, 0], slots)
    assert len(parts) == 2
    for lam, part in zip((1, 2), parts):
        assert _apply(mat, part, p) == [(lam * x) % p for x in part]
    assert _normalized(parts[0], p) == [1, 4, 4]  # (2, 1, 1) = (1, 1, 0) + (1, 0, 1)
    assert _normalized(parts[1], p) == [1, 1, 1]
    lines = _split(_packed_columns(later, slots), parts[0], slots)
    assert [_normalized(line, p) for line in lines] == [[1, 1, 0], [1, 0, 1]]
    assert _split(_packed_columns(later, slots), parts[1], slots) == [parts[1]]


@pytest.mark.parametrize("m,passes,degrees", [
    (12, 1, [6]),
    (16, 1, [8]),
])
def test_split_passes_stop_at_k_parts(m, passes, degrees, monkeypatch):
    """Counted on gm:12 and gm:16: the linear characters are read off G/G',
    so the split runs only from e_0 - e_G' and stops at the k - [G:G']
    non-linear irreducibles (6 of 30 and 8 of 40 here).  After the first
    pass, Krylov runs only on parts that the one-product test rejects, and
    no part is split and no pass begins once there are k - [G:G'] parts."""
    G = build_gm(m).group
    k = len(G.conjugacy_classes())
    index = G.order // commutator_quotient(G._table, G._inv, G._gens, G._conj, G._grow)[0]
    p = chartable._find_prime(G.exponent(), 2 * G.order + 1)
    events = []
    real_split, real_minpoly = chartable._split, chartable.minimal_polynomial
    real_combination = chartable._class_combination

    def combination(*args):
        events.append(("pass", None))
        return real_combination(*args)

    def split(*args):
        events.append(("split", None))
        return real_split(*args)

    def minimal_polynomial(*args):
        mu, krylov = real_minpoly(*args)
        events.append(("krylov", len(mu) - 1))
        return mu, krylov

    monkeypatch.setattr(chartable, "_class_combination", combination)
    monkeypatch.setattr(chartable, "_split", split)
    monkeypatch.setattr(chartable, "minimal_polynomial", minimal_polynomial)
    exponents, start = chartable._linear_characters(G, p)
    assert len(exponents) == index
    vectors = chartable._joint_eigenvectors(G, p, start, k - index)
    parts, seen_passes, found = 1, 0, []
    for kind, degree in events:
        if kind == "krylov":
            assert seen_passes == 1 or degree >= 2
            found.append(degree)
            parts += degree - 1
        else:
            assert parts < k - index, f"a {kind} after {k - index} parts"
            seen_passes += kind == "pass"
    assert parts == k - index and len(vectors) == k - index
    assert (seen_passes, found) == (passes, degrees)


def _table_groups():
    groups = [
        pytest.param(FiniteGroup.trivial, id="C1"),
        pytest.param(lambda: FiniteGroup.cyclic(2), id="C2"),
        pytest.param(symmetric_3, id="S3"),
        pytest.param(klein_4, id="V4"),
        pytest.param(symmetric_4, id="S4"),
        pytest.param(alternating_5, id="A5"),
        pytest.param(symmetric_5, id="S5"),
        pytest.param(psl_2_7, id="PSL(2,7)"),
        pytest.param(cyclic_7_squared, id="C7xC7"),
        pytest.param(lambda: elementary_abelian_2(5), id="C2^5"),
        pytest.param(lambda: elementary_abelian_2(6), id="C2^6"),
        pytest.param(lambda: cyclic_product(3, 6, 12), id="C3xC6xC12"),
    ]
    return groups + [pytest.param(lambda m=m: gm_bundle(m)[0].group, id=f"gm:{m}")
                     for m in range(6, 34, 2)]


@pytest.mark.parametrize("maker", _table_groups())
def test_krylov_route_matches_the_hessenberg_route(maker):
    """The linear rows and the minimal-polynomial split give the table that
    the Hessenberg route (`conftest.hessenberg_rows`) gives: the same spectra."""
    G = maker()
    assert character_table(G).spectra == hessenberg_rows(G)


def _refuse_route(*args):
    raise AssertionError("the oracle reached the production route")


@pytest.mark.parametrize("maker", [pytest.param(lambda: build_gm(12).group, id="gm:12"),
                                   pytest.param(symmetric_4.__wrapped__, id="S4"),
                                   pytest.param(lambda: cyclic_product(2, 6), id="C2xC6")])
def test_hessenberg_route_runs_without_the_production_route(maker, monkeypatch):
    """Control for the oracle's independence: with the linear characters and
    `_dixon_rows` refused, `conftest.hessenberg_rows` still returns the table
    of a fresh group, linear rows included."""
    expected = character_table(maker()).spectra
    monkeypatch.setattr(chartable, "_linear_characters", _refuse_route)
    monkeypatch.setattr(chartable, "_dixon_rows", _refuse_route)
    assert hessenberg_rows(maker()) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_permutation_groups())
def test_krylov_route_matches_the_hessenberg_route_on_random_groups(G):
    assert character_table(G).spectra == hessenberg_rows(G)


def _lift_groups():
    groups = [
        pytest.param(alternating_5, id="A5"),
        pytest.param(symmetric_5, id="S5"),
        pytest.param(psl_2_7, id="PSL(2,7)"),
        pytest.param(cyclic_7_squared, id="C7xC7"),
    ]
    return groups + [pytest.param(lambda m=m: gm_bundle(m)[0].group, id=f"gm:{m}")
                     for m in range(6, 22, 2)]


@pytest.mark.parametrize("maker", _lift_groups())
def test_packed_lift_matches_the_dense_lift(maker):
    """One packed transform per rational class for all irreducibles gives the
    spectra and value vectors of a dense transform per irreducible
    (`conftest.dense_dft_rows`) from the same joint eigenvectors."""
    G = maker()
    T = character_table(G)
    assert (T.spectra, T.value_vectors()) == dense_dft_rows(G)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_permutation_groups())
def test_packed_lift_matches_the_dense_lift_on_random_groups(G):
    T = character_table(G)
    assert (T.spectra, T.value_vectors()) == dense_dft_rows(G)


@pytest.mark.parametrize("maker", [pytest.param(psl_2_7, id="PSL(2,7)"),
                                   pytest.param(lambda: gm_bundle(16)[0].group, id="gm:16")])
def test_table_holds_one_tuple_per_distinct_spectrum(maker):
    """Equal spectra are one object: gm:16 has 61 distinct among 1,600 cells."""
    cells = [s for row in character_table(maker()).spectra for s in row]
    assert len({id(s) for s in cells}) == len(set(cells)) < len(cells)


_FIND_PRIME = chartable._find_prime


@pytest.mark.parametrize("make, prime", [
    pytest.param(lambda: build_gm(12).group, 65557, id="gm:12"),
    pytest.param(symmetric_5.__wrapped__, 65581, id="S5"),
    pytest.param(psl_2_7.__wrapped__, 66109, id="PSL(2,7)"),
])
def test_primes_above_2_16_pack_64_bit_slots(monkeypatch, make, prime):
    """With the least prime = 1 (mod e) above 2^16 instead of the least above
    2|G|, every `Slots` of the table is 64 bits wide, a width no table reaches
    at its own prime, and the spectra are the same."""
    expected = character_table(make()).spectra
    seen = set()

    class RecordedSlots(Slots):
        def __init__(self, p, terms):
            super().__init__(p, terms)
            seen.add((p, self.width))

    monkeypatch.setattr(chartable, "_find_prime", lambda e, minimum: _FIND_PRIME(e, 2**16 + 1))
    monkeypatch.setattr(chartable, "Slots", RecordedSlots)
    assert character_table(make()).spectra == expected
    assert seen == {(prime, 64)}


ROTATED_REINDEX = """
from cmkit import InvalidCharacterTable, build_gm, chartable
for rotate in (False, True):
    G = build_gm(12).group
    source = G.rational_sources()
    if rotate:
        c = next(c for c, (first, _) in enumerate(source) if first != c)
        first, reindex = source[c]
        source[c] = first, reindex[1:] + reindex[:1]
    try:
        chartable.character_table(G)
    except InvalidCharacterTable as ex:
        print("rejected:", ex)
    else:
        print("accepted")
"""


def test_class_value_check_catches_a_misread_galois_reindex():
    """In exact arithmetic mod p the class-value check is an identity of the
    inverse transform; it guards the packed arithmetic.  Rotating the Galois
    reindex of the first class that is not its rational class's first by one
    place in the group's stored sources makes `character_table(gm:12)`, built
    unpatched first, raise, also under `python -O`."""
    assert run_optimized("-c", ROTATED_REINDEX).splitlines() == [
        "accepted", "rejected: eigenvalue spectrum does not give the class value"]


def _refuse(*args, **kwargs):
    raise AssertionError("Permutation arithmetic or lookup on an index path")


def test_tables_and_quotient_invariants_read_the_cayley_table(monkeypatch):
    """On built groups, the character tables of gm:8, A5 and PSL(2,7)
    (classes, power classes and class matrices included), and the abelian
    invariants and cyclic subgroups of a statement-A quotient of gm:8, read
    element orders and class representatives from the Cayley table: with
    `Permutation.order`, `__mul__` and `FiniteGroup.index_of` refused, they
    equal the unpatched results."""
    fresh = [build_gm(8).group, alternating_5.__wrapped__(), psl_2_7.__wrapped__()]
    cached = [gm_bundle(8)[0].group, alternating_5(), psl_2_7()]
    G = fresh[0]
    H = next(H for H in G.all_subgroups() if H.is_proper_nontrivial() and G.is_normal(H)
             and H.normalizer_quotient()[0].is_abelian() and H.index > 2)
    Q, _ = H.normalizer_quotient()
    Q_ref, _ = cached[0].subgroup(H.elements).normalizer_quotient()
    expected = (Q_ref.abelian_invariants(), [K.is_cyclic() for K in Q_ref.all_subgroups()])
    with monkeypatch.context() as m:
        m.setattr(Permutation, "order", _refuse)
        m.setattr(Permutation, "__mul__", _refuse)
        m.setattr(FiniteGroup, "index_of", _refuse)
        tables = [character_table(F).spectra for F in fresh]
        invariants = (Q.abelian_invariants(), [K.is_cyclic() for K in Q.all_subgroups()])
    assert tables == [character_table(F).spectra for F in cached]
    assert invariants == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_permutation_groups())
def test_random_small_groups_have_checked_tables(G):
    """The Cyclotomic norm and degree-sum oracle holds, and every stored
    spectrum's coefficient vector is its value by `Cyclotomic` arithmetic."""
    T = character_table(G)
    assert len(T) == len(G.conjugacy_classes())
    assert sum(d * d for d in T.degrees()) == G.order
    e = G.exponent()
    vectors = T.value_vectors()
    for chi, spectra in zip(T.irreducibles, T.spectra):
        assert inner_product(chi, chi) == one
        for cls, spectrum in zip(G.conjugacy_classes(), spectra):
            assert len(spectrum) == cls.order and sum(spectrum) == chi.degree
            assert vectors[spectrum] == spectrum_coefficients(e, spectrum)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_permutation_groups())
def test_random_small_groups_have_reference_cayley_tables(G):
    """The same inputs: the table and inverses equal `Permutation` products."""
    assert index_table(G) == reference_table(G)


def _linear_route_groups():
    groups = [
        pytest.param(FiniteGroup.trivial, id="C1"),
        pytest.param(lambda: FiniteGroup.cyclic(2), id="C2"),
        pytest.param(klein_4, id="V4"),
        pytest.param(lambda: elementary_abelian_2(6), id="C2^6"),
        pytest.param(lambda: cyclic_product(3, 6, 12), id="C3xC6xC12"),
        pytest.param(alternating_5, id="A5"),
        pytest.param(psl_2_7, id="PSL(2,7)"),
        pytest.param(symmetric_4, id="S4"),
        pytest.param(symmetric_5, id="S5"),
    ]
    return groups + [pytest.param(lambda m=m: gm_bundle(m)[0].group, id=f"gm:{m}")
                     for m in range(6, 34, 2)]


def _check_linear_route(G):
    """G' and the coordinates modulo it match the brute-force closure of all
    commutators, and [G:G'] is the number of degree-1 rows of the table."""
    derived, code, steps = commutator_quotient(G._table, G._inv, G._gens, G._conj, G._grow)
    expected = reference_derived_subgroup(G)
    assert derived == len(expected)
    assert {x for x in range(G.order) if code[x] == 0} == expected
    index = G.order // derived
    assert math.prod(m for m, _, _ in steps) == index
    assert sorted(set(code)) == list(range(index))  # one code per coset of G'
    degrees = character_table(G).degrees()
    assert degrees.count(1) == index
    return index, len(degrees)


@pytest.mark.parametrize("maker", _linear_route_groups())
def test_linear_characters_are_read_off_the_commutator_quotient(maker):
    """Abelian groups have only linear characters, so no split runs; perfect
    ones (A5, PSL(2,7)) only the trivial one; the gm family [G:G'] = 2m."""
    G = maker()
    index, k = _check_linear_route(G)
    if G.is_abelian():
        assert index == k
    if G.order in (60, 168):
        assert index == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_permutation_groups())
def test_linear_characters_are_read_off_the_commutator_quotient_on_random_groups(G):
    _check_linear_route(G)


MUTATED_LINEAR = """
from cmkit import InvalidCharacterTable, build_gm, chartable
real = chartable._linear_characters
def dropped(G, p):
    exponents, start = real(G, p)
    return exponents[1:], start
def moved(G, p, c, step):
    exponents, start = real(G, p)
    row = list(exponents[-1])
    row[c] = (row[c] + step) % G.exponent()
    return exponents[:-1] + [row], start
def shifted(G, p):
    return moved(G, p, -1, G.exponent() // G.conjugacy_classes()[-1].order)
def indivisible(G, p):
    return moved(G, p, 1, 1)
for name, mutant in (("unchanged", real), ("dropped", dropped), ("shifted", shifted),
                     ("indivisible", indivisible)):
    chartable._linear_characters = mutant
    try:
        chartable.character_table(build_gm(12).group)
    except InvalidCharacterTable as ex:
        print(name, "rejected:", ex)
    else:
        print(name, "accepted")
"""


def test_mutated_linear_characters_are_rejected_under_optimize():
    """On gm:12 (e = 12, its last class of order 12, class 1 of order 2), the
    table raises, also under `python -O`, with one exponent row dropped (the
    split finds one part fewer than it is asked for), with one exponent moved
    by e/o at one class (the spectrum moves to the next root of unity, which
    only the regular-representation identity sees), and with one exponent
    that e/o does not divide."""
    assert run_optimized("-c", MUTATED_LINEAR).splitlines() == [
        "unchanged accepted",
        "dropped rejected: class matrices split class space into 6 parts for 7 "
        "non-linear irreducibles",
        "shifted rejected: regular-representation identity fails at class 29",
        "indivisible rejected: a linear character's exponent is not a multiple of e/o"]
