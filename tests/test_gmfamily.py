import pytest

from cmkit import (
    InternalCheckFailed,
    InvalidParameter,
    Signature,
    build_gm,
    canonical_vector,
    find_generating_vectors,
    genus_from_vector,
    known_subgroup_collection,
    quotient_surface,
)
from cmkit.gmfamily import GmExpected
from conftest import gm_bundle


def test_build_examples():
    assert build_gm(6).group.order == 24
    inst = build_gm(8)
    assert inst.group.order == 32
    assert inst.t.order() == 8
    # a is central: it commutes with every generator
    for g in (inst.a, inst.b, inst.t):
        assert inst.a * g == g * inst.a


@pytest.mark.parametrize("bad", [7, 5, 4, 2, 0, -6, 9])
def test_build_rejects_bad_parameters(bad):
    with pytest.raises(InvalidParameter):
        build_gm(bad)


def test_relations_hold():
    inst = build_gm(10)
    e = inst.group.identity
    a, b, t = inst.a, inst.b, inst.t
    assert a * a == e and b * b == e and (a * b) ** 2 == e
    assert t ** 10 == e
    assert t * a * t.inverse() == a
    assert t * b * t.inverse() == a * b


@pytest.mark.parametrize("m,periods", [(6, (2, 6, 12)), (8, (2, 8, 8)),
                                       (10, (2, 10, 20)), (12, (2, 12, 12))])
def test_canonical_vector_periods(m, periods):
    inst = build_gm(m)
    v = canonical_vector(inst)
    assert v.periods == periods
    assert canonical_vector(inst) is v  # cached


def test_canonical_vector_is_the_first_vector_the_search_finds():
    """The vector built from a, b and t is the one the generic search finds
    first, for every even m from 6 to 64; payloads and goldens print it."""
    for m in range(6, 66, 2):
        inst = build_gm(m)
        searched = find_generating_vectors(inst.group, Signature(0, inst.expected.periods))
        assert canonical_vector(inst).entries == searched[0].entries, m


def test_canonical_vector_checks_its_periods():
    inst = build_gm(6)
    inst.expected = GmExpected(**{**{f: getattr(inst.expected, f) for f in GmExpected.__slots__},
                                  "periods": (2, 6, 6)})
    with pytest.raises(InternalCheckFailed):
        canonical_vector(inst)


@pytest.mark.parametrize("m", list(range(6, 22, 2)))
def test_genus_regression(m):
    inst, X, _ = gm_bundle(m)
    expected = m - 2 if m % 4 == 2 else m - 3
    assert genus_from_vector(X.vector) == expected == inst.expected.genus


@pytest.mark.parametrize("m", list(range(6, 22, 2)))
def test_quotient_genera(m):
    inst, X, _ = gm_bundle(m)
    assert quotient_surface(X, inst.subgroup_a()).genus == m // 2 - 1
    if m % 4 == 0:
        assert quotient_surface(X, inst.subgroup_b()).genus == m // 4 - 1


@pytest.mark.parametrize("m", list(range(6, 22, 2)))
def test_subgroup_a_is_normal_with_abelian_quotient(m):
    inst, _, _ = gm_bundle(m)
    G = inst.group
    Ha = inst.subgroup_a()
    assert G.is_normal(Ha)
    Q = G.quotient_with_map(Ha)[0]
    assert Q.is_abelian() and Q.order == 2 * m


def test_known_subgroup_collection():
    inst6 = build_gm(6)
    rel = known_subgroup_collection(inst6)
    assert rel.n == 1
    assert [(H.order, mult) for H, mult in rel.factors] == [(2, 2)]
    assert rel.factors[0][0] == inst6.subgroup_a()

    inst8 = build_gm(8)
    rel8 = known_subgroup_collection(inst8)
    assert [(H.order, mult) for H, mult in rel8.factors] == [(2, 1), (2, 2)]
    assert rel8.factors[0][0] == inst8.subgroup_a()
    assert rel8.factors[1][0] == inst8.subgroup_b()

    rel12 = known_subgroup_collection(build_gm(12))
    assert len(rel12.factors) == 2


def test_expected_record():
    inst = build_gm(8)
    assert inst.expected.curve_a == "y^2 = x^8 - 1"
    assert inst.expected.curve_b == "y^2 = x^4 - 1"
    assert inst.expected.quotient_genus_b == 1
    inst6 = build_gm(6)
    assert inst6.expected.curve_b is None
    assert inst6.expected.quotient_genus_b is None
