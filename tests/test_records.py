"""The package's value types behave as frozen records: built by position or
keyword, equal, hashed and printed by value, and immutable.  These tests
pin that contract for each of them, whatever implements it."""

import copy
import pickle

import pytest

from cmkit import (
    CMVerdict,
    Character,
    CharacterTable,
    ConjugacyClass,
    ElementNotInGroup,
    FactorCertificate,
    FiniteGroup,
    GeneratingVector,
    IsogenyRelation,
    NotProperNontrivial,
    Permutation,
    QuasiplatonicSurface,
    QuotientSurface,
    RelationReport,
    Signature,
    quotient_surface,
)
from cmkit.criteria import IrreducibleRow, StatementAResult, StatementBResult
from cmkit.gmfamily import GmExpected
from conftest import gm_bundle


def _samples():
    """Constructor arguments of each record type, as (field, value) pairs."""
    inst, X, T = gm_bundle(8)
    G, H = inst.group, inst.subgroup_a()
    q = quotient_surface(X, H)
    res_a = StatementAResult(True, True, 4, True, (2, 2))
    sig = Signature(0, (2, 2, 2, 2))
    row = IrreducibleRow(0, 1, 2, 3, 3, (1, 0))
    report = RelationReport(True, 1, (1,), (row,), 3, 3)
    relation = IsogenyRelation(1, ((H, 1),))
    cert = FactorCertificate(H, "statement_A", res_a)
    return {
        IsogenyRelation: (("n", 1), ("factors", ((H, 1),))),
        StatementAResult: (("holds", True), ("is_normal", True), ("quotient_order", 4),
                           ("quotient_abelian", True), ("abelian_invariants", (2, 2))),
        StatementBResult: (("holds", True), ("genus", 1), ("bound", 2), ("group_order", 4),
                           ("group_generators", ("(0 1)",)), ("group_is_cyclic6", False),
                           ("bound_satisfied", True), ("exception_matched", False),
                           ("quotient_signature", sig), ("searched", 3)),
        FactorCertificate: (("subgroup", H), ("route", "statement_A"), ("evidence", res_a)),
        IrreducibleRow: (("index", 0), ("degree", 1), ("h1_multiplicity", 2), ("lhs", 3),
                         ("rhs", 3), ("factor_dimensions", (1, 0))),
        RelationReport: (("holds", True), ("n", 1), ("multiplicities", (1,)), ("rows", (row,)),
                         ("genus_lhs", 3), ("genus_rhs", 3)),
        CMVerdict: (("status", "CM_CERTIFIED"), ("streit_value", 0), ("relation", relation),
                    ("certificates", (cert,)), ("relation_report", report),
                    ("search_log", ("a log entry",))),
        Signature: (("orbit_genus", 0), ("periods", (2, 5))),
        GeneratingVector: (("group", G), ("entries", X.vector.entries)),
        QuasiplatonicSurface: (("vector", X.vector), ("genus", X.genus),
                               ("signature", X.signature)),
        QuotientSurface: (("surface", X), ("subgroup", H), ("genus", q.genus),
                          ("branch_data", q.branch_data)),
        Character: (("group", G), ("values", T.irreducibles[1].values)),
        CharacterTable: (("group", G), ("spectra", T.spectra)),
        ConjugacyClass: (("representative", G.conjugacy_classes()[1].representative),
                         ("members", G.conjugacy_classes()[1].members),
                         ("order", G.conjugacy_classes()[1].order)),
        GmExpected: (("genus", 5), ("periods", (2, 8, 8)), ("quotient_genus_a", 3),
                     ("quotient_genus_b", 1), ("curve_a", "y^2 = x^8 - 1"),
                     ("curve_b", "y^2 = x^4 - 1")),
    }


RECORDS = [IsogenyRelation, StatementAResult, StatementBResult, FactorCertificate,
           IrreducibleRow, RelationReport, CMVerdict, Signature, GeneratingVector,
           QuasiplatonicSurface, QuotientSurface, Character, CharacterTable, ConjugacyClass,
           GmExpected]
BY_IDENTITY = (CharacterTable,)  # compared and hashed as objects
OWN_EQUALITY = (Character,)  # its own __eq__ and __repr__; unhashable
VALIDATED = (IsogenyRelation, Signature, GeneratingVector)  # reject a placeholder field


def _build(cls):
    fields = _samples()[cls]
    return fields, cls(*(value for _, value in fields))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    fields, rec = _build(cls)
    by_keyword = cls(**dict(fields))
    for name, value in fields:
        assert getattr(rec, name) == value
        assert getattr(by_keyword, name) == getattr(rec, name)
    if cls not in BY_IDENTITY:
        assert by_keyword == rec
    half = len(fields) // 2
    mixed = cls(*(value for _, value in fields[:half]), **dict(fields[half:]))
    assert all(getattr(mixed, name) == getattr(rec, name) for name, _ in fields)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_wrong_arguments_raise_type_error(cls):
    fields, _ = _build(cls)
    values = [value for _, value in fields]
    with pytest.raises(TypeError):
        cls(*values[:-1 if cls is not CMVerdict else -2])
    with pytest.raises(TypeError):
        cls(*values, *values)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0][0]: values[0]})


def test_search_log_defaults_to_empty():
    fields, _ = _build(CMVerdict)
    verdict = CMVerdict(*(value for _, value in fields[:-1]))
    assert verdict.search_log == ()
    assert verdict.certified


@pytest.mark.parametrize("cls", [c for c in RECORDS if c not in BY_IDENTITY + OWN_EQUALITY],
                         ids=lambda c: c.__name__)
def test_equality_and_hash_by_value(cls):
    fields, rec = _build(cls)
    twin = cls(*(value for _, value in fields))
    assert twin is not rec and twin == rec and not twin != rec
    assert hash(twin) == hash(rec)
    assert len({rec, twin}) == 1
    assert rec != tuple(value for _, value in fields)
    assert rec.__eq__(object()) is NotImplemented
    if cls in VALIDATED:
        return
    for i in range(len(fields)):
        other = cls(*(object() if j == i else value for j, (_, value) in enumerate(fields)))
        assert other != rec and not other == rec


def test_equality_of_validated_records_reads_every_field():
    inst, X, _ = gm_bundle(8)
    assert Signature(0, (2, 5)) == Signature(0, (5, 2)) != Signature(1, (2, 5))
    assert Signature(0, (2, 5)) != Signature(0, (2, 6))
    H, K = inst.subgroup_a(), inst.subgroup_b()
    assert IsogenyRelation(1, ((H, 1),)) != IsogenyRelation(2, ((H, 1),))
    assert IsogenyRelation(1, ((H, 1),)) != IsogenyRelation(1, ((K, 1),))
    v = X.vector
    moved = next(w for w in map(v.conjugate_by, v.group.elements) if w.entries != v.entries)
    assert moved != v and GeneratingVector(v.group, v.entries) == v


def test_character_table_compares_by_identity():
    fields, T = _build(CharacterTable)
    twin = CharacterTable(*(value for _, value in fields))
    assert T == T and twin != T and not twin == T
    assert hash(T) == object.__hash__(T)
    assert len({T, twin}) == 2
    assert CharacterTable(T.group, T.spectra, _cache={"k": 1})._cache == {"k": 1}
    assert twin._cache == {} and twin._cache is not T._cache


def test_character_keeps_its_own_equality_and_is_unhashable():
    fields, chi = _build(Character)
    twin = Character(*(value for _, value in fields))
    assert twin == chi and twin is not chi
    assert chi != gm_bundle(8)[2].irreducibles[0] and chi != chi.values
    with pytest.raises(TypeError):
        hash(chi)
    assert repr(chi) == f"Character(deg {chi.degree}, {len(chi.values)} classes)"


def _dataclass_repr(rec, names):
    inner = ", ".join(f"{name}={getattr(rec, name)!r}" for name in names)
    return f"{type(rec).__qualname__}({inner})"


@pytest.mark.parametrize("cls", [c for c in RECORDS if c not in OWN_EQUALITY],
                         ids=lambda c: c.__name__)
def test_repr_lists_the_fields(cls):
    fields, rec = _build(cls)
    assert repr(rec) == _dataclass_repr(rec, [name for name, _ in fields])


def test_pinned_reprs():
    assert repr(Signature(0, (5, 2))) == "Signature(orbit_genus=0, periods=(2, 5))"
    assert repr(StatementAResult(False, False, None, None, None)) == (
        "StatementAResult(holds=False, is_normal=False, quotient_order=None, "
        "quotient_abelian=None, abelian_invariants=None)")
    row = IrreducibleRow(2, 1, 1, 4, 4, (2, 0))
    assert repr(row) == ("IrreducibleRow(index=2, degree=1, h1_multiplicity=1, lhs=4, "
                         "rhs=4, factor_dimensions=(2, 0))")
    assert repr(RelationReport(True, 1, (1,), (row,), 3, 3)) == (
        f"RelationReport(holds=True, n=1, multiplicities=(1,), rows=({row!r},), "
        f"genus_lhs=3, genus_rhs=3)")
    assert repr(GmExpected(5, (2, 8, 8), 3, None, "c", None)) == (
        "GmExpected(genus=5, periods=(2, 8, 8), quotient_genus_a=3, quotient_genus_b=None, "
        "curve_a='c', curve_b=None)")


def test_generating_vector_equality_and_repr_ignore_derived_fields():
    _, X, _ = gm_bundle(8)
    v = X.vector
    twin = GeneratingVector(v.group, list(v.entries))
    assert twin.entries == v.entries and type(twin.entries) is tuple
    assert twin.indices == v.indices and twin.periods == v.periods == (2, 8, 8)
    object.__setattr__(twin, "indices", (0,))
    object.__setattr__(twin, "periods", (99,))
    assert twin == v and hash(twin) == hash(v)
    assert repr(twin) == repr(v) == _dataclass_repr(v, ["group", "entries"])
    assert "indices" not in repr(v) and "periods" not in repr(v)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_immutable(cls):
    fields, rec = _build(cls)
    names = [name for name, _ in fields] + ["extra"]
    if cls is GeneratingVector:
        names += ["indices", "periods"]
    if cls is CharacterTable:
        names += ["_cache"]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    for name, value in fields:
        assert getattr(rec, name) == value


@pytest.mark.parametrize("rec", [
    Signature(0, (2, 5)),
    StatementAResult(True, True, 4, True, (2, 2)),
    IrreducibleRow(0, 1, 2, 3, 3, (1, 0)),
    GmExpected(5, (2, 8, 8), 3, 1, "a", "b"),
], ids=lambda r: type(r).__name__)
def test_records_copy_and_pickle_by_value(rec):
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_signature_errors_in_order():
    assert Signature(2, [5, 3, 2]).periods == (2, 3, 5)
    with pytest.raises(ValueError, match="orbit genus must be non-negative"):
        Signature(-1, (1,))
    with pytest.raises(ValueError, match="periods must be at least 2"):
        Signature(0, (1, 3))
    with pytest.raises(TypeError):
        Signature(0, None)
    with pytest.raises(TypeError):
        Signature(None, (2, 3))


def test_generating_vector_errors_in_order():
    C4 = FiniteGroup.cyclic(4)
    e, s = C4.elements[0], C4.elements[1]
    outside = Permutation([1, 0, 2, 3])
    with pytest.raises(ValueError, match="at least two entries"):
        GeneratingVector(C4, (outside,))
    with pytest.raises(ElementNotInGroup):
        GeneratingVector(C4, (s, outside, e))
    with pytest.raises(ValueError, match="identity entries are not allowed"):
        GeneratingVector(C4, (s, e, outside))
    with pytest.raises(ValueError, match="do not multiply to the identity"):
        GeneratingVector(C4, (s, s))
    with pytest.raises(ValueError, match="do not generate the group"):
        GeneratingVector(C4, (s * s, s * s))
    with pytest.raises(TypeError):
        GeneratingVector(C4, None)
    v = GeneratingVector(C4, iter((s, s, s * s)))
    assert v.entries == (s, s, s * s) and v.periods == (4, 4, 2)


def test_isogeny_relation_errors_in_order():
    inst, _, _ = gm_bundle(8)
    G, H = inst.group, inst.subgroup_a()
    with pytest.raises(ValueError, match="n >= 1 and at least one factor"):
        IsogenyRelation(0, ((G.full_subgroup(), 0),))
    with pytest.raises(ValueError, match="n >= 1 and at least one factor"):
        IsogenyRelation(1, ())
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        IsogenyRelation(1, ((H, 1), (G.full_subgroup(), 0)))
    with pytest.raises(NotProperNontrivial):
        IsogenyRelation(1, ((G.full_subgroup(), 1), (H, 0)))
    with pytest.raises(NotProperNontrivial):
        IsogenyRelation(1, ((G.trivial_subgroup(), 1),))
    assert IsogenyRelation(2, [(H, 1)]).factors == [(H, 1)]
