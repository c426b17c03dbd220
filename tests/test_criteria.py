import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

from cmkit import criteria
from cmkit import (
    CM_CERTIFIED,
    INCONCLUSIVE,
    Cyclotomic,
    FiniteGroup,
    GeneratingVector,
    GenusZeroQuotient,
    IsogenyRelation,
    NotProperNontrivial,
    Permutation,
    QuasiplatonicSurface,
    Signature,
    Subgroup,
    analytic_character,
    character_table,
    check_statement_a,
    check_statement_b,
    cm_verdict,
    find_generating_vectors,
    inner_product,
    known_subgroup_collection,
    quotient_surface,
    reverify_verdict,
    streit_test,
    symmetric_square,
    trivial_character,
    verify_isogeny_relation,
)
from cmkit.criteria import (
    RelationReport,
    _combinations_by_weight,
    _search_certified_relation,
    _spectra_streit_value,
)
from cmkit.reports import relation_json
from conftest import (
    alternating_5,
    eichler_streit_value,
    gm_bundle,
    klein_4,
    psl_2_7,
    quotient_reference,
    random_surfaces,
    run_optimized,
    statement_a_reference,
    statement_b_reference,
    symmetric_4,
    symmetric_5,
    uncached_search_reference,
)

GOLDEN = Path(__file__).parent / "golden"


def c6_exception_surface():
    C6 = FiniteGroup.cyclic(6)
    vec = find_generating_vectors(C6, Signature(0, (2, 2, 3, 3)), limit=1)[0]
    return QuasiplatonicSurface.from_vector(vec)


def s4_344_surface():
    G = FiniteGroup.from_generators(4, [Permutation([1, 0, 2, 3]),
                                        Permutation([1, 2, 3, 0])])
    vec = find_generating_vectors(G, Signature(0, (3, 4, 4)), limit=1)[0]
    return QuasiplatonicSurface.from_vector(vec)


def test_statement_a_examples():
    inst, _, _ = gm_bundle(6)
    res = check_statement_a(inst.group, inst.subgroup_a())
    assert res.holds and res.quotient_order == 12
    assert res.abelian_invariants == (2, 6)
    # <b> is not normal: t b t^-1 = ab
    res_b = check_statement_a(inst.group, inst.subgroup_b())
    assert not res_b.holds and not res_b.is_normal


def test_statement_a_on_klein_four(v4):
    H = v4.subgroup_generated([v4.generators[0]])
    res = check_statement_a(v4, H)
    assert res.holds and res.quotient_order == 2


def test_statement_a_rejects_trivial_and_full(v4):
    with pytest.raises(NotProperNontrivial):
        check_statement_a(v4, v4.trivial_subgroup())
    with pytest.raises(NotProperNontrivial):
        check_statement_a(v4, v4.full_subgroup())


@pytest.mark.parametrize("m,k_order,signature", [
    (8, 8, (2, 4, 4)), (12, 12, (2, 6, 6)), (16, 16, (2, 8, 8)),
])
def test_statement_b_on_the_family(m, k_order, signature):
    inst, X, _ = gm_bundle(m)
    res = check_statement_b(X, inst.subgroup_b())
    assert res.holds and res.bound_satisfied
    assert res.group_order == k_order
    assert res.group_order > res.bound == 4 * (m // 4 - 2)
    assert res.quotient_signature.periods == signature
    assert res.quotient_signature.orbit_genus == 0


def test_statement_b_c6_exception():
    X = c6_exception_surface()
    assert X.genus == 2
    res = check_statement_b(X, X.group.trivial_subgroup())
    assert res.holds
    assert res.exception_matched and res.group_is_cyclic6
    assert res.quotient_signature == Signature(0, (2, 2, 3, 3))


def _statements_match_references(X):
    """Statements A and B against the `Permutation` route: A on every proper
    non-trivial H, B on every H whose quotient has genus >= 1, and G/H with
    its map on every normal H."""
    G = X.group
    for H in G.all_subgroups():
        if H.is_proper_nontrivial():
            assert check_statement_a(G, H) == statement_a_reference(G, H)
        if quotient_surface(X, H).genus >= 1:
            assert check_statement_b(X, H) == statement_b_reference(X, H)
        if G.is_normal(H):
            Q, action = G.quotient_with_map(H)
            Q_ref, action_ref = quotient_reference(G, H)
            assert Q.elements == Q_ref.elements and action == action_ref


def _three_point_cover(build, periods):
    vec = find_generating_vectors(build(), Signature(0, periods), limit=1)[0]
    return QuasiplatonicSurface.from_vector(vec)


STATEMENT_COVERS = {
    **{f"gm:{m}": (lambda m=m: gm_bundle(m)[1]) for m in range(6, 17, 2)},
    "gm:12 (4,6,12)": lambda: _three_point_cover(lambda: gm_bundle(12)[0].group, (4, 6, 12)),
    "A5 (2,5,5)": lambda: _three_point_cover(alternating_5, (2, 5, 5)),
    "A5 (3,3,5)": lambda: _three_point_cover(alternating_5, (3, 3, 5)),
    "S4 (3,4,4)": s4_344_surface,
    "S5 (2,4,5)": lambda: _three_point_cover(symmetric_5, (2, 4, 5)),
    "PSL(2,7) (2,3,7)": lambda: _three_point_cover(psl_2_7, (2, 3, 7)),
    "C6 (2,2,3,3)": c6_exception_surface,
}


@pytest.mark.parametrize("name", list(STATEMENT_COVERS))
def test_statements_match_permutation_reference(name):
    """N_G(H)/H on element indices gives statements A and B exactly as the
    `Permutation` route did, evidence and search count included."""
    _statements_match_references(STATEMENT_COVERS[name]())


def test_statement_b_builds_one_group(monkeypatch):
    """Statement B builds N_G(H)/H and no other group: N_G(H) stays a
    `Subgroup` of G."""
    inst, X, _ = gm_bundle(8)
    H = inst.subgroup_b()
    built = []
    init = FiniteGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    res = check_statement_b(X, H)
    assert res.holds and res.quotient_signature is not None
    assert len(built) == 1 and built[0].order * H.order == X.group.normalizer(H).order


def test_statement_a_builds_no_group(monkeypatch):
    """Statement A reads G/H off G's classes and H's coset ids: on every
    normal proper non-trivial subgroup of gm:8 and S4 it builds no group."""
    cases = [(G, H) for G in (gm_bundle(8)[0].group, symmetric_4())
             for H in G.all_subgroups() if H.is_proper_nontrivial() and G.is_normal(H)]
    assert len(cases) > 3
    expected = [statement_a_reference(G, H) for G, H in cases]
    built = []
    init = FiniteGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    assert [check_statement_a(G, H) for G, H in cases] == expected
    assert built == []


def test_statement_b_genus_zero_quotient():
    inst, X, _ = gm_bundle(6)
    with pytest.raises(GenusZeroQuotient):
        check_statement_b(X, X.group.full_subgroup())


def test_statement_b_rejects_unbranched_quotient():
    # genus-1 quotient by a self-normalizing subgroup: the only induced group
    # is trivial, the quotient cover is unbranched, so no Belyi pair arises
    X = s4_344_surface()
    G = X.group
    s3 = G.subgroup_generated([Permutation([1, 0, 2, 3]), Permutation([0, 2, 1, 3])])
    assert quotient_surface(X, s3).genus == 1
    res = check_statement_b(X, s3)
    assert not res.holds


def test_relation_validation():
    inst, _, _ = gm_bundle(6)
    with pytest.raises(NotProperNontrivial):
        IsogenyRelation(1, ((inst.group.full_subgroup(), 1),))
    with pytest.raises(ValueError):
        IsogenyRelation(0, ((inst.subgroup_a(), 1),))


def test_verify_relation_family_case_b():
    for m in (8, 12):
        inst, X, T = gm_bundle(m)
        report = verify_isogeny_relation(X, T, known_subgroup_collection(inst))
        assert report.holds
        assert report.genus_lhs == report.genus_rhs == X.genus
        assert all(row.ok for row in report.rows)


def test_verify_relation_family_case_a_is_invisible():
    # JX ~ JY^2 is true for m = 2 mod 4, but not of group-algebra origin:
    # the complement of H^0(Y) in H^0(X) has no <a>-invariants, so the
    # isotypic-dimension identity cannot hold for the two-dimensional
    # constituents.  The genus identity still balances.
    inst, X, T = gm_bundle(6)
    report = verify_isogeny_relation(X, T, known_subgroup_collection(inst))
    assert not report.holds
    assert report.genus_lhs == report.genus_rhs == 4
    bad = [row for row in report.rows if not row.ok]
    assert bad and all(row.degree in (1, 2) for row in bad)


def test_verify_relation_undersized_collection():
    inst, X, T = gm_bundle(6)
    report = verify_isogeny_relation(X, T, IsogenyRelation(1, ((inst.subgroup_a(), 1),)))
    assert not report.holds
    assert report.genus_lhs == 4 and report.genus_rhs == 2


def test_streit_values_on_the_family():
    for m in (6, 8, 10, 12):
        _, X, T = gm_bundle(m)
        assert streit_test(X) == 0
        assert _spectra_streit_value(X, T) == 0


def test_streit_positive_cases():
    # a four-point cover moves in a one-parameter family
    X = c6_exception_surface()
    assert streit_test(X) == 1
    assert _spectra_streit_value(X, character_table(X.group)) == 1
    # six half-periods: a three-parameter family
    C2 = FiniteGroup.cyclic(2)
    s = C2.elements[1]
    Xh = QuasiplatonicSurface.from_vector(GeneratingVector(C2, (s,) * 6))
    assert streit_test(Xh) == 3
    assert _spectra_streit_value(Xh, character_table(C2)) == 3
    # rigid three-point cover that the symmetric-square test cannot settle
    Xs = s4_344_surface()
    assert streit_test(Xs) == 1
    assert _spectra_streit_value(Xs, character_table(Xs.group)) == 1


def test_streit_elliptic_rigid_cover():
    C4 = FiniteGroup.cyclic(4)
    s = C4.elements[1] if C4.elements[1].order() == 4 else C4.elements[2]
    vec = GeneratingVector(C4, (s * s, s, s))
    X = QuasiplatonicSurface.from_vector(vec)
    assert X.genus == 1
    assert streit_test(X) == 0
    assert _spectra_streit_value(X, character_table(C4)) == 0


def test_symmetric_square_of_trivial_character_sanity():
    from cmkit import inner_product, symmetric_square, trivial_character
    G = FiniteGroup.cyclic(3)
    value = inner_product(symmetric_square(trivial_character(G)), trivial_character(G))
    assert value.integer_value() == 1


@pytest.mark.parametrize("m", [6, 8, 16])
def test_cm_verdict_family(m):
    _, X, T = gm_bundle(m)
    verdict = cm_verdict(X, T)
    assert verdict.status == CM_CERTIFIED
    assert verdict.streit_value == 0
    assert reverify_verdict(X, T, verdict)


def test_cm_verdict_inconclusive_paths():
    # r > 3: the relation search is skipped and the verdict stays open
    C2 = FiniteGroup.cyclic(2)
    s = C2.elements[1]
    Xh = QuasiplatonicSurface.from_vector(GeneratingVector(C2, (s,) * 6))
    v = cm_verdict(Xh, character_table(C2))
    assert v.status == INCONCLUSIVE and v.streit_value == 3
    assert v.search_log and v.search_log[0]["stage"] == "skipped_search"
    # r = 3 with positive value and no certifiable collection
    Xs = s4_344_surface()
    v2 = cm_verdict(Xs, character_table(Xs.group), search_limit=300)
    assert v2.status == INCONCLUSIVE and v2.streit_value == 1
    assert any(e["stage"] == "collection" for e in v2.search_log)
    assert not reverify_verdict(Xs, character_table(Xs.group), v2)


def test_relation_search_certifies_gm8():
    # driven directly so the streit gate does not short-circuit the search
    inst, X, T = gm_bundle(8)
    log = []
    found = _search_certified_relation(X, T, 1000, log)
    assert found is not None
    relation, report, certificates = found
    assert report.holds
    assert sum(mult * quotient_surface(X, H).genus
               for H, mult in relation.factors) == relation.n * X.genus
    routes = {cert.route for cert in certificates}
    assert routes <= {"statement_A", "statement_B"}
    # the certificate re-checks from scratch
    for cert in certificates:
        if cert.route == "statement_A":
            assert check_statement_a(X.group, cert.subgroup).holds
        else:
            assert check_statement_b(X, cert.subgroup).holds


@pytest.mark.parametrize("m", [8, 12])
def test_relation_route_golden(m):
    """The certified relation, its certificates and the search log are
    byte-identical to the recorded ones: gm:8 certifies statement B with a
    cyclic K, gm:12 with a two-generator K."""
    _, X, T = gm_bundle(m)
    log = []
    relation, _, certificates = _search_certified_relation(X, T, 1000, log)
    payload = {"relation": relation_json(X, relation, certificates), "search_log": log}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert text.encode() == (GOLDEN / f"relation_gm{m}.json").read_bytes()


def test_search_respects_limit():
    inst, X, T = gm_bundle(8)
    log = []
    assert _search_certified_relation(X, T, 0, log) is None
    assert log == []


def _search_matches_reference(X, T, limit):
    """The search and `uncached_search_reference` return the same relation,
    report and certificates, evidence included, and write the same log."""
    log, reference_log = [], []
    found = _search_certified_relation(X, T, limit, log)
    assert found == uncached_search_reference(X, T, limit, reference_log)
    assert log == reference_log
    return found


RELATION_SEARCH_COVERS = {
    "S5 (2,4,5)": (symmetric_5, (2, 4, 5)),
    "A5 (2,5,5)": (alternating_5, (2, 5, 5)),
    "A5 (3,3,5)": (alternating_5, (3, 3, 5)),
    "A5 (3,5,5)": (alternating_5, (3, 5, 5)),
    "A5 (5,5,5)": (alternating_5, (5, 5, 5)),
    "S4 (3,4,4)": (symmetric_4, (3, 4, 4)),
    "gm:12 (4,6,12)": (lambda: gm_bundle(12)[0].group, (4, 6, 12)),
    "PSL(2,7) (3,3,4)": (psl_2_7, (3, 3, 4)),
    "PSL(2,7) (2,4,7)": (psl_2_7, (2, 4, 7)),
}


@pytest.mark.parametrize("name", list(RELATION_SEARCH_COVERS))
def test_search_matches_uncached_reference(name):
    """Answers read once per weight vector or class of subgroups give the
    search of one answer per subgroup, at the default limit of 1000."""
    X = _three_point_cover(*RELATION_SEARCH_COVERS[name])
    T = character_table(X.group)
    found = _search_matches_reference(X, T, 1000)
    assert (found is None) == (cm_verdict(X, T).status == INCONCLUSIVE)


@pytest.mark.parametrize("m", [8, 12])
def test_certified_search_matches_uncached_reference(m):
    """The searches behind `relation_gm8.json` and `relation_gm12.json`."""
    _, X, T = gm_bundle(m)
    assert _search_matches_reference(X, T, 1000) is not None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_surfaces())
def test_random_searches_match_uncached_reference(X):
    """Random three-point covers, every subgroup from the lattice."""
    assume(len(X.vector.entries) == 3)
    _search_matches_reference(X, character_table(X.group), 20)


def _count_calls(monkeypatch, names):
    """Wrap each named `cmkit.criteria` function to record its calls; the
    record of `quotient_surface` keeps only the calls made outside statement
    B and the identity check, which read their own genera."""
    calls = {name: [] for name in names}
    inside = []

    def wrap(name, original):
        def counted(*args):
            if name != "quotient_surface" or not inside:
                calls[name].append(args)
            inside.append(name)
            try:
                return original(*args)
            finally:
                inside.pop()
        return counted

    for name in names:
        monkeypatch.setattr(criteria, name, wrap(name, getattr(criteria, name)))
    return calls


def test_search_answers_once_per_weight_vector_and_class(monkeypatch):
    """A5 (2,5,5) at limit 5 tries five conjugates of one subgroup: one
    identity check, one statement A and one statement B, and one quotient
    genus per weight vector in the candidate filter."""
    X = _three_point_cover(alternating_5, (2, 5, 5))
    T = character_table(X.group)
    subgroups = [H for H in X.group.all_subgroups() if H.is_proper_nontrivial()]
    calls = _count_calls(monkeypatch, ("quotient_surface", "check_statement_a",
                                       "check_statement_b", "verify_isogeny_relation"))
    log = []
    assert _search_certified_relation(X, T, 5, log) is None
    assert [e["result"] for e in log] == ["factor_not_certified"] * 5
    assert len(calls["check_statement_a"]) == 1
    assert len(calls["check_statement_b"]) == 1
    assert len(calls["verify_isogeny_relation"]) == 1
    filtered = [H.class_weights() for _, H in calls["quotient_surface"]]
    assert len(filtered) == len(set(filtered)) == len({H.class_weights() for H in subgroups})


def test_search_without_class_numbers_certifies_each_subgroup(monkeypatch):
    """A subgroup that carries no class number gets no shared outcome: the
    five conjugates each run statement B, and the search is unchanged."""
    G = alternating_5.__wrapped__()  # a group of its own: its lattice is replaced
    X = _three_point_cover(lambda: G, (2, 5, 5))
    T = character_table(G)
    bare = tuple(Subgroup(G, H.indices, H._generator_indices()) for H in G.all_subgroups())
    monkeypatch.setattr(G, "all_subgroups", lambda: bare)
    calls = _count_calls(monkeypatch, ("check_statement_b",))
    _search_matches_reference(X, T, 5)
    assert len(calls["check_statement_b"]) == 5  # the reference binds its own names


def test_gassmann_pairs_are_certified_per_class(monkeypatch):
    """PSL(2,7)'s Gassmann pairs share class weights but are not conjugate,
    so each of their classes gets its own statement B outcome.  With every
    collection accepted, each singleton reaches certification."""
    X = _three_point_cover(psl_2_7, (3, 3, 4))
    T = character_table(X.group)
    candidates = [H for H in X.group.all_subgroups()
                  if H.is_proper_nontrivial() and quotient_surface(X, H).genus >= 1]
    monkeypatch.setattr(criteria, "_solve_multiplicities",
                        lambda degrees, columns, order: (1, (1,) * len(columns)))
    monkeypatch.setattr(criteria, "verify_isogeny_relation",
                        lambda X, T, R: RelationReport(True, R.n, (), (), 0, 0))
    calls = _count_calls(monkeypatch, ("check_statement_b",))
    log = []
    assert _search_certified_relation(X, T, len(candidates), log) is None
    assert len(log) == len(candidates)
    classes = {}
    for _, H in calls["check_statement_b"]:
        classes.setdefault(H.class_weights(), []).append(H._class)
    assert all(len(set(numbers)) == len(numbers) for numbers in classes.values())
    assert len(classes) == len({H.class_weights() for H in candidates})
    pairs = [numbers for numbers in classes.values() if len(numbers) > 1]
    assert pairs and all(len(numbers) == 2 for numbers in pairs)


def test_streit_is_conjugation_invariant():
    from cmkit import analytic_character, inner_product, symmetric_square, trivial_character
    for m in (6, 8):
        _, X, T = gm_bundle(m)
        value = streit_test(X)
        conj = analytic_character(X, T).conjugate()
        twin = inner_product(symmetric_square(conj), trivial_character(X.group))
        assert twin.integer_value() == value


def test_statement_a_quotient_is_a_belyi_cover():
    # a certified abelian quotient cover is branched over at most the three
    # base values, so it is itself a regular Belyi pair
    for m in (6, 8, 12):
        inst, X, _ = gm_bundle(m)
        res = check_statement_a(X.group, inst.subgroup_a())
        assert res.holds
        q = quotient_surface(X, inst.subgroup_a())
        branch_values = sum(1 for _, lengths in q.branch_data if any(l > 1 for l in lengths))
        assert branch_values <= len(X.vector.entries) == 3


def test_verify_rejects_foreign_objects():
    from cmkit import GroupMismatch
    inst6, X6, T6 = gm_bundle(6)
    inst8, X8, T8 = gm_bundle(8)
    with pytest.raises(GroupMismatch):
        verify_isogeny_relation(X6, T8, known_subgroup_collection(inst6))
    with pytest.raises(GroupMismatch):
        verify_isogeny_relation(X6, T6, known_subgroup_collection(inst8))


@pytest.mark.parametrize("n", range(0, 9))
def test_collections_come_lazily_in_sorted_order(n):
    """The best-first enumeration yields every size's subsets in the order of
    sorted(combinations(...), key=(total weight, tuple)), ties included."""
    rng = random.Random(n)
    for size in range(1, n + 2):
        weights = sorted(rng.randrange(1, 5) for _ in range(n))
        expected = sorted(combinations(range(n), size),
                          key=lambda c: (sum(weights[i] for i in c), c))
        assert list(_combinations_by_weight(weights, size)) == expected


def test_cm_verdict_builds_the_table_only_for_a_positive_value(monkeypatch):
    import cmkit.criteria

    def no_table(G):
        raise AssertionError("character table built")

    _, X, T = gm_bundle(8)
    monkeypatch.setattr(cmkit.criteria, "character_table", no_table)
    assert cm_verdict(X).certified
    Xs = s4_344_surface()
    with pytest.raises(AssertionError, match="character table built"):
        cm_verdict(Xs, search_limit=5)
    monkeypatch.undo()
    assert cm_verdict(Xs, search_limit=5) == cm_verdict(Xs, character_table(Xs.group),
                                                         search_limit=5)


DOCTORED_SUMS = """
from cmkit import InternalCheckFailed, NonIntegralResult, QuasiplatonicSurface
from cmkit.criteria import _eichler_values, _streit_value
from cmkit.cyclotomic import exact_quotient
from cmkit.gmfamily import build_gm, canonical_vector

n, e = 4, 4  # the order and exponent of a cyclic group of order 4
for name, quadratic in (("not a multiple", [2 * n + 1] + [0] * (e - 1)),
                        ("not rational", [0, 2 * n] + [0] * (e - 2)),
                        ("negative", [-2 * n] + [0] * (e - 1))):
    try:
        exact_quotient(quadratic, 2 * n, "symmetric-square sum")
    except NonIntegralResult as ex:
        print(name, "rejected:", type(ex).__name__)
    else:
        print(name, "accepted")

X = QuasiplatonicSurface.from_vector(canonical_vector(build_gm(8)))
scale, values = _eichler_values(X)
invariants = [list(v) for v in values]
# one more invariant differential: <chi_a, 1> exceeds the orbit genus by one
invariants[1][0] += scale * X.group.order // X.group.conjugacy_classes()[1].size
degree = [list(v) for v in values]
degree[0] = [scale * (X.genus + 1)]
for name, doctored in (("invariants", invariants), ("degree", degree)):
    try:
        _streit_value(X, scale, doctored, doctored)
    except (InternalCheckFailed, NonIntegralResult) as ex:
        print(name, "rejected:", type(ex).__name__)
    else:
        print(name, "accepted")
"""


def test_streit_checks_survive_optimize():
    """A doctored class sum or degree is rejected by raises, not asserts."""
    assert run_optimized("-c", DOCTORED_SUMS).splitlines() == [
        "not a multiple rejected: NonIntegralResult",
        "not rational rejected: NonIntegralResult",
        "negative rejected: NonIntegralResult",
        "invariants rejected: InternalCheckFailed",
        "degree rejected: InternalCheckFailed",
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_surfaces())
def test_random_surfaces_agree_on_the_streit_value(X):
    """Exact Eichler, table spectra, `Cyclotomic` and float Eichler values
    agree, every certified verdict re-verifies, and statements A and B
    match the `Permutation` route."""
    if X.genus < 1:
        with pytest.raises(ValueError):
            streit_test(X)
        return
    T = character_table(X.group)
    value = streit_test(X)
    assert _spectra_streit_value(X, T) == value
    cyclotomic = inner_product(symmetric_square(analytic_character(X, T)),
                               trivial_character(X.group))
    assert cyclotomic == Cyclotomic.rational(value)
    oracle = eichler_streit_value([g.images for g in X.vector.entries])
    assert abs(oracle - value) < 1e-9
    verdict = cm_verdict(X, T, search_limit=20)
    assert verdict.streit_value == value
    assert reverify_verdict(X, T, verdict) == verdict.certified
    _statements_match_references(X)
