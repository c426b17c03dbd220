import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from cmkit import (
    FiniteGroup,
    GeneratingVector,
    InconsistentRamification,
    NegativeGenus,
    NonIntegerGenus,
    NonIntegralMultiplicity,
    NotNormalInN,
    Permutation,
    QuasiplatonicSurface,
    Signature,
    Subgroup,
    SubgroupMismatch,
    analytic_character,
    chevalley_weil_multiplicities,
    find_generating_vectors,
    fixed_space_dimension,
    galois_quotient_signature,
    genus_from_branch_data,
    genus_from_vector,
    character_table,
    cm_verdict,
    quotient_surface,
    streit_test,
)
from cmkit.chartable import CharacterTable
from cmkit.criteria import _eichler_values, _invariant_genus
from conftest import (
    alternating_5,
    cyclic_7_squared,
    cyclotomic_cw_reference,
    gm_bundle,
    klein_4,
    permutation_galois_reference,
    permutation_quotient_reference,
    psl_2_7,
    random_surfaces,
    run_optimized,
    spectrum_coefficients,
    symmetric_4,
    symmetric_5,
)


def hyperelliptic(half_periods):
    C2 = FiniteGroup.cyclic(2)
    s = C2.elements[1]
    return QuasiplatonicSurface.from_vector(GeneratingVector(C2, (s,) * half_periods))


def test_signature_sorting_and_validation():
    sig = Signature(0, (12, 2, 6))
    assert sig.periods == (2, 6, 12)
    with pytest.raises(ValueError):
        Signature(0, (1, 2))


def test_generating_vector_validation(v4):
    a, b = v4.generators
    v = GeneratingVector(v4, (a, b, a * b))
    assert v.periods == (2, 2, 2)
    with pytest.raises(ValueError):
        GeneratingVector(v4, (a, a, b))  # product is b, not the identity
    with pytest.raises(ValueError):
        GeneratingVector(v4, (a, a))  # generates only <a>


def test_vector_search_needs_two_entries():
    for periods in ((5,), ()):
        with pytest.raises(ValueError, match="at least two entries"):
            find_generating_vectors(alternating_5(), Signature(0, periods))


def test_genus_examples():
    inst6, X6, _ = gm_bundle(6)
    assert X6.genus == 6 - 2
    inst8, X8, _ = gm_bundle(8)
    assert X8.genus == 8 - 3
    assert genus_from_branch_data(6, (2, 2, 3, 3)) == 2


def test_genus_error_traps():
    with pytest.raises(NegativeGenus):
        genus_from_branch_data(4, (2, 2))
    with pytest.raises(NonIntegerGenus):
        genus_from_branch_data(5, (2, 2, 2))


def test_find_generating_vectors_examples(v4):
    assert find_generating_vectors(v4, Signature(0, (2, 2, 2)), limit=5)
    C3 = FiniteGroup.cyclic(3)
    found = find_generating_vectors(C3, Signature(0, (3, 3, 3)), limit=10)
    assert found and all(v.periods == (3, 3, 3) for v in found)
    inst, _, _ = gm_bundle(6)
    assert find_generating_vectors(inst.group, Signature(0, (2, 6, 12)), limit=1)
    # impossible signature comes back empty
    assert find_generating_vectors(C3, Signature(0, (2, 3, 3)), limit=1) == []


def test_quotient_surface_examples():
    inst, X, _ = gm_bundle(6)
    assert quotient_surface(X, inst.subgroup_a()).genus == 6 // 2 - 1
    assert quotient_surface(X, X.group.trivial_subgroup()).genus == X.genus
    assert quotient_surface(X, X.group.full_subgroup()).genus == 0
    inst8, X8, _ = gm_bundle(8)
    assert quotient_surface(X8, inst8.subgroup_b()).genus == 8 // 4 - 1
    with pytest.raises(SubgroupMismatch):
        quotient_surface(X8, inst.subgroup_a())


def test_quotient_branch_data_riemann_hurwitz():
    inst, X, _ = gm_bundle(8)
    for H in X.group.all_subgroups():
        q = quotient_surface(X, H)
        n = H.index
        ramification = sum(sum(l - 1 for l in lengths) for _, lengths in q.branch_data)
        assert 2 * q.genus - 2 == -2 * n + ramification
        for period, lengths in q.branch_data:
            assert sum(lengths) == n
            assert all(period % l == 0 for l in lengths)


def test_galois_quotient_signature_examples():
    inst, X, _ = gm_bundle(8)
    Hb = inst.subgroup_b()
    N = X.group.normalizer(Hb)
    assert galois_quotient_signature(X, Hb, N) == Signature(0, (2, 4, 4))
    # degree-one cover has no periods
    assert galois_quotient_signature(X, Hb, Hb).periods == ()
    # recovering the defining signature from the full cover
    assert galois_quotient_signature(X, X.group.trivial_subgroup(),
                                     X.group.full_subgroup()) == X.signature


def test_galois_quotient_signature_m12():
    inst, X, _ = gm_bundle(12)
    Hb = inst.subgroup_b()
    N = X.group.normalizer(Hb)
    assert galois_quotient_signature(X, Hb, N) == Signature(0, (2, 6, 6))


def test_galois_quotient_requires_normality():
    inst, X, _ = gm_bundle(8)
    Hb = inst.subgroup_b()
    with pytest.raises(NotNormalInN):
        galois_quotient_signature(X, Hb, X.group.full_subgroup())
    with pytest.raises(SubgroupMismatch, match="H is not contained in N"):
        galois_quotient_signature(X, Hb, X.group.trivial_subgroup())


def test_chevalley_weil_basic_identities():
    for m in (6, 8, 10):
        inst, X, T = gm_bundle(m)
        mults = chevalley_weil_multiplicities(X, T)
        assert mults[T.trivial_index] == 0
        assert sum(n * chi.degree for n, chi in zip(mults, T.irreducibles)) == X.genus
        # Serre duality: H^0 plus its conjugate has dimension 2g
        total = sum((mults[i] + mults[T.conjugate_index(i)]) * T.irreducibles[i].degree
                    for i in range(len(mults)))
        assert total == 2 * X.genus


def test_chevalley_weil_hyperelliptic_oracle():
    from cmkit import character_table
    # genus 2 and 3 double covers: the sign character soaks up everything
    for half_periods, genus in ((6, 2), (8, 3)):
        X = hyperelliptic(half_periods)
        assert X.genus == genus
        T = character_table(X.group)
        mults = chevalley_weil_multiplicities(X, T)
        sign_index = 1 - T.trivial_index
        assert mults[sign_index] == genus
        assert mults[T.trivial_index] == 0


def test_chevalley_weil_conjugation_invariance():
    inst, X, T = gm_bundle(8)
    base = chevalley_weil_multiplicities(X, T)
    rng = random.Random(11)
    for _ in range(4):
        h = rng.choice(X.group.elements)
        Xc = QuasiplatonicSurface.from_vector(X.vector.conjugate_by(h))
        assert chevalley_weil_multiplicities(Xc, T) == base


def test_chevalley_weil_reports_a_non_integral_or_negative_multiplicity():
    """On C3 with (a, a^2, a, a^2), genus 2, a doctored row reading (0, 0, 1)
    at both classes gets 4 * 1/3 - 1 = 1/3 from the branch points, and one
    reading (0, 0, 0) gets -1; each error names the exact multiplicity."""
    G = FiniteGroup.cyclic(3)
    a = next(g for g in G.elements if not g.is_identity())
    X = QuasiplatonicSurface.from_vector(GeneratingVector(G, (a, a * a, a, a * a)))
    assert X.genus == 2
    T = character_table(G)
    i = (T.trivial_index + 1) % 3
    for spectrum, text in (((0, 0, 1), "1/3"), ((0, 0, 0), "-1")):
        spectra = list(T.spectra)
        spectra[i] = ((1,), spectrum, spectrum)
        with pytest.raises(NonIntegralMultiplicity,
                           match=f"^multiplicity {text} for irreducible {i}$"):
            chevalley_weil_multiplicities(X, CharacterTable(G, tuple(spectra)))


COVERS = {
    "A5": (alternating_5, [(2, 5, 5), (3, 3, 5), (5, 5, 5)]),
    "S5": (symmetric_5, [(2, 4, 5)]),
    "S4": (symmetric_4, [(3, 4, 4)]),
    "PSL(2,7)": (psl_2_7, [(2, 3, 7), (3, 3, 4)]),
}


def _cw_cases(source):
    if source.startswith("gm:"):
        _, X, T = gm_bundle(int(source[3:]))
        return T, [X]
    build, signatures = COVERS[source]
    G = build()
    surfaces = [QuasiplatonicSurface.from_vector(v)
                for periods in signatures
                for v in find_generating_vectors(G, Signature(0, periods), limit=4)]
    return character_table(G), surfaces


@pytest.mark.parametrize("source", [f"gm:{m}" for m in range(6, 21, 2)] + list(COVERS))
def test_chevalley_weil_spectra_match_cyclotomic_reference(source):
    T, surfaces = _cw_cases(source)
    assert surfaces
    for X in surfaces:
        assert chevalley_weil_multiplicities(X, T) == cyclotomic_cw_reference(X, T)
    e = T.group.exponent()
    orders = [cls.order for cls in T.group.conjugacy_classes()]
    vectors = T.value_vectors()
    for spectra in T.spectra:
        for o, spectrum in zip(orders, spectra):
            assert len(spectrum) == o and all(type(m) is int for m in spectrum)
            assert vectors[spectrum] == spectrum_coefficients(e, spectrum)


@pytest.mark.parametrize("source", [f"gm:{m}" for m in range(6, 17, 2)] + list(COVERS))
def test_quotients_match_permutation_reference(source):
    """Class weights (genus, branch data, normality) and coset numbering on
    indices (normalizer, Galois signature) against Permutation coset actions,
    for every subgroup H and each pair (H, N_G(H)), on the first vector of
    each signature."""
    if source.startswith("gm:"):
        X = gm_bundle(int(source[3:]))[1]
        surfaces = [X]
    else:
        build, signatures = COVERS[source]
        G = build()
        surfaces = [QuasiplatonicSurface.from_vector(
            find_generating_vectors(G, Signature(0, periods))[0]) for periods in signatures]
    G = surfaces[0].group
    for H in G.all_subgroups():
        N = G.normalizer(H)
        assert {x for x in G.elements
                if all(x * h * x.inverse() in H for h in H.elements)} == N.element_set
        assert G.is_normal(H) == (N.order == G.order)
        for X in surfaces:
            q = quotient_surface(X, H)
            assert (q.genus, q.branch_data) == permutation_quotient_reference(X, H)
            sig = galois_quotient_signature(X, H, N)
            assert (sig.orbit_genus, sig.periods) == permutation_galois_reference(X, H, N)


@pytest.mark.parametrize("source", [f"gm:{m}" for m in range(6, 17, 2)] + list(COVERS))
def test_galois_signatures_match_permutation_reference_below_normalizer(source):
    """The Galois signature of X/H -> X/K against the `Permutation` route for
    every K with H normal in K <= N_G(H), the preimages statement B passes."""
    if source.startswith("gm:"):
        surfaces = [gm_bundle(int(source[3:]))[1]]
    else:
        build, signatures = COVERS[source]
        G = build()
        surfaces = [QuasiplatonicSurface.from_vector(
            find_generating_vectors(G, Signature(0, periods))[0]) for periods in signatures]
    G = surfaces[0].group
    subgroups = G.all_subgroups()
    for H in subgroups:
        inside = set(G.normalizer(H).indices)
        for K in subgroups:
            if set(H.indices) <= set(K.indices) <= inside:
                for X in surfaces:
                    sig = galois_quotient_signature(X, H, K)
                    assert (sig.orbit_genus, sig.periods) == permutation_galois_reference(X, H, K)


@pytest.mark.parametrize("build, periods", [(psl_2_7, (2, 3, 7)), (cyclic_7_squared, (7, 7, 7))],
                         ids=["PSL(2,7)", "C7xC7"])
def test_fixed_covers_quotients_match_permutation_reference(build, periods):
    """Genus and branch data from class weights against Permutation coset
    actions, for every subgroup of PSL(2,7) with (2,3,7) and of C7 x C7 with
    (7,7,7), the Fermat septic, on up to four vectors each."""
    G = build()
    vectors = find_generating_vectors(G, Signature(0, periods), limit=4)
    assert vectors
    for v in vectors:
        X = QuasiplatonicSurface.from_vector(v)
        for H in G.all_subgroups():
            q = quotient_surface(X, H)
            assert (q.genus, q.branch_data) == permutation_quotient_reference(X, H)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_surfaces())
def test_random_quotients_match_permutation_reference(X):
    """Random 3- and 4-point vectors: genus and branch data of X/H from class
    weights against Permutation coset actions, for every subgroup H."""
    for H in X.group.all_subgroups():
        q = quotient_surface(X, H)
        assert (q.genus, q.branch_data) == permutation_quotient_reference(X, H)


DOCTORED_WEIGHTS = """
import contextlib, io, json
from cmkit import (InternalCheckFailed, QuasiplatonicSurface, Signature, Subgroup,
                   find_generating_vectors, quotient_surface)
from cmkit.cli import main
from conftest import alternating_5, move_one_class_weight

G = alternating_5()
X = QuasiplatonicSurface.from_vector(find_generating_vectors(G, Signature(0, (2, 5, 5)))[0])
H = G.subgroup_generated([G.elements[X.vector.indices[1]]])
print(H.order, quotient_surface(X, H).branch_data)
Subgroup.class_weights = move_one_class_weight(Subgroup.class_weights)
try:
    quotient_surface(X, H)
except InternalCheckFailed as ex:
    print("rejected:", ex)
else:
    print("accepted")
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["quotients", "golden/a5_group.json", "--vector",
                 "g0^2*g1,g0,g0^-1*g1^-1*g0^-2"])
print(code, out.getvalue().strip())
"""


def test_doctored_class_weights_are_rejected_under_optimize():
    """With one element of an order-5 subgroup of A5 counted in the other
    class of order 5, the cosets on 5-cycles are no multiple of 5:
    `quotient_surface` raises `InternalCheckFailed` under `python -O`, and
    `cmkit quotients` exits 3 with `internal_check_failed`."""
    lines = run_optimized("-c", DOCTORED_WEIGHTS, cwd=Path(__file__).parent).splitlines()
    assert lines[:2] == ["5 ((2, (2, 2, 2, 2, 2, 2)), (5, (5, 5, 1, 1)), (5, (5, 5, 1, 1)))",
                         "rejected: 9 cosets on cycles of length 5"]
    code, payload = lines[2].split(" ", 1)
    assert code == "3"
    assert json.loads(payload) == {"error": "internal_check_failed",
                                   "detail": "11 cosets on cycles of length 5"}


def test_galois_signature_checks_that_each_cycle_closes_in_n(monkeypatch):
    """A coset action that fixes a coset g moves is caught: y = x^-1 g x is
    then not in N, and the signature raises rather than read a period."""
    inst, X, _ = gm_bundle(8)
    H = inst.subgroup_b()
    N = X.group.normalizer(H)
    assert galois_quotient_signature(X, H, N) == Signature(0, (2, 4, 4))
    monkeypatch.setattr(Subgroup, "action_on_cosets", lambda self, i: list(range(self.index)))
    with pytest.raises(InconsistentRamification, match="does not close in N"):
        galois_quotient_signature(X, H, N)


def _refuse(*args, **kwargs):
    raise AssertionError("Permutation or element lookup after the surface was built")


def test_surface_layers_read_the_vector_indices(monkeypatch):
    """Once a surface is built, quotient genera, Galois signatures,
    Chevalley-Weil, the Streit value and a bounded verdict read the vector's
    element indices and periods: with `Permutation.order`, `__mul__` and the
    group's element and class lookups refused, each gives what it gives
    unpatched."""
    surfaces = [gm_bundle(8)[1]] + [
        QuasiplatonicSurface.from_vector(find_generating_vectors(build(), Signature(0, periods))[0])
        for build, periods in ((alternating_5, (2, 5, 5)), (symmetric_4, (3, 4, 4)))]

    def results(X, T):
        G = X.group
        quotients = [quotient_surface(X, H) for H in G.all_subgroups()]
        galois = [galois_quotient_signature(X, H, G.normalizer(H)) for H in G.all_subgroups()]
        return ([(q.genus, q.branch_data) for q in quotients], galois,
                chevalley_weil_multiplicities(X, T), streit_test(X),
                cm_verdict(X, T, search_limit=5))

    for X in surfaces:
        T = character_table(X.group)
        expected = results(X, T)
        T._cache.clear()  # Chevalley-Weil and the fixed dimensions are cached per table
        with monkeypatch.context() as m:
            m.setattr(Permutation, "order", _refuse)
            m.setattr(Permutation, "__mul__", _refuse)
            m.setattr(FiniteGroup, "index_of", _refuse)
            m.setattr(FiniteGroup, "class_index", _refuse)
            assert results(X, T) == expected


def test_analytic_character_degree_and_quotient():
    inst, X, T = gm_bundle(6)
    chi_a = analytic_character(X, T)
    assert chi_a.degree == X.genus == 4
    assert fixed_space_dimension(chi_a, X.group.full_subgroup()) == 0
    inst8, X8, T8 = gm_bundle(8)
    assert analytic_character(X8, T8).degree == 5


@pytest.mark.parametrize("m", [6, 8, 10, 12])
def test_dual_method_genus_for_every_subgroup(m):
    # cycle counting and the fixed space of the analytic character must agree
    inst, X, T = gm_bundle(m)
    chi_a = analytic_character(X, T)
    for H in X.group.all_subgroups():
        assert quotient_surface(X, H).genus == fixed_space_dimension(chi_a, H)


def test_genus_from_vector_matches_surface():
    inst, X, _ = gm_bundle(10)
    assert genus_from_vector(X.vector) == X.genus == 8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_surfaces())
def test_random_surfaces_agree_on_class_sums(X):
    """The spectra route and the `Cyclotomic` oracle agree on random
    surfaces: fixed-space dimensions of every irreducible for every
    subgroup, the character genus against cycle counting, conjugate rows,
    and Chevalley-Weil; the Eichler genus of every quotient is its cycle-
    counting genus."""
    T = character_table(X.group)
    scale, values = _eichler_values(X)
    mults = chevalley_weil_multiplicities(X, T)
    assert mults == cyclotomic_cw_reference(X, T)
    for i, chi in enumerate(T.irreducibles):
        conj = chi.conjugate()
        assert [psi == conj for psi in T.irreducibles] == [
            j == T.conjugate_index(i) for j in range(len(T))]
    for H in X.group.all_subgroups():
        dims = T.fixed_dimensions(H)
        assert list(dims) == [fixed_space_dimension(chi, H) for chi in T.irreducibles]
        assert sum(m * d for m, d in zip(mults, dims)) == quotient_surface(X, H).genus
        assert _invariant_genus(scale, values, H) == quotient_surface(X, H).genus
