"""Acceptance suite: one test per criterion, one printed verdict line each.

All cmkit arithmetic is exact, so every comparison of its outputs is
equality; the only tolerances are the two wall-clock budgets and the 1e-9
by which criterion 6's floating-point oracle must sit on an integer.  Run
with `pytest -s tests/test_acceptance.py` to see the verdict lines as they
print.

Criteria 3 and 6 assert what exact computation shows, not the reference
expectations they once carried:
  * criterion 3 for m = 2 mod 4: the squared-quotient relation JX ~ JY_a^2
    is true but not of group-algebra origin, so the isotypic-dimension
    verifier declines it.  The test checks every row's fixed dimension
    against (chi(1) + chi(a)) / 2 read from the table, and that the report
    does not hold; for m = 0 mod 4 the relation must hold.
  * criterion 6: the symmetric-square value is exactly zero on the whole
    family, m = 0 mod 4 included.  Each value is checked against an
    Eichler-trace-formula oracle in tests/conftest.py that uses neither the
    character table nor cyclotomic arithmetic, and a (4,6,12) cover of
    gm:12, where the value is 1, keeps the test able to tell values apart.
"""

import random
import time
from fractions import Fraction

from cmkit import (
    CM_CERTIFIED,
    Cyclotomic,
    FiniteGroup,
    GeneratingVector,
    QuasiplatonicSurface,
    Signature,
    analytic_character,
    build_gm,
    canonical_vector,
    character_table,
    check_statement_a,
    check_statement_b,
    chevalley_weil_multiplicities,
    cm_verdict,
    find_generating_vectors,
    fixed_space_dimension,
    galois_quotient_signature,
    genus_from_vector,
    inner_product,
    known_subgroup_collection,
    quotient_surface,
    reverify_verdict,
    streit_test,
    verify_isogeny_relation,
)
from cmkit.criteria import _spectra_streit_value
from conftest import eichler_streit_value, gm_bundle

ALL_M = list(range(6, 22, 2))


def _report(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"[acceptance] criterion {number} ({name}): {status}"
    if failures:
        line += " - " + "; ".join(failures)
    print(line)
    assert not failures, line


def test_criterion_1_genus_regression():
    failures = []
    start = time.monotonic()
    for m in ALL_M:
        inst = build_gm(m)
        vector = canonical_vector(inst)
        expected_genus = m - 2 if m % 4 == 2 else m - 3
        expected_periods = (2, m, 2 * m) if m % 4 == 2 else (2, m, m)
        if vector.periods != expected_periods:
            failures.append(f"m={m}: periods {vector.periods}")
        if genus_from_vector(vector) != expected_genus:
            failures.append(f"m={m}: genus {genus_from_vector(vector)}")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(1, "genus regression", failures)


def test_criterion_2_quotient_genera_both_methods():
    failures = []
    for m in ALL_M:
        inst, X, T = gm_bundle(m)
        chi_a = analytic_character(X, T)
        pairs = [(inst.subgroup_a(), m // 2 - 1, "g_Y")]
        if m % 4 == 0:
            pairs.append((inst.subgroup_b(), m // 4 - 1, "g_Z"))
        for H, expected, label in pairs:
            by_cycles = quotient_surface(X, H).genus
            by_character = fixed_space_dimension(chi_a, H)
            if not (by_cycles == by_character == expected):
                failures.append(
                    f"m={m} {label}: cycles={by_cycles} character={by_character} "
                    f"expected={expected}")
    _report(2, "quotient genera, dual method", failures)


def test_criterion_3_isogeny_relations():
    failures = []
    for m in ALL_M:
        inst, X, T = gm_bundle(m)
        relation = known_subgroup_collection(inst)
        report = verify_isogeny_relation(X, T, relation)
        if report.genus_lhs != report.genus_rhs:
            failures.append(f"m={m}: genus identity {report.genus_lhs} != {report.genus_rhs}")
        if m % 4 == 0:
            if not report.holds:
                failures.append(f"m={m}: relation not verified")
            continue
        # JX ~ JY_a^2 is true but not of group-algebra origin.  a is central
        # and generates G', so V^<a> has dimension (chi(1) + chi(a)) / 2:
        # 1 on the linear constituents of H^1 (1 != 2*1) and 0 on the
        # two-dimensional ones (2 != 2*0).  No row identity can hold.
        for row in report.rows:
            chi = T.irreducibles[row.index]
            predicted = Fraction(chi.degree + chi.value_at(inst.a).integer_value(), 2)
            if row.factor_dimensions != (predicted,):
                failures.append(
                    f"m={m} irreducible {row.index}: fixed dimension "
                    f"{row.factor_dimensions} != ({predicted},)")
        if report.holds:
            failures.append(f"m={m}: relation certified without a row identity")
    _report(3, "isogeny relations", failures)


def test_criterion_4_statement_a_path():
    failures = []
    for m in ALL_M:
        inst, _, _ = gm_bundle(m)
        res = check_statement_a(inst.group, inst.subgroup_a())
        if not (res.holds and res.quotient_order == 2 * m and res.quotient_abelian):
            failures.append(f"m={m}: {res}")
    _report(4, "statement A path", failures)


def test_criterion_5_statement_b_path():
    failures = []
    for m in (8, 12, 16, 20):
        inst, X, _ = gm_bundle(m)
        Hb = inst.subgroup_b()
        g_z = quotient_surface(X, Hb).genus
        res = check_statement_b(X, Hb)
        if not res.holds or res.group_order != 2 * (m // 2):
            failures.append(f"m={m}: K order {res.group_order}")
        if not res.group_order > 4 * (g_z - 1):
            failures.append(f"m={m}: bound not strict")
        N = X.group.normalizer(Hb)
        sig = galois_quotient_signature(X, Hb, N)
        if sig.periods != (2, m // 2, m // 2) or sig.orbit_genus != 0:
            failures.append(f"m={m}: signature {sig}")
    _report(5, "statement B path", failures)


def test_criterion_6_streit_split():
    failures = []

    def check(label, X, T, expected):
        value = streit_test(X)
        oracle = eichler_streit_value([g.images for g in X.vector.entries])
        nearest = round(oracle.real)
        if abs(oracle - nearest) >= 1e-9 or value != nearest:
            failures.append(f"{label}: value {value}, Eichler oracle {oracle}")
        spectra_value = _spectra_streit_value(X, T)
        if spectra_value != value:
            failures.append(f"{label}: value {value}, from the table's spectra {spectra_value}")
        if value != expected:
            failures.append(f"{label}: value {value} != {expected}")

    for m in (6, 8, 10, 12, 14, 16):
        _, X, T = gm_bundle(m)
        check(f"m={m}", X, T, 0)
    # positive control on the same group: a rigid cover the test cannot settle
    inst, _, T = gm_bundle(12)
    vector = find_generating_vectors(inst.group, Signature(0, (4, 6, 12)), limit=1)[0]
    check("gm:12 (4,6,12)", QuasiplatonicSurface.from_vector(vector), T, 1)
    _report(6, "streit split", failures)


def test_criterion_7_end_to_end_theorem():
    failures = []
    start = time.monotonic()
    for m in ALL_M:
        inst = build_gm(m)
        X = QuasiplatonicSurface.from_vector(canonical_vector(inst))
        T = character_table(inst.group)
        verdict = cm_verdict(X, T)
        if verdict.status != CM_CERTIFIED:
            failures.append(f"m={m}: {verdict.status}")
        elif not reverify_verdict(X, T, verdict):
            failures.append(f"m={m}: certificate did not re-verify")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(7, "end-to-end theorem reproduction", failures)


def test_criterion_8_property_suites():
    failures = []
    one = Cyclotomic.one()
    zero = Cyclotomic.zero()

    # character tables of every constructed group: exact orthogonality and
    # the degree-sum identity
    for m in ALL_M:
        inst, X, T = gm_bundle(m)
        if sum(d * d for d in T.degrees()) != inst.group.order:
            failures.append(f"m={m}: degree sum")
        irr = T.irreducibles
        for i in range(len(irr)):
            for j in range(i, len(irr)):
                expected = one if i == j else zero
                if inner_product(irr[i], irr[j]) != expected:
                    failures.append(f"m={m}: orthogonality ({i},{j})")
                    break

        mults = chevalley_weil_multiplicities(X, T)
        if sum(n * chi.degree for n, chi in zip(mults, irr)) != X.genus:
            failures.append(f"m={m}: multiplicity sum")
        if mults[T.trivial_index] != 0:
            failures.append(f"m={m}: trivial multiplicity")

    # conjugation invariance of the multiplicities
    rng = random.Random(5)
    inst, X, T = gm_bundle(8)
    base = chevalley_weil_multiplicities(X, T)
    for _ in range(3):
        h = rng.choice(X.group.elements)
        Xc = QuasiplatonicSurface.from_vector(X.vector.conjugate_by(h))
        if chevalley_weil_multiplicities(Xc, T) != base:
            failures.append("conjugation invariance")
            break

    # double-cover oracle: the non-trivial character carries the full genus
    C2 = FiniteGroup.cyclic(2)
    involution = C2.elements[1]
    T2 = character_table(C2)
    for half_periods, genus in ((6, 2), (8, 3)):
        Xh = QuasiplatonicSurface.from_vector(GeneratingVector(C2, (involution,) * half_periods))
        mults = chevalley_weil_multiplicities(Xh, T2)
        if Xh.genus != genus or mults[1 - T2.trivial_index] != genus:
            failures.append(f"double cover with {half_periods} branch points")

    # the exceptional configuration: genus 2, accepted with the exception flag
    C6 = FiniteGroup.cyclic(6)
    vec = find_generating_vectors(C6, Signature(0, (2, 2, 3, 3)), limit=1)[0]
    Xe = QuasiplatonicSurface.from_vector(vec)
    if Xe.genus != 2:
        failures.append("exceptional surface genus")
    res = check_statement_b(Xe, C6.trivial_subgroup())
    if not (res.holds and res.exception_matched):
        failures.append("exception branch not taken")

    _report(8, "property suites", failures)
