"""Quotient surfaces two ways, and the per-factor certificates.

The genus of X/H is computed once by counting cycles of the coset action,
read off H's class weights (Riemann-Hurwitz), and once as the fixed-space
dimension of the analytic character; the two must agree exactly for every
subgroup.  The same data
feeds the two per-factor tests: a normal subgroup with abelian quotient,
or a large abelian automorphism group of the quotient surface.
"""

from cmkit import (
    FiniteGroup,
    QuasiplatonicSurface,
    Signature,
    analytic_character,
    build_gm,
    canonical_vector,
    character_table,
    check_statement_a,
    check_statement_b,
    find_generating_vectors,
    fixed_space_dimension,
    galois_quotient_signature,
    known_subgroup_collection,
    quotient_surface,
    verify_isogeny_relation,
)

inst = build_gm(8)
X = QuasiplatonicSurface.from_vector(canonical_vector(inst))
T = character_table(inst.group)
chi_a = analytic_character(X, T)

print(f"surface: genus {X.genus}, signature {X.signature.periods}, group order {X.group.order}")
print(f"{'|H|':>4} {'index':>5} {'genus (cycles)':>14} {'genus (character)':>17}")
for H in X.group.all_subgroups():
    by_cycles = quotient_surface(X, H).genus
    by_character = fixed_space_dimension(chi_a, H)
    assert by_cycles == by_character
    print(f"{H.order:>4} {H.index:>5} {by_cycles:>14} {by_character:>17}")

print()
a_res = check_statement_a(X.group, inst.subgroup_a())
print(f"abelian quotient route for <a>: holds={a_res.holds}, "
      f"quotient of order {a_res.quotient_order} with invariants {a_res.abelian_invariants}")

b_res = check_statement_b(X, inst.subgroup_b())
print(f"large abelian route for <b>:   holds={b_res.holds}, |K|={b_res.group_order} "
      f"> bound {b_res.bound}, quotient cover branched {b_res.quotient_signature.periods}")

N = X.group.normalizer(inst.subgroup_b())
sig = galois_quotient_signature(X, inst.subgroup_b(), N)
print(f"Galois cover X/<b> -> X/N:     signature {sig.periods} over genus {sig.orbit_genus}")

relation = known_subgroup_collection(inst)
report = verify_isogeny_relation(X, T, relation)
print(f"decomposition JX ~ JY x JZ^2:  verified={report.holds} "
      f"(genus identity {report.genus_lhs} = {report.genus_rhs})")

print()
# the one exceptional configuration of the large-abelian classification:
# a cyclic group of order six acting on a genus-2 surface with four branch
# values 2,2,3,3
C6 = FiniteGroup.cyclic(6)
vec = find_generating_vectors(C6, Signature(0, (2, 2, 3, 3)), limit=1)[0]
Xe = QuasiplatonicSurface.from_vector(vec)
res = check_statement_b(Xe, C6.trivial_subgroup())
print(f"exceptional C6 surface: genus {Xe.genus}, accepted={res.holds}, "
      f"exception recorded={res.exception_matched}")
