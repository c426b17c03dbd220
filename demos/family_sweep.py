"""Sweep the built-in family and certify complex multiplication for each member.

For every even m >= 6 the group of order 4m acts on a rigid surface whose
genus is m-2 or m-3 depending on m mod 4.  The symmetric-square test comes
out exactly zero across the family, so each Jacobian is certified directly:
its period point is an isolated fixed point in the Siegel space.  The value
comes from the branch data by the Eichler trace formula; the character
table is built only to re-derive the zero from its eigenvalue spectra.
"""

from cmkit import (
    QuasiplatonicSurface,
    build_gm,
    canonical_vector,
    character_table,
    cm_verdict,
    quotient_surface,
    reverify_verdict,
    streit_test,
)

print(f"{'m':>3} {'|G|':>4} {'signature':>14} {'genus':>5} "
      f"{'g(X/<a>)':>8} {'g(X/<b>)':>8} {'streit':>6}  verdict")
for m in range(6, 22, 2):
    inst = build_gm(m)
    X = QuasiplatonicSurface.from_vector(canonical_vector(inst))
    g_a = quotient_surface(X, inst.subgroup_a()).genus
    g_b = quotient_surface(X, inst.subgroup_b()).genus
    value = streit_test(X)
    verdict = cm_verdict(X)
    assert reverify_verdict(X, character_table(inst.group), verdict)

    sig = "(" + ", ".join(str(p) for p in X.signature.periods) + ")"
    print(f"{m:>3} {inst.group.order:>4} {sig:>14} {X.genus:>5} "
          f"{g_a:>8} {g_b:>8} {value:>6}  {verdict.status}")

print()
print("reference quotient curves for the largest member:")
inst = build_gm(20)
print("  X/<a>:", inst.expected.curve_a, " X/<b>:", inst.expected.curve_b)
