"""The two-generator family C2^2 x| C_m of covering groups, for even m >= 6.

The group gm(m) is <a, b, t> with a^2 = b^2 = (ab)^2 = t^m = 1, t a t^-1 = a
and t b t^-1 = a b.  Elements are triples a^x b^y t^k; the permutation
realization is the regular action on those 4m triples.  The twist has order
two, which is why odd m collapses the presentation and is rejected.
"""

from __future__ import annotations

from typing import Optional

from .errors import InternalCheckFailed, InvalidParameter, Record
from .group import DEFAULT_MAX_ORDER, FiniteGroup, Subgroup
from .perm import Permutation
from .surface import GeneratingVector


class GmExpected(Record):
    """Reference values carried for regression checks and reports."""

    __slots__ = ("genus", "periods", "quotient_genus_a", "quotient_genus_b", "curve_a",
                 "curve_b")


class GmInstance:
    """gm(m) together with its distinguished generators and reference data."""

    def __init__(self, m: int, group: FiniteGroup,
                 a: Permutation, b: Permutation, t: Permutation):
        self.m = m
        self.group = group
        self.a = a
        self.b = b
        self.t = t
        if m % 4 == 2:
            periods = (2, m, 2 * m)
            genus = m - 2
            qb = None
            curve_b = None
        else:
            periods = (2, m, m)
            genus = m - 3
            qb = m // 4 - 1
            curve_b = f"y^2 = x^{m // 2} - 1"
        self.expected = GmExpected(
            genus=genus,
            periods=periods,
            quotient_genus_a=m // 2 - 1,
            quotient_genus_b=qb,
            curve_a=f"y^2 = x^{m} - 1",
            curve_b=curve_b,
        )
        self._vector: Optional[GeneratingVector] = None

    def subgroup_a(self) -> Subgroup:
        return self.group.subgroup_generated([self.a])

    def subgroup_b(self) -> Subgroup:
        return self.group.subgroup_generated([self.b])

    def __repr__(self) -> str:
        return f"<gm({self.m}): order {self.group.order}>"


def build_gm(m: int, max_order: int = DEFAULT_MAX_ORDER) -> GmInstance:
    """Construct gm(m) as a permutation group on 4m points."""
    if m < 6 or m % 2 != 0:
        raise InvalidParameter(f"m must be an even integer >= 6, got {m}")

    def idx(x: int, y: int, k: int) -> int:
        return (x * 2 + y) * m + k

    def mul(p, q):
        x1, y1, k1 = p
        x2, y2, k2 = q
        return ((x1 + x2 + k1 * y2) % 2, (y1 + y2) % 2, (k1 + k2) % m)

    triples = [(x, y, k) for x in (0, 1) for y in (0, 1) for k in range(m)]

    def left_mult(g) -> Permutation:
        images = [0] * (4 * m)
        for p in triples:
            images[idx(*p)] = idx(*mul(g, p))
        return Permutation(images)

    a = left_mult((1, 0, 0))
    b = left_mult((0, 1, 0))
    t = left_mult((0, 0, 1))
    group = FiniteGroup.from_generators(4 * m, [a, b, t], max_order=max_order)
    ident = group.identity
    ab = a * b
    ti = t.inverse()
    checks = (
        (group.order == 4 * m, f"order {group.order}, expected {4 * m}"),
        (a * a == ident and b * b == ident, "a^2 = b^2 = 1 fails"),
        (ab * ab == ident, "(ab)^2 = 1 fails"),
        (t ** m == ident and not (t ** (m // 2)).is_identity(), f"t does not have order {m}"),
        (t * a * ti == a, "t a t^-1 = a fails"),
        (t * b * ti == ab, "t b t^-1 = ab fails"),
    )
    for holds, failure in checks:
        if not holds:
            raise InternalCheckFailed(f"gm({m}) presentation: {failure}")
    return GmInstance(m, group, a, b, t)


def canonical_vector(inst: GmInstance) -> GeneratingVector:
    """The family's generating vector, built from a, b and t and cached:
    (b, t, (bt)^-1) for m = 0 (mod 4), and (t^(m/2), b t^2, b t^(m/2-2)) for
    m = 2 (mod 4), which is the first vector `find_generating_vectors` finds
    for the family's periods.  `GeneratingVector` checks membership, a
    product of one and generation; other periods raise `InternalCheckFailed`."""
    if inst._vector is None:
        G, m = inst.group, inst.m
        b, t = G.index_of(inst.b), G.index_of(inst.t)
        if m % 4 == 0:
            indices = (b, t, G.inv(G.mul(b, t)))
        else:
            t_powers = [0]  # t^j at position j, read in the table
            for _ in range(m // 2):
                t_powers.append(G.mul(t, t_powers[-1]))
            indices = (t_powers[m // 2], G.mul(b, t_powers[2]), G.mul(b, t_powers[m // 2 - 2]))
        vector = GeneratingVector(G, tuple(map(G.elements.__getitem__, indices)))
        if vector.periods != inst.expected.periods:
            raise InternalCheckFailed(f"gm({m}) vector has periods {vector.periods}, "
                                      f"expected {inst.expected.periods}")
        inst._vector = vector
    return inst._vector


def known_subgroup_collection(inst: GmInstance):
    """The quotient collection realizing the family's Jacobian decomposition.

    For m = 2 mod 4 the Jacobian is isogenous to the square of the quotient
    by <a>; for m = 0 mod 4 it is isogenous to (quotient by <a>) times the
    square of the quotient by <b>.

    Only the m = 0 mod 4 relation is of group-algebra origin.  The m = 2 mod 4
    relation is true but identifies a Prym part with the quotient Jacobian:
    a is central and generates G', so it fixes every linear constituent of
    H^1 and negates every two-dimensional one, and no isotypic row balances.
    verify_isogeny_relation therefore declines it.
    """
    from .criteria import IsogenyRelation

    if inst.m % 4 == 2:
        return IsogenyRelation(1, ((inst.subgroup_a(), 2),))
    return IsogenyRelation(1, ((inst.subgroup_a(), 1), (inst.subgroup_b(), 2)))
