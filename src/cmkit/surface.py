"""Quasiplatonic surfaces as (group, generating vector) pairs.

A generating vector (g_1, ..., g_r) with product one encodes a Galois cover
of the sphere branched over r points with local orders equal to the element
orders.  The vector turns its `Permutation` entries into element indices and
orders once, when it is built; nothing downstream looks them up again.
Everything downstream is combinatorial: the genus and branch data of X/H
come from H's class weights |H cap C| (`Subgroup.class_weights`): the cycle
type of each vector entry on H's cosets is read off the fixed-coset counts
of its powers (Riemann-Hurwitz; Breuer 2000), with no coset numbered.
Galois signatures X/H -> X/N come from local monodromy on N's cycles alone,
on the coset numbering of `cmkit.group`.  Genera also come, independently, from
sum_i m_i dim V_i^H, with irreducible multiplicities m_i produced by the
classical eigenvalue bookkeeping of the branch data (Chevalley-Weil) and
dim V_i^H summed from the table's spectra (`CharacterTable.fixed_dimensions`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .chartable import Character, CharacterTable
from .cyclotomic import Cyclotomic
from .errors import (
    GroupMismatch,
    InconsistentRamification,
    InternalCheckFailed,
    InvalidCharacterTable,
    NegativeGenus,
    NonIntegerGenus,
    NonIntegralMultiplicity,
    NotNormalInN,
    Record,
    SubgroupMismatch,
)
from .group import FiniteGroup, Subgroup
from .perm import Permutation, cycles_of


class Signature(Record):
    """Orbit genus of the base together with the sorted branch orders."""

    __slots__ = ("orbit_genus", "periods")

    def __init__(self, orbit_genus: int, periods: Tuple[int, ...]):
        if orbit_genus < 0:
            raise ValueError("orbit genus must be non-negative")
        if any(m < 2 for m in periods):
            raise ValueError("periods must be at least 2")
        super().__init__(orbit_genus, tuple(sorted(periods)))


class GeneratingVector(Record):
    """Tuple of group elements with product one that generates the group;
    `indices` and `periods` are the entries' element indices and orders,
    which equality, hashing and `repr` do not read."""

    __slots__ = ("group", "entries", "indices", "periods")
    _fields = ("group", "entries")

    def __init__(self, group: FiniteGroup, entries: Tuple[Permutation, ...]):
        G, entries = group, tuple(entries)
        if len(entries) < 2:
            raise ValueError("a generating vector needs at least two entries")
        indices, prod = [], 0
        for g in entries:
            i = G.index_of(g)  # membership, raises ElementNotInGroup
            if i == 0:  # the identity
                raise ValueError("identity entries are not allowed")
            indices.append(i)
            prod = G.mul(prod, i)
        if prod != 0:
            raise ValueError("entries do not multiply to the identity")
        if len(G.index_closure(indices)) != G.order:
            raise ValueError("entries do not generate the group")
        classes, class_of = G.conjugacy_classes(), G.class_ids()
        super().__init__(G, entries)
        object.__setattr__(self, "indices", tuple(indices))
        object.__setattr__(self, "periods", tuple(classes[class_of[i]].order for i in indices))

    def signature(self) -> Signature:
        return Signature(0, self.periods)

    def conjugate_by(self, h: Permutation) -> "GeneratingVector":
        hi = h.inverse()
        return GeneratingVector(self.group, tuple(h * g * hi for g in self.entries))


class QuasiplatonicSurface(Record):
    __slots__ = ("vector", "genus", "signature")

    @classmethod
    def from_vector(cls, v: GeneratingVector) -> "QuasiplatonicSurface":
        return cls(v, genus_from_vector(v), v.signature())

    @property
    def group(self) -> FiniteGroup:
        return self.vector.group


class QuotientSurface(Record):
    """The quotient X/H of a surface with its branch data over the sphere:
    one (period, cycle lengths on H's cosets) pair per vector entry."""

    __slots__ = ("surface", "subgroup", "genus", "branch_data")

    @property
    def degree(self) -> int:
        return self.subgroup.index


def genus_from_branch_data(order: int, periods: Sequence[int]) -> int:
    """Genus of the total space of a cover of the sphere with the given data."""
    r = len(periods)
    g = 1 + Fraction(order, 2) * (r - 2 - sum(Fraction(1, m) for m in periods))
    if g.denominator != 1:
        raise NonIntegerGenus(f"genus {g} is not an integer")
    if g < 0:
        raise NegativeGenus(f"genus {g} is negative")
    return int(g)


def genus_from_vector(v: GeneratingVector) -> int:
    return genus_from_branch_data(v.group.order, v.periods)


def find_generating_vectors(G: FiniteGroup, sig: Signature,
                            limit: int = 1) -> List[GeneratingVector]:
    """Up to `limit` vectors realizing the signature, in deterministic order.

    The first entry only runs over conjugacy class representatives: any
    vector is simultaneously conjugate to one found this way, and all
    derived invariants are conjugation invariant.
    """
    if sig.orbit_genus != 0:
        raise ValueError("only genus-zero base signatures are searched")
    periods = sig.periods
    r = len(periods)
    if r < 2:
        raise ValueError("a generating vector needs at least two entries")
    classes = G.conjugacy_classes()
    orders = [classes[c].order for c in G.class_ids()]
    by_order: Dict[int, List[int]] = {}
    for i, o in enumerate(orders):
        by_order.setdefault(o, []).append(i)
    firsts = [rep for cls, rep in zip(classes, G.class_representatives())
              if cls.order == periods[0]]
    results: List[GeneratingVector] = []

    def extend(prefix: Tuple[int, ...], prod: int) -> None:
        if len(results) >= limit:
            return
        pos = len(prefix)
        if pos == r - 1:
            last = G.inv(prod)
            entries = prefix + (last,)
            if orders[last] == periods[-1] and len(G.index_closure(entries)) == G.order:
                results.append(GeneratingVector(G, tuple(G.elements[i] for i in entries)))
            return
        for g in by_order.get(periods[pos], []):
            extend(prefix + (g,), G.mul(prod, g))
            if len(results) >= limit:
                return

    for g in firsts:
        extend((g,), g)
        if len(results) >= limit:
            break
    return results


def quotient_surface(X: QuasiplatonicSurface, H: Subgroup) -> QuotientSurface:
    """X/H with its branch data: over each vector entry, its cycles on the
    left cosets of H, read off H's class weights (`_cycle_type`)."""
    G = X.group
    if H.parent is not G:
        raise SubgroupMismatch("subgroup of a different group")
    n, class_of = H.index, G.class_ids()
    branch = tuple((m, _cycle_type(H, class_of[i]))
                   for i, m in zip(X.vector.indices, X.vector.periods))
    defect = sum(n - len(lengths) for _, lengths in branch)
    return QuotientSurface(X, H, _riemann_hurwitz(n, defect), branch)


def _cycle_type(H: Subgroup, c: int) -> Tuple[int, ...]:
    """The cycle lengths, descending, of an element g of class c on the left
    cosets of H, read off H's class weights (Breuer 2000).

    g^d fixes xH when x^-1 g^d x lies in H: |G| |H cap C_d| / (|C_d| |H|)
    = [G:H] |H cap C_d| / |C_d| cosets, C_d the class of g^d.  g^d fixes
    exactly the cosets on g-cycles of length dividing d, so, by Moebius
    inversion over the divisors l of the order m of g, the cosets on cycles
    of length exactly l are fix(g^l) less those on cycles of each proper
    divisor of l.  A fixed count that is not an integer, a count that is not
    a non-negative multiple of l, or lengths that do not sum to the index
    raise `InternalCheckFailed`.
    """
    G, n = H.parent, H.index
    classes, weights, row = G.conjugacy_classes(), H.class_weights(), G.power_classes()[c]
    m = len(row)
    on_cycles: List[Tuple[int, int]] = []  # (l, cosets on cycles of length exactly l), if any
    for l in range(1, m + 1):
        if m % l:
            continue
        c_l = row[l % m]
        if not (weights[c_l] or on_cycles):  # g^l fixes no coset and no shorter cycle was seen
            continue
        fixed, rest = divmod(n * weights[c_l], classes[c_l].size)
        if rest:
            raise InternalCheckFailed(f"g^{l} fixes {n * weights[c_l]}/{classes[c_l].size} cosets")
        count = fixed - sum(k for d, k in on_cycles if l % d == 0)
        if count:
            if count < 0 or count % l:
                raise InternalCheckFailed(f"{count} cosets on cycles of length {l}")
            on_cycles.append((l, count))
    lengths = tuple(l for l, count in reversed(on_cycles) for _ in range(count // l))
    if sum(lengths) != n:
        raise InternalCheckFailed(f"cycle lengths {lengths} do not sum to the index {n}")
    return lengths


def _riemann_hurwitz(n: int, defect: int) -> int:
    """The genus of X/H of index n from the defect, sum over branch values of n - #cycles."""
    if defect % 2:
        raise NonIntegerGenus(f"odd Riemann-Hurwitz defect {defect} for X/H")
    genus = 1 - n + defect // 2
    if genus < 0:
        raise NegativeGenus(f"X/H would have genus {genus}")
    return genus


def galois_quotient_signature(X: QuasiplatonicSurface, H: Subgroup,
                              N: Subgroup) -> Signature:
    """Signature of the Galois cover X/H -> X/N (H normal in N), by local
    monodromy on N's cosets alone (Breuer 2000): over a vector entry g, the
    cycle of length l through xN, x its minimal member, is a point of X/N;
    y = x^-1 g^l x lies in N, and the period there is the least k with y^k
    in H.  The orbit genus, the genus of X/N, is read off the same cycles."""
    G = X.group
    if H.parent is not G or N.parent is not G:
        raise SubgroupMismatch("subgroups of a different group")
    coset_H, _ = H.coset_ids()
    coset_N, reps = N.coset_ids()
    mul, inv = G.mul, G.inv
    if any(coset_N[h] for h in H.indices):
        raise SubgroupMismatch("H is not contained in N")
    if any(coset_H[mul(mul(x, g), inv(x))] for x in N._generator_indices()
           for g in H._generator_indices()):
        raise NotNormalInN("H is not normal in N")

    periods = []
    defect = 0
    for g in X.vector.indices:
        cycles, row = cycles_of(N.action_on_cosets(g)), G.cayley_row(g)
        defect += N.index - len(cycles)
        for cyc in cycles:
            x = gx = reps[cyc[0]]
            for _ in cyc:
                gx = row[gx]
            y = mul(inv(x), gx)  # x^-1 g^l x
            if coset_N[y] != 0:
                raise InconsistentRamification(f"a cycle of length {len(cyc)} does not close in N")
            z, k = y, 1
            while coset_H[z] != 0:
                z, k = mul(z, y), k + 1
            if k > 1:
                periods.append(k)
    return Signature(_riemann_hurwitz(N.index, defect), tuple(periods))


def chevalley_weil_multiplicities(X: QuasiplatonicSurface,
                                  T: CharacterTable) -> Tuple[int, ...]:
    """Multiplicity of each irreducible in the space of holomorphic 1-forms.

    For each branch point with local generator g of order m, the eigenvalue
    exp(2*pi*i*alpha/m) of rho(g) contributes (m - alpha)/m.  Its
    multiplicity is read from `T.spectra`: g is conjugate to the
    representative of its class, whose order is m, so entry alpha of that
    class's spectrum counts exactly this eigenvalue.  The spectra come from
    the discrete Fourier transform of Dixon's lift in `character_table`, in
    the orientation zeta_m = exp(2*pi*i/m) of the cyclotomic values.  The
    opposite orientation would produce the conjugate character; every
    verdict computed downstream is invariant under that swap.
    """
    G = X.group
    if T.group is not G:
        raise GroupMismatch("table belongs to a different group")
    key = ("cw", X)
    if key in T._cache:
        return T._cache[key]
    trivial = T.trivial_index
    class_of = G.class_ids()
    # Scaled by L, the lcm of the periods, each branch point adds
    # (L/m) sum_alpha n_alpha (m - alpha) in integers.
    L = lcm(*X.vector.periods)
    branch = [(L // m, range(m - 1, 0, -1), class_of[i])
              for i, m in zip(X.vector.indices, X.vector.periods)]

    mults = []
    degrees = T.degrees()
    for idx, (degree, spectra) in enumerate(zip(degrees, T.spectra)):
        total = (int(idx == trivial) - degree) * L
        for scale, weights, c in branch:
            total += scale * sum(map(mul, spectra[c][1:], weights))
        if total % L or total < 0:
            raise NonIntegralMultiplicity(
                f"multiplicity {Fraction(total, L)} for irreducible {idx}")
        mults.append(total // L)

    if mults[trivial] != 0:
        raise InvalidCharacterTable(
            f"trivial character occurs {mults[trivial]} times in the 1-forms")
    genus = sum(map(mul, mults, degrees))
    if genus != X.genus:
        raise InvalidCharacterTable(
            f"Chevalley-Weil dimension {genus} differs from the genus {X.genus}")
    result = tuple(mults)
    T._cache[key] = result
    return result


def analytic_character(X: QuasiplatonicSurface, T: CharacterTable) -> Character:
    """Character of the group action on holomorphic 1-forms; degree = genus.
    A `Cyclotomic` test oracle: the package sums the spectra instead."""
    key = ("analytic", X)
    if key in T._cache:
        return T._cache[key]
    mults = chevalley_weil_multiplicities(X, T)
    k = len(T.irreducibles[0].values)
    values = []
    for j in range(k):
        acc = Cyclotomic.zero()
        for n, chi in zip(mults, T.irreducibles):
            if n:
                acc = acc + chi.values[j] * n
        values.append(acc)
    chi_a = Character(T.group, tuple(values))
    if chi_a.degree != X.genus:
        raise InvalidCharacterTable(
            f"analytic character has degree {chi_a.degree}, genus is {X.genus}")
    T._cache[key] = chi_a
    return chi_a
