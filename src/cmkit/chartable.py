"""Exact complex irreducible character tables.

The table is computed by Dixon's method as revisited by Schneider: the
class matrices M_i, M_i[j][l] = #{x in C_i : x^-1 z_l in C_j} for the
representative z_l of class l, commute, and their common eigenvectors over
F_p, for a prime p = 1 (mod e) above 2|G| with e the group exponent, are
the irreducibles.  Each part of class space still shared by several
irreducibles is carried only by the projection v of e_0, the
identity-class indicator, onto it.  Under a combination A = sum_i c_i M_i
with seeded random c_i, built straight from the Cayley table as one
Kronecker-packed int per column (`cmkit.modp`), v has an exact minimal
polynomial mu, the first linear dependency among v, Av, A^2 v, ...; mu has
distinct roots in F_p, and (mu / (x - lambda))(A) v, read off the same
Krylov vectors, is the projection onto the lambda-eigenspace.  Parts whose
irreducibles share an eigenvalue (p is small, so eigenvalues can repeat) are
split the same way by further seeded combinations and then by each class
matrix alone, until there are as many parts as classes.  Degrees are
recovered from the orthogonality relation.

For each irreducible chi and class C of element order o, a discrete Fourier
transform over the powers of a representative g, taken mod p with a fixed
primitive e-th root z,

    n_t = (1/o) sum_{s < o} chi(g^s) z^(-t s e/o),    t < o,

gives the multiplicity n_t of zeta_o^t = exp(2 pi i t / o) as an
eigenvalue of rho(g), where z stands for zeta_e.  The n_t are integers in
[0, chi(1)], so their mod-p representatives are exact.  The transform runs
once per rational class: the class of g^u, u a unit mod o, has the
spectrum n_(t u^-1), and each such spectrum is checked against the class's
value mod p.  The spectra are kept as `CharacterTable.spectra`
(surface.chevalley_weil_multiplicities reads its counts from them), and
chi(C) = sum_t n_t zeta_o^t is the exact cyclotomic value, summed in
integers.  The finished table is verified in integer arithmetic: every value
against its spectrum, the degree sum, and norm one, <chi, chi> summed from
the spectra in Z[x]/(x^e - 1) and reduced mod Phi_e.  Every failed identity
raises `InvalidCharacterTable`.  Later class sums read the spectra the
same way (`fixed_dimensions`), and `conjugate_index` reverses them;
`Cyclotomic` arithmetic is left to the oracle API (`inner_product`,
`symmetric_square`, `fixed_space_dimension`).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from operator import itemgetter, mul
from typing import Dict, List, Optional, Tuple

from .cyclotomic import (Cyclotomic, _reduction_rows, accumulate, euler_phi, exact_quotient,
                         prime_factors, reduced_integer)
from .errors import (
    GroupMismatch,
    GroupTooLarge,
    InvalidCharacterTable,
    NonIntegralResult,
    SubgroupMismatch,
)
from .group import FiniteGroup, Subgroup
from .modp import Slots, distinct_roots, divide_linear, minimal_polynomial

DEFAULT_CHARTABLE_BOUND = 2000


@dataclass(frozen=True, eq=False)
class Character:
    """A class function given by one exact value per conjugacy class."""

    group: FiniteGroup
    values: Tuple[Cyclotomic, ...]

    @property
    def degree(self) -> int:
        return self.values[0].integer_value()

    def value_at(self, g) -> Cyclotomic:
        return self.values[self.group.class_index(g)]

    def conjugate(self) -> "Character":
        return Character(self.group, tuple(v.conjugate() for v in self.values))

    def __add__(self, other: "Character") -> "Character":
        if other.group is not self.group:
            raise GroupMismatch("characters of different groups")
        return Character(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Character) and other.group is self.group
                and all(a == b for a, b in zip(self.values, other.values)))

    def __repr__(self) -> str:
        return f"Character(deg {self.values[0].to_string()}, {len(self.values)} classes)"


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Irreducible characters with their eigenvalue spectra.

    `spectra[i][c][t]` is the multiplicity of exp(2 pi i t / o) as an
    eigenvalue of rho_i at class c, where o is the element order of class c.
    """

    group: FiniteGroup
    irreducibles: Tuple[Character, ...]
    spectra: Tuple[Tuple[Tuple[int, ...], ...], ...]
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def conductor(self) -> int:
        return self.group.exponent()

    def __len__(self) -> int:
        return len(self.irreducibles)

    @property
    def trivial_index(self) -> int:
        one = Cyclotomic.one()
        for i, chi in enumerate(self.irreducibles):
            if all(v == one for v in chi.values):
                return i
        raise InvalidCharacterTable("trivial character missing")

    def conjugate_index(self, i: int) -> int:
        """The row of conj(chi_i), whose spectra are t -> n_(-t mod o)."""
        key = ("conj", i)
        if key not in self._cache:
            conj = tuple(tuple(s[-t] for t in range(len(s))) for s in self.spectra[i])
            try:
                self._cache[key] = self.spectra.index(conj)
            except ValueError:
                raise InvalidCharacterTable("table not closed under conjugation") from None
        return self._cache[key]

    def fixed_dimensions(self, H: Subgroup) -> Tuple[int, ...]:
        """dim V_i^H = (1/|H|) sum_c |H cap C| chi_i(C) for every irreducible,
        from the spectra in Z[x]/(x^e - 1) reduced once mod Phi_e."""
        if H.parent is not self.group:
            raise SubgroupMismatch("subgroup of a different group")
        key = ("fixed", H)
        if key not in self._cache:
            weights = Counter(map(self.group.class_ids().__getitem__, H.indices))
            dims = []
            for spectra in self.spectra:
                acc = [0] * self.conductor
                for c, w in weights.items():
                    accumulate(acc, spectra[c], w)
                dims.append(exact_quotient(acc, H.order, "fixed-space dimension sum"))
            self._cache[key] = tuple(dims)
        return self._cache[key]

    def degrees(self) -> Tuple[int, ...]:
        return tuple(chi.degree for chi in self.irreducibles)


def character_table(G: FiniteGroup, bound: int = DEFAULT_CHARTABLE_BOUND) -> CharacterTable:
    if G._chartable is not None:
        return G._chartable
    if G.order > bound:
        raise GroupTooLarge(f"character table bound {bound} exceeded (order {G.order})")
    rows = sorted(_dixon_rows(G), key=itemgetter(0))
    table = CharacterTable(G, tuple(Character(G, tuple(values)) for _, values, _ in rows),
                           tuple(spectra for _, _, spectra in rows))
    _verify_table(table)
    G._chartable = table
    return table


def inner_product(chi: Character, psi: Character) -> Cyclotomic:
    """(1/|G|) sum over classes of |C| chi(C) conj(psi(C)), exact."""
    if chi.group is not psi.group:
        raise GroupMismatch("characters of different groups")
    G = chi.group
    total = Cyclotomic.zero()
    for cls, a, b in zip(G.conjugacy_classes(), chi.values, psi.values):
        total = total + a * b.conjugate() * cls.size
    return total / G.order


def power_class_map(G: FiniteGroup, k: int) -> Tuple[int, ...]:
    """Class index of g^k for a representative g of each class."""
    return tuple(row[k % len(row)] for row in G.power_classes())


def symmetric_square(chi: Character) -> Character:
    """S^2(chi)(g) = (chi(g)^2 + chi(g^2)) / 2."""
    G = chi.group
    squares = power_class_map(G, 2)
    values = tuple((chi.values[j] * chi.values[j] + chi.values[squares[j]]) / 2
                   for j in range(len(chi.values)))
    return Character(G, values)


def fixed_space_dimension(chi: Character, H: Subgroup) -> int:
    """dim V^H = (1/|H|) sum over h of chi(h): the oracle of `CharacterTable.fixed_dimensions`."""
    G = chi.group
    if H.parent is not G:
        raise SubgroupMismatch("subgroup of a different group")
    class_of = G.class_ids()
    total = Cyclotomic.zero()
    for h in H.indices:
        total = total + chi.values[class_of[h]]
    total = total / H.order
    try:
        value = total.integer_value()
    except ValueError:
        raise NonIntegralResult(
            f"fixed-space dimension {total.to_string()} is not an integer") from None
    if value < 0:
        raise NonIntegralResult(f"fixed-space dimension {value} is negative")
    return value


def regular_character(G: FiniteGroup) -> Character:
    values = [Cyclotomic.rational(G.order)]
    values += [Cyclotomic.zero()] * (len(G.conjugacy_classes()) - 1)
    return Character(G, tuple(values))


def trivial_character(G: FiniteGroup) -> Character:
    return Character(G, tuple(Cyclotomic.one() for _ in G.conjugacy_classes()))


# ---------------------------------------------------------------------------
# Dixon's method over F_p


def _dixon_rows(G: FiniteGroup) -> List[Tuple[tuple, List[Cyclotomic], Tuple[Tuple[int, ...], ...]]]:
    """(sort key, values, spectra) of each irreducible, in eigenvector order.

    The sort key is the degree followed by the integer coefficient vector of
    each value on the power basis of Q(zeta_e).
    """
    classes = G.conjugacy_classes()
    k = len(classes)
    n = G.order
    e = G.exponent()
    sizes = [cls.size for cls in classes]
    inv_class = power_class_map(G, -1)
    power = G.power_classes()
    source = _rational_sources(classes, power)

    p = _find_prime(e, 2 * n + 1)
    z = _find_root_of_unity(e, p)

    vectors = _joint_eigenvectors(G, p)

    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    # Per element order o: z^((e/o) t) for t < o, the rows
    # (z^(-(e/o) t s))_(s < o) of the discrete Fourier transform, and 1/o.
    per_order = {}
    for o in {cls.order for cls in classes}:
        ztab = [pow(z, (e // o) * t, p) for t in range(o)]
        dft = [[ztab[(-t * s_) % o] for s_ in range(o)] for t in range(o)]
        per_order[o] = (ztab, dft, pow(o, p - 2, p))
    width = euler_phi(e)
    lifted: Dict[Tuple[int, ...], Tuple[Cyclotomic, Tuple[int, ...]]] = {}

    rows_out = []
    for v in vectors:
        if v[0] % p == 0:
            raise InvalidCharacterTable("joint eigenvector vanishes at the identity class")
        norm = pow(v[0], p - 2, p)
        omega = [(x * norm) % p for x in v]
        s = sum(omega[j] * omega[inv_class[j]] * inv_sizes[j] for j in range(k)) % p
        d2 = (n * pow(s, p - 2, p)) % p
        degree = next((d for d in range(1, isqrt(n) + 1) if (d * d) % p == d2), None)
        if degree is None:
            raise InvalidCharacterTable("degree recovery failed")
        vals = [(degree * omega[j] * inv_sizes[j]) % p for j in range(k)]

        spectra: List[Tuple[int, ...]] = []
        for c, (cls, (first, reindex)) in enumerate(zip(classes, source)):
            ztab, dft, inv_o = per_order[cls.order]
            if first == c:
                seq = [vals[j] for j in power[c]]
                spectrum = tuple((sum(map(mul, row, seq)) * inv_o) % p for row in dft)
                if max(spectrum) > degree:
                    raise InvalidCharacterTable("lifted multiplicity out of range")
                if sum(spectrum) != degree:
                    raise InvalidCharacterTable(
                        "eigenvalue multiplicities do not sum to the degree")
            else:
                spectrum = tuple(map(spectra[first].__getitem__, reindex))
            if sum(map(mul, spectrum, ztab)) % p != vals[c]:
                raise InvalidCharacterTable("eigenvalue spectrum does not give the class value")
            spectra.append(spectrum)

        values = []
        key: List[Tuple[int, ...]] = []
        for spectrum in spectra:
            if spectrum not in lifted:
                coeffs = _root_sum(e, _spectrum_exponents(e, spectrum))
                lifted[spectrum] = (_cyclotomic(e, coeffs),
                                    tuple(coeffs.get(j, 0) for j in range(width)))
            value, dense = lifted[spectrum]
            values.append(value)
            key.append(dense)
        rows_out.append(((degree, tuple(key)), values, tuple(spectra)))
    return rows_out


def _rational_sources(classes, power) -> List[Tuple[int, List[int]]]:
    """(first, [t u^-1 mod o for t < o]) for each class.

    A class is the class of g^u for a unit u mod o, where g represents
    `first`, the first class of its rational class, and o is the element
    order.  rho(g^u) has the eigenvalues of rho(g) raised to the u-th power,
    so the class's spectrum is the spectrum of `first` read at t u^-1.
    """
    source: List[Optional[Tuple[int, List[int]]]] = [None] * len(classes)
    for c, (cls, row) in enumerate(zip(classes, power)):
        if source[c] is None:
            o = cls.order
            for u in range(o):
                if gcd(u, o) == 1 and source[row[u]] is None:
                    u_inv = pow(u, -1, o)
                    source[row[u]] = (c, [(t * u_inv) % o for t in range(o)])
    return source


def _spectrum_exponents(e: int, spectrum: Tuple[int, ...]) -> Dict[int, int]:
    """{exponent of zeta_e: multiplicity} for a spectrum over zeta_o, o | e."""
    f = e // len(spectrum)
    return {t * f: m for t, m in enumerate(spectrum) if m}


def _root_sum(e: int, mults: Dict[int, int]) -> Dict[int, int]:
    """Integer coefficients of sum m zeta_e^k on the power basis of Q(zeta_e)."""
    rows = _reduction_rows(e)
    acc: Dict[int, int] = {}
    for k_exp, m in mults.items():
        for j, t in rows[k_exp % e].items():
            acc[j] = acc.get(j, 0) + m * t
    return {j: c for j, c in acc.items() if c}


def _cyclotomic(e: int, coeffs: Dict[int, int]) -> Cyclotomic:
    return Cyclotomic(e, {j: Fraction(c) for j, c in coeffs.items()})


def _from_root_multiplicities(e: int, mults: Dict[int, int]) -> Cyclotomic:
    return _cyclotomic(e, _root_sum(e, mults))


def _find_prime(e: int, minimum: int) -> int:
    p = minimum + ((1 - minimum) % e)
    if p < minimum:
        p += e
    while True:
        if p > 2 and _is_prime(p):
            return p
        p += e


def _is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def _find_root_of_unity(e: int, p: int) -> int:
    if e == 1:
        return 1
    prime_divs = prime_factors(e)
    for c in range(2, p):
        z = pow(c, (p - 1) // e, p)
        if all(pow(z, e // q, p) != 1 for q in prime_divs):
            return z
    raise InvalidCharacterTable(f"no primitive {e}-th root of unity mod {p}")


# -- splitting the class algebra over F_p ---------------------------------------

# The split order never reaches the output: rows are sorted by an exact key.
_SPLIT_SEED = 1990
_SEEDED_COMBINATIONS = 4


def _class_combination(G: FiniteGroup, coeffs: List[int], slots: Slots) -> List[int]:
    """The packed columns of sum_i coeffs[i] M_i mod p, with
    M_i[j][l] = #{x in C_i : x^-1 z_l in C_j} for the representative z_l of class l."""
    class_of = G.class_ids()
    k, p = len(coeffs), slots.p
    weighted = [(G.inv(x), coeffs[c]) for x, c in enumerate(class_of) if coeffs[c]]
    columns = []
    for zl in G.class_representatives():
        col = [0] * k
        for xi, c in weighted:
            col[class_of[G.mul(xi, zl)]] += c
        columns.append(slots.pack([x % p for x in col]))
    return columns


def _joint_eigenvectors(G: FiniteGroup, p: int) -> List[List[int]]:
    """One common eigenvector of the class matrices for each irreducible.

    The matrices act on class space with eigenvectors w_chi, where
    w_chi[l] = |C_l| chi(z_l) / chi(1), and the identity-class indicator is
    e_0 = sum_chi (chi(1)^2 / |G|) w_chi, every coefficient nonzero mod
    p > 2|G|.  Each part of class space is carried by the projection of e_0
    onto it, sum_(chi in S) c_chi w_chi with every c_chi nonzero.  A
    combination A of class matrices, seeded ones first and then each class
    matrix alone, splits every part by the eigenvalues of A on its w_chi
    (`_split`).  Every part holds at least one irreducible, so once there are
    k parts each holds exactly one.
    """
    k = len(G.conjugacy_classes())
    rng = random.Random(_SPLIT_SEED)
    combinations = [[0] + [rng.randrange(p) for _ in range(k - 1)]
                    for _ in range(_SEEDED_COMBINATIONS)]
    combinations += [[int(i == j) for j in range(k)] for i in range(1, k)]
    slots = Slots(p, k + 1)
    parts = [[int(i == 0) for i in range(k)]]
    for coeffs in combinations:
        if len(parts) >= k:
            break
        columns = _class_combination(G, coeffs, slots)
        parts = [part for v in parts for part in _split(columns, v, slots)]
    if len(parts) != k:
        raise InvalidCharacterTable(f"class matrices split class space into {len(parts)} "
                                    f"parts for {k} classes")
    return parts


def _split(columns: List[int], start: List[int], slots: Slots) -> List[List[int]]:
    """The projections of start onto the eigenspaces of the matrix A with
    packed columns, one per distinct eigenvalue that start meets.

    With mu the exact minimal polynomial of start under A, which must have
    deg mu distinct roots, (mu / (x - lambda))(A) start is a nonzero multiple
    of the projection onto the lambda-eigenspace, read off the Krylov vectors
    that gave mu.
    """
    mu, krylov = minimal_polynomial(columns, start, slots)
    if len(mu) == 2:
        return [start]
    p = slots.p
    return [slots.unpack(sum(map(mul, divide_linear(mu, lam, p)[0], krylov)), len(start))
            for lam in distinct_roots(mu, p)]


def _verify_table(table: CharacterTable) -> None:
    """Class count, degree sum, values against spectra, and norm one.

    A cell holding the value object last found equal to its spectrum's
    re-lifted value skips the comparison; the table shares one object per
    spectrum, so each is compared once.

    <chi, chi> is summed from the spectra in integers: at a class of element
    order o, chi conj(chi) = sum_d a_d zeta_o^d with a_d the autocorrelation
    sum_t n_t n_(t-d) of the spectrum.  The autocorrelations, weighted by class
    size, are accumulated in Z[x]/(x^e - 1) and reduced once mod Phi_e
    (`cyclotomic.reduced_integer`); the result must be |G|.
    """
    G = table.group
    classes = G.conjugacy_classes()
    k = len(classes)
    if len(table.irreducibles) != k:
        raise InvalidCharacterTable(
            f"{len(table.irreducibles)} irreducibles for {k} classes")
    if sum(d * d for d in table.degrees()) != G.order:
        raise InvalidCharacterTable("degree-sum identity failed")
    e = G.exponent()
    # spectrum -> [its value, autocorrelation as coefficients of zeta_o^d,
    #              the value object last found equal to it]
    seen: Dict[Tuple[int, ...], list] = {}
    for chi, spectra in zip(table.irreducibles, table.spectra):
        acc = [0] * e
        for cls, value, spectrum in zip(classes, chi.values, spectra):
            if len(spectrum) != cls.order:
                raise InvalidCharacterTable(f"{chi!r} has a malformed spectrum")
            if spectrum not in seen:
                o = cls.order
                if min(spectrum) < 0:
                    raise InvalidCharacterTable(f"{chi!r} has a negative multiplicity")
                support = [(t, m) for t, m in enumerate(spectrum) if m]
                autocorrelation = [0] * o
                for t, m in support:
                    for t2, m2 in support:
                        autocorrelation[(t - t2) % o] += m * m2
                seen[spectrum] = [_from_root_multiplicities(e, _spectrum_exponents(e, spectrum)),
                                  autocorrelation, None]
            entry = seen[spectrum]
            if value is not entry[2]:
                if entry[0] != value:
                    raise InvalidCharacterTable(f"{chi!r} differs from its spectrum")
                entry[2] = value
            accumulate(acc, entry[1], cls.size)
        if reduced_integer(acc) != G.order:
            raise InvalidCharacterTable(f"{chi!r} is not norm one")
