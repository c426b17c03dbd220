"""Exact complex irreducible character tables.

The table is computed by Dixon's method as revisited by Schneider: the
class matrices M_i, M_i[j][l] = #{x in C_i : x^-1 z_l in C_j} for the
representative z_l of class l, commute, and their common eigenvectors over
F_p, for a prime p = 1 (mod e) above 2|G| with e the group exponent, are
the irreducibles.  The linear characters are the characters of G/G' and
are read off it: G' and each element's coordinates along
G' < H_1 < ... < G, one generator adjoined at a time, come from
`perm.commutator_quotient`, and each linear character is an exponent
vector on those coordinates (`_linear_characters`).  Their idempotents sum
to e_G', so the rest of class space is carried by e_0 - e_G', e_0 the
identity-class indicator, and only it is split.  Each part of it still
shared by several irreducibles is carried only by the projection v of
e_0 - e_G' onto it.  Under a combination A = sum_i c_i M_i
with seeded random c_i, whose column l is read off the Cayley-table row of
z_l as one Kronecker-packed int (`cmkit.modp`), v has an exact minimal
polynomial mu, the first linear dependency among v, Av, A^2 v, ...; mu has
distinct roots in F_p, and (mu / (x - lambda))(A) v, read off the same
Krylov vectors, is the projection onto the lambda-eigenspace.  Parts whose
irreducibles share an eigenvalue (p is small, so eigenvalues can repeat) are
split the same way by further seeded combinations and then by each class
matrix alone.  A part v with Av a multiple of v, tested by one packed
product, lies in one eigenspace and is kept without Krylov; each part holds
at least one irreducible, so the splitting ends, within a pass too, as soon
as there are as many parts as non-linear irreducibles.  Degrees are
recovered from the orthogonality relation, one gathered dot product per
eigenvector.

For each irreducible chi and class C of element order o, a discrete Fourier
transform over the powers of a representative g, taken mod p with a fixed
primitive e-th root z,

    n_t = (1/o) sum_{s < o} chi(g^s) z^(-t s e/o),    t < o,

gives the multiplicity n_t of zeta_o^t = exp(2 pi i t / o) as an
eigenvalue of rho(g), where z stands for zeta_e.  The n_t are integers in
[0, chi(1)], so their mod-p representatives are exact.  The transform runs
once per rational class, for all irreducibles at once: the values mod p of
every irreducible at a class are packed into one int, a slot per
irreducible, and with 1/o folded into the transform's rows each n_t is o
packed multiply-adds.  The class of g^u, u a unit mod o, has the spectrum
n_(t u^-1), read by reindexing; the rational classes and their reindexing
are the group's `rational_sources`, built with its classes.  At every
class, sum_t n_t z^(t e/o) must give back the class's value mod p, one
packed sum per class: in exact arithmetic an identity of the inverse
transform, it guards the slot width and the reindexing.  The spectra are the table: `CharacterTable` stores
nothing else, one tuple per distinct spectrum shared by every cell that
holds it, and degrees, Chevalley-Weil counts, class sums
(`fixed_dimensions`) and `conjugate_index` read them.  Each distinct
spectrum's value chi(C) = sum_t n_t zeta_o^t is reduced once per table to
integer coefficients on the power basis of Q(zeta_e) (`value_vectors`);
they order the rows and are what the `table` payload prints.  The table is verified in
integer arithmetic, each distinct spectrum numbered and packed once: shape
(each spectrum of length o_c, non-negative, summing to the degree), norm
one (<chi, chi> from the packed spectra in Z[x]/(x^e - 1), one dot product
per row, tested against |G| with Psi_e = (x^e - 1)/Phi_e), and the regular
representation's eigenvalue counts (one dot product per class); a failed
identity raises `InvalidCharacterTable`.
`Cyclotomic` values are built from the vectors only for the demos and the
oracle API (`irreducibles`, `inner_product`, `fixed_space_dimension`).
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import chain
from math import isqrt
from operator import itemgetter, mul
from typing import Dict, List, Optional, Tuple

from .cyclotomic import Cyclotomic, class_sums, packed_spectra, power_basis, prime_factors
from .errors import (
    GroupMismatch,
    GroupTooLarge,
    InvalidCharacterTable,
    NonIntegralResult,
    Record,
    SubgroupMismatch,
)
from .group import FiniteGroup, Subgroup
from .modp import Slots, distinct_roots, divide_linear, minimal_polynomial
from .perm import commutator_quotient, gather

DEFAULT_CHARTABLE_BOUND = 2000


class Character(Record):
    """A class function given by one exact value per conjugacy class."""

    __slots__ = ("group", "values")

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


class CharacterTable(Record):
    """The irreducible characters as eigenvalue spectra.

    `spectra[i][c][t]` is the multiplicity of exp(2 pi i t / o) as an
    eigenvalue of rho_i at class c, where o is the element order of class c.
    Tables compare and hash as objects; `repr` omits `_cache`.
    """

    __slots__ = ("group", "spectra", "_cache")
    _fields = ("group", "spectra")

    def __init__(self, group: FiniteGroup, spectra: Tuple[Tuple[Tuple[int, ...], ...], ...],
                 _cache: Optional[dict] = None):
        super().__init__(group, spectra)
        object.__setattr__(self, "_cache", {} if _cache is None else _cache)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def conductor(self) -> int:
        return self.group.exponent()

    def __len__(self) -> int:
        return len(self.spectra)

    def value_vectors(self) -> Dict[Tuple[int, ...], List[int]]:
        """The value sum_t n_t zeta_o^t of each distinct spectrum n, as integer
        coefficients on the power basis of Q(zeta_e), reduced once per table."""
        if "values" not in self._cache:
            self._cache["values"] = _value_vectors(self.conductor, self.spectra)
        return self._cache["values"]

    @property
    def irreducibles(self) -> Tuple[Character, ...]:
        """The rows as `Character`s, one `Cyclotomic` per distinct spectrum built
        from `value_vectors`: for the demos and the oracle API."""
        if "irreducibles" not in self._cache:
            values = {s: Cyclotomic(self.conductor, v) for s, v in self.value_vectors().items()}
            self._cache["irreducibles"] = tuple(Character(self.group, tuple(map(
                values.__getitem__, spectra))) for spectra in self.spectra)
        return self._cache["irreducibles"]

    @property
    def trivial_index(self) -> int:
        """The row whose every spectrum is (1, 0, ..., 0)."""
        for i, spectra in enumerate(self.spectra):
            if all(s[0] == 1 and not any(s[1:]) for s in spectra):
                return i
        raise InvalidCharacterTable("trivial character missing")

    def conjugate_index(self, i: int) -> int:
        """The row of conj(chi_i), whose spectra are t -> n_(-t mod o)."""
        key = ("conj", i)
        if key not in self._cache:
            conj = tuple(s[:1] + s[:0:-1] for s in self.spectra[i])
            try:
                self._cache[key] = self.spectra.index(conj)
            except ValueError:
                raise InvalidCharacterTable("table not closed under conjugation") from None
        return self._cache[key]

    def fixed_dimensions(self, H: Subgroup) -> Tuple[int, ...]:
        """dim V_i^H = (1/|H|) sum_c |H cap C| chi_i(C) for every irreducible,
        from the spectra in Z[x]/(x^e - 1) reduced once mod Phi_e.  Cached by
        H's class weights, which fix the sum and |H|, their total."""
        if H.parent is not self.group:
            raise SubgroupMismatch("subgroup of a different group")
        key = ("fixed", H.class_weights())
        if key not in self._cache:
            self._cache[key] = tuple(class_sums(
                self.conductor, H.class_weights(), self.spectra, H.order,
                "fixed-space dimension sum"))
        return self._cache[key]

    def degrees(self) -> Tuple[int, ...]:
        """chi(1), the single entry of each row's identity-class spectrum."""
        return tuple(spectra[0][0] for spectra in self.spectra)


def character_table(G: FiniteGroup) -> CharacterTable:
    if G._chartable is not None:
        return G._chartable
    if G.order > DEFAULT_CHARTABLE_BOUND:
        raise GroupTooLarge(
            f"character table bound {DEFAULT_CHARTABLE_BOUND} exceeded (order {G.order})")
    rows, values = _dixon_rows(G)
    table = CharacterTable(G, rows, {"values": values})
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


def _dixon_rows(G):
    """The spectra of the irreducibles in table order, and `_value_vectors`.

    The rows are sorted by their values' coefficient vectors, class by class;
    the identity class comes first, so the degree leads.
    """
    classes = G.conjugacy_classes()
    k = len(classes)
    n = G.order
    e = G.exponent()
    sizes = [cls.size for cls in classes]
    orders = [cls.order for cls in classes]
    power = G.power_classes()
    source = G.rational_sources()

    p = _find_prime(e, 2 * n + 1)
    z = _find_root_of_unity(e, p)

    values_mod_p = _class_values(G, p, sizes)
    # Column c holds chi(C_c) mod p for every irreducible chi, one slot each.
    slots = Slots(p, max(orders))
    columns = [slots.pack(column) for column in zip(*values_mod_p)]
    del values_mod_p

    # Per element order o: z^((e/o) t) for t < o, and the rows
    # (z^(-(e/o) t s) / o)_(s < o) of the discrete Fourier transform.
    per_order = {}
    for o in set(orders):
        ztab = [pow(z, (e // o) * t, p) for t in range(o)]
        inv_o = pow(o, p - 2, p)
        per_order[o] = ztab, [[(ztab[(-t * s) % o] * inv_o) % p for s in range(o)]
                              for t in range(o)]
    rational = {}
    for c, (first, _) in enumerate(source):
        rational.setdefault(first, []).append(c)
    # Rows share most spectra (61 distinct among gm:16's 1,600 cells), so the
    # table holds one tuple per distinct spectrum.
    shared = {}
    by_class = [None] * k
    for first, members in rational.items():
        ztab, dft = per_order[orders[first]]
        seq = [columns[j] for j in power[first]]
        lifted = [slots.unpack(sum(map(mul, row, seq)), k) for row in dft]
        packed = [slots.pack(counts) for counts in lifted]
        spectra = [shared.setdefault(s, s) for s in zip(*lifted)]
        for c in members:
            class_spectra, class_packed = spectra, packed
            if c != first:
                reindex = itemgetter(*source[c][1])
                class_spectra = [shared.setdefault(s, s) for s in map(reindex, spectra)]
                class_packed = reindex(packed)
            by_class[c] = class_spectra
            if slots.unpack(sum(map(mul, ztab, class_packed)), k) != slots.unpack(columns[c], k):
                raise InvalidCharacterTable("eigenvalue spectrum does not give the class value")
    rows_out = list(zip(*by_class))
    values = _value_vectors(e, rows_out)
    rows_out.sort(key=lambda spectra: tuple(map(values.__getitem__, spectra)))
    return tuple(rows_out), values


def _class_values(G, p, sizes):
    """chi(z_l) mod p at every class for each irreducible chi, in the order of
    `_joint_eigenvectors`.  A joint eigenvector v is a multiple of
    w[l] = |C_l| chi(z_l) / chi(1), so with u[l] = v[l] / |C_l|,
    chi(1)^2 = |G| v[0]^2 / sum_l u[l] v[l*] (l* the class of inverses) and
    chi(z_l) = chi(1) u[l] / v[0]: one gathered dot product per vector.
    Degrees are below p / 2, so their squares differ mod p."""
    n = G.order
    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    inverse_of = gather(power_class_map(G, -1))
    root = {d * d % p: d for d in range(1, isqrt(n) + 1)}
    values = []
    for v in _joint_eigenvectors(G, p):
        v0 = v[0] % p
        if not v0:
            raise InvalidCharacterTable("joint eigenvector vanishes at the identity class")
        u = list(map(mul, v, inv_sizes))
        degree = root.get(n * v0 * v0 * pow(sum(map(mul, u, inverse_of(v))), p - 2, p) % p)
        if degree is None:
            raise InvalidCharacterTable("degree recovery failed")
        scale = degree * pow(v0, p - 2, p)
        values.append([x * scale % p for x in u])
    return values


def _value_vectors(e, rows):
    """`cyclotomic.power_basis` of each distinct spectrum over zeta_o, o | e."""
    values = {}
    for s in {s for spectra in rows for s in spectra}:
        lifted = [0] * e
        lifted[::e // len(s)] = s
        values[s] = power_basis(lifted)
    return values


def _find_prime(e, minimum):
    """The least prime p = 1 (mod e) with p >= minimum > 2."""
    p = minimum + ((1 - minimum) % e)
    while prime_factors(p) != [p]:
        p += e
    return p


@lru_cache(maxsize=None)
def _find_root_of_unity(e, p):
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


def _class_combination(G, coeffs, slots):
    """The packed columns of sum_i coeffs[i] M_i mod p, with
    M_i[j][l] = #{x in C_i : x^-1 z_l in C_j} for the representative z_l of class l.

    y = x^-1 z_l exactly when x = z_l y^-1, so column l adds
    coeffs[class(z_l y^-1)] at class(y) for every y, reading the Cayley-table
    row of z_l at y^-1.
    """
    class_of = G.class_ids()
    k, p = len(coeffs), slots.p
    weight = [coeffs[c] for c in class_of]
    class_of_inverse = [class_of[G.inv(u)] for u in range(G.order)]
    columns = []
    for zl in G.class_representatives():
        col = [0] * k
        for j, x in zip(class_of_inverse, G.cayley_row(zl)):
            col[j] += weight[x]
        columns.append(slots.pack([x % p for x in col]))
    return columns


def _linear_characters(G, p):
    """(w_chi mod p for every linear character chi, v' = e_0 - e_G' mod p).

    With G' and the coordinates i_j < m_j of each element modulo G' read by
    `perm.commutator_quotient`, the linear characters are the exponent
    vectors u in (Z/e)^r with m_j u_j = <c_j, u> (mod e), c_j the
    coordinates of s_j^(m_j): prod_j m_j = [G : G'] of them, found one
    coordinate at a time.  chi_u takes prod_j z^(u_j i_j) at coordinates i,
    z the table's root of unity mod p, so each coordinate multiplies the
    values at the class representatives by one gather of the powers of
    z^(u_j).  e_G' = (1/|G'|) sum_(g in G') g is 1/|G| times the sum of
    their w_chi, so v'[l] is delta_(l,0) - |C_l|/|G'| for a class inside G'
    and delta_(l,0) outside.
    """
    e = G.exponent()
    sizes = [cls.size for cls in G.conjugacy_classes()]
    derived, code, steps = commutator_quotient(G._table, G._inv, G._gens, G._conj, G._grow)
    inv_derived = pow(derived, p - 2, p)
    at_reps = gather(G.class_representatives())(code)
    start = [0 if c else -size * inv_derived % p for size, c in zip(sizes, at_reps)]
    start[0] = (start[0] + 1) % p
    if steps:
        z = _find_root_of_unity(e, p)
        ztab = [pow(z, t, p) for t in range(e)]
    chars = [((), sizes)]  # (u, |C_l| chi_u(z_l) so far)
    for m, radix, relation in steps:
        at = gather([c // radix % m for c in at_reps])
        c = [relation // r % mr for mr, r, _ in steps]
        grown = []
        for u, values in chars:
            for t in range(sum(map(mul, c, u)) % e // m, e, e // m):
                row = [ztab[t * i % e] for i in range(m)]
                grown.append((u + (t,), [x % p for x in map(mul, values, at(row))]))
        chars = grown
    return [values for _, values in chars], start


def _joint_eigenvectors(G, p):
    """One common eigenvector of the class matrices for each irreducible: the
    linear characters' first (`_linear_characters`), then the non-linear ones'.

    The matrices act on class space with eigenvectors w_chi, where
    w_chi[l] = |C_l| chi(z_l) / chi(1), and the identity-class indicator is
    e_0 = sum_chi (chi(1)^2 / |G|) w_chi, every coefficient nonzero mod
    p > 2|G|.  The linear characters' terms sum to e_G', so the non-linear
    part of class space is carried by v' = e_0 - e_G'.  Each part of it is
    carried by the projection of v' onto it, sum_(chi in S) c_chi w_chi with
    every c_chi nonzero.  A combination A of class matrices, seeded ones
    first and then each class matrix alone, splits every part by the
    eigenvalues of A on its w_chi (`_split`).  Every part holds at least one
    irreducible, so once there are as many parts as non-linear irreducibles
    each holds exactly one, and the splitting stops there, within a pass too.
    """
    k = len(G.conjugacy_classes())
    linear, start = _linear_characters(G, p)
    target = k - len(linear)
    parts = [start] if target else []
    slots = Slots(p, k + 1)
    rng = random.Random(_SPLIT_SEED)  # combinations are drawn as they are needed
    for coeffs in chain(([0] + [rng.randrange(p) for _ in range(k - 1)]
                         for _ in range(_SEEDED_COMBINATIONS)),
                        ([int(i == j) for j in range(k)] for i in range(1, k))):
        if len(parts) >= target:
            break
        columns = _class_combination(G, coeffs, slots)
        split = []
        for i, v in enumerate(parts):
            if len(split) + len(parts) - i >= target:  # every part left holds one irreducible
                split += parts[i:]
                break
            split += _split(columns, v, slots)
        parts = split
    if len(parts) != target:
        raise InvalidCharacterTable(f"class matrices split class space into {len(parts)} "
                                    f"parts for {target} non-linear irreducibles")
    return linear + parts


def _split(columns, start, slots):
    """The projections of start onto the eigenspaces of the matrix A with
    packed columns, one per distinct eigenvalue that start meets.

    When A start is a multiple of start, found by one packed product, start
    lies in one eigenspace and is returned as it is.  Otherwise, with mu the
    exact minimal polynomial of start under A, which must have deg mu
    distinct roots, (mu / (x - lambda))(A) start is a nonzero multiple of the
    projection onto the lambda-eigenspace, read off the Krylov vectors that
    gave mu.
    """
    p, k = slots.p, len(start)
    image = slots.unpack(sum(map(mul, start, columns)), k)
    i = next(filter(start.__getitem__, range(k)), None)
    if i is not None:
        lam = image[i] * pow(start[i], p - 2, p) % p
        if [lam * x % p for x in start] == image:
            return [start]
    mu, krylov = minimal_polynomial(columns, start, slots)
    return [slots.unpack(sum(map(mul, divide_linear(mu, lam, p)[0], krylov)), k)
            for lam in distinct_roots(mu, p)]


def _verify_table(table):
    """Shape, norm one and the regular-representation identity of the stored spectra.

    The table has k rows of k spectra; the spectrum at class c has length
    o_c and non-negative entries summing to the row's degree.  Each distinct
    spectrum is numbered once, when a row first holds it, and packed once as
    sum_t n_t X^(t e/o), a value in Z[x]/(x^e - 1) at x = X
    (`cyclotomic.packed_spectra`, X = 2^16, 2^32 or 2^64).  Both identities
    below are then one dot product per row or per class, and products of
    packed values mod X^e - 1 multiply in Z[x]/(x^e - 1).

    <chi, chi> is summed from the spectra in integers: at a class of element
    order o, chi conj(chi) is the product of the packed spectrum n_t and its
    conjugate n_(-t), and the row's class sizes weigh the products into
    A = sum_c |C_c| chi conj(chi).  A degree d with d^2 > |G| fails at once,
    since the identity class alone adds d^2.  Otherwise A's coefficients are
    non-negative and sum to |G| d^2 <= |G|^2, and A(zeta_e) = |G| exactly when
    (A - |G|) Psi_e = 0 in Z[x]/(x^e - 1), Psi_e = (x^e - 1) / Phi_e: when
    the packed (A - |G|) Psi_e is 0 mod X^e - 1.  Each of its coefficients
    is at most (|G|^2 + |G|) max|Psi_e| < X/2 in absolute value, which
    `packed_spectra` ensures, so being 0 mod X^e - 1 is being 0.

    The regular representation restricted to <g>, g of order o, is |G|/o
    copies of the regular representation of C_o, so at every class
    sum_i chi_i(1) n_t(chi_i) = |G|/o for each t < o: at the identity class
    this is the degree sum, and a repeated row breaks it at some class.  At
    each class it is one dot product of the degrees with the packed spectra.
    The identity class comes first, with one slot, so its sum is exact; at
    the others each slot is at most the degree sum, then |G|.
    """
    G = table.group
    classes = G.conjugacy_classes()
    k = len(classes)
    if len(table.spectra) != k:
        raise InvalidCharacterTable(f"{len(table.spectra)} irreducibles for {k} classes")
    n, e = G.order, G.exponent()
    sizes = [cls.size for cls in classes]
    orders = [cls.order for cls in classes]
    packers, psi, width = packed_spectra(e, set(orders), n * n + n)
    modulus = (1 << width) - 1  # X^e - 1, so x & modulus plus x >> width is x mod it
    number = {}
    totals = []  # by number: the entry sum, None if an entry is negative
    packed, squares = [], []  # by number: n_t and chi conj(chi), packed
    cells = []  # the number of every cell, row by row
    for i, spectra in enumerate(table.spectra):
        if len(spectra) != k:
            raise InvalidCharacterTable(f"row {i} has {len(spectra)} spectra for {k} classes")
        if list(map(len, spectra)) != orders:
            raise InvalidCharacterTable(f"row {i} has a malformed spectrum")
        fresh = list(set(spectra).difference(number))
        for s in fresh:
            number[s] = len(totals)
            totals.append(sum(s) if min(s) >= 0 else None)
        row = list(map(number.__getitem__, spectra))
        cells.append(row)
        degree = spectra[0][0]
        if gather(row)(totals).count(degree) != k:
            raise InvalidCharacterTable(
                f"row {i}: eigenvalue multiplicities are not a partition of the degree")
        if degree * degree > n:
            raise InvalidCharacterTable(f"row {i} is not norm one")
        for s in fresh:
            pack = packers[len(s)]
            x = int.from_bytes(pack(*s), "little")
            packed.append(x)
            x *= int.from_bytes(pack(s[0], *s[:0:-1]), "little")
            squares.append((x & modulus) + (x >> width))
        x = (sum(map(mul, sizes, gather(row)(squares))) - n) * psi
        if ((x & modulus) + (x >> width)) % modulus:
            raise InvalidCharacterTable(f"row {i} is not norm one")
    degrees = table.degrees()
    ones = {o: int.from_bytes(pack(*[1] * o), "little") for o, pack in packers.items()}
    for c, column in enumerate(zip(*cells)):
        o = orders[c]
        if sum(map(mul, degrees, gather(column)(packed))) != n // o * ones[o]:
            raise InvalidCharacterTable(f"regular-representation identity fails at class {c}")
