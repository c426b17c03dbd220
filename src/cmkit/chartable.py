"""Exact complex irreducible character tables.

The table is computed with the class-matrix method: the joint eigenvectors
of the class-multiplication matrices are found over F_p for a prime
p = 1 (mod e), where e is the group exponent, and degrees are recovered
from the orthogonality relation.  For each irreducible chi and class C of
element order o, a discrete Fourier transform over the powers of a
representative g, taken mod p with a fixed primitive e-th root z,

    n_t = (1/o) sum_{s < o} chi(g^s) z^(-t s e/o),    t < o,

gives the multiplicity n_t of zeta_o^t = exp(2 pi i t / o) as an
eigenvalue of rho(g), where z stands for zeta_e.  The n_t are integers in
[0, chi(1)], so their mod-p representatives are exact.  They are kept as
`CharacterTable.spectra` (surface.chevalley_weil_multiplicities reads its
counts from them), and chi(C) = sum_t n_t zeta_o^t is the exact cyclotomic
value.  The norm-one and degree-sum identities are re-checked after
lifting; every failed identity raises `InvalidCharacterTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Tuple

from .cyclotomic import Cyclotomic, _reduction_rows, prime_factors
from .errors import (
    GroupMismatch,
    GroupTooLarge,
    InvalidCharacterTable,
    NonIntegralResult,
    SubgroupMismatch,
)
from .group import FiniteGroup, Subgroup

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
        raise AssertionError("trivial character missing")

    def conjugate_index(self, i: int) -> int:
        key = ("conj", i)
        if key not in self._cache:
            conj = self.irreducibles[i].conjugate()
            for j, chi in enumerate(self.irreducibles):
                if chi == conj:
                    self._cache[key] = j
                    break
            else:
                raise AssertionError("table not closed under conjugation")
        return self._cache[key]

    def degrees(self) -> Tuple[int, ...]:
        return tuple(chi.degree for chi in self.irreducibles)


def character_table(G: FiniteGroup, bound: int = DEFAULT_CHARTABLE_BOUND) -> CharacterTable:
    if G._chartable is not None:
        return G._chartable
    if G.order > bound:
        raise GroupTooLarge(f"character table bound {bound} exceeded (order {G.order})")
    e = G.exponent()
    rows = [(Character(G, tuple(values)), spectrum) for values, spectrum in _dixon_rows(G)]
    rows.sort(key=lambda row: (row[0].values[0].integer_value(),
                               tuple(v.dense(e) for v in row[0].values)))
    table = CharacterTable(G, tuple(chi for chi, _ in rows),
                           tuple(spectrum for _, spectrum in rows))
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
    """dim V^H = (1/|H|) sum over h of chi(h); integral for genuine characters."""
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


def _dixon_rows(G: FiniteGroup) -> List[Tuple[List[Cyclotomic], Tuple[Tuple[int, ...], ...]]]:
    """(values, spectra) of each irreducible, in eigenvector order."""
    classes = G.conjugacy_classes()
    k = len(classes)
    n = G.order
    e = G.exponent()
    sizes = [cls.size for cls in classes]
    inv_class = power_class_map(G, -1)

    p = _find_prime(e, 2 * n + 1)
    z = _find_root_of_unity(e, p)

    matrices = _class_matrices(G, classes)

    vectors = _joint_eigenvectors(matrices, k, p)
    if len(vectors) != k:
        raise InvalidCharacterTable(f"{len(vectors)} joint eigenvectors for {k} classes")

    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    # Per class: element order o, classes of rep^s for s < o, the powers
    # z^(-(e/o) u) for u < o, indexed by t*s mod o in the transform, and 1/o.
    lift_data = []
    for cls, power_classes in zip(classes, G.power_classes()):
        o = cls.order
        zinv = pow(z, e - e // o, p)
        lift_data.append((o, power_classes, [pow(zinv, u, p) for u in range(o)],
                          pow(o, p - 2, p)))

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

        values: List[Cyclotomic] = []
        spectra = []
        for o, pc, ztab, inv_o in lift_data:
            seq = [vals[c] for c in pc]
            spectrum = tuple(
                (sum(x * ztab[(t * s_) % o] for s_, x in enumerate(seq)) * inv_o) % p
                for t in range(o))
            if max(spectrum) > degree:
                raise InvalidCharacterTable("lifted multiplicity out of range")
            if sum(spectrum) != degree:
                raise InvalidCharacterTable(
                    "eigenvalue multiplicities do not sum to the degree")
            f = e // o
            values.append(_from_root_multiplicities(
                e, {t * f: m for t, m in enumerate(spectrum) if m}))
            spectra.append(spectrum)
        rows_out.append((values, tuple(spectra)))
    return rows_out


def _from_root_multiplicities(e: int, mults: Dict[int, int]) -> Cyclotomic:
    rows = _reduction_rows(e)
    acc: Dict[int, Fraction] = {}
    for k_exp, m in mults.items():
        for j, t in rows[k_exp % e].items():
            v = acc.get(j, Fraction(0)) + m * t
            if v:
                acc[j] = v
            elif j in acc:
                del acc[j]
    return Cyclotomic(e, acc)


def _class_matrices(G: FiniteGroup, classes) -> List[List[List[int]]]:
    """M_i[j][l] = #{(x, y) in C_i x C_j : xy = z_l} for a fixed z_l."""
    G._ensure_table()
    k = len(classes)
    cls_of = G.class_ids()
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l in range(k):
        zl = G.index_of(classes[l].representative)
        for x in range(G.order):
            y = G.mul(G.inv(x), zl)
            mats[cls_of[x]][cls_of[y]][l] += 1
    return mats


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
    raise AssertionError("no primitive root found")


# -- linear algebra over F_p --------------------------------------------------


def _joint_eigenvectors(matrices, k: int, p: int) -> List[List[int]]:
    """1-dimensional common eigenspaces of the commuting class matrices."""
    subspaces: List[List[List[int]]] = [[[1 if i == j else 0 for j in range(k)]
                                         for i in range(k)]]
    for mat in matrices[1:]:
        if all(len(b) == 1 for b in subspaces):
            break
        refined: List[List[List[int]]] = []
        for basis in subspaces:
            if len(basis) == 1:
                refined.append(basis)
                continue
            restricted = _restrict(mat, basis, p)
            eigs = _eigenvalues(restricted, p)
            if len(eigs) <= 1:
                refined.append(basis)
                continue
            for lam in sorted(eigs):
                lifted = []
                for coords in _nullspace(_shift(restricted, lam, p), p):
                    vec = [0] * k
                    for c, b in zip(coords, basis):
                        if c:
                            for idx in range(k):
                                vec[idx] = (vec[idx] + c * b[idx]) % p
                    lifted.append(vec)
                refined.append(lifted)
        subspaces = refined
    assert all(len(b) == 1 for b in subspaces), "class matrices failed to separate"
    return [b[0] for b in subspaces]


def _matvec(mat, vec, p):
    return [sum(row[j] * vec[j] for j in range(len(vec))) % p for row in mat]


def _restrict(mat, basis, p):
    solver = _RowBasis(basis, p)
    d = len(basis)
    cols = []
    for b in basis:
        w = _matvec(mat, b, p)
        coords = solver.coords(w)
        assert coords is not None, "subspace not invariant"
        cols.append(coords)
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _shift(mat, lam, p):
    d = len(mat)
    return [[(mat[i][j] - (lam if i == j else 0)) % p for j in range(d)] for i in range(d)]


def _eigenvalues(mat, p) -> List[int]:
    coeffs = _charpoly(mat, p)
    roots = []
    for lam in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * lam + c) % p
        if acc == 0:
            roots.append(lam)
    return roots


def _charpoly(mat, p) -> List[int]:
    """Characteristic polynomial coefficients (ascending) over F_p."""
    d = len(mat)
    h = [row[:] for row in mat]
    # similarity reduction to upper Hessenberg form
    for c in range(d - 2):
        pivot = next((r for r in range(c + 1, d) if h[r][c] % p), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            h[pivot], h[c + 1] = h[c + 1], h[pivot]
            for r in range(d):
                h[r][pivot], h[r][c + 1] = h[r][c + 1], h[r][pivot]
        inv = pow(h[c + 1][c], p - 2, p)
        for r in range(c + 2, d):
            f = (h[r][c] * inv) % p
            if not f:
                continue
            for j in range(d):
                h[r][j] = (h[r][j] - f * h[c + 1][j]) % p
            for i in range(d):
                h[i][c + 1] = (h[i][c + 1] + f * h[i][r]) % p
    # expand det(xI - H) along the last column of each leading block
    polys: List[List[int]] = [[1]]
    for m in range(1, d + 1):
        # (x - H[m-1][m-1]) * f_{m-1}
        prev = polys[m - 1]
        cur = [0] + prev[:]
        for idx, c in enumerate(prev):
            cur[idx] = (cur[idx] - h[m - 1][m - 1] * c) % p
        cur = [c % p for c in cur]
        prod = 1
        for i in range(1, m):
            prod = (prod * h[m - i][m - i - 1]) % p
            coef = (h[m - 1 - i][m - 1] * prod) % p
            if coef:
                lower = polys[m - 1 - i]
                for idx, c in enumerate(lower):
                    cur[idx] = (cur[idx] - coef * c) % p
        polys.append([c % p for c in cur])
    return polys[d]


def _nullspace(mat, p) -> List[List[int]]:
    d = len(mat)
    m = [row[:] for row in mat]
    pivots = []
    r = 0
    for c in range(d):
        pivot = next((i for i in range(r, d) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(d):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * d
        vec[fc] = 1
        for row_idx, pc in enumerate(pivots):
            vec[pc] = (-m[row_idx][fc]) % p
        basis.append(vec)
    return basis


class _RowBasis:
    """Coordinates of vectors with respect to a fixed basis, over F_p."""

    def __init__(self, basis: List[List[int]], p: int):
        self.p = p
        d = len(basis)
        k = len(basis[0])
        rows = [b[:] for b in basis]
        transform = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        pivots = []
        r = 0
        for c in range(k):
            pivot = next((i for i in range(r, d) if rows[i][c] % p), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            transform[r], transform[pivot] = transform[pivot], transform[r]
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = [(x * inv) % p for x in rows[r]]
            transform[r] = [(x * inv) % p for x in transform[r]]
            for i in range(d):
                if i != r and rows[i][c] % p:
                    f = rows[i][c]
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
                    transform[i] = [(a - f * b) % p for a, b in zip(transform[i], transform[r])]
            pivots.append(c)
            r += 1
            if r == d:
                break
        assert r == d, "basis vectors are dependent"
        self.rows = rows
        self.transform = transform
        self.pivots = pivots

    def coords(self, w: List[int]) -> Optional[List[int]]:
        p = self.p
        y = [w[c] % p for c in self.pivots]
        # verify w = y . rows
        k = len(w)
        for j in range(k):
            acc = sum(y[i] * self.rows[i][j] for i in range(len(y))) % p
            if acc != w[j] % p:
                return None
        d = len(y)
        return [sum(y[i] * self.transform[i][j] for i in range(d)) % p for j in range(d)]


def _verify_table(table: CharacterTable) -> None:
    G = table.group
    k = len(G.conjugacy_classes())
    if len(table.irreducibles) != k:
        raise InvalidCharacterTable(
            f"{len(table.irreducibles)} irreducibles for {k} classes")
    if sum(d * d for d in table.degrees()) != G.order:
        raise InvalidCharacterTable("degree-sum identity failed")
    one = Cyclotomic.one()
    for chi in table.irreducibles:
        if inner_product(chi, chi) != one:
            raise InvalidCharacterTable(f"{chi!r} is not norm one")
