"""Decision layer: per-factor sufficient conditions, isogeny-relation
verification, the symmetric-square test, and the combined CM verdict.
Statement A reads G/H off G's classes and H's elements; statement B scans
the abelian subgroups of N_G(H)/H from `Subgroup.normalizer_quotient`.

A verdict is certificate-based: CM_CERTIFIED carries either an exact zero of
the symmetric-square inner product, or a verified isotypic-dimension
relation together with a per-factor certificate (abelian quotient cover, or
large abelian automorphism group of the quotient).  INCONCLUSIVE is never a
negative statement.

The relation-route certificates rely on quotients being Belyi covers, so
the search only runs for three-point covers; the symmetric-square route is
rigidity-based and needs no such guard (a cover with more branch points
deforms, which forces a positive value).

The symmetric-square ("Streit") value and the quotient genera need no
character table.  The analytic character chi_a is read off the branch data
by the Eichler trace formula, scaled by D = lcm of the branch orders to
integer coefficients.  Each count is a class sum of these values in
Z[x]/(x^e - 1), weighted by H's class weights |H cap C|
(`cyclotomic.class_sums`, which `CharacterTable.fixed_dimensions` shares),
divided by `cyclotomic.exact_quotient` (one reduction mod Phi_e, as in the
table's norm-one check), which raises `NonIntegralResult`
unless the result is a non-negative integer: the value divides by 2|G|D^2,
the genus of X/H by |H|D.  <chi_a, 1>, the case H = G, must be the orbit
genus and chi_a(1) the genus (`InternalCheckFailed`).  The table is built
only for a positive value, for the relation search.  `reverify_verdict`
re-derives a zero from the table's eigenvalue spectra instead, through the
same reduction; the `Cyclotomic` route (`analytic_character`,
`symmetric_square`, `inner_product`) is kept as a test oracle.  The
relation search and `verify_isogeny_relation` read dim V_rho^H
(`CharacterTable.fixed_dimensions`) and conjugate rows off the spectra: no
`Cyclotomic` value is built on a verdict's path.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .chartable import CharacterTable, character_table
from .cyclotomic import accumulate, class_sums, cyclic_product, exact_quotient
from .errors import (
    GenusZeroQuotient,
    GroupMismatch,
    InternalCheckFailed,
    NotProperNontrivial,
    Record,
)
from .group import FiniteGroup, Subgroup
from .surface import (
    QuasiplatonicSurface,
    chevalley_weil_multiplicities,
    galois_quotient_signature,
    genus_from_branch_data,
    quotient_surface,
)

CM_CERTIFIED = "CM_CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"

ROUTE_A = "statement_A"
ROUTE_B = "statement_B"

EXCEPTION_PERIODS = (2, 2, 3, 3)


class IsogenyRelation(Record):
    """JX^n compared against the product of JY_i^{n_i} for Y_i = X/H_i."""

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: Tuple[Tuple[Subgroup, int], ...]):
        if n < 1 or not factors:
            raise ValueError("relation needs n >= 1 and at least one factor")
        for H, mult in factors:
            if mult < 1:
                raise ValueError("factor multiplicities must be positive")
            if not H.is_proper_nontrivial():
                raise NotProperNontrivial(
                    "relation factors must be proper non-trivial subgroups")
        super().__init__(n, factors)


class StatementAResult(Record):
    __slots__ = ("holds", "is_normal", "quotient_order", "quotient_abelian",
                 "abelian_invariants")


class StatementBResult(Record):
    __slots__ = ("holds", "genus", "bound", "group_order", "group_generators",
                 "group_is_cyclic6", "bound_satisfied", "exception_matched",
                 "quotient_signature", "searched")


class FactorCertificate(Record):
    __slots__ = ("subgroup", "route", "evidence")  # evidence: statement A or B result, or dict


class IrreducibleRow(Record):
    __slots__ = ("index", "degree", "h1_multiplicity", "lhs", "rhs", "factor_dimensions")

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class RelationReport(Record):
    __slots__ = ("holds", "n", "multiplicities", "rows", "genus_lhs", "genus_rhs")


class CMVerdict(Record):
    __slots__ = ("status", "streit_value", "relation", "certificates", "relation_report",
                 "search_log")
    _defaults = {"search_log": ()}

    @property
    def certified(self) -> bool:
        return self.status == CM_CERTIFIED


def check_statement_a(G: FiniteGroup, H: Subgroup) -> StatementAResult:
    """H normal with abelian quotient: the quotient cover is then an
    abelian regular Belyi pair."""
    if H.parent is not G:
        raise GroupMismatch("subgroup of a different group")
    if not H.is_proper_nontrivial():
        raise NotProperNontrivial("statement A needs a proper non-trivial subgroup")
    if not G.is_normal(H):
        return StatementAResult(False, False, None, None, None)
    K = frozenset(H.indices)
    if not G._commute_modulo(G._gens, K):
        return StatementAResult(False, True, H.index, False, None)
    return StatementAResult(True, True, H.index, True, G._invariants_modulo(K, H.order))


def check_statement_b(X: QuasiplatonicSurface, H: Subgroup) -> StatementBResult:
    """Search for a large abelian automorphism group of Y = X/H.

    Candidates are the abelian subgroups of N_G(H)/H, scanned by descending
    order.  Acceptance is |K| > 4(g-1) together with Y -> Y/K being a cover
    of the sphere with at most three branch values (so that Y is an abelian
    regular Belyi pair; for g >= 2 the classification of large abelian
    actions makes the cover condition automatic, while at g = 1 the bare
    bound is vacuous and would accept unbranched quotients).  The one
    exceptional configuration, K cyclic of order 6 with branch orders
    2,2,3,3 over genus zero, is also accepted and recorded as such.
    """
    G = X.group
    if H.parent is not G:
        raise GroupMismatch("subgroup of a different group")
    genus = quotient_surface(X, H).genus
    if genus == 0:
        raise GenusZeroQuotient("quotient has genus zero; no Jacobian factor")
    bound = 4 * (genus - 1)

    Q, q = H.normalizer_quotient()
    candidates = sorted(Q.all_subgroups(), key=lambda K: (-K.order, K.indices))
    searched = 0
    for K in candidates:
        if not K.is_abelian():
            continue
        searched += 1
        cyclic6 = K.order == 6 and K.is_cyclic()
        large = K.order > bound
        sig = None
        if large or cyclic6:
            members = set(K.indices)
            sig = galois_quotient_signature(
                X, H, Subgroup(G, [i for i, k in enumerate(q) if k in members]))
        bound_ok = (large and sig is not None and sig.orbit_genus == 0
                    and len(sig.periods) <= 3)
        exception = (cyclic6 and sig is not None and sig.orbit_genus == 0
                     and sig.periods == EXCEPTION_PERIODS)
        if bound_ok or exception:
            return StatementBResult(
                holds=True, genus=genus, bound=bound, group_order=K.order,
                group_generators=tuple(g.cycle_string() for g in K.generators()),
                group_is_cyclic6=cyclic6, bound_satisfied=bound_ok,
                exception_matched=exception, quotient_signature=sig,
                searched=searched)
    return StatementBResult(
        holds=False, genus=genus, bound=bound, group_order=None,
        group_generators=(), group_is_cyclic6=False, bound_satisfied=False,
        exception_matched=False, quotient_signature=None, searched=searched)


def h1_multiplicities(X: QuasiplatonicSurface, T: CharacterTable) -> Tuple[int, ...]:
    """Multiplicity of each irreducible in H^1 = H^0(Omega) + conjugate."""
    mults = chevalley_weil_multiplicities(X, T)
    return tuple(mults[i] + mults[T.conjugate_index(i)]
                 for i in range(len(mults)))


def verify_isogeny_relation(X: QuasiplatonicSurface, T: CharacterTable,
                            R: IsogenyRelation) -> RelationReport:
    """Isotypic-dimension test: n*d_rho = sum_i n_i dim V_rho^{H_i} for every
    irreducible rho occurring in H^1.

    This is the exponent identity of the group-algebra decomposition acting
    on H^1; it is sufficient for the isogeny, not necessary (an isogeny of
    non-group-algebra origin, e.g. one identifying a Prym part with a
    quotient Jacobian, is invisible to it).
    """
    G = X.group
    if T.group is not G:
        raise GroupMismatch("table belongs to a different group")
    for H, _ in R.factors:
        if H.parent is not G:
            raise GroupMismatch("relation subgroup of a different group")
    h1 = h1_multiplicities(X, T)
    columns = [T.fixed_dimensions(H) for H, _ in R.factors]
    rows = []
    for idx, degree in enumerate(T.degrees()):
        if h1[idx] == 0:
            continue
        dims = tuple(column[idx] for column in columns)
        lhs = R.n * degree
        rhs = sum(mult * dim for (_, mult), dim in zip(R.factors, dims))
        rows.append(IrreducibleRow(idx, degree, h1[idx], lhs, rhs, dims))
    holds = all(r.ok for r in rows)
    genus_lhs = R.n * X.genus
    genus_rhs = sum(mult * quotient_surface(X, H).genus for H, mult in R.factors)
    if holds and genus_lhs != genus_rhs:
        # dimension accounting is a provable consequence of the row identities
        raise InternalCheckFailed(
            f"row identities hold but the genus identity fails: {genus_lhs} != {genus_rhs}")
    return RelationReport(holds, R.n, h1, tuple(rows), genus_lhs, genus_rhs)


def streit_test(X: QuasiplatonicSurface) -> int:
    """Exact value of the symmetric-square inner product <S^2(rho_a), 1>.

    Zero certifies complex multiplication: the period point is then rigid in
    the Siegel space.  The value comes from the branch data alone, by the
    Eichler trace formula in integers (`_eichler_values`, `_streit_value`):
    no character table and no `Cyclotomic` value is built.
    """
    if X.genus < 1:
        raise ValueError("the symmetric-square test needs genus >= 1")
    scale, values = _eichler_values(X)
    at_squares = [[scale * a for a in values[row[2 % len(row)]]]
                  for row in X.group.power_classes()]
    return _streit_value(X, scale, values, at_squares)


def _eichler_values(X: QuasiplatonicSurface) -> Tuple[int, List[List[int]]]:
    """(D, [D chi_a(c) for each class c]), D the lcm of the branch orders.

    Entry t of a class's list is the coefficient of zeta_o^t, o the element
    order of the class.  chi_a(1) is the genus.  For s != 1,
    chi_a(s) = 1 + sum of z/(1 - z) over the fixed points of s, z the
    rotation at the point (Eichler; Farkas-Kra, Riemann Surfaces, V.2).
    Over the i-th branch value, with c_i the vector entry of order o_i, s
    fixes |C_G(s)|/o_i points with rotation z = zeta_(o_i)^k for each k with
    c_i^k conjugate to s, and none otherwise.  z has the order o of s, so
    z = zeta_o^u with u = k o / o_i, and z/(1 - z) = -1 - (1/o) sum_j j z^j.
    c_i commutes with c_i^k, so o_i divides |C_G(s)|, and o divides D: every
    coefficient of D chi_a(s) is an integer.
    """
    G = X.group
    classes = G.conjugacy_classes()
    power = G.power_classes()
    periods = X.vector.periods
    scale = lcm(*periods)
    values = [[scale] + [0] * (cls.order - 1) for cls in classes]
    values[0] = [scale * X.genus]
    class_of = G.class_ids()
    for i, o_i in zip(X.vector.indices, periods):
        row = power[class_of[i]]
        for k in range(1, o_i):
            c = row[k]
            o = classes[c].order
            fixed = G.order // (classes[c].size * o_i)
            u = k * o // o_i
            vec = values[c]
            vec[0] -= fixed * scale
            step = fixed * (scale // o)
            for j in range(1, o):
                vec[(u * j) % o] -= step * j
    return scale, values


def _spectra_streit_value(X: QuasiplatonicSurface, T: CharacterTable) -> int:
    """The symmetric-square value from the table's eigenvalue spectra.

    sum_i m_i spectra[i][c], with m_i the Chevalley-Weil multiplicities, is
    the eigenvalue multiset of rho_a at class c: its entries are the integer
    coefficients of chi_a(c), and the same multiset with doubled exponents
    gives chi_a(c^2).  Nothing here reads the Eichler formula.
    """
    mults = chevalley_weil_multiplicities(X, T)
    occurring = [(m, spectra) for m, spectra in zip(mults, T.spectra) if m]
    values, at_squares = [], []
    for c, cls in enumerate(X.group.conjugacy_classes()):
        o = cls.order
        spectrum = [0] * o
        for m, spectra in occurring:
            for t, n in enumerate(spectra[c]):
                spectrum[t] += m * n
        doubled = [0] * o
        for t, n in enumerate(spectrum):
            doubled[2 * t % o] += n
        values.append(spectrum)
        at_squares.append(doubled)
    return _streit_value(X, 1, values, at_squares)


def _streit_value(X: QuasiplatonicSurface, scale: int, values: Sequence[Sequence[int]],
                  at_squares: Sequence[Sequence[int]]) -> int:
    """(1/2|G|) sum over classes of |C| (chi_a(c)^2 + chi_a(c^2)).

    values[c] and at_squares[c] hold scale * chi_a(c) and scale^2 * chi_a(c^2)
    as integer coefficients of zeta_o^t, o the length of the list, which
    divides the group exponent e.  Both sums are accumulated in
    Z[x]/(x^e - 1), x = zeta_e.  A square is convolved once per rational
    class: at the class of g^u, u a unit, it is the square at g with its
    exponents multiplied by u.  chi_a(1) must be the Riemann-Hurwitz genus
    of the branch data and <chi_a, 1> the orbit genus (`InternalCheckFailed`).
    """
    G = X.group
    classes = G.conjugacy_classes()
    genus = genus_from_branch_data(G.order, X.vector.periods)
    if list(values[0]) != [scale * genus]:
        raise InternalCheckFailed(
            f"chi_a(1) = {values[0]} / {scale} differs from the genus {genus}")
    orbit_genus = _invariant_genus(scale, values, G.full_subgroup())
    if orbit_genus != X.signature.orbit_genus:
        raise InternalCheckFailed(
            f"<chi_a, 1> = {orbit_genus} is not the orbit genus {X.signature.orbit_genus}")
    quadratic = [0] * G.exponent()
    squares: Dict[int, List[int]] = {}
    sources = G.rational_sources()
    for c, (cls, (first, reindex)) in enumerate(zip(classes, sources)):
        if first not in squares:
            squares[first] = cyclic_product(values[first], values[first])
        square = squares[first]
        accumulate(quadratic, [square[t] for t in reindex], cls.size)
        accumulate(quadratic, at_squares[c], cls.size)
    return exact_quotient(quadratic, 2 * G.order * scale * scale, "symmetric-square sum")


def _invariant_genus(scale: int, values: Sequence[Sequence[int]], H: Subgroup) -> int:
    """The genus of X/H, dim H^0(Omega)^H = (1/|H|) sum_c |H cap C| chi_a(c), from
    H's class weights and values[c] = scale * chi_a(c)."""
    return class_sums(H.parent.exponent(), H.class_weights(), (values,), scale * H.order,
                      "invariant-differential sum")[0]


def cm_verdict(X: QuasiplatonicSurface, T: Optional[CharacterTable] = None,
               search_limit: int = 1000) -> CMVerdict:
    """Combined verdict: symmetric-square test first, then a bounded search
    for a verified subgroup collection with per-factor certificates.

    A zero value needs no character table; otherwise T is used, or built
    when it is None.
    """
    streit_value = streit_test(X)
    if streit_value == 0:
        return CMVerdict(CM_CERTIFIED, 0, None, (), None)

    log: List[dict] = []
    if len(X.vector.entries) != 3:
        # quotient certificates need Belyi covers; a longer vector deforms
        log.append({"stage": "skipped_search",
                    "reason": "relation certificates require a three-point cover"})
        return CMVerdict(INCONCLUSIVE, streit_value, None, (), None, tuple(log))

    if T is None:
        T = character_table(X.group)
    found = _search_certified_relation(X, T, search_limit, log)
    if found is not None:
        relation, report, certificates = found
        return CMVerdict(CM_CERTIFIED, streit_value, relation, certificates,
                         report, tuple(log))
    return CMVerdict(INCONCLUSIVE, streit_value, None, (), None, tuple(log))


def _search_certified_relation(X, T, search_limit, log):
    """Try candidate collections (smallest first, by total index, then
    lexicographically, enumerated lazily) and return the first fully
    certified relation.

    Each answer is computed once per key that determines it, in dicts that
    live for this call; the candidates, the collections tried and the log
    are those of a search that answers once per subgroup.  The genus of
    X/H, H's column dim V^H, a collection's multiplicities and its identity
    check are keyed by class weights |H cap C| (the permutation character
    1_H^G): the genus and the column are class sums of the weights (and |H|
    is their total), and the solve and the check read only columns, H^1 and
    genera, so a collection is keyed by its weight vectors in collection
    order.
    Whether statement A or B holds is keyed by H's class of subgroups
    (`Subgroup._class`, numbered by `all_subgroups`), not by weights: X/H
    and X/gHg^-1 are isomorphic, but a Gassmann pair (equal weights, not
    conjugate, as PSL(2,7)'s two classes each of V4, A4 and S4) may have
    different N_G(H)/H.  Only the outcome is shared: each factor of the one
    collection that certifies is certified again for its own certificate,
    and a subgroup with no class number is certified on its own.
    """
    G = X.group
    genera = {}  # class weights -> genus of the quotient

    def genus(H: Subgroup) -> int:
        weights = H.class_weights()
        if weights not in genera:
            genera[weights] = quotient_surface(X, H).genus
        return genera[weights]

    candidates = sorted((H for H in G.all_subgroups()
                         if H.is_proper_nontrivial() and genus(H) >= 1),
                        key=lambda H: (H.index, H.indices))
    weights = [H.index for H in candidates]
    labels = {}  # candidate position -> its first generator's cycles, for the log

    def label(i: int) -> str:
        if i not in labels:
            labels[i] = candidates[i].generators()[0].cycle_string()
        return labels[i]

    h1 = h1_multiplicities(X, T)
    active = [i for i, m in enumerate(h1) if m > 0]
    degrees = list(map(T.degrees().__getitem__, active))
    checked = {}  # a collection's weight vectors -> (solution, report)
    holds = {}  # class number, or H itself outside the lattice -> whether A or B holds

    def certify(H: Subgroup) -> Optional[FactorCertificate]:
        res_a = check_statement_a(G, H)
        if res_a.holds:
            return FactorCertificate(H, ROUTE_A, res_a)
        res_b = check_statement_b(X, H)
        return FactorCertificate(H, ROUTE_B, res_b) if res_b.holds else None

    def certifiable(H: Subgroup) -> bool:
        key = H if H._class is None else H._class
        if key not in holds:
            holds[key] = certify(H) is not None
        return holds[key]

    tried = 0
    for size in range(1, len(candidates) + 1):
        if tried >= search_limit:
            break
        for combo in _combinations_by_weight(weights, size):
            if tried >= search_limit:
                break
            tried += 1
            collection = [candidates[i] for i in combo]
            entry = {"stage": "collection", "subgroups": list(map(label, combo))}
            log.append(entry)
            key = tuple(H.class_weights() for H in collection)
            if key not in checked:
                columns = [[dims[i] for i in active]
                           for dims in map(T.fixed_dimensions, collection)]
                solution = _solve_multiplicities(degrees, columns, G.order)
                report = None if solution is None else verify_isogeny_relation(
                    X, T, IsogenyRelation(solution[0], tuple(zip(collection, solution[1]))))
                checked[key] = solution, report
            solution, report = checked[key]
            if solution is None:
                entry["result"] = "no_positive_integer_solution"
                continue
            if not report.holds:
                entry["result"] = "identity_failed"
                continue
            if not all(map(certifiable, collection)):
                entry["result"] = "factor_not_certified"
                continue
            certificates = tuple(map(certify, collection))
            if not all(certificates):
                raise InternalCheckFailed("conjugate subgroups disagree on statements A and B")
            n, mults = solution
            entry["result"] = "certified"
            entry["n"] = n
            entry["multiplicities"] = list(mults)
            return IsogenyRelation(n, tuple(zip(collection, mults))), report, certificates
    return None


def _combinations_by_weight(weights: Sequence[int], size: int) -> Iterator[Tuple[int, ...]]:
    """The `size`-element subsets of range(len(weights)), as ascending tuples,
    lazily in the order of (total weight, tuple); weights must be
    non-decreasing.

    Best-first from (0, ..., size - 1).  A tuple's parent lowers by one its
    leftmost entry j that exceeds j, so every tuple is pushed once, by its
    parent, and comes after it in the order.
    """
    n = len(weights)
    if size > n:
        return
    heap = [(sum(weights[:size]), tuple(range(size)))]
    while heap:
        total, combo = heapq.heappop(heap)
        yield combo
        for j in range(size):
            raised = combo[j] + 1
            if raised < (combo[j + 1] if j + 1 < size else n):
                heapq.heappush(heap, (total - weights[combo[j]] + weights[raised],
                                      combo[:j] + (raised,) + combo[j + 1:]))
            if combo[j] != j:
                break


def _solve_multiplicities(degrees: Sequence[int], dim_columns: Sequence[Sequence[int]],
                          order: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Solve n*d_rho = sum_i x_i w_{rho,i} for positive integers n, x_i <= |G|.

    The system is solved over the rationals with n normalized to 1; a unique
    positive solution is scaled to the primitive integer vector.  Collections
    with dependent columns are skipped (a redundant factor shows up again as
    a smaller collection).
    """
    rows = len(degrees)
    s = len(dim_columns)
    if rows < s:
        return None
    mat = [[Fraction(dim_columns[i][r]) for i in range(s)] + [Fraction(degrees[r])]
           for r in range(rows)]
    # Gaussian elimination on [W | d]
    r = 0
    for c in range(s):
        pr = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if pr is None:
            return None  # dependent columns
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    for i in range(r, rows):
        if mat[i][s] != 0:
            return None  # inconsistent
    x = [mat[i][s] for i in range(s)]
    if any(v <= 0 for v in x):
        return None
    n = lcm(*(v.denominator for v in x))
    mults = tuple(int(v * n) for v in x)
    if n > order or any(mu > order for mu in mults):
        return None
    return n, mults


def reverify_verdict(X: QuasiplatonicSurface, T: CharacterTable,
                     verdict: CMVerdict) -> bool:
    """Re-check an emitted certificate from scratch.

    A zero symmetric-square value is re-derived by a route independent of
    `streit_test`: the eigenvalue spectra of T (`_spectra_streit_value`).
    A relation certificate is re-verified row by row and each factor's
    statement A or B is checked again.
    """
    if verdict.status != CM_CERTIFIED:
        return False
    if verdict.streit_value == 0:
        return _spectra_streit_value(X, T) == 0
    if verdict.relation is None:
        return False
    report = verify_isogeny_relation(X, T, verdict.relation)
    if not report.holds:
        return False
    by_subgroup = {cert.subgroup: cert for cert in verdict.certificates}
    for H, _ in verdict.relation.factors:
        cert = by_subgroup.get(H)
        if cert is None:
            return False
        if cert.route == ROUTE_A:
            if not check_statement_a(X.group, H).holds:
                return False
        elif cert.route == ROUTE_B:
            if not check_statement_b(X, H).holds:
                return False
        else:
            return False
    return True
