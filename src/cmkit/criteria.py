"""Decision layer: per-factor sufficient conditions, isogeny-relation
verification, the symmetric-square test, and the combined CM verdict.

A verdict is certificate-based: CM_CERTIFIED carries either an exact zero of
the symmetric-square inner product, or a verified isotypic-dimension
relation together with a per-factor certificate (abelian quotient cover, or
large abelian automorphism group of the quotient).  INCONCLUSIVE is never a
negative statement.

The relation-route certificates rely on quotients being Belyi covers, so
the search only runs for three-point covers; the symmetric-square route is
rigidity-based and needs no such guard (a cover with more branch points
deforms, which forces a positive value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .chartable import (
    Character,
    CharacterTable,
    fixed_space_dimension,
    inner_product,
    symmetric_square,
    trivial_character,
)
from .errors import (
    GenusZeroQuotient,
    GroupMismatch,
    InternalCheckFailed,
    NonIntegralResult,
    NotProperNontrivial,
)
from .group import FiniteGroup, Subgroup
from .surface import (
    QuasiplatonicSurface,
    Signature,
    analytic_character,
    chevalley_weil_multiplicities,
    galois_quotient_signature,
    quotient_surface,
)

CM_CERTIFIED = "CM_CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"

ROUTE_A = "statement_A"
ROUTE_B = "statement_B"

EXCEPTION_PERIODS = (2, 2, 3, 3)


@dataclass(frozen=True)
class IsogenyRelation:
    """JX^n compared against the product of JY_i^{n_i} for Y_i = X/H_i."""

    n: int
    factors: Tuple[Tuple[Subgroup, int], ...]

    def __post_init__(self):
        if self.n < 1 or not self.factors:
            raise ValueError("relation needs n >= 1 and at least one factor")
        for H, mult in self.factors:
            if mult < 1:
                raise ValueError("factor multiplicities must be positive")
            if not H.is_proper_nontrivial():
                raise NotProperNontrivial(
                    "relation factors must be proper non-trivial subgroups")


@dataclass(frozen=True)
class StatementAResult:
    holds: bool
    is_normal: bool
    quotient_order: Optional[int]
    quotient_abelian: Optional[bool]
    abelian_invariants: Optional[Tuple[int, ...]]


@dataclass(frozen=True)
class StatementBResult:
    holds: bool
    genus: int
    bound: int
    group_order: Optional[int]
    group_generators: Tuple[str, ...]
    group_is_cyclic6: bool
    bound_satisfied: bool
    exception_matched: bool
    quotient_signature: Optional[Signature]
    searched: int


@dataclass(frozen=True)
class FactorCertificate:
    subgroup: Subgroup
    route: str
    evidence: object  # StatementAResult | StatementBResult | dict


@dataclass(frozen=True)
class IrreducibleRow:
    index: int
    degree: int
    h1_multiplicity: int
    lhs: int
    rhs: int
    factor_dimensions: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class RelationReport:
    holds: bool
    n: int
    multiplicities: Tuple[int, ...]
    rows: Tuple[IrreducibleRow, ...]
    genus_lhs: int
    genus_rhs: int


@dataclass(frozen=True)
class CMVerdict:
    status: str
    streit_value: int
    relation: Optional[IsogenyRelation]
    certificates: Tuple[FactorCertificate, ...]
    relation_report: Optional[RelationReport]
    search_log: Tuple[dict, ...] = field(default=())

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
    Q = G.quotient_group(H)
    abelian = Q.is_abelian()
    invariants = Q.abelian_invariants() if abelian else None
    return StatementAResult(abelian, True, Q.order, abelian, invariants)


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

    N = G.normalizer(H)
    N_grp = FiniteGroup(G.degree, N.generators(), max_order=G.order)
    H_in_N = N_grp.subgroup(H.elements)
    Q, hom = N_grp.quotient_with_map(H_in_N)

    candidates = sorted(Q.all_subgroups(), key=lambda K: (-K.order, K.elements))
    searched = 0
    for K in candidates:
        if not K.is_abelian():
            continue
        searched += 1
        cyclic6 = K.order == 6 and K.is_cyclic()
        large = K.order > bound
        sig = None
        if large or cyclic6:
            preimage_elements = [n for n in N_grp.elements if hom[n] in K.element_set]
            K_pre = G.subgroup(preimage_elements)
            sig = galois_quotient_signature(X, H, K_pre)
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
    rows = []
    for idx, chi in enumerate(T.irreducibles):
        if h1[idx] == 0:
            continue
        dims = tuple(fixed_space_dimension(chi, H) for H, _ in R.factors)
        lhs = R.n * chi.degree
        rhs = sum(mult * dim for (_, mult), dim in zip(R.factors, dims))
        rows.append(IrreducibleRow(idx, chi.degree, h1[idx], lhs, rhs, dims))
    holds = all(r.ok for r in rows)
    genus_lhs = R.n * X.genus
    genus_rhs = sum(mult * quotient_surface(X, H).genus for H, mult in R.factors)
    if holds and genus_lhs != genus_rhs:
        # dimension accounting is a provable consequence of the row identities
        raise InternalCheckFailed(
            f"row identities hold but the genus identity fails: {genus_lhs} != {genus_rhs}")
    return RelationReport(holds, R.n, h1, tuple(rows), genus_lhs, genus_rhs)


def streit_test(X: QuasiplatonicSurface, T: CharacterTable) -> int:
    """Exact value of the symmetric-square inner product <S^2(rho_a), 1>.

    Zero certifies complex multiplication: the period point is then rigid in
    the Siegel space.
    """
    if X.genus < 1:
        raise ValueError("the symmetric-square test needs genus >= 1")
    chi_a = analytic_character(X, T)
    value = inner_product(symmetric_square(chi_a), trivial_character(X.group))
    try:
        result = value.integer_value()
    except ValueError:
        raise NonIntegralResult(
            f"symmetric-square inner product {value.to_string()} not integral") from None
    if result < 0:
        raise NonIntegralResult(f"negative inner product {result}")
    return result


def cm_verdict(X: QuasiplatonicSurface, T: CharacterTable,
               search_limit: int = 1000) -> CMVerdict:
    """Combined verdict: symmetric-square test first, then a bounded search
    for a verified subgroup collection with per-factor certificates."""
    streit_value = streit_test(X, T)
    if streit_value == 0:
        return CMVerdict(CM_CERTIFIED, 0, None, (), None)

    log: List[dict] = []
    if len(X.vector.entries) != 3:
        # quotient certificates need Belyi covers; a longer vector deforms
        log.append({"stage": "skipped_search",
                    "reason": "relation certificates require a three-point cover"})
        return CMVerdict(INCONCLUSIVE, streit_value, None, (), None, tuple(log))

    found = _search_certified_relation(X, T, search_limit, log)
    if found is not None:
        relation, report, certificates = found
        return CMVerdict(CM_CERTIFIED, streit_value, relation, certificates,
                         report, tuple(log))
    return CMVerdict(INCONCLUSIVE, streit_value, None, (), None, tuple(log))


def _search_certified_relation(X, T, search_limit, log):
    """Try candidate collections (smallest first, by total index, then
    lexicographically) and return the first fully certified relation."""
    G = X.group
    candidates = []
    for H in G.all_subgroups():
        if not H.is_proper_nontrivial():
            continue
        if quotient_surface(X, H).genus >= 1:
            candidates.append(H)
    candidates.sort(key=lambda H: (H.index, H.elements))

    h1 = h1_multiplicities(X, T)
    active = [i for i, m in enumerate(h1) if m > 0]
    degrees = [T.irreducibles[i].degree for i in active]
    dim_cache: Dict[Subgroup, List[int]] = {}
    cert_cache: Dict[Subgroup, Optional[FactorCertificate]] = {}

    def dims_of(H: Subgroup) -> List[int]:
        if H not in dim_cache:
            dim_cache[H] = [fixed_space_dimension(T.irreducibles[i], H) for i in active]
        return dim_cache[H]

    def certify(H: Subgroup) -> Optional[FactorCertificate]:
        if H not in cert_cache:
            res_a = check_statement_a(G, H)
            if res_a.holds:
                cert_cache[H] = FactorCertificate(H, ROUTE_A, res_a)
            else:
                res_b = check_statement_b(X, H)
                cert_cache[H] = (FactorCertificate(H, ROUTE_B, res_b)
                                 if res_b.holds else None)
        return cert_cache[H]

    tried = 0
    for size in range(1, len(candidates) + 1):
        if tried >= search_limit:
            break
        combos = sorted(combinations(range(len(candidates)), size),
                        key=lambda c: (sum(candidates[i].index for i in c), c))
        for combo in combos:
            if tried >= search_limit:
                break
            tried += 1
            collection = [candidates[i] for i in combo]
            solution = _solve_multiplicities(degrees, [dims_of(H) for H in collection],
                                             G.order)
            entry = {"stage": "collection",
                     "subgroups": [H.generators()[0].cycle_string() if H.generators()
                                   else "()" for H in collection]}
            if solution is None:
                entry["result"] = "no_positive_integer_solution"
                log.append(entry)
                continue
            n, mults = solution
            relation = IsogenyRelation(n, tuple(zip(collection, mults)))
            report = verify_isogeny_relation(X, T, relation)
            if not report.holds:
                entry["result"] = "identity_failed"
                log.append(entry)
                continue
            certificates = []
            failed = None
            for H in collection:
                cert = certify(H)
                if cert is None:
                    failed = H
                    break
                certificates.append(cert)
            if failed is not None:
                entry["result"] = "factor_not_certified"
                log.append(entry)
                continue
            entry["result"] = "certified"
            entry["n"] = n
            entry["multiplicities"] = list(mults)
            log.append(entry)
            return relation, report, tuple(certificates)
    return None


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
    pivot_rows = []
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
        pivot_rows.append(r)
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
    """Re-check an emitted certificate from scratch."""
    if verdict.status != CM_CERTIFIED:
        return False
    if verdict.streit_value == 0:
        return streit_test(X, T) == 0
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
