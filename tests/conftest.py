import cmath
import functools
import math
import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from functools import partial
from operator import mul
from pathlib import Path
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import assume
from hypothesis import strategies as st

import cmkit
from cmkit import (
    Cyclotomic,
    FiniteGroup,
    GeneratingVector,
    GenusZeroQuotient,
    GroupMismatch,
    GroupTooLarge,
    InvalidCharacterTable,
    NotNormal,
    NotProperNontrivial,
    Permutation,
    QuasiplatonicSurface,
    build_gm,
    canonical_vector,
    character_table,
    galois_quotient_signature,
    quotient_surface,
)
from cmkit import chartable
from cmkit.cyclotomic import euler_phi, prime_factors
from cmkit.criteria import (
    EXCEPTION_PERIODS,
    ROUTE_A,
    ROUTE_B,
    FactorCertificate,
    IsogenyRelation,
    StatementAResult,
    StatementBResult,
    _combinations_by_weight,
    _solve_multiplicities,
    check_statement_a,
    check_statement_b,
    h1_multiplicities,
    verify_isogeny_relation,
)


@functools.lru_cache(maxsize=None)
def gm_bundle(m):
    """(instance, surface, table) for gm(m), computed once per session."""
    inst = build_gm(m)
    X = QuasiplatonicSurface.from_vector(canonical_vector(inst))
    T = character_table(inst.group)
    return inst, X, T


def _compose(p, q):
    return tuple(p[x] for x in q)


def _conjugate(g, c):
    """g c g^-1: g relabels the points of c's cycles."""
    out = [0] * len(c)
    for x, y in enumerate(c):
        out[g[x]] = g[y]
    return tuple(out)


def eichler_streit_value(vector):
    """<S^2(rho_a), 1> in complex floats, by the Eichler trace formula.

    `vector` is a generating vector given as image tuples; nothing of the
    character-table or cyclotomic layers is used.  An element s != 1 fixes
    the point g<c> over a branch value exactly when s = g c^k g^-1, and
    rotates it by z = exp(2 pi i k / m), m the order of c.  The trace of s
    on 1-forms is 1 plus z / (1 - z) for each fixed point; running over all
    g visits each coset m times.  The trace of 1 is the Riemann-Hurwitz
    genus.  The other orientation convention conjugates every trace, which
    leaves the value unchanged.
    """
    one = tuple(range(len(vector[0])))
    group, todo = {one}, deque([one])
    while todo:
        x = todo.popleft()
        for c in vector:
            y = _compose(x, c)
            if y not in group:
                group.add(y)
                todo.append(y)

    trace = dict.fromkeys(group, 1 + 0j)
    weights = []
    for c in vector:
        powers, x = [], one
        while True:
            x = _compose(x, c)
            if x == one:
                break
            powers.append(x)
        m = len(powers) + 1
        weights.append(Fraction(1, m))
        for k, ck in enumerate(powers, start=1):
            z = cmath.exp(2j * cmath.pi * k / m)
            for g in group:
                trace[_conjugate(g, ck)] += z / (1 - z) / m
    n = len(group)
    trace[one] = complex(1 + Fraction(n, 2) * (len(vector) - 2 - sum(weights)))
    return sum((trace[s] ** 2 + trace[_compose(s, s)]) / 2 for s in group) / n


def cyclotomic_cw_reference(X, T):
    """Chevalley-Weil multiplicities from the table values alone.

    The slow oracle for `chevalley_weil_multiplicities`: the multiplicity of
    exp(2 pi i alpha / m) as an eigenvalue of rho(g) is recomputed in exact
    cyclotomic arithmetic as (1/m) sum_s chi(g^s) zeta_m^(-alpha s), using
    only `chi.values`; `T.spectra` is not read.
    """
    G = X.group
    trivial = T.trivial_index
    power_data = []
    for g in X.vector.entries:
        m = g.order()
        pcs = []
        cur = G.identity
        for _ in range(m):
            pcs.append(G.class_index(cur))
            cur = cur * g
        power_data.append((m, pcs))

    mults = []
    for idx, chi in enumerate(T.irreducibles):
        total = Fraction(-chi.degree) + (1 if idx == trivial else 0)
        for m, pcs in power_data:
            for alpha in range(1, m):
                acc = Cyclotomic.zero()
                for s in range(m):
                    acc = acc + chi.values[pcs[s]] * Cyclotomic.zeta(m, (-alpha * s) % m)
                count = (acc / m).integer_value()
                assert count >= 0
                total += Fraction(count * (m - alpha), m)
        assert total.denominator == 1 and total >= 0
        mults.append(int(total))
    return tuple(mults)


def reference_table(G):
    """Cayley table and inverses from `Permutation` products and inverses.

    The slow oracle for the table the constructor reads off the closure's
    generator steps: every entry is a composition looked up by image tuple.
    """
    table = [[G.index_of(a * b) for b in G.elements] for a in G.elements]
    inverses = [G.index_of(a.inverse()) for a in G.elements]
    return table, inverses


def index_table(G):
    """The package's Cayley table and inverses, read through `mul` and `inv`."""
    n = G.order
    return [[G.mul(i, j) for j in range(n)] for i in range(n)], [G.inv(i) for i in range(n)]


def reference_closure(degree, gens, max_order):
    """(image tuples in index order, Cayley table, inverses) of the group the
    `Permutation`s `gens` generate, composed and filled entry by entry: the
    oracle for `FiniteGroup`'s closure and table, which read by gathers.
    Raises `GroupTooLarge` as the constructor does."""
    found = [tuple(range(degree))]
    where = {found[0]: 0}
    steps = []
    tree = [(0, 0)]
    i = 0
    while i < len(found):
        x = found[i]
        row = []
        for s, g in enumerate(gens):
            y = tuple(map(g.images.__getitem__, x))
            j = where.get(y)
            if j is None:
                if len(found) >= max_order:
                    raise GroupTooLarge(f"order bound {max_order} exceeded")
                j = where[y] = len(found)
                found.append(y)
                tree.append((i, s))
            row.append(j)
        steps.append(row)
        i += 1
    n = len(found)
    order = sorted(range(n), key=found.__getitem__)
    rank = [0] * n
    for i, old in enumerate(order):
        rank[old] = i
    left = [[0] * n for _ in gens]
    for old, row in enumerate(steps):
        for s, y in enumerate(row):
            left[s][rank[old]] = rank[y]
    table = [list(range(n))] + [None] * (n - 1)
    for old in range(1, n):
        p, s = tree[old]
        ls = left[s]
        table[rank[old]] = [ls[v] for v in table[rank[p]]]
    return [found[old] for old in order], table, [row.index(0) for row in table]


def bfs_closure(G, seed):
    """Element indices of the subgroup generated by `seed`, breadth first
    over right multiplication by the seed: the oracle for `index_closure`."""
    seed = tuple(seed)
    els = {0, *seed}
    frontier = list(els)
    while frontier:
        nxt = []
        for x in frontier:
            for s in seed:
                y = G.mul(x, s)
                if y not in els:
                    els.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(els)


def reference_derived_subgroup(G):
    """G' as the closure of every commutator x^-1 y^-1 x y, read from the
    Cayley table: the oracle for `perm.commutator_quotient`'s normal closure
    of the generators' commutators."""
    n, mul, inv = G.order, G.mul, G.inv
    commutators = {mul(mul(inv(x), inv(y)), mul(x, y)) for x in range(n) for y in range(n)}
    return bfs_closure(G, sorted(commutators - {0}))


# The random groups of degree 2-7 on one to three generators that the
# closure and the class pass are checked on: (degree, image lists).
closure_cases = st.integers(min_value=2, max_value=7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3)))


# -- the class loops before the single class pass ---------------------------------
# The oracles for `FiniteGroup._build_classes`, `perm.powers` and
# `perm.left_cosets`: the orbit loop of `conjugacy_classes`, `_index_order`,
# the `power_classes` walk by `G.mul`, `chartable._rational_sources`, the
# `G.mul` loop of `Subgroup.coset_ids` and the powers walk of
# `lattice.cyclic_generators` as they were before the facts were built with
# the group, reading only its table, inverses and generator indices.


def reference_classes(G):
    """(sorted member indices of every class, class id of every index, power
    rows, exponent, rational sources), classes ordered by (element order,
    size, images of the minimal member)."""
    n, table, inv, gen_idx = G.order, G._table, G._inv, G._gens
    seen = [False] * n
    raw = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:
            for gi in gen_idx:
                y = table[table[gi][x]][inv[gi]]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        raw.append(sorted(orbit))
    keyed = sorted((_index_order(G, members[0]), len(members),
                    G.elements[members[0]].images, members) for members in raw)
    class_of = [0] * n
    for ci, (_, _, _, members) in enumerate(keyed):
        for i in members:
            class_of[i] = ci
    rows = []
    for order, _, _, members in keyed:
        cur, row = 0, []
        for _ in range(order):
            row.append(class_of[cur])
            cur = G.mul(cur, members[0])
        rows.append(tuple(row))
    orders = [order for order, _, _, _ in keyed]
    return ([members for _, _, _, members in keyed], class_of, rows, math.lcm(*orders),
            _rational_sources(orders, rows))


def _index_order(G, x):
    """Order of the element with index x, by powering it in the table."""
    row, y, order = G._table[x], x, 1
    while y:
        y, order = row[y], order + 1
    return order


def _rational_sources(orders, power):
    """(first, [t u^-1 mod o for t < o]) for each class of element order o."""
    source = [None] * len(orders)
    for c, (o, row) in enumerate(zip(orders, power)):
        if source[c] is None:
            for u in range(o):
                if math.gcd(u, o) == 1 and source[row[u]] is None:
                    u_inv = pow(u, -1, o)
                    source[row[u]] = (c, [(t * u_inv) % o for t in range(o)])
    return source


def reference_coset_ids(H):
    """(coset id of every element index, minimal member of every coset) of
    H's left cosets, numbered by minimal member, through `G.mul`."""
    G = H.parent
    coset = [-1] * G.order
    reps = []
    for i in range(G.order):
        if coset[i] < 0:
            for h in H.indices:
                coset[G.mul(i, h)] = len(reps)
            reps.append(i)
    return coset, reps


def reference_cyclic_generators(G):
    """The least index generating <x>, for every element index x."""
    canon = [-1] * G.order
    for i, row in enumerate(G._table):
        if canon[i] >= 0:
            continue
        powers, y = [i], i
        while y:
            y = row[y]
            powers.append(y)
        o = len(powers)
        for k, y in enumerate(powers, 1):
            if math.gcd(k, o) == 1:
                canon[y] = i
    return canon


def reference_subgroups(G):
    """[(indices, generators)] of every subgroup, as `all_subgroups` lists them.

    The slow oracle for the lattice: the same traversal (cyclic subgroups
    by first element index, a LIFO queue, joins with cyclic subgroups not
    already inside, the first generator tuple found for each subgroup), but
    every join is closed from scratch by `bfs_closure` over all of its
    generators.
    """
    first = {}
    for i in range(G.order):
        first.setdefault(bfs_closure(G, (i,)), i)
    cyclics = [(i, c) for c, i in first.items()]
    gensets = {frozenset([0]): ()}
    for i, c in cyclics:
        gensets.setdefault(c, (i,))
    queue = list(gensets)
    while queue:
        h = queue.pop()
        for i, c in cyclics:
            if c <= h:
                continue
            new_gens = gensets[h] + (i,)
            k = bfs_closure(G, new_gens)
            if k not in gensets:
                gensets[k] = new_gens
                queue.append(k)
    return [(tuple(sorted(k)), gens)
            for k, gens in sorted(gensets.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]


def dimino_lattice_reference(G):
    """[(indices, generators)] of every subgroup by the LIFO traversal itself.

    The oracle for `all_subgroups`' two passes: the trivial and the cyclic
    subgroups (by first generating element index) on a LIFO queue, each
    subgroup H popped and joined with every cyclic <i> not inside it, in
    that order, each join grown from H's elements by `G._grow`; a new join
    is recorded with H's generators plus i.  A join is not made when it
    equals one already made from H: <H, x> = <H, i> for x in iH and for
    every conjugate of i by H's generators.
    """
    n, table, inv = G.order, G._table, G._inv
    first = {}
    canon = [0] * n  # element -> first index generating its cyclic subgroup
    for i in range(n):
        canon[i] = first.setdefault(G.index_closure((i,)), i)
    cyclics = list(first.values())

    gensets = {frozenset([0]): ()}
    for c, i in first.items():
        gensets.setdefault(c, (i,))
    whole = frozenset(range(n))
    queue = list(gensets.keys())
    while queue:
        h = queue.pop()
        h_gens, h_list = gensets[h], list(h)
        h_member = bytearray(n)
        for x in h_list:
            h_member[x] = 1
        done = bytearray(n)  # cyclics c with <H, c> equal to a join already made
        for i in cyclics:
            if h_member[i] or done[i]:
                continue
            new_gens = h_gens + (i,)
            elements = h_list.copy()
            k = (frozenset(elements) if G._grow(elements, h_member.copy(), new_gens)
                 else whole)
            if k not in gensets:
                gensets[k] = new_gens
                queue.append(k)
            done[i] = 1
            orbit = [i]
            for c in orbit:
                for g in h_gens:
                    d = canon[table[table[g][c]][inv[g]]]
                    if not done[d]:
                        done[d] = 1
                        orbit.append(d)
            row = table[i]
            for x in h_list:
                done[canon[row[x]]] = 1
    return [(tuple(sorted(k)), gens)
            for k, gens in sorted(gensets.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]


def reference_generators(G, indices):
    """The greedy generating set of `Subgroup.generators`, each step closed
    from scratch by `bfs_closure`: every element of `indices`, in order, not
    in the group generated so far, until the whole subgroup is generated."""
    gens, have = [], {0}
    for i in indices:
        if i in have:
            continue
        gens.append(i)
        have = bfs_closure(G, gens)
        if len(have) == len(indices):
            break
    return tuple(gens)


def _permutation_cosets(G, H):
    """Left cosets gH by Permutation products: coset of each element, and
    the minimal member of each coset (cosets in order of minimal member)."""
    coset_of, reps = {}, []
    for g in G.elements:
        if g not in coset_of:
            for h in H.elements:
                coset_of[g * h] = len(reps)
            reps.append(g)
    return coset_of, reps


def _coset_permutation(g, cosets):
    coset_of, reps = cosets
    return Permutation(tuple(coset_of[g * r] for r in reps))


def permutation_quotient_reference(X, H):
    """(genus, branch data) of X/H by cycle counting on Permutations.

    The slow oracle for `quotient_surface`: each vector entry's action on
    the left cosets of H is built as a `Permutation` from products of
    `Permutation`s; no element index, Cayley table or coset numbering of
    the package is used.
    """
    cosets = _permutation_cosets(X.group, H)
    n = len(cosets[1])
    defect, branch = 0, []
    for g in X.vector.entries:
        lengths = [len(c) for c in _coset_permutation(g, cosets).all_cycles()]
        defect += n - len(lengths)
        branch.append((g.order(), tuple(sorted(lengths, reverse=True))))
    assert defect % 2 == 0
    return 1 - n + defect // 2, tuple(branch)


def move_one_class_weight(class_weights):
    """A doctored `Subgroup.class_weights`: one element's count moves from the
    first class H meets to the next class of the same element order, when
    there is one; the counts still sum to |H|."""
    def doctored(H):
        weights = list(class_weights(H))
        classes = H.parent.conjugacy_classes()
        for a, (w, cls) in enumerate(zip(weights, classes)):
            b = next((b for b in range(a + 1, len(classes))
                      if classes[b].order == cls.order), None)
            if w and b is not None:
                weights[a] -= 1
                weights[b] += 1
                break
        return tuple(weights)
    return doctored


def permutation_galois_reference(X, H, N):
    """(orbit genus, sorted periods) of the Galois cover X/H -> X/N (H
    normal in N), from the Permutation actions on the cosets of H and N."""
    cosets_H, cosets_N = _permutation_cosets(X.group, H), _permutation_cosets(X.group, N)
    proj = [cosets_N[0][r] for r in cosets_H[1]]
    periods = []
    for g in X.vector.entries:
        on_H = _coset_permutation(g, cosets_H)
        top = {x: len(c) for c in on_H.all_cycles() for x in c}
        for cyc in _coset_permutation(g, cosets_N).all_cycles():
            lengths = {top[c] for c, t in enumerate(proj) if t in cyc}
            assert len(lengths) == 1
            l_top = lengths.pop()
            assert l_top % len(cyc) == 0
            if l_top > len(cyc):
                periods.append(l_top // len(cyc))
    return permutation_quotient_reference(X, N)[0], tuple(sorted(periods))


def quotient_reference(G, N):
    """G/N as its regular action on the coset ids of N, and the map onto it,
    by `Permutation`s: the oracle for `Subgroup.normalizer_quotient`.  N is
    normal, so every element of a coset acts as its minimal member."""
    if not G.is_normal(N):
        raise NotNormal("quotient by a non-normal subgroup")
    coset, reps = N.coset_ids()
    images = [Permutation(N.action_on_cosets(r)) for r in reps]
    action = {g: images[coset[i]] for i, g in enumerate(G.elements)}
    quotient = FiniteGroup(images[0].degree,
                           tuple(action[g] for g in G.generators),
                           max_order=G.order)
    if quotient.order * N.order != G.order:
        raise NotNormal(f"quotient of order {quotient.order} by a subgroup of order "
                        f"{N.order} in a group of order {G.order}")
    return quotient, action


def abelian_invariants_reference(G):
    """Invariant factors of an abelian G by partitions of the primary parts:
    the oracle for `FiniteGroup.abelian_invariants`.  The counts of elements
    of each prime-power order give the conjugate partition of every primary
    component, which is transposed and recombined across primes."""
    if not G.is_abelian():
        raise ValueError("abelian_invariants requires an abelian group")
    n = G.order
    if n == 1:
        return ()
    primes = prime_factors(n)
    primary = {}
    for p in primes:
        counts = [1]  # number of x with x^(p^j) = 1
        j = 1
        while True:
            q = p ** j
            c = sum(cls.size for cls in G.conjugacy_classes() if q % cls.order == 0)
            counts.append(c)
            if counts[-1] == counts[-2]:
                counts.pop()
                break
            j += 1
        # counts[j] = p^(sum_i min(lambda_i, j)); successive ratios give the
        # conjugate partition.
        exps = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            k = 0
            while ratio > 1:
                ratio //= p
                k += 1
            exps.append(k)  # number of parts >= j
        parts = []
        for j, cnt in enumerate(exps, start=1):
            while len(parts) < cnt:
                parts.append(0)
            for i in range(cnt):
                parts[i] = j
        primary[p] = sorted((p ** lam for lam in parts), reverse=True)
    width = max(len(v) for v in primary.values())
    factors = []
    for i in range(width):
        d = 1
        for p in primes:
            comp = primary[p]
            if i < len(comp):
                d *= comp[i]
        factors.append(d)
    factors.reverse()  # ascending divisibility chain
    return tuple(factors)


# -- the Hessenberg route to the joint eigenvectors ------------------------------
# The oracle for `chartable._joint_eigenvectors`: the route the character table
# took before the Krylov minimal polynomials, copied verbatim (the F_p linear
# algebra from `cmkit.modp`, then the split from `cmkit.chartable`).  Each
# eigenspace is carried with a basis, split by the roots of the characteristic
# polynomial of the restricted matrix, from its Hessenberg form.


def matvec(mat, vec, p):
    return [sum(map(mul, row, vec)) % p for row in mat]


def combine(coords, basis, p):
    """sum_i coords[i] basis[i]."""
    return [sum(map(mul, coords, col)) % p for col in zip(*basis)]


def echelon(vectors, p) -> Tuple[List[List[int]], List[int]]:
    """(rows, pivots): a basis of the span in reduced echelon form, row i
    with a 1 in column pivots[i], where every other row has a 0."""
    rows: List[List[int]] = []
    pivots: List[int] = []
    for vec in vectors:
        w = vec
        for row, c in zip(rows, pivots):
            f = w[c]
            if f:
                w = [(a - f * b) % p for a, b in zip(w, row)]
        c = next((i for i, x in enumerate(w) if x), None)
        if c is None:
            continue
        inv = pow(w[c], p - 2, p)
        w = [(x * inv) % p for x in w]
        rows = [[(a - row[c] * b) % p for a, b in zip(row, w)] if row[c] else row
                for row in rows]
        rows.append(w)
        pivots.append(c)
    return rows, pivots


def restrict(mat, rows, pivots, p):
    """The matrix of mat on the span of rows, in reduced echelon form: the
    coordinates of a vector of the span are its entries at the pivots."""
    images = [matvec(mat, b, p) for b in rows]
    for w in images:
        if combine([w[c] for c in pivots], rows, p) != w:
            raise InvalidCharacterTable("subspace not invariant")
    return [[w[c] for w in images] for c in pivots]


def nullspace(mat, p) -> List[List[int]]:
    rows, pivots = echelon(mat, p)
    basis = []
    for free in range(len(mat[0])):
        if free not in pivots:
            vec = [0] * len(mat[0])
            vec[free] = 1
            for row, c in zip(rows, pivots):
                vec[c] = (-row[free]) % p
            basis.append(vec)
    return basis


def charpoly(mat, p) -> List[int]:
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
        top = h[c + 1]
        factors = [0] * (c + 2)
        for r in range(c + 2, d):
            f = (h[r][c] * inv) % p
            factors.append(f)
            if f:
                h[r] = [(a - f * b) % p for a, b in zip(h[r], top)]
        # the inverse transformation adds f_r times column r to column c + 1
        if any(factors):
            for row in h:
                row[c + 1] = (row[c + 1] + sum(map(mul, factors, row))) % p
    # expand det(xI - H) along the last column of each leading block
    polys: List[List[int]] = [[1]]
    for m in range(1, d + 1):
        # (x - H[m-1][m-1]) * f_{m-1}
        prev = polys[m - 1]
        diag = h[m - 1][m - 1]
        cur = [(a - diag * b) % p for a, b in zip([0] + prev, prev + [0])]
        prod = 1
        for i in range(1, m):
            prod = (prod * h[m - i][m - i - 1]) % p
            if not prod:
                break
            coef = (h[m - 1 - i][m - 1] * prod) % p
            if coef:
                lower = polys[m - 1 - i]
                for idx, c in enumerate(lower):
                    cur[idx] = (cur[idx] - coef * c) % p
        polys.append(cur)
    return polys[d]


def roots(poly: List[int], p: int) -> Dict[int, int]:
    """{root: multiplicity} of a polynomial over F_p (ascending coefficients)."""
    found = {}
    for lam in range(p):
        q, mult = poly, 0
        while len(q) > 1:
            quotient, remainder = divide_linear(q, lam, p)
            if remainder:
                break
            q, mult = quotient, mult + 1
        if mult:
            found[lam] = mult
    return found


def divide_linear(poly: List[int], lam: int, p: int) -> Tuple[List[int], int]:
    """(quotient, remainder) of poly by x - lam over F_p, ascending coefficients."""
    acc = 0
    out = []
    for c in reversed(poly):
        acc = (acc * lam + c) % p
        out.append(acc)
    remainder = out.pop()
    return out[::-1], remainder


# The split order never reaches the output: rows are sorted by an exact key.
_SPLIT_SEED = 1990
_SEEDED_COMBINATIONS = 4


def _class_combination(G: FiniteGroup, coeffs: List[int], p: int) -> List[List[int]]:
    """sum_i coeffs[i] M_i mod p, with M_i[j][l] = #{x in C_i : x^-1 z_l in C_j}
    for the representative z_l of class l."""
    class_of = G.class_ids()
    k = len(coeffs)
    weighted = [(G.inv(x), coeffs[c]) for x, c in enumerate(class_of) if coeffs[c]]
    mat = [[0] * k for _ in range(k)]
    for l, cls in enumerate(G.conjugacy_classes()):
        zl = G.index_of(cls.representative)
        for xi, c in weighted:
            mat[class_of[G.mul(xi, zl)]][l] += c
    return [[x % p for x in row] for row in mat]


def _joint_eigenvectors(G: FiniteGroup, p: int) -> List[List[int]]:
    """One common eigenvector of the class matrices for each irreducible.

    The matrices act on class space with eigenvectors w_chi, where
    w_chi[l] = |C_l| chi(z_l) / chi(1), and the identity-class indicator is
    e_0 = sum_chi (chi(1)^2 / |G|) w_chi, every coefficient nonzero mod
    p > 2|G|.  A combination A of class matrices, seeded ones first and then
    each class matrix alone, splits every subspace still shared by several
    irreducibles into its eigenspaces.  Each subspace carries the projection
    of e_0 onto it, which keeps a nonzero coefficient on every w_chi in it,
    as the start vector of its next split (`_split`).
    """
    k = len(G.conjugacy_classes())
    rng = random.Random(_SPLIT_SEED)
    combinations = [[0] + [rng.randrange(p) for _ in range(k - 1)]
                    for _ in range(_SEEDED_COMBINATIONS)]
    combinations += [[int(i == j) for j in range(k)] for i in range(1, k)]
    found: List[List[int]] = []
    # (start vector, (rows, pivots) of the subspace in reduced echelon form);
    # None stands for all of class space.
    pending: list = [([int(i == 0) for i in range(k)], None)]
    if k == 1:
        found, pending = [[1]], []
    for coeffs in combinations:
        if not pending:
            break
        mat = _class_combination(G, coeffs, p)
        still = []
        for start, space in pending:
            if space is None:
                parts = _split(mat, start, p, rng)
                lift = list
            else:
                rows, pivots = space
                parts = _split(restrict(mat, rows, pivots, p),
                               [start[c] for c in pivots], p, rng)
                lift = partial(combine, basis=rows, p=p)
            if not parts:
                still.append((start, space))
            for vec, basis in parts:
                if len(basis) == 1:
                    found.append(lift(vec))
                    continue
                lifted = [lift(b) for b in basis]
                sub = echelon(lifted, p)
                if len(sub[0]) != len(lifted):
                    raise InvalidCharacterTable("basis vectors are dependent")
                still.append((lift(vec), sub))
        pending = still
    if pending:
        raise InvalidCharacterTable("class matrices failed to separate")
    return found


def _split(mat, start, p: int, rng: random.Random) -> List[Tuple[List[int], List[List[int]]]]:
    """(projection of start, basis) of each eigenspace of a diagonalizable
    matrix over F_p; empty when there is a single eigenvalue.

    With m the product of x - mu over the distinct eigenvalues mu, the
    projection onto the lambda-eigenspace is a multiple of
    q(mat) = (m / (x - lambda))(mat), read off one Krylov sequence of the
    start vector.  A repeated eigenvalue takes its basis from the
    projections of seeded vectors, or from the nullspace of mat - lambda
    when those are dependent.
    """
    d = len(mat)
    eigenvalues = roots(charpoly(mat, p), p)
    if sum(eigenvalues.values()) != d:
        raise InvalidCharacterTable("characteristic polynomial does not split over F_p")
    if len(eigenvalues) == 1:
        return []
    minimal = [1]
    for lam in eigenvalues:
        minimal = [(a - lam * b) % p for a, b in zip([0] + minimal, minimal + [0])]
    starts = [start] + [[rng.randrange(p) for _ in range(d)]
                        for _ in range(max(eigenvalues.values()) - 1)]
    krylov = []
    for vec in starts:
        seq = [vec]
        for _ in range(len(eigenvalues) - 1):
            seq.append(matvec(mat, seq[-1], p))
        krylov.append(list(zip(*seq)))
    parts = []
    for lam, mult in eigenvalues.items():
        q, _ = divide_linear(minimal, lam, p)
        vecs = [[sum(map(mul, q, col)) % p for col in cols] for cols in krylov[:mult]]
        if not any(vecs[0]):
            raise InvalidCharacterTable("projection of the start vector vanishes")
        basis, _ = echelon(vecs, p)
        if len(basis) < mult:
            shifted = [[(x - lam * (i == j)) % p for j, x in enumerate(row)]
                       for i, row in enumerate(mat)]
            basis, _ = echelon(vecs + nullspace(shifted, p), p)
        if len(basis) != mult:
            raise InvalidCharacterTable(
                f"eigenspace of dimension {len(basis)} for a root of multiplicity {mult}")
        parts.append((vecs[0], basis))
    return parts


def hessenberg_rows(G):
    """The spectra of G's irreducibles in table order, lifted from the
    Hessenberg route's joint eigenvectors by `chartable._dixon_rows`."""
    with mock.patch.object(chartable, "_joint_eigenvectors", _joint_eigenvectors):
        return chartable._dixon_rows(G)[0]


# -- the dense per-irreducible lift ------------------------------------------------
# The oracle for the packed lift in `chartable._dixon_rows`: the lift the character
# table took before it, copied verbatim.  Each irreducible's values mod p at the
# powers of each rational class's first class go through a dense discrete Fourier
# transform of their own, fed by the production `chartable._joint_eigenvectors`.


def dense_dft_rows(G):
    """(spectra in table order, `value_vectors`) by one dense transform per
    irreducible and rational class."""
    classes = G.conjugacy_classes()
    k = len(classes)
    n = G.order
    e = G.exponent()
    sizes = [cls.size for cls in classes]
    inv_class = chartable.power_class_map(G, -1)
    power = G.power_classes()
    source = G.rational_sources()

    p = chartable._find_prime(e, 2 * n + 1)
    z = chartable._find_root_of_unity(e, p)

    vectors = chartable._joint_eigenvectors(G, p)

    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    per_order = {}
    for o in {cls.order for cls in classes}:
        ztab = [pow(z, (e // o) * t, p) for t in range(o)]
        dft = [[ztab[(-t * s_) % o] for s_ in range(o)] for t in range(o)]
        per_order[o] = (ztab, dft, pow(o, p - 2, p))
    rows_out = []
    for v in vectors:
        if v[0] % p == 0:
            raise InvalidCharacterTable("joint eigenvector vanishes at the identity class")
        norm = pow(v[0], p - 2, p)
        omega = [(x * norm) % p for x in v]
        s = sum(omega[j] * omega[inv_class[j]] * inv_sizes[j] for j in range(k)) % p
        d2 = (n * pow(s, p - 2, p)) % p
        degree = next((d for d in range(1, math.isqrt(n) + 1) if (d * d) % p == d2), None)
        if degree is None:
            raise InvalidCharacterTable("degree recovery failed")
        vals = [(degree * omega[j] * inv_sizes[j]) % p for j in range(k)]

        spectra: List[Tuple[int, ...]] = []
        for c, (cls, (first, reindex)) in enumerate(zip(classes, source)):
            ztab, dft, inv_o = per_order[cls.order]
            if first == c:
                seq = [vals[j] for j in power[c]]
                spectrum = tuple((sum(map(mul, row, seq)) * inv_o) % p for row in dft)
            else:
                spectrum = tuple(map(spectra[first].__getitem__, reindex))
            if sum(map(mul, spectrum, ztab)) % p != vals[c]:
                raise InvalidCharacterTable("eigenvalue spectrum does not give the class value")
            spectra.append(spectrum)
        rows_out.append(tuple(spectra))
    values = chartable._value_vectors(e, rows_out)
    rows_out.sort(key=lambda spectra: tuple(map(values.__getitem__, spectra)))
    return tuple(rows_out), values


def spectrum_coefficients(e, spectrum):
    """sum_t n_t zeta_o^t, o = len(spectrum), by `Cyclotomic` arithmetic, as its
    coefficients on the power basis of Q(zeta_e): the oracle of
    `CharacterTable.value_vectors`."""
    value = Cyclotomic.zero()
    for t, n in enumerate(spectrum):
        value = value + Cyclotomic.zeta(len(spectrum), t) * n
    return list(value._lifted(e))


def statement_a_reference(G, H):
    """`check_statement_a` with G/H from `quotient_reference`."""
    if H.parent is not G:
        raise GroupMismatch("subgroup of a different group")
    if not H.is_proper_nontrivial():
        raise NotProperNontrivial("statement A needs a proper non-trivial subgroup")
    if not G.is_normal(H):
        return StatementAResult(False, False, None, None, None)
    Q = quotient_reference(G, H)[0]
    abelian = Q.is_abelian()
    invariants = Q.abelian_invariants() if abelian else None
    return StatementAResult(abelian, True, Q.order, abelian, invariants)


def statement_b_reference(X, H):
    """`check_statement_b` on `Permutation`s: N_G(H) as a group of its own,
    N_G(H)/H from `quotient_reference`, and each preimage found by looking
    up the quotient map at every element of N_G(H)."""
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
    Q, hom = quotient_reference(N_grp, H_in_N)

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


def uncached_search_reference(X, T, search_limit, log):
    """`_search_certified_relation` answering once per subgroup: the genus of
    every candidate's quotient, every collection's columns, multiplicities
    and identity check, and statements A and B for every subgroup met."""
    G = X.group
    candidates = sorted((H for H in G.all_subgroups()
                         if H.is_proper_nontrivial() and quotient_surface(X, H).genus >= 1),
                        key=lambda H: (H.index, H.indices))
    weights = [H.index for H in candidates]

    h1 = h1_multiplicities(X, T)
    active = [i for i, m in enumerate(h1) if m > 0]
    degrees = list(map(T.degrees().__getitem__, active))
    cert_cache = {}

    def certify(H):
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
        for combo in _combinations_by_weight(weights, size):
            if tried >= search_limit:
                break
            tried += 1
            collection = [candidates[i] for i in combo]
            columns = [[dims[i] for i in active] for dims in map(T.fixed_dimensions, collection)]
            solution = _solve_multiplicities(degrees, columns, G.order)
            entry = {"stage": "collection",
                     "subgroups": [H.generators()[0].cycle_string() if H.generators()
                                   else "()" for H in collection]}
            log.append(entry)
            if solution is None:
                entry["result"] = "no_positive_integer_solution"
                continue
            n, mults = solution
            relation = IsogenyRelation(n, tuple(zip(collection, mults)))
            report = verify_isogeny_relation(X, T, relation)
            if not report.holds:
                entry["result"] = "identity_failed"
                continue
            certificates = []
            for H in collection:
                cert = certify(H)
                if cert is None:
                    break
                certificates.append(cert)
            if len(certificates) < len(collection):
                entry["result"] = "factor_not_certified"
                continue
            entry["result"] = "certified"
            entry["n"] = n
            entry["multiplicities"] = list(mults)
            return relation, report, tuple(certificates)
    return None


@functools.lru_cache(maxsize=None)
def symmetric_3():
    return FiniteGroup.from_generators(3, [Permutation([1, 0, 2]), Permutation([1, 2, 0])])


@functools.lru_cache(maxsize=None)
def klein_4():
    return FiniteGroup.from_generators(4, [Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])])


def _from_cycles(degree, *generators):
    gens = [Permutation.from_cycles(degree, cycles) for cycles in generators]
    return FiniteGroup.from_generators(degree, gens)


@functools.lru_cache(maxsize=None)
def symmetric_4():
    return _from_cycles(4, [(0, 1, 2, 3)], [(0, 1)])


@functools.lru_cache(maxsize=None)
def alternating_5():
    return _from_cycles(5, [(0, 1, 2, 3, 4)], [(0, 1, 2)])


@functools.lru_cache(maxsize=None)
def symmetric_5():
    return _from_cycles(5, [(0, 1, 2, 3, 4)], [(0, 1)])


@functools.lru_cache(maxsize=None)
def cyclic_7_squared():
    """C7 x C7 on two disjoint 7-cycles: 49 classes, characters mod p = 113."""
    return _from_cycles(14, [(0, 1, 2, 3, 4, 5, 6)], [(7, 8, 9, 10, 11, 12, 13)])


@functools.lru_cache(maxsize=None)
def psl_2_7():
    """x -> x + 1 and x -> -1/x on the projective line over F_7 (7 is infinity)."""
    return _from_cycles(8, [(0, 1, 2, 3, 4, 5, 6)], [(0, 7), (1, 6), (2, 3), (4, 5)])


@functools.lru_cache(maxsize=None)
def psl_2_8():
    """x -> x + 1, x -> a*x and x -> 1/x on the projective line over
    F_8 = F_2[a]/(a^3 + a + 1): points 0..7 are the field elements as bit
    vectors in the basis 1, a, a^2, and 8 is infinity.  Order 504."""
    def times_a(x):
        x <<= 1
        return x ^ 0b1011 if x & 0b1000 else x

    def product(x, y):
        z = 0
        while y:
            if y & 1:
                z ^= x
            x, y = times_a(x), y >> 1
        return z

    inverse = {x: y for x in range(1, 8) for y in range(1, 8) if product(x, y) == 1}
    shift = [x ^ 1 for x in range(8)] + [8]
    scale = [times_a(x) for x in range(8)] + [8]
    invert = [8] + [inverse[x] for x in range(1, 8)] + [0]
    return FiniteGroup.from_generators(9, [Permutation(shift), Permutation(scale),
                                           Permutation(invert)])


def elementary_abelian_2(rank):
    """C2^rank on `rank` disjoint transpositions."""
    return _from_cycles(2 * rank, *([(2 * j, 2 * j + 1)] for j in range(rank)))


def cyclic_product(*orders):
    """C_a x C_b x ... on disjoint cycles of lengths a, b, ..."""
    starts = [sum(orders[:j]) for j in range(len(orders))]
    return _from_cycles(sum(orders), *([tuple(range(s, s + a))] for s, a in zip(starts, orders)))


@pytest.fixture
def s3():
    return symmetric_3()


@pytest.fixture
def v4():
    return klein_4()


def run_optimized(*argv, cwd=None):
    """stdout of `python -O argv...` with cmkit importable; it must exit 0.

    -O strips `assert` statements, so a check that survives it is a raise.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cmkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@st.composite
def small_permutation_groups(draw):
    """Groups generated by two random permutations of degree <= 6, order <= 120."""
    degree = draw(st.integers(min_value=1, max_value=6))
    gens = [Permutation(draw(st.permutations(range(degree)))) for _ in range(2)]
    G = FiniteGroup.from_generators(degree, gens)
    assume(G.order <= 120)
    return G


@st.composite
def random_surfaces(draw):
    """A random vector of 3 or 4 entries with product one, over the group its
    entries generate inside a random small permutation group."""
    G = draw(small_permutation_groups())
    assume(G.order > 1)
    r = draw(st.sampled_from((3, 4)))
    entries = [G.elements[draw(st.integers(1, G.order - 1))] for _ in range(r - 1)]
    product = G.identity
    for g in entries:
        product = product * g
    assume(not product.is_identity())
    entries.append(product.inverse())
    H = FiniteGroup.from_generators(G.degree, entries)
    return QuasiplatonicSurface.from_vector(GeneratingVector(H, tuple(entries)))
