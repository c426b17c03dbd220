import cmath
import functools
import os
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

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
from cmkit.cyclotomic import prime_factors
from cmkit.criteria import EXCEPTION_PERIODS, StatementAResult, StatementBResult


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
        lengths = _coset_permutation(g, cosets).cycle_lengths()
        defect += n - len(lengths)
        branch.append((g.order(), tuple(sorted(lengths, reverse=True))))
    assert defect % 2 == 0
    return 1 - n + defect // 2, tuple(branch)


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
