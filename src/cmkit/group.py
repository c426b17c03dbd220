"""Finite permutation groups, computed on element indices.

A group comes only from its generators.  The constructor closes them over
image tuples by left multiplication, breadth first, and records for every
element x and generator s the element s*x and the tree edge by which each
element was first reached.  Elements are then numbered by image tuple (the
identity is 0) and the Cayley table is filled along that tree: row s*p is
row p mapped through left multiplication by s, |G|^2 list lookups and no
compositions.  Inverses are read from the table.  Every product is a table
lookup, so the order bound also bounds the table (|G|^2 entries).

Classes, power classes, closure, normality, normalizers and the subgroup
lattice work on indices.  There is one closure on indices, Dimino's
algorithm (`_grow`): a known subgroup H grows to <H, g> one left coset eH at
a time, each read whole from row e of the table, and stops once it holds more
than half the group, which by Lagrange is then the whole group.
`index_closure`, the greedy `Subgroup.generators` and the lattice share it;
the lattice grows each join <H, i> from H's elements and stops with
`GroupTooLarge` once it has found more subgroups than its bound.  It makes
no join whose result is already known: with K = <H, i>, also <H, x> = K for
every x in the left coset iH (x lies in K, and i = x*h^-1) and for every
conjugate g*i*g^-1 by g in H (g lies in K).
A `Subgroup` holds its sorted element indices and
numbers its left cosets gH once (coset id of each element index, cosets
ordered by minimal member); quotient genera and Galois signatures read the
action of an element as a list of coset ids, as does the one quotient builder,
`Subgroup.normalizer_quotient` (N_G(H)/H).  `Permutation`s appear only at I/O:
elements, generators, class members, `Subgroup.elements`, `FiniteGroup.subgroup`
and `coset_action`.  All orderings are deterministic: classes by (element
order, size, minimal member), subgroups by (order, element indices).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .cyclotomic import prime_factors
from .errors import (
    ElementNotInGroup,
    GroupTooLarge,
    InternalCheckFailed,
    InvalidPermutation,
    NotNormal,
    SubgroupMismatch,
)
from .perm import Permutation

# Every group carries its Cayley table, so this also bounds the table.
DEFAULT_MAX_ORDER = 2048
DEFAULT_SUBGROUP_BOUND = 10_000


class FiniteGroup:
    """A finite permutation group on {0, ..., degree-1}."""

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 max_order: int = DEFAULT_MAX_ORDER):
        self.degree = int(degree)
        gens = tuple(generators)
        for g in gens:
            if g.degree != self.degree:
                raise InvalidPermutation(
                    f"generator degree {g.degree} does not match group degree {self.degree}")
        self.generators = gens
        found, steps, tree = _close(self.degree, gens, max_order)
        n = len(found)
        order = sorted(range(n), key=found.__getitem__)
        rank = [0] * n
        for i, old in enumerate(order):
            rank[old] = i
        self.elements: Tuple[Permutation, ...] = tuple(Permutation(found[old]) for old in order)
        self._images: List[Tuple[int, ...]] = [g.images for g in self.elements]
        self.identity = self.elements[0]
        self._index: Dict[Tuple[int, ...], int] = {a: i for i, a in enumerate(self._images)}
        left = [[0] * n for _ in gens]
        for old, row in enumerate(steps):
            for s, y in enumerate(row):
                left[s][rank[old]] = rank[y]
        table = [list(range(n))] + [None] * (n - 1)
        for old in range(1, n):
            p, s = tree[old]
            ls = left[s]
            table[rank[old]] = [ls[v] for v in table[rank[p]]]
        self._table: List[List[int]] = table
        self._inv: List[int] = [row.index(0) for row in table]
        self._classes: Optional[Tuple[ConjugacyClass, ...]] = None
        self._class_of: Optional[List[int]] = None
        self._power_classes: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._subgroups: Optional[Tuple["Subgroup", ...]] = None
        self._exponent: Optional[int] = None
        self._chartable = None  # populated by cmkit.chartable.character_table

    @classmethod
    def from_generators(cls, degree: int, gens: Sequence[Permutation],
                        max_order: int = DEFAULT_MAX_ORDER) -> "FiniteGroup":
        return cls(degree, gens, max_order=max_order)

    @classmethod
    def trivial(cls, degree: int = 1) -> "FiniteGroup":
        return cls(degree, ())

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        """C_n as the group generated by an n-cycle."""
        if n == 1:
            return cls.trivial()
        return cls(n, (Permutation.from_cycles(n, [tuple(range(n))]),))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Permutation) -> bool:
        return isinstance(g, Permutation) and g.images in self._index

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"<FiniteGroup of order {self.order} on {self.degree} points>"

    # -- index arithmetic ------------------------------------------------

    def index_of(self, g: Permutation) -> int:
        try:
            return self._index[g.images]
        except KeyError:
            raise ElementNotInGroup(f"{g!r} is not in the group") from None

    def mul(self, i: int, j: int) -> int:
        return self._table[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def index_closure(self, seed: Iterable[int]) -> FrozenSet[int]:
        """Element indices of the subgroup generated by the given indices."""
        elements, member, gens = [0], bytearray(self.order), []
        member[0] = 1
        for g in seed:
            if member[g]:
                continue
            gens.append(g)
            if not self._grow(elements, member, gens):
                return frozenset(range(self.order))
        return frozenset(elements)

    def _grow(self, elements: List[int], member: bytearray, gens: Sequence[int]) -> bool:
        """Grow the subgroup H listed in `elements` and marked in `member`, in
        place, to the subgroup K generated by `gens`, which must contain H.

        Dimino's algorithm: K is a union of left cosets rH.  For every coset
        representative r found so far (the identity first) and every
        generator s, a product e = s*r outside the union found so far starts
        a new coset eH, added whole as row e of the Cayley table read at H's
        indices.  Returns False, with the lists partial, as soon as they hold
        more than half the group: by Lagrange, K is then the whole group.
        """
        table = self._table
        n, sub, steps = len(table), tuple(elements), [table[s] for s in gens]
        add = elements.append
        reps = [0]
        for r in reps:
            for step in steps:
                e = step[r]
                if member[e]:
                    continue
                row = table[e]
                for h in sub:
                    x = row[h]
                    member[x] = 1
                    add(x)
                if 2 * len(elements) > n:
                    return False
                reps.append(e)
        return True

    # -- basic predicates ------------------------------------------------

    def is_abelian(self) -> bool:
        gens = [self.index_of(g) for g in self.generators]
        return all(self.mul(a, b) == self.mul(b, a) for a in gens for b in gens)

    def element_order(self, g: Permutation) -> int:
        """Order of g, which equals the lcm of its cycle lengths."""
        if g not in self:
            raise ElementNotInGroup(f"{g!r} is not in the group")
        return g.order()

    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = lcm(*(cls.order for cls in self.conjugacy_classes()))
        return self._exponent

    # -- conjugacy classes -------------------------------------------------

    def conjugacy_classes(self) -> Tuple["ConjugacyClass", ...]:
        if self._classes is not None:
            return self._classes
        n = self.order
        gen_idx = [self.index_of(g) for g in self.generators]
        seen = [False] * n
        raw: List[List[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            orbit = {start}
            frontier = [start]
            seen[start] = True
            while frontier:
                nxt = []
                for x in frontier:
                    for gi in gen_idx:
                        y = self.mul(self.mul(gi, x), self._inv[gi])
                        if y not in orbit:
                            orbit.add(y)
                            seen[y] = True
                            nxt.append(y)
                frontier = nxt
            raw.append(sorted(orbit))
        keyed = sorted((self.elements[members[0]].order(), len(members),
                        self._images[members[0]], members) for members in raw)
        classes = []
        class_of = [0] * n
        for ci, (order, _, _, members) in enumerate(keyed):
            perms = tuple(self.elements[i] for i in members)
            classes.append(ConjugacyClass(representative=perms[0], members=perms, order=order))
            for i in members:
                class_of[i] = ci
        self._classes = tuple(classes)
        self._class_of = class_of
        return self._classes

    def class_ids(self) -> List[int]:
        """The class index of every element index."""
        self.conjugacy_classes()
        return self._class_of

    def class_index(self, g: Permutation) -> int:
        return self.class_ids()[self.index_of(g)]

    def power_classes(self) -> Tuple[Tuple[int, ...], ...]:
        """For each class, the classes of rep^s for s = 0, ..., o - 1, where
        rep is its representative and o its element order."""
        if self._power_classes is None:
            class_of = self.class_ids()
            rows = []
            for cls in self._classes:
                rep = self.index_of(cls.representative)
                cur, row = 0, []
                for _ in range(cls.order):
                    row.append(class_of[cur])
                    cur = self.mul(cur, rep)
                rows.append(tuple(row))
            self._power_classes = tuple(rows)
        return self._power_classes

    # -- subgroups ---------------------------------------------------------

    def subgroup(self, elements: Iterable[Permutation]) -> "Subgroup":
        """The subgroup with exactly these elements, checked to be closed."""
        indices = set()
        for h in elements:
            try:
                indices.add(self.index_of(h))
            except ElementNotInGroup:
                raise SubgroupMismatch(f"{h!r} is not in the parent group") from None
        mul = self.mul
        if any(mul(a, b) not in indices for a in indices for b in indices):
            raise SubgroupMismatch("element set is not closed")
        return Subgroup(self, indices)

    def subgroup_generated(self, gens: Sequence[Permutation]) -> "Subgroup":
        idx = [self.index_of(g) for g in gens]
        return Subgroup(self, self.index_closure(idx), idx)

    def generated_order(self, gens: Sequence[Permutation]) -> int:
        """Order of the subgroup generated, without building a Subgroup."""
        return len(self.index_closure([self.index_of(g) for g in gens]))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), ())

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order), [self.index_of(g) for g in self.generators])

    def all_subgroups(self, bound: int = DEFAULT_SUBGROUP_BOUND) -> Tuple["Subgroup", ...]:
        """Every subgroup, found by joining subgroups with cyclic subgroups.

        Starting from the trivial and the cyclic subgroups (by first
        generating element index), a LIFO queue takes each subgroup H and
        joins it with every cyclic <i> not inside it, in that order; a new
        join K = <H, i> is recorded with generators H's plus i.  A cyclic
        <c> is skipped when <H, c> equals a join already made from H, by two
        identities: <H, x> = K for every x in iH, since x lies in K and
        i = x*h^-1 lies in <H, x>; and <H, g*i*g^-1> = K for every g in H,
        since g lies in K.  A skipped join would only find a subgroup
        already recorded, so the result and its generators do not depend on
        the skip.

        Raises `GroupTooLarge` as soon as more than `bound` subgroups are
        found.
        """
        if self._subgroups is not None:
            if len(self._subgroups) > bound:
                raise GroupTooLarge(f"subgroup enumeration bound {bound} exceeded")
            return self._subgroups

        n, table, inv = self.order, self._table, self._inv
        first: Dict[FrozenSet[int], int] = {}
        canon = [0] * n  # element -> first index generating its cyclic subgroup
        for i in range(n):
            canon[i] = first.setdefault(self.index_closure((i,)), i)
        cyclics = list(first.values())

        gensets: Dict[FrozenSet[int], Tuple[int, ...]] = {frozenset([0]): ()}
        for c, i in first.items():
            gensets.setdefault(c, (i,))
        whole = frozenset(range(n))
        queue = list(gensets.keys())
        while queue:
            if len(gensets) > bound:
                raise GroupTooLarge(f"subgroup enumeration bound {bound} exceeded")
            h = queue.pop()
            h_gens, h_list = gensets[h], list(h)
            h_member = bytearray(n)
            for x in h_list:
                h_member[x] = 1
            done = bytearray(n)  # cyclics c with <H, c> equal to a join already made
            for i in cyclics:
                if h_member[i] or done[i]:  # <i> lies in H, or the join is known
                    continue
                new_gens = h_gens + (i,)
                elements = h_list.copy()
                k = (frozenset(elements) if self._grow(elements, h_member.copy(), new_gens)
                     else whole)
                if k not in gensets:
                    gensets[k] = new_gens
                    queue.append(k)
                    if len(gensets) > bound:
                        break  # raised at the top of the loop
                # <H, c> = k for c conjugate to <i> under H, and for c in iH.
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

        subs = [Subgroup(self, idxset, gens) for idxset, gens in
                sorted(gensets.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]
        self._subgroups = tuple(subs)
        return self._subgroups

    def _check_subgroup(self, H: "Subgroup") -> None:
        if H.parent is not self:
            raise SubgroupMismatch("subgroup belongs to a different group")

    def is_normal(self, H: "Subgroup") -> bool:
        self._check_subgroup(H)
        return all(H.normalized_by(self.index_of(g)) for g in self.generators)

    def normalizer(self, H: "Subgroup") -> "Subgroup":
        self._check_subgroup(H)
        return Subgroup(self, [i for i in range(self.order) if H.normalized_by(i)])

    # -- cosets and quotients ----------------------------------------------

    def coset_action(self, H: "Subgroup") -> Dict[Permutation, Permutation]:
        """The homomorphism onto the action on left cosets of H, as
        permutations of the coset ids of `H.coset_ids()`."""
        self._check_subgroup(H)
        return {g: Permutation(H.action_on_cosets(i)) for i, g in enumerate(self.elements)}

    def quotient_with_map(self, N: "Subgroup") -> Tuple["FiniteGroup", Dict[Permutation, Permutation]]:
        """G/N for normal N, by `N.normalizer_quotient`, and the map onto it."""
        if not self.is_normal(N):
            raise NotNormal("quotient by a non-normal subgroup")
        Q, q = N.normalizer_quotient()
        return Q, {g: Q.elements[k] for g, k in zip(self.elements, q)}

    def abelian_invariants(self) -> Tuple[int, ...]:
        """Invariant factors d_1 | d_2 | ... of an abelian group.

        Derived from counts of elements of each prime-power order, which
        determine the partition of every primary component.
        """
        if not self.is_abelian():
            raise ValueError("abelian_invariants requires an abelian group")
        n = self.order
        if n == 1:
            return ()
        primes = prime_factors(n)
        primary: Dict[int, List[int]] = {}
        for p in primes:
            counts = [1]  # number of x with x^(p^j) = 1
            j = 1
            while True:
                q = p ** j
                c = sum(cls.size for cls in self.conjugacy_classes() if q % cls.order == 0)
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
            parts: List[int] = []
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
        if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
            raise InternalCheckFailed(f"invariant factors {factors} do not form a divisibility chain")
        return tuple(factors)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: Permutation
    members: Tuple[Permutation, ...]
    order: int

    @property
    def size(self) -> int:
        return len(self.members)


class Subgroup:
    """A subgroup of `parent`, held as its sorted element indices; `gens`,
    when given, are the element indices of its generators.  The indices are
    trusted to be closed: `FiniteGroup.subgroup` checks a set of
    permutations from outside."""

    def __init__(self, parent: FiniteGroup, indices: Iterable[int],
                 gens: Optional[Iterable[int]] = None):
        self.parent = parent
        self.indices: Tuple[int, ...] = tuple(sorted(set(indices)))
        if not self.indices or self.indices[0] != 0:
            raise SubgroupMismatch("identity missing from subgroup")
        if parent.order % len(self.indices):
            raise SubgroupMismatch(
                f"{len(self.indices)} elements cannot form a subgroup of a group of "
                f"order {parent.order} (Lagrange)")
        self._gens: Optional[Tuple[int, ...]] = None if gens is None else tuple(gens)
        self._cosets: Optional[Tuple[List[int], List[int]]] = None

    @cached_property
    def elements(self) -> Tuple[Permutation, ...]:
        """The members, sorted by image tuple (the order of their indices)."""
        return tuple(self.parent.elements[i] for i in self.indices)

    @cached_property
    def element_set(self) -> FrozenSet[Permutation]:
        return frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, g: Permutation) -> bool:
        return g in self.element_set

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.indices == self.indices)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.indices))

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() for g in self.generators())
        return f"<Subgroup of order {self.order} = <{gens}>>"

    def is_proper_nontrivial(self) -> bool:
        return 1 < self.order < self.parent.order

    def generators(self) -> Tuple[Permutation, ...]:
        """A small deterministic generating set (greedy over sorted elements)."""
        if self._gens is None:
            G = self.parent
            have, member, gens = [0], bytearray(G.order), []
            member[0] = 1
            for i in self.indices:
                if member[i]:
                    continue
                gens.append(i)
                if not G._grow(have, member, gens) or len(have) == self.order:
                    break
            self._gens = tuple(gens)
        return tuple(self.parent.elements[i] for i in self._gens)

    def is_abelian(self) -> bool:
        mul, idx = self.parent.mul, self.indices
        return all(mul(a, b) == mul(b, a) for k, a in enumerate(idx) for b in idx[k + 1:])

    def is_cyclic(self) -> bool:
        classes, class_of = self.parent.conjugacy_classes(), self.parent.class_ids()
        return any(classes[class_of[i]].order == self.order for i in self.indices)

    # -- cosets ------------------------------------------------------------

    def coset_ids(self) -> Tuple[List[int], List[int]]:
        """The left cosets gH, numbered once by minimal member.

        Returns the coset id of every element index of the parent, and the
        minimal member of every coset; H itself is coset 0.
        """
        if self._cosets is None:
            G = self.parent
            coset = [-1] * G.order
            reps: List[int] = []
            for i in range(G.order):
                if coset[i] < 0:
                    for h in self.indices:
                        coset[G.mul(i, h)] = len(reps)
                    reps.append(i)
            self._cosets = (coset, reps)
        return self._cosets

    def action_on_cosets(self, i: int) -> List[int]:
        """Image array of left multiplication by element index i on the coset ids."""
        coset, reps = self.coset_ids()
        mul = self.parent.mul
        return [coset[mul(i, r)] for r in reps]

    def normalizer_quotient(self) -> Tuple[FiniteGroup, List[int]]:
        """N_G(H)/H as the permutation group Q on H's left cosets in N_G(H), numbered
        as in `coset_ids` and generated by the images of N_G(H)'s generators; and
        the index in Q of every element index, -1 outside N_G(H)."""
        G, N = self.parent, self.parent.normalizer(self)
        N.generators()  # fills N._gens
        coset, reps = self.coset_ids()
        inner = sorted({reps[coset[i]] for i in N.indices})  # minimal members
        point = {coset[r]: p for p, r in enumerate(inner)}
        images = [tuple(point[coset[G.mul(r, s)]] for s in inner) for r in inner]
        Q = FiniteGroup(len(inner), [Permutation(images[point[coset[i]]]) for i in N._gens],
                        max_order=N.order)
        if Q.order * self.order != N.order:
            raise InternalCheckFailed(f"|N_G(H)/H| = {Q.order}, not {N.order}/{self.order}")
        q = {c: Q._index[images[p]] for c, p in point.items()}  # coset id -> index in Q
        return Q, [q.get(c, -1) for c in coset]

    def normalized_by(self, i: int) -> bool:
        """Whether element index i normalizes H: h i H = i H for every h in H."""
        coset, _ = self.coset_ids()
        mul, home = self.parent.mul, coset[i]
        return all(coset[mul(h, i)] == home for h in self.indices)


def _close(degree: int, gens: Tuple[Permutation, ...], max_order: int):
    """Close the generators over image tuples by left multiplication.

    Returns the elements in the order found (the identity first); for every
    element x, the position of s*x for each generator s; and for every
    element after the identity, the (position, generator) pair p, s by
    which it was first reached as s*p.  This is the one closure that
    composes permutations: the Cayley table is read off its steps.
    """
    found = [tuple(range(degree))]
    where = {found[0]: 0}
    steps: List[List[int]] = []
    tree: List[Tuple[int, int]] = [(0, 0)]
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
    return found, steps, tree
