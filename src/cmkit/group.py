"""Finite permutation groups, computed on element indices.

A group comes only from its generators.  The constructor closes them over
image tuples by left multiplication, breadth first, and records for every
element x and generator s the element s*x and the tree edge by which each
element was first reached; s*x for all s is read with one gather at x's
images (`perm.gather`, an `operator.itemgetter`: one C-level call that reads
many positions of a sequence).  The elements found are products of the
checked generators, so they become `Permutation`s unchecked: each is checked
once.  Elements are then numbered by image tuple (the identity is 0) and the
Cayley table is filled along that tree: row s*p is row p mapped through left
multiplication by s, one gather per row and no compositions.  Inverses are
read from the table.  Every product is a table lookup, so the order bound
also bounds the table (|G|^2 entries).

Every class fact is built with the group, in one pass right after the
table (`_build_classes`).  The conjugation map x -> s*x*s^-1 of each
generator s is read with one gather per generator, and the classes are the
orbits of these maps.  One walk over the powers of each class's first member
(`perm.powers`, the one powers routine, which `lattice.cyclic_generators`
shares) gives its element order and its power-class row; the exponent and
the rational sources (each class as g^u, u a unit, for g in the first class
of its rational class) follow from the rows.  `conjugacy_classes`,
`class_ids`, `class_representatives`, `power_classes`, `exponent` and
`rational_sources` return the stored facts; each class keeps its sorted
indices, from which the lattice reads every element's class, and the
lattice takes the conjugation maps.  For K normal, given by its
element indices, G/K is abelian when G's generators commute modulo K, and
its invariant factors count classes by their power classes in K;
`is_abelian` and `abelian_invariants` are the case K = 1.  There is one
closure on indices, Dimino's algorithm (`_grow`): a known subgroup H grows
to <H, g> one left coset eH at a time, each read whole from row e of the
table by one gather at H's indices, and stops once it holds more than half
the group, which by Lagrange is then the whole group.  The subgroup lattice
and one greedy loop from the trivial subgroup (`_grow_greedily`, for
`index_closure` and the greedy `Subgroup.generators`) share it.  There is
one left-coset walk, `perm.left_cosets` (each coset xH, x its minimal
member, read whole from row x of the table by one gather at H's indices),
and one normalizer on it, `lattice.normalizer`, one test per left coset of H
on H's generators, for the lattice and `FiniteGroup.normalizer`.  The lattice
(`all_subgroups`, in `cmkit.lattice`) takes two passes: one join by `_grow`
per class representative and cyclic subgroup, up to the representative's
left cosets and normalizer, with each new class added whole by conjugation;
then a replay of the traversal that joins every subgroup with every cyclic
subgroup, read off containment bitsets, which gives each subgroup the
generators under which that traversal first finds it.  A `Subgroup` holds
its sorted element indices and counts them once by class (`class_weights`,
|H cap C| for every class C): H is normal when each count is 0 or |C|, and
quotient genera and branch data are read off the counts (`cmkit.surface`).
It numbers its left cosets gH by the same walk, only when asked (coset id
of each element index, cosets ordered by minimal member): Galois signatures
read the action of an element as a list of coset ids, as does the one
quotient builder, `Subgroup.normalizer_quotient` (N_G(H)/H, for statement
B).  The generators' indices are read off the closure.
`Permutation`s appear only at I/O: elements, generators, class members,
`Subgroup.elements`, `FiniteGroup.subgroup`, `coset_action`, and `index_of`,
which turns one into an element index.  All orderings are deterministic:
classes by (element order, size, minimal member), subgroups by (order,
element indices).
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Container, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .cyclotomic import prime_factors
from .errors import (
    ElementNotInGroup,
    GroupTooLarge,
    InternalCheckFailed,
    InvalidPermutation,
    NotNormal,
    Record,
    SubgroupMismatch,
)
from .perm import Permutation, gather, left_cosets, powers

# Every group carries its Cayley table, so this also bounds the table.
DEFAULT_MAX_ORDER = 2048
DEFAULT_SUBGROUP_BOUND = 10_000


class FiniteGroup:
    """A finite permutation group on {0, ..., degree-1}."""

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 max_order: int = DEFAULT_MAX_ORDER):
        self.degree = int(degree)
        if self.degree < 1:
            raise InvalidPermutation(f"group degree {self.degree} is below 1")
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
        in_order = gather(order)
        images = in_order(found)
        self.elements: Tuple[Permutation, ...] = tuple(map(Permutation._trusted, images))
        self.identity = self.elements[0]
        self._index: Dict[Tuple[int, ...], int] = dict(zip(images, range(n)))
        # left[s][i]: the index of s*x for the element x of index i.
        left = [gather(in_order(column))(rank) for column in zip(*steps)]
        table = [tuple(range(n))] + [None] * (n - 1)
        for old in range(1, n):
            p, s = tree[old]
            table[rank[old]] = gather(table[rank[p]])(left[s])
        self._table: List[Tuple[int, ...]] = table
        self._inv: List[int] = [row.index(0) for row in table]
        self._gens: Tuple[int, ...] = tuple(rank[y] for y in steps[0])  # s*identity = s
        # _conj[k][x]: the index of s*x*s^-1 for the k-th generator s, read
        # at the column of s^-1 through s's row.
        self._conj = [
            gather(table[s])(tuple(map(itemgetter(self._inv[s]), table))) for s in self._gens]
        self._build_classes()
        self._subgroups: Optional[Tuple["Subgroup", ...]] = None
        self._chartable = None  # populated by cmkit.chartable.character_table

    def _build_classes(self) -> None:
        """Every class fact, once: the classes are the orbits of the
        generators' conjugation maps, and the powers of each class's first
        member give its element order and its power-class row, from which
        the exponent and the rational sources follow."""
        n, table, conj = self.order, self._table, self._conj
        seen, orbits = bytearray(n), []
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = 1
            orbit = [start]
            for x in orbit:  # classes are disjoint: a seen conjugate is in this orbit
                for c in conj:
                    y = c[x]
                    if not seen[y]:
                        seen[y] = 1
                        orbit.append(y)
            orbit.sort()  # start, the least index not in an earlier orbit, comes first
            orbits.append((powers(table[start]), orbit))
        # Indices are numbered in image order, so the first member's index
        # orders classes of one element order and size as its images would.
        orbits.sort(key=lambda pair: (len(pair[0]), len(pair[1]), pair[1][0]))
        class_of = [0] * n
        for ci, (_, members) in enumerate(orbits):
            for i in members:
                class_of[i] = ci
        self._class_of = class_of
        self._class_members = [members for _, members in orbits]
        self._class_reps = [members[0] for members in self._class_members]
        self._classes = tuple(
            ConjugacyClass(self.elements[members[0]], gather(members)(self.elements), len(pw))
            for pw, members in orbits)
        self._power_classes = tuple(gather(pw)(class_of) for pw, _ in orbits)
        self._exponent = lcm(*(len(pw) for pw, _ in orbits))
        sources, reindex = [None] * len(orbits), {}  # see `rational_sources`
        for c, row in enumerate(self._power_classes):
            if sources[c] is None:
                o = len(row)
                for u in range(o):
                    if gcd(u, o) == 1 and sources[row[u]] is None:
                        if (o, u) not in reindex:  # t -> t u^-1 mod o, one tuple per (o, u)
                            v = pow(u, -1, o)
                            reindex[o, u] = tuple(t * v % o for t in range(o))
                        sources[row[u]] = c, reindex[o, u]
        self._sources = sources

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

    def cayley_row(self, i: int) -> Tuple[int, ...]:
        """The products i*j for every element index j, in index order."""
        return self._table[i]

    def index_closure(self, seed: Iterable[int]) -> FrozenSet[int]:
        """Element indices of the subgroup generated by the given indices."""
        elements, _ = self._grow_greedily(seed, self.order)
        return frozenset(range(self.order) if elements is None else elements)

    def _grow_greedily(self, seed: Iterable[int],
                       size: int) -> Tuple[Optional[List[int]], List[int]]:
        """From the trivial subgroup, each index of `seed` not yet inside becomes
        a generator and is grown in by `_grow`, until the subgroup has `size`
        elements.  Returns its elements (None once it is the whole group) and
        the generators taken."""
        elements, member, gens = [0], bytearray(self.order), []
        member[0] = 1
        for g in seed:
            if member[g]:
                continue
            gens.append(g)
            if not self._grow(elements, member, gens):
                return None, gens
            if len(elements) == size:
                break
        return elements, gens

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
        n, coset_of, steps = len(table), gather(elements), [table[s] for s in gens]
        reps = [0]
        for r in reps:
            for step in steps:
                e = step[r]
                if member[e]:
                    continue
                coset = coset_of(table[e])
                elements += coset
                for x in coset:
                    member[x] = 1
                if 2 * len(elements) > n:
                    return False
                reps.append(e)
        return True

    # -- basic predicates ------------------------------------------------

    def is_abelian(self) -> bool:
        return self._commute_modulo(self._gens, {0})

    def _commute_modulo(self, gens: Sequence[int], K: Container[int]) -> bool:
        """Whether abK = baK, that is (ba)^-1 ab in K, for all a, b in `gens`;
        K normal, given by its element indices."""
        table, inv = self._table, self._inv
        return all(table[inv[table[b][a]]][table[a][b]] in K
                   for k, a in enumerate(gens) for b in gens[k + 1:])

    def exponent(self) -> int:
        return self._exponent

    # -- conjugacy classes -------------------------------------------------

    def conjugacy_classes(self) -> Tuple["ConjugacyClass", ...]:
        """The classes, ordered by (element order, size, minimal member)."""
        return self._classes

    def class_ids(self) -> List[int]:
        """The class index of every element index."""
        return self._class_of

    def class_index(self, g: Permutation) -> int:
        return self._class_of[self.index_of(g)]

    def class_representatives(self) -> List[int]:
        """The element index of every class's representative."""
        return self._class_reps

    def power_classes(self) -> Tuple[Tuple[int, ...], ...]:
        """For each class, the classes of rep^s for s = 0, ..., o - 1, where
        rep is its representative and o its element order."""
        return self._power_classes

    def rational_sources(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """(first, (t u^-1 mod o for t < o)) for each class.

        A class is the class of g^u for a unit u mod o, where g represents
        `first`, the first class of its rational class, and o is the element
        order.  rho(g^u) has the eigenvalues of rho(g) raised to the u-th
        power, so the class's spectrum is the spectrum of `first` read at
        t u^-1.
        """
        return self._sources

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

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), ())

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order), self._gens)

    def all_subgroups(self) -> Tuple["Subgroup", ...]:
        """Every subgroup, ordered by (order, element indices), each with the
        generators that the LIFO traversal of joins records first.

        Two passes (`cmkit.lattice`).  The first joins one representative H0
        of each class of subgroups with the cyclic subgroups, by `_grow`,
        skipping <H0, c> when c lies in the left coset of an element already
        joined or is its N_G(H0)-conjugate; a new join adds its whole class
        at once.  The second replays the traversal that joins every subgroup
        H with every cyclic <i> (the trivial and the cyclic subgroups first,
        on a LIFO queue) to give each subgroup the generator tuple, H's plus
        i, under which it is first found; each join is read off bitsets of
        the subgroups that contain each cyclic generator, not grown.  A
        replay that misses a known subgroup, a lattice that is not closed
        under conjugation or does not run from the trivial subgroup to G,
        and a generator tuple that does not grow to its subgroup raise
        `InternalCheckFailed`.  Each subgroup keeps the number of its class
        of subgroups, in the first pass's order, as `_class`.

        Raises `GroupTooLarge` as soon as more than `DEFAULT_SUBGROUP_BOUND`
        subgroups are known; the bound is read when the lattice is built.
        """
        if self._subgroups is None:
            from .lattice import subgroup_lattice
            conjugates = [self._class_members[c] for c in self._class_of]
            subs = []
            for indices, gens, number in subgroup_lattice(self._table, self._inv, self._conj,
                                                          conjugates, self._grow,
                                                          DEFAULT_SUBGROUP_BOUND):
                subs.append(Subgroup(self, indices, gens))
                subs[-1]._class = number
            self._subgroups = tuple(subs)
        return self._subgroups

    def _check_subgroup(self, H: "Subgroup") -> None:
        if H.parent is not self:
            raise SubgroupMismatch("subgroup belongs to a different group")

    def is_normal(self, H: "Subgroup") -> bool:
        """H is normal when it is a union of classes: |H cap C| is 0 or |C| for every C."""
        self._check_subgroup(H)
        return all(w in (0, cls.size) for w, cls in zip(H.class_weights(), self._classes))

    def normalizer(self, H: "Subgroup") -> "Subgroup":
        """N_G(H), by `lattice.normalizer`: one test per left coset of H."""
        from .lattice import normalizer
        self._check_subgroup(H)
        return Subgroup(self, normalizer(self._table, self._inv, H.indices, H._generator_indices()))

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
        """Invariant factors d_1 | d_2 | ... of an abelian group."""
        if not self.is_abelian():
            raise ValueError("abelian_invariants requires an abelian group")
        return self._invariants_modulo({0}, 1)

    def _invariants_modulo(self, K: Container[int], size: int) -> Tuple[int, ...]:
        """Invariant factors d_1 | d_2 | ... of an abelian G/K, K normal of order
        `size` given by its element indices.

        For a prime p, #{xK : x^(p^j) in K} / #{xK : x^(p^(j-1)) in K} = p^k,
        where k is the number of invariant factors divisible by p^j; in a
        divisibility chain those are the k largest, so each gains a factor p.
        K is a union of classes and x^q is conjugate to r^q, r the
        representative of x's class, so #{x : x^q in K} sums the sizes of the
        classes whose power class at q lies in K: |K| times the coset count.  A
        class lies in K when its representative does.
        """
        classes, power = self._classes, self._power_classes
        in_k = [r in K for r in self._class_reps]
        factors: List[int] = []  # ascending
        for p in prime_factors(self.order // size):
            below, q = 1, p
            while True:
                count = sum(cls.size for cls, row in zip(classes, power) if in_k[row[q % cls.order]])
                if count % size:
                    raise InternalCheckFailed(f"{count} elements x have x^{q} in K, |K| = {size}")
                count //= size
                k, ratio = 0, count // below
                while ratio > 1:
                    ratio //= p
                    k += 1
                if k == 0:
                    break
                factors[:0] = [1] * (k - len(factors))
                for i in range(len(factors) - k, len(factors)):
                    factors[i] *= p
                below, q = count, q * p
        if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
            raise InternalCheckFailed(f"invariant factors {factors} do not form a divisibility chain")
        return tuple(factors)


class ConjugacyClass(Record):
    __slots__ = ("representative", "members", "order")

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
        self._weights: Optional[Tuple[int, ...]] = None
        self._cosets: Optional[Tuple[List[int], List[int]]] = None
        self._class: Optional[int] = None  # its class of subgroups, numbered by `all_subgroups`

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
        return tuple(self.parent.elements[i] for i in self._generator_indices())

    def _generator_indices(self) -> Tuple[int, ...]:
        """Element indices of `generators()`."""
        if self._gens is None:
            self._gens = tuple(self.parent._grow_greedily(self.indices, self.order)[1])
        return self._gens

    def is_abelian(self) -> bool:
        return self.parent._commute_modulo(self._generator_indices(), {0})

    def is_cyclic(self) -> bool:
        classes, class_of = self.parent._classes, self.parent._class_of
        return any(classes[class_of[i]].order == self.order for i in self.indices)

    def class_weights(self) -> Tuple[int, ...]:
        """|H cap C| for every class C of the parent, in class order."""
        if self._weights is None:
            class_of = self.parent._class_of
            weights = [0] * len(self.parent._classes)
            for i in self.indices:
                weights[class_of[i]] += 1
            self._weights = tuple(weights)
        return self._weights

    # -- cosets ------------------------------------------------------------

    def coset_ids(self) -> Tuple[List[int], List[int]]:
        """The left cosets gH, numbered once by minimal member.

        Returns the coset id of every element index of the parent, and the
        minimal member of every coset; H itself is coset 0.
        """
        if self._cosets is None:
            coset, reps = [0] * self.parent.order, []
            for x, members in left_cosets(self.parent._table, self.indices):
                for y in members:
                    coset[y] = len(reps)
                reps.append(x)
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
        coset, reps = self.coset_ids()
        inner = sorted({reps[coset[i]] for i in N.indices})  # minimal members
        point = {coset[r]: p for p, r in enumerate(inner)}
        images = [tuple(point[coset[G.mul(r, s)]] for s in inner) for r in inner]
        gens = [Permutation(images[point[coset[i]]]) for i in N._generator_indices()]
        Q = FiniteGroup(len(inner), gens, max_order=N.order)
        if Q.order * self.order != N.order:
            raise InternalCheckFailed(f"|N_G(H)/H| = {Q.order}, not {N.order}/{self.order}")
        q = {c: Q._index[images[p]] for c, p in point.items()}  # coset id -> index in Q
        return Q, [q.get(c, -1) for c in coset]


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
    images = [g.images for g in gens]
    i = 0
    while i < len(found):
        row = []
        # s*x for every generator s reads s's images at x; with no generators
        # no getter is made, so a huge degree keeps one image tuple.
        compose = gather(found[i]) if images else None
        for s, g in enumerate(images):
            y = compose(g)
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
