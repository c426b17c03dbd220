"""The subgroup lattice of a finite group, computed on element indices.

The group is given by its Cayley table (`table[a][b]` is the index of a*b,
the identity is 0), its inverses, the conjugation map x -> s*x*s^-1 of each
of its generators s (built once, with the group), the conjugacy class of
every element index and its one closure routine, `grow`
(`FiniteGroup._grow`: Dimino's extension of a known subgroup H to the
subgroup generated by H's generators and one more element).
The lattice is found in two passes.

1. Classes (`subgroup_classes`).  Every subgroup K > 1 is a join <H, c> of a
   maximal subgroup H of K with a cyclic <c>, and if H = x*H0*x^-1 then
   x^-1*K*x = <H0, x^-1*c*x>.  So it is enough to join one representative
   H0 of each class of subgroups with the cyclic subgroups.  Representatives
   are taken first in, first out, from the trivial subgroup; a join that is
   new adds its whole class at once (its orbit under conjugation by G's
   generators) and becomes a representative.  A join is not made when it
   gives a subgroup conjugate to one already made from H0: with
   K = <H0, i>, also <H0, x> = K for every x in the left coset iH0, and
   <H0, g*x*g^-1> = g*K*g^-1 for every g in N_G(H0).  N_G(H0) comes from
   `normalizer`, the one normalizer routine, which `FiniteGroup.normalizer`
   also calls and which tests one element per left coset of H0, walked by
   `perm.left_cosets`; for H0 normal it is G, and the conjugates of i are its
   conjugacy class, which the caller passes in for every element.
2. Replay (`replay_lattice`).  Each subgroup takes the generator tuple that
   the plain traversal finds first: the trivial subgroup and the cyclic
   subgroups (by least generating index) on a LIFO queue, each subgroup H
   popped and joined with every cyclic <i> in index order, a new join
   recorded with H's generators plus i.  The joins are read, not grown:
   subgroups are numbered in output order, (order, sorted indices), and
   every cyclic generator c keeps the bitset of the subgroups that contain
   it.  The subgroups that contain H and i are then the AND of those bitsets
   over H's generators and i, and the lowest set bit is <H, i>, the smallest
   of them.  The known subgroups must all be recorded and must be closed
   under conjugation (G's generators map each one's generators into a known
   subgroup of the same order).

The lattice must then run from the trivial subgroup to G, and each recorded
generator tuple must grow, from the trivial subgroup, to exactly its
subgroup; `InternalCheckFailed` says which check failed.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

from .errors import GroupTooLarge, InternalCheckFailed
from .perm import gather, left_cosets, powers

Grow = Callable[[List[int], bytearray, Sequence[int]], bool]
Rows = Sequence[Sequence[int]]  # a Cayley table, or one index list per element or generator


def subgroup_lattice(table: Rows, inv: Sequence[int], conj: Rows, conjugates: Rows,
                     grow: Grow, bound: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """(sorted element indices, generator indices, class number) of every
    subgroup, ordered by (order, indices); the class number is the position
    of its class of subgroups in `subgroup_classes`.  `conj[s][x]` is the
    index of s*x*s^-1 for each generator s of G, and `conjugates[x]` the
    conjugacy class of element index x.  Raises `GroupTooLarge` as soon as
    more than `bound` subgroups are known."""
    n = len(table)
    canon = cyclic_generators(table)
    classes = subgroup_classes(table, inv, conj, canon, conjugates, grow, bound)
    lattice = replay_lattice(canon, conj, classes)
    if lattice[0][0] != (0,) or len(lattice[-1][0]) != n:
        raise InternalCheckFailed("the lattice does not run from the trivial subgroup to the group")
    for sub, k_gens, _ in lattice:
        elements, member = [0], bytearray(n)
        member[0] = 1
        grown = sorted(elements) if grow(elements, member, k_gens) else range(n)
        if tuple(grown) != sub:
            raise InternalCheckFailed(
                f"the generators {k_gens} do not generate the subgroup of order {len(sub)}")
    return lattice


def cyclic_generators(table: Rows) -> List[int]:
    """For every element index x, the least index that generates <x>.

    Walking the indices upward, the first member of a cyclic subgroup met is
    its least generator i; the other generators are its powers i^k, walked
    by `perm.powers`, with k prime to the order of i."""
    canon = [-1] * len(table)
    for i, row in enumerate(table):
        if canon[i] >= 0:
            continue
        found = powers(row)
        o = len(found)
        for k, y in enumerate(found):
            if gcd(k, o) == 1:
                canon[y] = i
    return canon


def subgroup_classes(table: Rows, inv: Sequence[int], conj: Rows, canon: Sequence[int],
                     conjugates: Rows, grow: Grow, bound: int) -> List[List[Tuple[int, ...]]]:
    """Every class of subgroups, as the sorted element indices of its members
    with the representative first, representatives in the order found.

    `conj[s][x]` is the index of s*x*s^-1 for each generator s of G, `canon`
    the least generator of every element's cyclic subgroup, and
    `conjugates[x]` the conjugacy class of x."""
    n = len(table)
    whole = frozenset(range(n))
    cyclics = sorted(set(canon))
    known: Set[FrozenSet[int]] = set()
    classes: List[List[Tuple[int, ...]]] = []
    reps: List[Tuple[List[int], Tuple[int, ...], bool]] = []  # elements, generators, normal

    def add_class(k: FrozenSet[int], k_gens: Tuple[int, ...]) -> None:
        members = _conjugates(k, k_gens, conj)
        known.update(members)
        if len(known) > bound:
            raise GroupTooLarge(f"subgroup enumeration bound {bound} exceeded")
        classes.append([tuple(sorted(c)) for c in members])
        reps.append((list(classes[-1][0]), k_gens, len(members) == 1))

    add_class(frozenset((0,)), ())
    for h_list, h_gens, normal in reps:  # grows while it is read: first in, first out
        member = bytearray(n)
        for x in h_list:
            member[x] = 1
        if not normal:
            n_h0 = normalizer(table, inv, h_list, h_gens)  # N_G(H0)
        done = bytearray(n)  # cyclics c with <H0, c> conjugate to a join already made
        for i in cyclics:
            if member[i] or done[i]:
                continue
            k_gens = h_gens + (i,)
            elements = h_list.copy()
            k = frozenset(elements) if grow(elements, member.copy(), k_gens) else whole
            if k not in known:
                add_class(k, k_gens)
            orbit = (conjugates[i] if normal else
                     {table[table[x][i]][inv[x]] for x in n_h0})
            for y in orbit:
                row = table[y]
                for h in h_list:
                    done[canon[row[h]]] = 1
    return classes


def normalizer(table: Rows, inv: Sequence[int],
               h_list: Sequence[int], h_gens: Sequence[int]) -> List[int]:
    """Element indices of N_G(H), H given by its element indices and its
    generators' indices: the union of the left cosets xH, one test per coset,
    whose x conjugates every generator g of H into H (x*g*x^-1 in H)."""
    member, found = bytearray(len(table)), []
    for h in h_list:
        member[h] = 1
    for x, coset in left_cosets(table, h_list):
        row, x_inv = table[x], inv[x]
        if all(member[table[row[g]][x_inv]] for g in h_gens):
            found += coset
    return found


def _conjugates(k: FrozenSet[int], k_gens: Sequence[int], conj: Rows) -> List[FrozenSet[int]]:
    """The class of K = <k_gens>, K first: its orbit under conjugation by G's
    generators, or K alone when they map its generators into K."""
    if all(c[g] in k for c in conj for g in k_gens):
        return [k]
    orbit, seen = [k], {k}
    for h in orbit:
        image_of = gather(h)
        for c in conj:
            x = frozenset(image_of(c))
            if x not in seen:
                seen.add(x)
                orbit.append(x)
    return orbit


def replay_lattice(canon: Sequence[int], conj: Rows,
                   classes: Sequence[Sequence[Tuple[int, ...]]]
                   ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """The subgroups of `classes` in output order, each with the generator
    tuple the LIFO traversal records first, read from containment bitsets,
    and the number of its class in `classes`."""
    subs = sorted((sub for members in classes for sub in members), key=lambda s: (len(s), s))
    count = len(subs)
    cyclics = sorted(set(canon))
    bits = {c: bytearray((count + 7) >> 3) for c in cyclics}
    for sid, sub in enumerate(subs):
        byte, bit = sid >> 3, 1 << (sid & 7)
        for x in sub:
            if canon[x] == x:
                bits[x][byte] |= bit
    contain = {c: int.from_bytes(b, "little") for c, b in bits.items()}
    everything = (1 << count) - 1

    def smallest(seq: Sequence[int]) -> int:
        """Number of the smallest known subgroup holding every cyclic in seq."""
        m = everything
        for c in seq:
            m &= contain[c]
        return (m & -m).bit_length() - 1

    gens: List[Optional[Tuple[int, ...]]] = [None] * count
    gens[0] = ()
    queue = [0]
    unrecorded = everything ^ 1
    for c in cyclics[1:]:
        k = smallest((c,))
        if gens[k] is None:
            gens[k] = (c,)
            queue.append(k)
            unrecorded ^= 1 << k
    while queue and unrecorded:  # once every subgroup is recorded, no join adds one
        h = queue.pop()
        h_gens = gens[h]
        above = everything  # the subgroups that contain H
        for g in h_gens:
            above &= contain[g]
        if not above & unrecorded:
            continue
        for i in cyclics:
            m = above & contain[i]
            if m & unrecorded:
                low = m & -m  # <H, i>
                if low & unrecorded:
                    k = low.bit_length() - 1
                    gens[k] = h_gens + (i,)
                    queue.append(k)
                    unrecorded ^= low
    if unrecorded:
        raise InternalCheckFailed(f"the lattice replay reached {count - bin(unrecorded).count('1')} "
                                  f"of {count} subgroups")
    for sub, k_gens in zip(subs, gens):
        for c in conj:
            images = tuple(c[g] for g in k_gens)
            if images != k_gens and len(subs[smallest([canon[y] for y in images])]) != len(sub):
                raise InternalCheckFailed(
                    f"a conjugate of the subgroup of order {len(sub)} generated by {k_gens} is missing")
    class_of = {sub: c for c, members in enumerate(classes) for sub in members}
    return [(sub, k_gens, class_of[sub]) for sub, k_gens in zip(subs, gens)]
