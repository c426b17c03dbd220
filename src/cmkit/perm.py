"""Permutations of {0, ..., n-1} stored as image tuples, and the index
kernels that the group and its subgroup lattice share.

Composition is function composition: ``(p * q)(x) = p(q(x))``, read by one
`gather` of p's images at q's.  On a Cayley table (`table[a][b]` the index
of a*b, the identity 0) there is one walk over the powers of an element,
`powers`, and one walk over the left cosets of a subgroup, `left_cosets`.
`commutator_quotient` reads G' and coordinates on G/G' off the table for
the character table's linear characters.
"""

from __future__ import annotations

from itertools import compress, count
from math import lcm
from operator import itemgetter, ne
from typing import Callable, Iterable, Iterator, Sequence, Tuple

from .errors import InvalidPermutation


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        # A tuple of ints is kept as it is, so a group's elements share the
        # tuples its closure built; anything else is copied.
        if type(images) is tuple and set(map(type, images)) <= {int}:
            imgs = images
        else:
            imgs = tuple(map(int, images))
        n = len(imgs)
        if n == 0:
            raise InvalidPermutation("empty image array")
        if min(imgs) < 0 or max(imgs) >= n or len(set(imgs)) != n:
            raise InvalidPermutation(f"image array {imgs!r} is not a bijection")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """A permutation on an image tuple of ints already known to be a
        bijection, such as a product of checked permutations: no checks."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    # Permutations are immutable.
    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(degree))
        for cycle in cycles:
            m = len(cycle)
            for i in range(m):
                a, b = cycle[i], cycle[(i + 1) % m]
                if not (0 <= a < degree):
                    raise InvalidPermutation(f"point {a} out of range for degree {degree}")
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.images) != len(other.images):
            raise InvalidPermutation("degree mismatch in composition")
        return Permutation(gather(other.images)(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(inv)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def order(self) -> int:
        # lcm of cycle lengths
        return lcm(*(len(c) for c in self.all_cycles())) if self.images else 1

    def all_cycles(self) -> list[tuple[int, ...]]:
        """All cycles including fixed points, each starting at its minimum."""
        return cycles_of(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles only, as in `all_cycles`; only the points that
        move are walked, so a large identity builds no cycle at all."""
        images, seen, cycles = self.images, bytearray(len(self.images)), []
        for start in compress(count(), map(ne, images, count())):
            if seen[start]:
                continue
            cycle = [start]
            x = images[start]
            while x != start:
                cycle.append(x)
                seen[x] = 1
                x = images[x]
            cycles.append(tuple(cycle))
        return cycles

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cyc)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


def gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The reader of a sequence at one or more `indices`, into a tuple, in one
    C-level call: `operator.itemgetter`, but one index also gives a tuple."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def powers(row: Sequence[int]) -> list[int]:
    """x^0, x^1, ..., x^(o-1), o the order of x, given x's Cayley-table row:
    the cycle of the identity, index 0, under left multiplication by x."""
    found, y = [0], row[0]
    while y:
        found.append(y)
        y = row[y]
    return found


def left_cosets(table: Sequence[Sequence[int]],
                h_list: Sequence[int]) -> Iterator[Tuple[int, tuple]]:
    """(minimal member x, the coset xH) for every left coset of the subgroup H
    given by its element indices, in order of x; each coset is read whole
    from row x of the Cayley table by one gather at H's indices."""
    seen, coset_of = bytearray(len(table)), gather(h_list)
    for x in range(len(table)):
        if not seen[x]:
            coset = coset_of(table[x])
            for y in coset:
                seen[y] = 1
            yield x, coset


def cycles_of(images: Sequence[int]) -> list[tuple[int, ...]]:
    """All cycles of the image array, fixed points included, each starting
    at its minimum, in order of their minima."""
    seen = [False] * len(images)
    cycles = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = images[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = images[x]
        cycles.append(tuple(cycle))
    return cycles


def commutator_quotient(table: Sequence[Sequence[int]], inv: Sequence[int], gens: Sequence[int],
                        conj: Sequence[Sequence[int]], grow) -> Tuple[int, list, list]:
    """G' and coordinates modulo it, for the group with Cayley table `table`,
    inverses `inv`, generator indices `gens`, their conjugation maps `conj`
    and Dimino's closure `grow` (`FiniteGroup._grow`).

    G' is the normal closure of the commutators of the generators: each
    element taken as a generator of the closure brings its conjugates by the
    generators, and `grow` adds them; once the closure holds more than half
    of G it is all of G.  Along G' = H_0 < H_1 < ... < H_r = G,
    H_j = <H_(j-1), s_j> for the generators s_j outside H_(j-1), each
    element is s_1^(i_1) ... s_r^(i_r) modulo G' with 0 <= i_j < m_j =
    [H_j : H_(j-1)], read one coset s_j^i H_(j-1) at a time.  Returns |G'|;
    the code sum_j i_j R_j of every element, R_j = m_1 ... m_(j-1), which
    is 0 exactly on G'; and (m_j, R_j, the code of s_j^(m_j)) for each j.
    """
    n = len(table)
    elements, member, taken = [0], bytearray(n), []
    member[0] = 1
    queue = [table[inv[table[b][a]]][table[a][b]] for i, a in enumerate(gens) for b in gens[i + 1:]]
    for x in queue:
        if not member[x]:
            taken.append(x)
            if not grow(elements, member, taken):
                return n, [0] * n, []
            queue += [c[x] for c in conj]
    derived, code, radix, steps = len(elements), [0] * n, 1, []
    for s in gens:
        if member[s]:
            continue
        pw = powers(table[s])
        m = 1
        while m < len(pw) and not member[pw[m]]:
            m += 1
        coset_of = gather(elements)
        base = coset_of(code)
        for i in range(1, m):
            coset = coset_of(table[pw[i]])
            for x, c in zip(coset, base):
                code[x] = c + i * radix
                member[x] = 1
            elements += coset
        steps.append((m, radix, code[pw[m % len(pw)]]))
        radix *= m
    return derived, code, steps
