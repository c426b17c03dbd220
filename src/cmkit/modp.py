"""Linear algebra and polynomials over F_p, p prime, on Kronecker-packed ints.

A vector of residues is packed into one Python int, entry i in the w-bit
slot at bits [w i, w (i + 1)), little-endian (`Slots`).  Sums of packed
vectors times residues are then one multiply-add per term, and a slot is
read by shift and mask; residues are reduced mod p only when a vector is
unpacked, by `int.to_bytes` and `memoryview.cast`.  Polynomials are lists of
coefficients in ascending order.  These serve the character table
(`cmkit.chartable`), which is why a polynomial that does not split raises
`InvalidCharacterTable`.
"""

from __future__ import annotations

import struct
import sys
from itertools import count
from operator import mul
from typing import List, Tuple

from .errors import InternalCheckFailed, InvalidCharacterTable


class Slots:
    """Packing of residues mod p in slots of 32 or 64 bits, the narrower one
    that holds any sum of `terms` products of two residues."""

    def __init__(self, p: int, terms: int):
        bound = terms * (p - 1) ** 2
        if bound >> 64:
            raise InternalCheckFailed(f"{terms} products mod {p} overflow a 64-bit slot")
        if sys.byteorder != "little":
            raise InternalCheckFailed("packed slots are read as little-endian machine words")
        self.p = p
        self.width, self.code = (32, "I") if bound >> 32 == 0 else (64, "Q")
        self.mask = (1 << self.width) - 1
        self._packers = {}  # one compiled struct per vector length

    def pack(self, values: List[int]) -> int:
        packer = self._packers.get(len(values))
        if packer is None:
            packer = self._packers[len(values)] = struct.Struct(f"<{len(values)}{self.code}").pack
        return int.from_bytes(packer(*values), "little")

    def unpack(self, x: int, size: int) -> List[int]:
        """The first `size` slots of x, reduced mod p."""
        p, raw = self.p, x.to_bytes(size * self.width // 8, "little")
        return [a % p for a in memoryview(raw).cast(self.code)]


def minimal_polynomial(columns: List[int], start: List[int],
                       slots: Slots) -> Tuple[List[int], List[int]]:
    """(mu, [v, Av, ..., A^(d-1) v] packed) for the minimal polynomial mu of
    v = start under the matrix A with packed `columns`, d = deg mu.

    mu is the first linear dependency among v, Av, A^2 v, ..., found by
    forward elimination.  A^d v enters with a 1 in tag slot k + d
    (k = len(start)), so the tag slots of a reduced vector hold its
    coefficients on the Krylov vectors; the first one whose k entries reduce
    to zero gives mu, monic.  Stored rows are reduced mod p with a 1 at their
    pivot, and each elimination step adds (p - f) times one, so a slot stays
    below (k + 1)(p - 1)^2.
    """
    p, width, mask = slots.p, slots.width, slots.mask
    k = len(start)
    vec, krylov, rows = start, [], []
    for d in count():
        packed = slots.pack(vec)
        u = packed + (1 << width * (k + d))
        for c, row in rows:
            f = (u >> width * c & mask) % p
            if f:
                u += (p - f) * row
        reduced = slots.unpack(u, k + d + 1)
        pivot = next(filter(reduced.__getitem__, range(k)), None)
        if pivot is None:
            return reduced[k:], krylov
        inv = pow(reduced[pivot], p - 2, p)
        rows.append((pivot, slots.pack([(x * inv) % p for x in reduced])))
        krylov.append(packed)
        vec = slots.unpack(sum(map(mul, vec, columns)), k)


def distinct_roots(poly: List[int], p: int) -> List[int]:
    """The roots of poly in F_p, which must be deg poly distinct ones."""
    degree = len(poly) - 1
    found = []
    top_down = poly[::-1]
    for lam in range(p):
        acc = 0
        for c in top_down:
            acc = (acc * lam + c) % p
        if not acc:
            found.append(lam)
            if len(found) == degree:
                return found
    raise InvalidCharacterTable(
        f"polynomial of degree {degree} has {len(found)} distinct roots mod {p}")


def divide_linear(poly: List[int], lam: int, p: int) -> Tuple[List[int], int]:
    """(quotient, remainder) of poly by x - lam over F_p, ascending coefficients."""
    acc = 0
    out = []
    for c in reversed(poly):
        acc = (acc * lam + c) % p
        out.append(acc)
    remainder = out.pop()
    return out[::-1], remainder
