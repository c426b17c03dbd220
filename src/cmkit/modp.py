"""Linear algebra and polynomials over F_p, p prime, on lists of ints.

Vectors are lists of residues in [0, p); matrices are lists of rows;
polynomials are lists of coefficients in ascending order.  These serve the
character table (`cmkit.chartable`), which is why a failed invariance check
raises `InvalidCharacterTable`.
"""

from __future__ import annotations

from operator import mul
from typing import Dict, List, Tuple

from .errors import InvalidCharacterTable


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
