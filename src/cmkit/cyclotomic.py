"""Cyclotomic integers for the package, and exact arithmetic in Q(zeta_e) for its oracle.

The package keeps a value of Q(zeta_e) as a list in Z[x]/(x^e - 1), x for
zeta_e, and `power_basis`, its one reduction mod Phi_e, gives the integer
coefficients on the power basis {1, zeta, ..., zeta^(phi(e)-1)}: tested for
an integer by `reduced_integer`, printed by `value_string`.  Character
tables test their norms without it: `packed_spectra` packs values of
Z[x]/(x^e - 1) into one int each and supplies Psi_e = (x^e - 1) / Phi_e, by
which a value is zero exactly when its product with Psi_e is.

`Cyclotomic`, the independent oracle, holds integer numerators on the same
basis, an integral basis of Z[zeta_e], over one positive denominator in lowest
terms, so equality is exact.  Its arithmetic has one reduction loop, `_reduce`,
which turns sum c zeta_e^k into power-basis coefficients for products, Galois
images and lifts to a multiple of the conductor; it shares only the rows
x^j mod Phi_e (`_reduction_rows`) with `power_basis`.  Rational values have
conductor 1, and values of different conductors are compared after lifting
to the lcm.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InternalCheckFailed, NonIntegralResult

_POLY_CACHE: Dict[int, list] = {}
_ROW_CACHE: Dict[int, list] = {}
_PSI_CACHE: Dict[int, Tuple[list, int]] = {}


def prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def _divisors(n: int) -> list:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _poly_div_exact(num: list, den: list) -> list:
    """Exact division of integer polynomials (den monic)."""
    num = list(num)
    dn = len(den) - 1
    q = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - dn] = c
        for j, dj in enumerate(den):
            num[i - dn + j] -= c * dj
    if any(num):
        raise InternalCheckFailed("non-exact polynomial division")
    return q


def cyclotomic_polynomial(e: int) -> list:
    """Integer coefficients of the e-th cyclotomic polynomial, ascending."""
    if e in _POLY_CACHE:
        return _POLY_CACHE[e]
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in _divisors(e):
        if d < e:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    _POLY_CACHE[e] = poly
    return poly


def packed_spectra(e: int, orders: Iterable[int], bound: int):
    """Kronecker packing of Z[x]/(x^e - 1) at x = X, X = 2^16, 2^32 or 2^64,
    the least with every |coefficient| up to `bound` max|Psi_e| below X/2.

    Returns a packer for each element order o in `orders`, which packs a
    spectrum (n_t) of length o as the bytes of sum_t n_t X^(t e/o); Psi_e =
    (x^e - 1) / Phi_e packed; and the bit width of e slots.  Phi_e and Psi_e
    are coprime, so sum_i a_i zeta_e^i is 0 exactly when (sum_i a_i x^i)
    Psi_e is 0 in Z[x]/(x^e - 1): packed, when it is 0 mod X^e - 1, as long
    as its coefficients stay below X/2 in absolute value.  Psi_e is computed
    once per e.
    """
    if e not in _PSI_CACHE:
        psi = _poly_div_exact([-1] + [0] * (e - 1) + [1], cyclotomic_polynomial(e))
        _PSI_CACHE[e] = psi, max(map(abs, psi))
    psi, height = _PSI_CACHE[e]
    for code, size in (("H", 2), ("I", 4), ("Q", 8)):
        if bound * height >> 8 * size - 1 == 0:
            break
    else:
        raise InternalCheckFailed(f"coefficients up to {bound * height} overflow a 64-bit slot")
    packers = {o: struct.Struct("<" + f"{code}{size * (e // o - 1)}x" * o).pack for o in orders}
    return packers, sum(c << 8 * size * j for j, c in enumerate(psi)), 8 * size * e


def _reduction_rows(e: int) -> list:
    """x^j mod Phi_e as {exponent: nonzero int} for j in range(e): each row is
    the previous one times x, less its top coefficient times the monic Phi_e."""
    if e not in _ROW_CACHE:
        poly = cyclotomic_polynomial(e)
        row = [1] + [0] * (len(poly) - 2)
        rows = []
        for _ in range(e):
            rows.append({j: c for j, c in enumerate(row) if c})
            top = row[-1]
            row = [c - top * t for c, t in zip([0] + row[:-1], poly)]
        _ROW_CACHE[e] = rows
    return _ROW_CACHE[e]


def accumulate(acc: List[int], vec: Sequence[int], weight: int) -> None:
    """acc += weight * sum_t vec[t] zeta_o^t, o = len(vec), in powers of zeta_e, e = len(acc)."""
    f = len(acc) // len(vec)
    for t, a in enumerate(vec):
        if a:
            acc[t * f] += weight * a


def cyclic_product(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The product of sum_t a[t] x^t and sum_t b[t] x^t in Z[x]/(x^o - 1), o = len(a)."""
    o = len(a)
    support = [(t, y) for t, y in enumerate(b) if y]
    out = [0] * o
    for t1, x in enumerate(a):
        if x:
            for t2, y in support:
                out[(t1 + t2) % o] += x * y
    return out


def class_sums(e: int, weights: Sequence[int], rows: Iterable[Sequence[Sequence[int]]],
               denominator: int, what: str) -> List[int]:
    """(1/denominator) sum over classes c of weights[c] row[c] for each row, with
    row[c] over zeta_o as in `accumulate`; see `exact_quotient`."""
    weighted = [(c, w) for c, w in enumerate(weights) if w]
    out = []
    for row in rows:
        acc = [0] * e
        for c, w in weighted:
            accumulate(acc, row[c], w)
        out.append(exact_quotient(acc, denominator, what))
    return out


def power_basis(acc: Sequence[int]) -> List[int]:
    """The integer coefficients of sum_i acc[i] zeta_e^i, e = len(acc), on the
    power basis {1, zeta_e, ..., zeta_e^(phi(e)-1)}: the one reduction mod
    Phi_e on the package's integer paths."""
    rows = _reduction_rows(len(acc))
    out = [0] * (len(cyclotomic_polynomial(len(acc))) - 1)
    for i, a in enumerate(acc):
        if a:
            for j, t in rows[i].items():
                out[j] += a * t
    return out


def reduced_integer(acc: Sequence[int]) -> Optional[int]:
    """The integer sum_i acc[i] zeta_e^i, e = len(acc), or None when the sum
    is not rational: only the constant coefficient of `power_basis` survives."""
    coeffs = power_basis(acc)
    return None if any(coeffs[1:]) else coeffs[0]


def value_string(coeffs: Sequence, var: str = "z") -> str:
    """A value from its coefficients on the power basis, as printed in payloads:
    the nonzero terms c*z^j in ascending j, the constant term bare."""
    parts = []
    for exp, c in enumerate(coeffs):
        if c:
            term = str(c) if exp == 0 else f"{c}*{var}^{exp}"
            parts.append(term if not parts or term.startswith("-") else "+" + term)
    return "".join(parts) or "0"


def exact_quotient(acc: Sequence[int], denominator: int, what: str) -> int:
    """(sum_i acc[i] zeta_e^i) / denominator, e = len(acc), which must be a
    non-negative integer: a class sum of a genuine character over a group of
    that order.  Anything else raises `NonIntegralResult`, naming `what`."""
    total = reduced_integer(acc)
    if total is None:
        raise NonIntegralResult(f"{what} is not rational")
    if total % denominator:
        raise NonIntegralResult(f"{what} {total} is not a multiple of {denominator}")
    if total < 0:
        raise NonIntegralResult(f"{what} {total} is negative")
    return total // denominator


def _reduce(e: int, terms: Iterable[Tuple[int, int]]) -> List[int]:
    """The integer coefficients of sum c zeta_e^k over the pairs (k, c), on the
    power basis of Q(zeta_e): the oracle's one reduction loop."""
    rows = _reduction_rows(e)
    out = [0] * (len(cyclotomic_polynomial(e)) - 1)
    for k, c in terms:
        for j, t in rows[k % e].items():
            out[j] += c * t
    return out


class Cyclotomic:
    """An exact value of Q(zeta_e): integer numerators on the power basis
    {1, zeta_e, ..., zeta_e^(phi(e)-1)} over one positive denominator.

    The constructor keeps the value in lowest terms and gives a rational value
    conductor 1, so equal values of one conductor have equal fields.  Products,
    Galois images and lifts to a multiple of the conductor go through `_reduce`.
    """

    __slots__ = ("conductor", "numerators", "denominator")

    def __init__(self, conductor: int, numerators: Sequence[int], denominator: int = 1):
        """Internal; use rational(), zeta(), or arithmetic to build values."""
        numerators = tuple(numerators)
        if denominator != 1:
            g = gcd(denominator, *numerators)
            if denominator < 0:
                g = -g
            numerators = tuple(c // g for c in numerators)
            denominator //= g
        if not any(numerators[1:]):
            conductor, numerators = 1, numerators[:1]
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, q) -> "Cyclotomic":
        q = Fraction(q)
        return cls(1, (q.numerator,), q.denominator)

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, (0,))

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls(1, (1,))

    @classmethod
    def zeta(cls, e: int, k: int = 1) -> "Cyclotomic":
        """The root of unity zeta_e^k."""
        if e <= 0:
            raise ValueError("conductor must be positive")
        return cls(e, _reduce(e, ((k, 1),)))

    # -- representation helpers ---------------------------------------------

    def _lifted(self, e2: int) -> Sequence[int]:
        """The numerators on the power basis of Q(zeta_e2), e2 a multiple of the conductor."""
        e = self.conductor
        if e == e2:
            return self.numerators
        if e2 % e:
            raise InternalCheckFailed(f"conductor {e} does not divide {e2}")
        f = e2 // e
        return _reduce(e2, ((k * f, c) for k, c in enumerate(self.numerators) if c))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def __bool__(self) -> bool:
        return any(self.numerators)

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.numerators[0], self.denominator)

    def integer_value(self) -> int:
        if not self.is_rational() or self.denominator != 1:
            raise ValueError(f"{self!r} is not a rational integer")
        return self.numerators[0]

    # -- arithmetic ------------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.rational(x)
        return NotImplemented

    def __add__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = lcm(self.conductor, other.conductor)
        da, db = self.denominator, other.denominator
        return Cyclotomic(e, [a * db + b * da for a, b in zip(self._lifted(e), other._lifted(e))],
                          da * db)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, [-c for c in self.numerators], self.denominator)

    def __sub__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyclotomic":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.conductor, [c * other.numerator for c in self.numerators],
                              self.denominator * other.denominator)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        e = lcm(self.conductor, other.conductor)
        a = [(i, c) for i, c in enumerate(self._lifted(e)) if c]
        b = [(j, c) for j, c in enumerate(other._lifted(e)) if c]
        return Cyclotomic(e, _reduce(e, ((i + j, x * y) for i, x in a for j, y in b)),
                          self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return self * (Fraction(1) / q)
        return NotImplemented

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = Cyclotomic.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def galois(self, k: int) -> "Cyclotomic":
        """Image under zeta |-> zeta^k (requires gcd(k, conductor) = 1)."""
        e = self.conductor
        if e == 1:
            return self
        if gcd(k, e) != 1:
            raise ValueError(f"galois exponent {k} not coprime to conductor {e}")
        return Cyclotomic(e, _reduce(e, ((i * k, c) for i, c in enumerate(self.numerators) if c)),
                          self.denominator)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    # -- comparison and formatting ----------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.denominator != other.denominator:
            return False
        e = lcm(self.conductor, other.conductor)
        return list(self._lifted(e)) == list(other._lifted(e))

    __hash__ = None  # values are compared exactly, never hashed

    def to_string(self, var: str = "z") -> str:
        return value_string([Fraction(c, self.denominator) for c in self.numerators], var)

    def __repr__(self) -> str:
        return f"Cyclotomic({self.to_string()}, e={self.conductor})"
