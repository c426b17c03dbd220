"""Cyclotomic integers for the package, and exact arithmetic in Q(zeta_e) for its oracle.

The package keeps a value of Q(zeta_e) as a list in Z[x]/(x^e - 1), x for
zeta_e, and `power_basis`, its one reduction mod Phi_e, gives the integer
coefficients on the power basis {1, zeta, ..., zeta^(phi(e)-1)}: tested for
an integer by `reduced_integer`, printed by `value_string`.  `Cyclotomic`,
the independent oracle, keeps rational coefficients on the same basis, so
equality is exact; rational values have conductor 1, and values of different
conductors are compared after lifting to the lcm.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence

from .errors import InternalCheckFailed, NonIntegralResult

_POLY_CACHE: Dict[int, list] = {}
_ROW_CACHE: Dict[int, list] = {}


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


def _reduction_rows(e: int) -> list:
    """x^j mod Phi_e as {exponent: int} for j in range(e)."""
    if e in _ROW_CACHE:
        return _ROW_CACHE[e]
    poly = cyclotomic_polynomial(e)
    phi = len(poly) - 1
    top = {i: -poly[i] for i in range(phi) if poly[i] != 0}
    rows = [{j: 1} for j in range(phi)]
    for _ in range(phi, e):
        prev = rows[-1]
        nxt: Dict[int, int] = {}
        for exp, c in prev.items():
            ne = exp + 1
            if ne < phi:
                nxt[ne] = nxt.get(ne, 0) + c
            else:
                for k, t in top.items():
                    v = nxt.get(k, 0) + c * t
                    if v:
                        nxt[k] = v
                    elif k in nxt:
                        del nxt[k]
        rows.append(nxt)
    _ROW_CACHE[e] = rows
    return rows


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


class Cyclotomic:
    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Dict[int, Fraction]):
        """Internal; use rational(), zeta(), or arithmetic to build values."""
        clean = {k: v for k, v in coeffs.items() if v != 0}
        if not clean or set(clean) == {0}:
            conductor = 1
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, q) -> "Cyclotomic":
        q = Fraction(q)
        return cls(1, {0: q} if q else {})

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, {})

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls(1, {0: Fraction(1)})

    @classmethod
    def zeta(cls, e: int, k: int = 1) -> "Cyclotomic":
        """The root of unity zeta_e^k."""
        if e <= 0:
            raise ValueError("conductor must be positive")
        rows = _reduction_rows(e)
        row = rows[k % e]
        return cls(e, {exp: Fraction(c) for exp, c in row.items()})

    # -- representation helpers ---------------------------------------------

    def _lifted(self, e2: int) -> Dict[int, Fraction]:
        e = self.conductor
        if e == e2:
            return dict(self.coeffs)
        if e2 % e:
            raise InternalCheckFailed(f"conductor {e} does not divide {e2}")
        f = e2 // e
        rows = _reduction_rows(e2)
        out: Dict[int, Fraction] = {}
        for exp, c in self.coeffs.items():
            for k, t in rows[(exp * f) % e2].items():
                v = out.get(k, Fraction(0)) + c * t
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        return out

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs.get(0, Fraction(0))

    def integer_value(self) -> int:
        q = self.rational_value()
        if q.denominator != 1:
            raise ValueError(f"{self!r} is not a rational integer")
        return q.numerator

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
        a = self._lifted(e)
        for k, v in other._lifted(e).items():
            s = a.get(k, Fraction(0)) + v
            if s:
                a[k] = s
            elif k in a:
                del a[k]
        return Cyclotomic(e, a)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyclotomic":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                return Cyclotomic.zero()
            return Cyclotomic(self.conductor, {k: v * q for k, v in self.coeffs.items()})
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        e = lcm(self.conductor, other.conductor)
        a = self._lifted(e)
        b = other._lifted(e)
        rows = _reduction_rows(e)
        out: Dict[int, Fraction] = {}
        for i, ci in a.items():
            for j, cj in b.items():
                c = ci * cj
                for k, t in rows[(i + j) % e].items():
                    v = out.get(k, Fraction(0)) + c * t
                    if v:
                        out[k] = v
                    elif k in out:
                        del out[k]
        return Cyclotomic(e, out)

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
        rows = _reduction_rows(e)
        out: Dict[int, Fraction] = {}
        for exp, c in self.coeffs.items():
            for j, t in rows[(exp * k) % e].items():
                v = out.get(j, Fraction(0)) + c * t
                if v:
                    out[j] = v
                elif j in out:
                    del out[j]
        return Cyclotomic(e, out)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    # -- comparison and formatting ----------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        e = lcm(self.conductor, other.conductor)
        return self._lifted(e) == other._lifted(e)

    __hash__ = None  # values are compared exactly, never hashed

    def to_string(self, var: str = "z") -> str:
        coeffs = self.coeffs
        return value_string([coeffs.get(j, 0) for j in range(max(coeffs, default=0) + 1)], var)

    def __repr__(self) -> str:
        return f"Cyclotomic({self.to_string()}, e={self.conductor})"
