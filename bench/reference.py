"""A fixed pure-Python loop that measures how fast the host runs Python now.

The benchmark times it before every operation.  It shares no code with
cmkit, so a change to the program cannot move it; only the host can.  Its
work mirrors cmkit's inner loops: permutations composed and validated as
tuples of ints, dictionaries keyed by tuples, and Fraction sums.
"""

from __future__ import annotations

import time
from fractions import Fraction

DEGREE = 40
ROUNDS = 2400


def _perms():
    """Eight fixed permutations of DEGREE points (a multiplicative shuffle)."""
    out = []
    for k in (3, 7, 9, 11, 13, 17, 19, 21):
        out.append(tuple((k * x + k // 2) % DEGREE for x in range(DEGREE)))
    return out


PERMS = _perms()


def reference_work() -> int:
    """Compose, validate and hash permutations; add Fractions by key."""
    seen = {}
    x = PERMS[0]
    for i in range(ROUNDS):
        g = PERMS[i % len(PERMS)]
        x = tuple([x[j] for j in g])
        marks = [False] * DEGREE
        for v in x:
            if marks[v]:
                raise AssertionError("not a permutation")
            marks[v] = True
        seen[x] = seen.get(x, 0) + 1
    sums = {}
    for i in range(ROUNDS):
        k = i % 12
        sums[k] = sums.get(k, Fraction(0)) + Fraction(i % 7, 1 + i % 5)
    return len(seen) + sum(sums.values()).denominator


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
