"""Gcds on the multiplicative group and the S-unit trichotomy.

The objects here live on G_m x G_m: gcd(a^n - 1, b^n - 1) is the quantity
the BCZ and AR_RETURNS sweeps of ``experiments`` scan against exponential
bounds, ``cz_classify`` sorts pairs of S-units into the three cases of the
trichotomy, and ``divisibility_check`` tests m | n => t_m | t_n on any
integer sequence.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, log

from .arith import PrimeSet
from .gcd_height import bound

__all__ = [
    "CzVerdict",
    "DivisibilityReport",
    "POWER_RELATION",
    "INEQUALITY_HOLDS",
    "EXCEPTIONAL",
    "gcd_pair",
    "s_unit_enumerate",
    "cz_classify",
    "divisibility_check",
]

LN2 = log(2)

POWER_RELATION = "POWER_RELATION"
INEQUALITY_HOLDS = "INEQUALITY_HOLDS"
EXCEPTIONAL = "EXCEPTIONAL"


# ----------------------------------------------------------------------------
# types
# ----------------------------------------------------------------------------

class CzVerdict(namedtuple("CzVerdict", "kind m n gcd lhs rhs holds")):
    """One of POWER_RELATION (with exponents), INEQUALITY_HOLDS, EXCEPTIONAL.

    ``m`` and ``n`` are those exponents, else None; ``gcd`` is the witness
    gcd(alpha - 1, beta - 1) of the classified pair, and ``lhs``, ``rhs``,
    ``holds`` those of its ``gcd_height.bound``.
    """

    __slots__ = ()


class DivisibilityReport(namedtuple("DivisibilityReport", "ok counterexample")):
    """``counterexample`` is (m, n) with m | n but term_m not | term_n, or None."""

    __slots__ = ()


# ----------------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------------

def gcd_pair(a: int, b: int, n: int) -> int:
    """gcd(a^n - 1, b^n - 1) for integers a, b >= 2 and n >= 1."""
    if a < 2 or b < 2:
        raise ValueError("gcd_pair requires a, b >= 2")
    if n < 1:
        raise ValueError("gcd_pair requires n >= 1")
    return gcd(a**n - 1, b**n - 1)


# Below this many bits _gcd_mersenne is plain math.gcd: folding and splitting
# cost more Python steps than the division they skip.  Timed per cell on
# CPython 3.11, a (2, 3) cell breaks even at 1024 bits and a (2, 7) cell runs
# 14% faster there; whole (2, 3), (2, 5) and (2, 7) scans ran no faster with
# a cut-off of 768 and slower with 1536 or 2048.
_E0 = 1024


def _fold_minus(e: int, y: int) -> int:
    """y mod 2^e - 1 for y >= 0: as 2^e = 1 there, add up the e-bit limbs."""
    m = (1 << e) - 1
    while y >> e:
        y = (y & m) + (y >> e)
    return 0 if y == m else y


def _fold_plus(h: int, y: int) -> int:
    """y mod 2^h + 1 for y >= 0: as 2^h = -1 there, the alternating sum of
    the h-bit limbs; ``y`` is congruent to ``sign * y`` throughout."""
    m, sign = (1 << h) - 1, 1
    while y >> h:
        y = (y & m) - (y >> h)
        if y < 0:
            y, sign = -y, -sign
    return y if sign > 0 or y == 0 else m + 2 - y


def _gcd_mersenne(e: int, y: int) -> int:
    """gcd(2^e - 1, y) for e >= 1 and y >= 0.

    Below _E0 bits this is math.gcd.  From there on ``y`` is first folded
    below 2^e - 1, in passes linear in its size, which skips the quadratic
    division that math.gcd would start with; and at an even e = 2h the
    coprime factors 2^h - 1 and 2^h + 1 of 2^e - 1 give two gcds of half
    the size, of which the first recurses.
    """
    m = (1 << e) - 1
    if e < _E0:
        return gcd(m, y)
    y = _fold_minus(e, y)
    if e & 1:
        return gcd(m, y)
    h = e >> 1
    return _gcd_mersenne(h, _fold_minus(h, y)) * gcd((1 << h) + 1, _fold_plus(h, y))


def s_unit_enumerate(S: PrimeSet, bound: int) -> list[int]:
    """All integers x with 2 <= |x| <= bound supported on S, ascending by |x|.

    Ties between x and -x list the negative first.  Empty S gives [].
    """
    mags = [1]  # the magnitudes on the primes so far, each once
    for p in S.primes:
        for m in mags[:]:
            while (m := m * p) <= bound:
                mags.append(m)
    return [x for m in sorted(mags[1:]) for x in (-m, m)]


# An S-unit x stripped once over S.primes: its exponent tuple is ``mult``
# times the primitive tuple ``root``; and |x - 1| and ln|x| for the bound
_Unit = namedtuple("_Unit", "x root mult shifted log_size")


def _unit(x: int, S: PrimeSet) -> _Unit:
    """``x`` stripped over ``S``; |x| >= 2, and ValueError unless x is an S-unit."""
    n, exps = abs(x), []
    for p in S.primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exps.append(e)
    if n != 1:
        raise ValueError("inputs must be S-units")
    g = gcd(*exps)
    return _Unit(x, tuple(e // g for e in exps), g, abs(x - 1), log(abs(x)))


def _trichotomy(ua: _Unit, ub: _Unit, eps: float) -> tuple:
    """The ``CzVerdict`` fields of a pair of stripped units; see ``cz_classify``.

    alpha^m = beta^n in absolute value iff the roots agree, and then the
    least (m, n) is (g_b/h, g_a/h) with h = gcd(g_a, g_b).
    """
    alpha, root_a, g_a, shifted_a, log_a = ua
    beta, root_b, g_b, shifted_b, log_b = ub
    g = gcd(shifted_a, shifted_b)
    lhs, _, rhs, holds = bound(log(g), log_a if abs(alpha) >= abs(beta) else log_b, eps, 0.0)
    witness = (g, lhs, rhs, holds)
    if root_a == root_b:
        h = gcd(g_a, g_b)
        m, n = g_b // h, g_a // h
        # every |alpha|^m = |beta|^n is a multiple of (m, n); the signs agree
        # on all multiples or, when (alpha<0 and m odd) != (beta<0 and n odd),
        # on the even ones only
        if (alpha < 0 and m % 2 == 1) != (beta < 0 and n % 2 == 1):
            m, n = 2 * m, 2 * n
        # max(m, n) <= ceil(1/eps), and no OverflowError when 1/eps is inf
        if max(m, n) - 1 < 1 / eps:
            return (POWER_RELATION, m, n, *witness)
    return (INEQUALITY_HOLDS if holds else EXCEPTIONAL, None, None, *witness)


def cz_classify(alpha: int, beta: int, S: PrimeSet, eps: float) -> CzVerdict:
    """Trichotomy for a pair of S-units with |alpha|, |beta| >= 2.

    POWER_RELATION(m, n) when alpha^m = beta^n for the least such (m, n) and
    max(m, n) <= ceil(1/eps); decided exactly from the primitive exponent
    tuples over S and the signs, in O(|S|).  Otherwise INEQUALITY_HOLDS when
    gcd(alpha - 1, beta - 1) <= max(|alpha|, |beta|)^eps with 1e-9 log
    slack, else EXCEPTIONAL.  The verdict carries that gcd and bound in
    every case.  This strips both units and calls the core that the
    CZ_TRICHOTOMY sweep calls on units it strips once each.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if abs(alpha) < 2 or abs(beta) < 2:
        raise ValueError("inputs must have absolute value >= 2")
    return CzVerdict(*_trichotomy(_unit(alpha, S), _unit(beta, S), eps))


def divisibility_check(terms: list[int] | tuple[int, ...]) -> DivisibilityReport:
    """Verify m | n implies terms[m-1] | terms[n-1]; report first failure.

    Scans n ascending, then m ascending over proper divisors, so the reported
    counterexample is the earliest in that order.
    """
    for n in range(2, len(terms) + 1):
        for m in range(1, n):
            if n % m == 0 and terms[n - 1] % terms[m - 1] != 0:
                return DivisibilityReport(ok=False, counterexample=(m, n))
    return DivisibilityReport(ok=True, counterexample=None)
