"""Divisibility sequences from the multiplicative group, and gcds on them.

The objects here live on G_m x G_m: points are rational numbers a/b in lowest
terms (neither 0 nor a unit), the n-th division value is |a^n - b^n|, and
gcd(a^n - 1, b^n - 1) is the quantity the BCZ and AR_RETURNS sweeps of
``experiments`` scan against exponential bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, log

from .arith import EPS_SLACK, PrimeSet, prime_to_S_part

__all__ = [
    "MulPoint",
    "MulDivSeq",
    "CzVerdict",
    "DivisibilityReport",
    "POWER_RELATION",
    "INEQUALITY_HOLDS",
    "EXCEPTIONAL",
    "power",
    "mul_D",
    "mul_seq",
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

@dataclass(frozen=True)
class MulPoint:
    """A rational point a/b on the multiplicative group, |a/b| not 0 or 1.

    Normalized on construction: gcd(a, b) = 1, b >= 1.
    """

    a: int
    b: int = 1

    def __post_init__(self) -> None:
        if self.b == 0:
            raise ValueError("zero denominator")
        g = gcd(self.a, self.b)
        a, b = self.a // g, self.b // g
        if b < 0:
            a, b = -a, -b
        if a == 0 or abs(a) == b:
            raise ValueError("point must differ from 0 and the units")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def of_ratio(cls, x: Fraction) -> "MulPoint":
        return cls(x.numerator, x.denominator)

    def ratio(self) -> Fraction:
        return Fraction(self.a, self.b)


@dataclass(frozen=True)
class MulDivSeq:
    """Terms |a^n - b^n| for n = 1..N; a strong divisibility sequence."""

    point: MulPoint
    terms: tuple[int, ...]


@dataclass(frozen=True)
class CzVerdict:
    """One of POWER_RELATION (with exponents), INEQUALITY_HOLDS, EXCEPTIONAL."""

    kind: str
    m: int | None = None
    n: int | None = None


@dataclass(frozen=True)
class DivisibilityReport:
    ok: bool
    counterexample: tuple[int, int] | None  # (m, n) with m | n but term_m not | term_n


# ----------------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------------

def power(p: MulPoint, n: int) -> MulPoint:
    """n-th power point (a^n : b^n).  n >= 1."""
    if n < 1:
        raise ValueError("power exponent must be >= 1")
    return MulPoint(p.a**n, p.b**n)


def mul_D(p: MulPoint) -> int:
    """Division value |a - b|; zero would mean the identity, which is excluded."""
    if p.a == p.b:
        raise ValueError("point equals identity")
    return abs(p.a - p.b)


def mul_seq(p: MulPoint, n_max: int) -> MulDivSeq:
    """First n_max division values, computed directly as |a^n - b^n|.

    The identity mul_D(power(p, n)) == terms[n-1] is exercised by tests
    through the independent power/mul_D route.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    terms = []
    pa, pb = 1, 1
    for _ in range(n_max):
        pa *= p.a
        pb *= p.b
        terms.append(abs(pa - pb))
    return MulDivSeq(point=p, terms=tuple(terms))


def gcd_pair(a: int, b: int, n: int) -> int:
    """gcd(a^n - 1, b^n - 1) for integers a, b >= 2 and n >= 1."""
    if a < 2 or b < 2:
        raise ValueError("gcd_pair requires a, b >= 2")
    if n < 1:
        raise ValueError("gcd_pair requires n >= 1")
    return gcd(a**n - 1, b**n - 1)


def s_unit_enumerate(S: PrimeSet, bound: int) -> list[int]:
    """All integers x with 2 <= |x| <= bound supported on S, ascending by |x|.

    Ties between x and -x list the negative first.  Empty S gives [].
    """
    vals: list[int] = []
    mags: set[int] = set()

    def grow(i: int, acc: int) -> None:
        if i == len(S.primes):
            if acc >= 2:
                mags.add(acc)
            return
        p = S.primes[i]
        while acc <= bound:
            grow(i + 1, acc)
            acc *= p
    if S.primes:
        grow(0, 1)
    for m in sorted(mags):
        vals.extend((-m, m))
    return vals


def cz_classify(alpha: int, beta: int, S: PrimeSet, eps: float) -> CzVerdict:
    """Trichotomy for a pair of S-units with |alpha|, |beta| >= 2.

    Scans alpha^m = beta^n over 1 <= max(m, n) <= ceil(1/eps) first; failing
    that, checks gcd(alpha - 1, beta - 1) <= max(|alpha|, |beta|)^eps with
    1e-9 log slack; what survives both is EXCEPTIONAL.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if abs(alpha) < 2 or abs(beta) < 2:
        raise ValueError("inputs must have absolute value >= 2")
    if prime_to_S_part(alpha, S) != 1 or prime_to_S_part(beta, S) != 1:
        raise ValueError("inputs must be S-units")
    k_max = ceil(1 / eps)
    la, lb = log(abs(alpha)), log(abs(beta))
    for k in range(1, k_max + 1):
        for m in range(1, k + 1):
            for n in range(1, k + 1):
                if max(m, n) != k:
                    continue
                # float prefilter keeps the exact pow off absurd exponents
                if abs(m * la - n * lb) > 1e-6:
                    continue
                if alpha**m == beta**n:
                    return CzVerdict(POWER_RELATION, m=m, n=n)
    g = gcd(abs(alpha - 1), abs(beta - 1))
    if log(g) <= eps * max(la, lb) + EPS_SLACK:
        return CzVerdict(INEQUALITY_HOLDS)
    return CzVerdict(EXCEPTIONAL)


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
