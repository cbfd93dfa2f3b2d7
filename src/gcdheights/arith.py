"""Exact arithmetic over Q: valuations, heights, gcd heights, budgeted factoring.

Conventions used throughout the package:

* Rationals are ``fractions.Fraction`` (always reduced, denominator > 0).
* The valuation at a finite prime p is ``v_p(x) = ord_p(x) * ln(p)`` and the
  archimedean valuation is ``v_arch(x) = -ln|x|``, so that the product formula
  reads ``sum_v v(x) = 0`` and the height identity

      sum over all places of max(v(x), 0) = ln max(|numerator|, denominator)

  holds exactly.  Everything is over Q: the place set is {2, 3, 5, ...} plus
  one archimedean place, represented by the module constant ``ARCH``.
* Logs are double precision floats.  Whenever a quantity is the log of a known
  integer the integer is carried alongside as an exact witness (``LogReal``);
  equality-style tests compare witnesses, inequality experiments compare
  floats with 1e-9 slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, log

__all__ = [
    "ARCH",
    "EPS_SLACK",
    "LogReal",
    "PrimeSet",
    "FactorBudget",
    "Factorization",
    "ord_p",
    "v_plus",
    "weil_height",
    "hgcd",
    "prime_to_S_part",
    "is_prime",
    "factor",
    "mult_independent",
]

#: Sentinel for the archimedean place of Q.
ARCH = "arch"

#: Absolute slack used by every inequality-type comparison on doubles.
EPS_SLACK = 1e-9


# ----------------------------------------------------------------------------
# value types
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LogReal:
    """A nonnegative real that is morally ln(integer).

    ``value`` is the double; ``exact_arg`` is the integer n with
    value = ln(n) when that integer is known exactly, else None.
    """

    value: float
    exact_arg: int | None = None

    def __post_init__(self) -> None:
        if self.exact_arg is not None:
            if self.exact_arg < 1:
                raise ValueError("exact_arg must be a positive integer")
            ref = log(self.exact_arg)
            if abs(self.value - ref) > 1e-12 * max(1.0, abs(ref)):
                raise ValueError("value disagrees with ln(exact_arg)")

    @classmethod
    def of_integer(cls, n: int) -> "LogReal":
        """ln(n) with the witness attached.  Requires n >= 1."""
        if n < 1:
            raise ValueError("log of a nonpositive integer")
        return cls(value=log(n), exact_arg=n)


@dataclass(frozen=True)
class PrimeSet:
    """A finite set S of rational primes, the finite places of an S-unit group.

    Primes are stored sorted ascending in ``primes`` and are checked for
    primality on construction.  The empty set is allowed.
    """

    primes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ps = tuple(sorted(set(self.primes)))
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"not a prime: {p}")
        object.__setattr__(self, "primes", ps)


@dataclass(frozen=True)
class FactorBudget:
    """Effort cap for ``factor``: trial division bound and rho iteration count."""

    trial_bound: int = 10**6
    rho_iterations: int = 10**6


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p^e) * cofactor reconstructs the input exactly.

    ``complete`` is False when the effort budget ran out; the unfactored
    composite part is then carried in ``cofactor`` (1 when complete).
    Callers must not treat an incomplete cofactor as prime.
    """

    factors: tuple[tuple[int, int], ...]
    sign: int
    complete: bool
    cofactor: int = 1

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n * self.cofactor

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


# ----------------------------------------------------------------------------
# valuations and heights
# ----------------------------------------------------------------------------

def _as_fraction(x: Fraction | int) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def ord_p(x: Fraction | int, p: int) -> int:
    """Exponent of p in x.  ord_p(5/12, 2) = -2, ord_p(5/12, 3) = -1."""
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    x = _as_fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    e = 0
    n = abs(x.numerator)
    while n % p == 0:
        n //= p
        e += 1
    if e:
        return e
    d = x.denominator
    while d % p == 0:
        d //= p
        e -= 1
    return e


def v_plus(x: Fraction | int, place: int | str) -> LogReal:
    """max(v(x), 0) at one place, with v as in the module docstring."""
    x = _as_fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    if place == ARCH:
        val = -_ln_abs(x)
        if val <= 0.0:
            return LogReal(0.0, 1)
        # -ln|x| = ln(den/|num|); only a known integer when |num| == 1
        if abs(x.numerator) == 1:
            return LogReal.of_integer(x.denominator)
        return LogReal(val)
    e = max(ord_p(x, place), 0)
    return LogReal.of_integer(place**e)


def _ln_abs(x: Fraction) -> float:
    """ln|x| for a nonzero Fraction, safe for huge numerators/denominators."""
    return log(abs(x.numerator)) - log(x.denominator)


def weil_height(x: Fraction | int) -> LogReal:
    """Absolute logarithmic height ln max(|num|, den); h(0) = 0 by convention."""
    x = _as_fraction(x)
    if x == 0:
        return LogReal(0.0, 1)
    return LogReal.of_integer(max(abs(x.numerator), x.denominator))


def hgcd(a: Fraction | int, b: Fraction | int) -> LogReal:
    """Generalized gcd height: sum over all places of min(v+(a), v+(b)).

    For nonzero integers this is exactly ln gcd(|a|, |b|) and the gcd is
    carried as the witness.  A single zero argument is allowed (its v+ is
    +infinity at every place, so the result is the height of the other
    argument); both zero is rejected.
    """
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a == 0 and b == 0:
        raise ValueError("infinite gcd height")
    # finite places: only primes dividing both reduced numerators contribute,
    # with exponent min(ord_p a, ord_p b); that is gcd of the numerators.
    g = gcd(abs(a.numerator), abs(b.numerator))
    arch = min(_arch_plus_or_inf(a), _arch_plus_or_inf(b))
    if arch == 0.0:
        return LogReal.of_integer(g)
    return LogReal(log(g) + arch)


def _arch_plus_or_inf(x: Fraction) -> float:
    if x == 0:
        return float("inf")
    return max(-_ln_abs(x), 0.0)


def prime_to_S_part(x: int, S: PrimeSet) -> int:
    """|x| with every prime of S divided out.  prime_to_S_part(720, {2,3}) = 5."""
    if x == 0:
        raise ValueError("prime-to-S part of zero")
    n = abs(x)
    for p in S.primes:
        while n % p == 0:
            n //= p
    return n


# ----------------------------------------------------------------------------
# primality and factoring
# ----------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Deterministic for n < 3.3e24 (Sorenson-Webster); for larger n the same
# bases give a strong probable-prime test, ample at desk scale.


def is_prime(n: int) -> bool:
    """Miller-Rabin over the fixed base set above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, budget: list[int], c: int) -> int | None:
    """One Brent-cycle attempt at a nontrivial factor of odd composite n.

    Deterministic: x0 = 2, polynomial x^2 + c.  Decrements budget[0] per
    iteration; returns None when the budget runs out or the cycle degenerates.
    """
    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    m = 128
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                if budget[0] <= 0:
                    return None
                budget[0] -= 1
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # backtrack one step at a time
        g = 1
        while g == 1:
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    if g == n:
        return None
    return g


def factor(n: int, budget: FactorBudget = FactorBudget()) -> Factorization:
    """Factor n within the budget: trial division, then budgeted rho.

    The result always reconstructs n exactly via sign * prod(p^e) * cofactor.
    ``complete`` is False iff cofactor > 1, which happens only when the
    budget is exhausted on a composite the methods could not split.
    """
    if n == 0:
        raise ValueError("factor(0)")
    sign = -1 if n < 0 else 1
    m = abs(n)
    found: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    d = 7
    # wheel-less odd trial division is plenty below 10^6
    while d <= budget.trial_bound and d * d <= m:
        while m % d == 0:
            found[d] = found.get(d, 0) + 1
            m //= d
        d += 2
    cofactor = 1
    complete = True
    iters = [budget.rho_iterations]
    stack = [m] if m > 1 else []
    while stack:
        t = stack.pop()
        if t == 1:
            continue
        if t <= budget.trial_bound * budget.trial_bound or is_prime(t):
            # below the trial square the remainder is prime by construction
            found[t] = found.get(t, 0) + 1
            continue
        g = None
        for c in range(1, 20):
            g = _brent_rho(t, iters, c)
            if g is not None:
                break
        if g is None:
            complete = False
            cofactor *= t
            continue
        stack.append(g)
        stack.append(t // g)
    return Factorization(
        factors=tuple(sorted(found.items())),
        sign=sign,
        complete=complete,
        cofactor=cofactor,
    )


def mult_independent(a: int, b: int, budget: FactorBudget = FactorBudget()) -> bool:
    """True iff a^m = b^n has no solution in positive integers m, n.

    Decided through exponent vectors: dependence means equal prime support
    and proportional exponents.  Requires a, b >= 2; raises when either
    factorization is incomplete at the given budget.
    """
    if a < 2 or b < 2:
        raise ValueError("mult_independent requires integers >= 2")
    fa = factor(a, budget)
    fb = factor(b, budget)
    if not (fa.complete and fb.complete):
        raise ValueError("independence undecidable at budget")
    return _least_power_relation(fa.as_dict(), fb.as_dict()) is None


def _least_power_relation(
    da: dict[int, int], db: dict[int, int]
) -> tuple[int, int] | None:
    """Least (m, n) with m*da = n*db, or None when the vectors are not proportional.

    da and db are nonempty exponent vectors {prime: exponent > 0}; for the
    positive integers they describe this decides |a|^m = |b|^n.  Every
    solution is a multiple of the least one, which the first prime fixes.
    """
    if da.keys() != db.keys():
        return None
    p0 = min(da)
    e0, f0 = da[p0], db[p0]
    if any(da[p] * f0 != db[p] * e0 for p in da):
        return None
    g = gcd(e0, f0)
    return f0 // g, e0 // g
