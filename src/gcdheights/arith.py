"""Exact arithmetic over Q: heights, gcd heights, budgeted factoring.

Conventions used throughout the package:

* Rationals are ``fractions.Fraction`` (always reduced, denominator > 0).
* A height is a sum of local terms over the places of Q.  At a prime p the
  term of x is v+(x) = max(ord_p(x), 0) * ln(p); at the archimedean place it
  is max(-ln|x|, 0).  Summed over all places these give

      ln max(|numerator|, denominator),

  the Weil height, and ``hgcd`` sums the smaller of the two arguments' terms.
  Both read their sums off numerators and denominators, without visiting
  the places one by one.
* Logs are double precision floats.  Whenever a quantity is the log of a known
  integer the integer is carried alongside as an exact witness (``LogReal``);
  equality-style tests compare witnesses, inequality experiments compare
  floats with 1e-9 slack.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, isqrt, log

__all__ = [
    "EPS_SLACK",
    "LogReal",
    "PrimeSet",
    "FactorBudget",
    "Factorization",
    "weil_height",
    "hgcd",
    "prime_to_S_part",
    "is_prime",
    "factor",
    "mult_independent",
]

#: Absolute slack used by every inequality-type comparison on doubles.
EPS_SLACK = 1e-9


# ----------------------------------------------------------------------------
# value types
# ----------------------------------------------------------------------------

class LogReal(namedtuple("LogReal", "value exact_arg")):
    """A nonnegative real that is morally ln(integer).

    ``value`` is the double; ``exact_arg`` is the integer n with
    value = ln(n) when that integer is known exactly, else None.
    """

    __slots__ = ()

    def __new__(cls, value: float, exact_arg: int | None = None) -> "LogReal":
        if exact_arg is not None:
            if exact_arg < 1:
                raise ValueError("exact_arg must be a positive integer")
            ref = log(exact_arg)
            if abs(value - ref) > 1e-12 * max(1.0, abs(ref)):
                raise ValueError("value disagrees with ln(exact_arg)")
        return tuple.__new__(cls, (value, exact_arg))

    @classmethod
    def of_integer(cls, n: int) -> "LogReal":
        """ln(n) with the witness attached.  Requires n >= 1."""
        if n < 1:
            raise ValueError("log of a nonpositive integer")
        return cls(value=log(n), exact_arg=n)


class PrimeSet(namedtuple("PrimeSet", "primes")):
    """A finite set S of rational primes, the finite places of an S-unit group.

    Primes are stored sorted ascending in ``primes``; the empty set is
    allowed.  They are checked for primality in ``__init__``, which is what a
    profiler that wraps the constructor times.
    """

    __slots__ = ()

    def __new__(cls, primes: Iterable[int] = ()) -> "PrimeSet":
        return tuple.__new__(cls, (tuple(sorted(set(primes))),))

    def __init__(self, primes: Iterable[int] = ()) -> None:
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"not a prime: {p}")


class FactorBudget(namedtuple("FactorBudget", "trial_bound rho_iterations",
                              defaults=(10**6, 10**6))):
    """Effort cap for ``factor``: trial division bound and rho iteration count."""

    __slots__ = ()


class Factorization(namedtuple("Factorization", "factors sign complete cofactor",
                               defaults=(1,))):
    """sign * prod(p^e) * cofactor reconstructs the input exactly.

    ``complete`` is False when the effort budget ran out; the unfactored
    composite part is then carried in ``cofactor`` (1 when complete).
    Callers must not treat an incomplete cofactor as prime.
    """

    __slots__ = ()


# ----------------------------------------------------------------------------
# heights
# ----------------------------------------------------------------------------

def _as_fraction(x: Fraction | int) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
    return max(log(x.denominator) - log(abs(x.numerator)), 0.0)


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


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    j = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                j = -j
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            j = -j
        a %= n
    return j if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test, Selfridge's parameters, odd n > 2."""
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # |D| shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4  # and P = 1
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:  # x / 2 mod n, for 0 <= x < n
        return (x + n if x % 2 else x) // 2

    # U_k, V_k, Q^k mod n by the binary ladder over the bits of d
    U, V, Qk = 1, 1, Q
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half((U + V) % n), half((D * U + V) % n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Baillie-PSW: Miller-Rabin over the fixed bases, then a strong Lucas test.

    No composite is known to pass both.
    """
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
    return _strong_lucas(n)


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


def mult_independent(a: int, b: int) -> bool:
    """True iff a^m = b^n has no solution in positive integers m, n.

    Decided by exact division, without factoring: a solution exists exactly
    when a and b are powers of one integer, so dividing the larger by the
    smaller ends in equality, and a nonzero remainder proves independence.
    Requires a, b >= 2.
    """
    if a < 2 or b < 2:
        raise ValueError("mult_independent requires integers >= 2")
    while a != b:
        if a < b:
            a, b = b, a
        a, r = divmod(a, b)
        if r:
            return True
    return False
