"""Exact elliptic-curve arithmetic over Q and its divisibility sequences.

Curves are long Weierstrass models with integer coefficients

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6

and points carry exact Fraction coordinates.  For an affine rational point
the x-coordinate in lowest terms is A/D^2 with D > 0 (and the y-denominator
is D^3); D is the quantity the gcd experiments are built on.  Heights follow
the bookkeeping naive = ln max(|A|, D^2), half of which is the normalized
Weil height the canonical height refines.

The two hot paths use integers only.  ``multiples`` gets x(nP) from the
scaled division values W_n = d^(n^2-1) psi_n(P) of Ward's recurrence, and
``canonical_height`` doubles x = A/Z as an integer pair whose common factor
divides the discriminant squared.  Chord-tangent ``add`` and ``scalar_mul``
on Fractions stay as the independent route the tests check both against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, log

from .arith import LogReal

__all__ = [
    "Curve",
    "Point",
    "IDENTITY",
    "EDS",
    "on_curve",
    "neg",
    "add",
    "scalar_mul",
    "denominator_D",
    "multiples",
    "eds",
    "naive_height",
    "canonical_height",
    "exceptional_subgroups",
]

#: Doubling cap for the canonical height iteration; 2^8 P already has
#: coordinates in the thousands of digits on desk-scale inputs.
DOUBLING_CAP = 8


# ----------------------------------------------------------------------------
# curve and points
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    a1: int = 0
    a2: int = 0
    a3: int = 0
    a4: int = 0
    a6: int = 0

    def __post_init__(self) -> None:
        if self.discriminant() == 0:
            raise ValueError("singular curve: discriminant is zero")

    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


@dataclass(frozen=True)
class Point:
    """IDENTITY (x = y = None) or an affine point with exact coordinates.

    Affine denominators must have the (D^2, D^3) shape; anything else cannot
    lie on an integer-coefficient model and is rejected at construction.
    """

    x: Fraction | None = None
    y: Fraction | None = None

    def __post_init__(self) -> None:
        if (self.x is None) != (self.y is None):
            raise ValueError("affine point needs both coordinates")
        if self.x is None:
            return
        x = self.x if isinstance(self.x, Fraction) else Fraction(self.x)
        y = self.y if isinstance(self.y, Fraction) else Fraction(self.y)
        d = isqrt(x.denominator)
        if d * d != x.denominator or y.denominator != d**3:
            raise ValueError("non-integral model pathology")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def is_identity(self) -> bool:
        return self.x is None


IDENTITY = Point()


def on_curve(c: Curve, p: Point) -> bool:
    """Exact check of the Weierstrass equation; IDENTITY is always on."""
    if p.is_identity:
        return True
    x, y = p.x, p.y
    lhs = y * y + c.a1 * x * y + c.a3 * y
    rhs = x**3 + c.a2 * x * x + c.a4 * x + c.a6
    return lhs == rhs


# ----------------------------------------------------------------------------
# group law
# ----------------------------------------------------------------------------

def neg(c: Curve, p: Point) -> Point:
    if p.is_identity:
        return IDENTITY
    return Point(p.x, -p.y - c.a1 * p.x - c.a3)


def add(c: Curve, p: Point, q: Point) -> Point:
    """Chord-tangent addition, all cases, exact rationals."""
    if p.is_identity:
        return q
    if q.is_identity:
        return p
    x1, y1, x2, y2 = p.x, p.y, q.x, q.y
    if x1 == x2 and y2 == -y1 - c.a1 * x1 - c.a3:
        return IDENTITY
    if x1 == x2:
        # same x, not opposite: doubling (y1 == y2, tangent slope)
        lam = (3 * x1 * x1 + 2 * c.a2 * x1 + c.a4 - c.a1 * y1) / (
            2 * y1 + c.a1 * x1 + c.a3
        )
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + c.a1 * lam - c.a2 - x1 - x2
    y3 = -(lam + c.a1) * x3 - nu - c.a3
    return Point(x3, y3)


def scalar_mul(c: Curve, n: int, p: Point) -> Point:
    """nP by double-and-add; scalar_mul(0, P) = IDENTITY, negatives via neg."""
    if n < 0:
        return neg(c, scalar_mul(c, -n, p))
    acc = IDENTITY
    base = p
    while n:
        if n & 1:
            acc = add(c, acc, base)
        n >>= 1
        if n:
            base = add(c, base, base)
    return acc


# ----------------------------------------------------------------------------
# denominators and divisibility sequences
# ----------------------------------------------------------------------------

def denominator_D(p: Point) -> int:
    """The positive D with den(x_P) = D^2."""
    if p.is_identity:
        raise ValueError("denominator of the identity")
    d = isqrt(p.x.denominator)
    if d * d != p.x.denominator:
        raise ValueError("non-integral model pathology")
    return d


@dataclass(frozen=True)
class EDS:
    """terms[n-1] = D_{nP} for n = 1..N."""

    curve: Curve
    point: Point
    terms: tuple[int, ...]


def _division_values(c: Curve, p: Point, n_max: int) -> list[int]:
    """[W_0, ..., W_N], N = max(n_max, 4), W_n = d^(n^2-1) psi_n(P), x_P = a/d^2.

    W_1..W_4 come from the b-invariants; the rest from Ward's recurrence

        W_{2m+1} = W_{m+2} W_m^3 - W_{m-1} W_{m+1}^3
        W_{2m}   = (W_{m+2} W_{m-1}^2 - W_{m-2} W_{m+1}^2) W_m / W_2,

    whose division is exact.  W_n = 0 exactly when nP is the identity; the
    even step divides by W_2, so W_2 = 0 is reported before it is needed.
    """
    b2, b4, b6, b8 = c.b_invariants()
    a, d = p.x.numerator, isqrt(p.x.denominator)
    d2 = d * d
    d4 = d2 * d2
    d6 = d4 * d2
    d8 = d4 * d4
    w2 = 2 * p.y.numerator + c.a1 * a * d + c.a3 * d2 * d
    if w2 == 0 and n_max > 2:
        raise ValueError("point has finite order 2")
    w3 = 3 * a**4 + b2 * a**3 * d2 + 3 * b4 * a * a * d4 + 3 * b6 * a * d6 + b8 * d8
    w4 = w2 * (
        2 * a**6 + b2 * a**5 * d2 + 5 * b4 * a**4 * d4 + 10 * b6 * a**3 * d6
        + 10 * b8 * a * a * d8 + (b2 * b8 - b4 * b6) * a * d8 * d2
        + (b4 * b8 - b6 * b6) * d8 * d4
    )
    w = [0, 1, w2, w3, w4]
    for k in range(5, n_max + 1):
        m = k >> 1
        if k & 1:
            w.append(w[m + 2] * w[m] ** 3 - w[m - 1] * w[m + 1] ** 3)
        else:
            w.append(
                (w[m + 2] * w[m - 1] ** 2 - w[m - 2] * w[m + 1] ** 2) * w[m] // w2
            )
    return w


def multiples(c: Curve, p: Point, n_max: int) -> list[tuple[int, int]]:
    """[(A_n, D_n) for n = 1..n_max] with x(nP) = A_n / D_n^2 in lowest terms.

    x(nP) = (a W_n^2 - W_{n-1} W_{n+1}) / (d^2 W_n^2) from the division values
    of _division_values, reduced by one gcd per term.  The gcd is skipped
    when P is integral with gcd(W_2, W_3) = 1: then P reduces to a
    nonsingular point at every prime, the fraction is already in lowest
    terms and D_n = |W_n| (Ayad 1992).
    Hitting the identity means the base point has finite order, which no
    caller can absorb; it is reported rather than skipped.
    """
    if p.is_identity:
        raise ValueError("point has finite order 1")
    w = _division_values(c, p, n_max + 1)
    a, dd = p.x.numerator, p.x.denominator
    d = isqrt(dd)
    lowest = d == 1 and gcd(w[2], w[3]) == 1
    out = []
    for n in range(1, n_max + 1):
        wn = w[n]
        if wn == 0:
            raise ValueError(f"point has finite order {n}")
        num = a * wn * wn - w[n - 1] * w[n + 1]
        if lowest:
            out.append((num, abs(wn)))
        else:
            g = gcd(num, dd * wn * wn)
            out.append((num // g, d * abs(wn) // isqrt(g)))
    return out


def eds(c: Curve, p: Point, n_max: int) -> EDS:
    """Denominator sequence D_P, D_2P, ..., D_NP of the multiples of P."""
    if p.is_identity:
        raise ValueError("base point is the identity")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    terms = tuple(d for _, d in multiples(c, p, n_max))
    return EDS(curve=c, point=p, terms=terms)


# ----------------------------------------------------------------------------
# heights
# ----------------------------------------------------------------------------

def naive_height(p: Point | tuple[int, int]) -> LogReal:
    """ln max(|A_P|, D_P^2) where x_P = A_P / D_P^2; identity has height 0.

    Takes a Point or an (A, D) pair as returned by ``multiples``.
    """
    if isinstance(p, Point):
        if p.is_identity:
            return LogReal(0.0, 1)
        return _naive(p.x.numerator, p.x.denominator)
    a, d = p
    return _naive(a, d * d)


def _naive(a: int, z: int) -> LogReal:
    """ln max(|a|, z) for x = a/z in lowest terms."""
    return LogReal.of_integer(max(abs(a), z))


def _naive_vs_limit_bound(c: Curve) -> float:
    """Uniform bound B with |naive_height(Q)/2 - limit| <= B on this model.

    The gap between half the naive height and its doubling limit is bounded,
    uniformly over all rational points, by an expression in the heights of
    the j-invariant and the discriminant of the integral model.  Uniformity
    is the point: it turns B into an a-priori error bound B / 4^k for the
    k-fold doubling estimate, independent of which point is being measured.
    """
    b2, b4, _, _ = c.b_invariants()
    c4 = b2 * b2 - 24 * b4
    j = Fraction(c4**3, c.discriminant())
    hj = log(max(abs(j.numerator), j.denominator))
    hd = log(abs(c.discriminant()))
    return max(hj / 8 + hd / 12 + 0.973, hj / 12 + hd / 12 + 1.07)


def canonical_height(c: Curve, p: Point, tol: float = 1e-4) -> float:
    """Doubling-limit estimate of the canonical height, accurate to tol.

    Returns naive_height(2^k P) / (2 * 4^k) at a depth k fixed up front so
    that the curve's uniform error bound B / 4^k falls below tol.  Agreement
    of successive estimates is deliberately not used as a stop rule: the
    increments are not monotone, and consecutive estimates can coincide to
    many digits while still far from the limit (integral multiples of a
    small point all report naive height contributions late).  If certifying
    tol would need more than DOUBLING_CAP doublings the iteration stops at
    the cap and warns.  Points of finite order surface either as an exact
    identity hit or as an estimate below tol; both warn "possibly torsion".
    The doublings act on x alone, as a coprime integer pair; the result is
    bit-identical to doubling the point by chord-tangent ``add``.
    """
    if p.is_identity:
        raise ValueError("height of the identity")
    if not tol > 0:
        raise ValueError("tol must be positive")
    bound = _naive_vs_limit_bound(c)
    depth = 1
    while bound / 4.0**depth > tol and depth < DOUBLING_CAP:
        depth += 1
    if bound / 4.0**depth > tol:
        warnings.warn(
            f"tolerance {tol} not certified within {DOUBLING_CAP} doublings"
        )
    b2, b4, b6, b8 = c.b_invariants()
    disc2 = c.discriminant() ** 2
    a, z = p.x.numerator, p.x.denominator
    for _ in range(depth):
        # x(2Q) = (x^4 - b4 x^2 - 2 b6 x - b8) / (4 x^3 + b2 x^2 + 2 b4 x + b6);
        # for coprime (a, z) the common factor of the new pair divides the
        # resultant of the two forms, which is disc^2
        a2, z2 = a * a, z * z
        na = a2 * a2 - b4 * a2 * z2 - 2 * b6 * a * z2 * z - b8 * z2 * z2
        nz = z * (4 * a2 * a + b2 * a2 * z + 2 * b4 * a * z2 + b6 * z2 * z)
        if nz == 0:
            warnings.warn("possibly torsion: doubling reached the identity")
            return 0.0
        g = gcd(gcd(na, disc2), nz)
        a, z = na // g, nz // g
    est = _naive(a, z).value / (2.0 * 4.0**depth)
    if est < tol:
        warnings.warn("possibly torsion: height estimate below tolerance")
    return est


# ----------------------------------------------------------------------------
# predicted index directions
# ----------------------------------------------------------------------------

def exceptional_subgroups(eps: float) -> list[tuple[int, int]]:
    """Index pairs (m, n) of the subgroups that may carry gcd violations.

    All (m, n) with m, n >= 0, not both zero, gcd(m, n) = 1 and
    m^2 + n^2 <= 1/(2*eps), ordered by (m^2 + n^2, m, n).  Empty once
    eps > 1/2; the axes (0,1) and (1,0) survive up to eps = 1/2; the
    diagonal (1,1) first appears at eps <= 1/4.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    bound = 1.0 / (2.0 * eps)
    out = []
    m = 0
    while m * m <= bound:
        n = 0
        while m * m + n * n <= bound:
            if (m or n) and gcd(m, n) == 1:
                out.append((m, n))
            n += 1
        m += 1
    out.sort(key=lambda mn: (mn[0] ** 2 + mn[1] ** 2, mn[0], mn[1]))
    return out
