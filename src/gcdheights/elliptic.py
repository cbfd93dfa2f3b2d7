"""Exact elliptic-curve arithmetic over Q and its divisibility sequences.

Curves are long Weierstrass models with integer coefficients

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6

and points carry exact Fraction coordinates.  For an affine rational point
the x-coordinate in lowest terms is A/D^2 with D > 0 (and the y-denominator
is D^3); D is the quantity the gcd experiments are built on.  Heights follow
the bookkeeping naive = ln max(|A|, D^2), half of which is the normalized
Weil height the canonical height refines.

``multiples`` gets x(nP) from the scaled division values W_n =
d^(n^2-1) psi_n(P) of Ward's recurrence, in integers only, with the primes of
gcd(W_2, W_3) (where P has singular reduction) stripped and their exact
valuations kept beside; the sweeps read D_nP and the naive height, off the
top bits, from the same values.  Chord-tangent ``add`` and ``scalar_mul`` on
Fractions stay as the independent route the tests check them against.
``canonical_height`` sums local heights at the least multiple mP with
nonsingular reduction at every prime: 2 ln D_mP for the primes, and
Silverman's series in double precision, with its error bound, for the real
place.  The tests check it against doubling the point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, inf, isqrt, log, log10

from .arith import LogReal

__all__ = [
    "Curve",
    "Point",
    "IDENTITY",
    "on_curve",
    "neg",
    "add",
    "scalar_mul",
    "denominator_D",
    "multiples",
    "eds",
    "naive_height",
    "canonical_height",
]

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


def _w3(b: tuple[int, int, int, int], a: int, e: int) -> int:
    """W_3 at x = a/e, e = d^2: 3a^4 + b2 a^3 e + 3 b4 a^2 e^2 + 3 b6 a e^3 + b8 e^4."""
    b2, b4, b6, b8 = b
    return (((3 * a + b2 * e) * a + 3 * b4 * e * e) * a + 3 * b6 * e**3) * a + b8 * e**4


def _division_values(c: Curve, p: Point, n_max: int, strip: bool = False
                     ) -> tuple[list[int], list[int] | None, list[list]]:
    """(u, primes, vals): W_0..W_N, N = max(n_max, 4), W_n = d^(n^2-1) psi_n(P).

    W_1..W_4 come from the b-invariants; the rest from Ward's recurrence

        W_{2m+1} = W_{m+2} W_m^3 - W_{m-1} W_{m+1}^3
        W_{2m}   = (W_{m+2} W_{m-1}^2 - W_{m-2} W_{m+1}^2) W_m / W_2,

    whose division is exact.  W_k = 0 exactly when kP is the identity; one
    with k < n_max is reported.  With strip, W_k = u_k prod q^vals[i][k] over
    the primes q = primes[i] of G = gcd(W_2, W_3), u_k prime to G: a step
    scales each product of u's by the power of q their valuations leave
    between them, divides q out of the difference while q divides it, and the
    even step divides by u_2.  So the valuations are exact, and no u_k carries
    the powers of q that make up most of W_k at a point of singular reduction.
    Without strip, or if _trial_primes cannot split G (primes None), u = W.
    """
    b = b2, b4, b6, b8 = c.b_invariants()
    a, d = p.x.numerator, isqrt(p.x.denominator)
    d2 = d * d
    d4 = d2 * d2
    d6 = d4 * d2
    d8 = d4 * d4
    w2 = 2 * p.y.numerator + c.a1 * a * d + c.a3 * d2 * d
    w3 = _w3(b, a, d2)
    w4 = w2 * (
        2 * a**6 + b2 * a**5 * d2 + 5 * b4 * a**4 * d4 + 10 * b6 * a**3 * d6
        + 10 * b8 * a * a * d8 + (b2 * b8 - b4 * b6) * a * d8 * d2
        + (b4 * b8 - b6 * b6) * d8 * d4
    )
    w = [0, 1, w2, w3, w4]
    primes = _trial_primes(gcd(w2, w3)) if strip and n_max > 2 else []
    qs, vals = primes or [], []
    for q in qs:
        v, w = map(list, zip(*[_split(q, x) for x in w]))
        vals.append(v)
    for k in range(5, n_max + 1 if all(w[1:5]) else 5):  # a zero is reported below
        m = k >> 1
        if qs:  # the two products, each scaled by the power of q between them
            i, j, g, h, e = ((m + 2, m, m - 1, m + 1, 3) if k & 1
                             else (m + 2, m - 1, m - 2, m + 1, 2))
            x, y = w[i] * w[j] ** e, w[g] * w[h] ** e
            for q, v in zip(qs, vals):
                s, t = v[i] + e * v[j], v[g] + e * v[h]
                if s > t:
                    x *= q ** (s - t)
                elif t > s:
                    y *= q ** (t - s)
                v.append(min(s, t) if k & 1 else min(s, t) + v[m] - v[2])
            x -= y
            for q, v in zip(qs, vals):  # q divides x only if s = t
                if x % q == 0:
                    r, x = _split(q, x)
                    v[-1] += r
            w.append(x if k & 1 else x * w[m] // w[2])
            if not x:
                break
        elif k & 1:
            w.append(w[m + 2] * w[m] ** 3 - w[m - 1] * w[m + 1] ** 3)
        else:
            w.append((w[m + 2] * w[m - 1] ** 2 - w[m - 2] * w[m + 1] ** 2) * w[m] // w[2])
    if 0 in w[1:n_max]:
        raise ValueError(f"point has finite order {w.index(0, 1)}")
    return w, primes, vals


#: Trial division splits gcd(W_2, W_3) by divisors up to this bound; a
#: cofactor it cannot certify prime sends ``multiples`` to one gcd per term.
_TRIAL_BOUND = 1 << 10


def _trial_primes(g: int) -> list[int] | None:
    """The primes of g >= 1, or None if a cofactor is left that has no
    divisor up to _TRIAL_BOUND and is not certified prime by that."""
    primes, q = [], 2
    while q * q <= g:
        if q > _TRIAL_BOUND:
            return None
        if g % q == 0:
            primes.append(q)
            while g % q == 0:
                g //= q
        q += 1 + (q > 2)
    return primes + [g] if g > 1 else primes


def _split(q: int, x: int) -> tuple[int | float, int]:
    """(v_q(x), x / q^v_q(x)) for a prime q, off the low bits for q = 2."""
    if not x:
        return inf, 0
    if q == 2:
        e = (x & -x).bit_length() - 1
        return e, x >> e
    e = 0
    while x % q == 0:
        x //= q
        e += 1
    return e, x


def _terms(c: Curve, p: Point, n_max: int) -> tuple[int, int, zip | list]:
    """(a, d, (x_n, y_n, z_n) for n = 1..n_max, read once), x_P = a/d^2, with
    x(nP) = (a x_n^2 - y_n z_n) / (d x_n)^2 in lowest terms.

    x(nP) = (a W_n^2 - W_{n-1} W_{n+1}) / (d W_n)^2 has its common factor only
    over the primes of G = gcd(W_2, W_3), where P reduces to a singular point
    (Ayad 1992); no prime of d divides G, as W_2 = 2y, W_3 = 3a^4 modulo it.
    So the terms are the u_k of _division_values, with the shared q^e of each
    prime q of G left out, 2e = min(v(W_{n-1} W_{n+1}), 2 v(W_n)).  When trial
    division cannot split G, one gcd per term gives a = 0, d = 1, (D_n, -1, A_n).
    """
    if p.is_identity:
        raise ValueError("point has finite order 1")
    u, primes, vals = _division_values(c, p, n_max + 1, strip=True)
    a, d = p.x.numerator, isqrt(p.x.denominator)
    xs, zs = u[1:n_max + 1], u[2:n_max + 2]
    for n in range(1, n_max + 1) if vals else ():
        for q, v in zip(primes, vals):
            s, t = v[n - 1] + v[n + 1], 2 * v[n]
            if s < t:
                xs[n - 1] *= q ** ((t - s) // 2)
            elif t < s < inf:
                zs[n - 1] *= q ** (s - t)
    terms = zip(xs, u[:n_max], zs)
    if primes is None:
        pairs = _reduce_by_gcd([(a * (x * x) - y * z, d * abs(x)) for x, y, z in terms])
        return 0, 1, [(dn, -1, an) for an, dn in pairs]
    return a, d, terms


def multiples(c: Curve, p: Point, n_max: int) -> list[tuple[int, int]]:
    """[(A_n, D_n) for n = 1..n_max] with x(nP) = A_n / D_n^2 in lowest terms,
    from Ward's recurrence with the primes of gcd(W_2, W_3) stripped (see
    _terms).  Hitting the identity means the base point has finite order,
    which no caller can absorb; it is reported rather than skipped.
    """
    a, d, terms = _terms(c, p, n_max)
    return [(a * (x * x) - y * z, d * abs(x)) for x, y, z in terms]


def _reduce_by_gcd(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """(num, D) pairs for x = num / D^2, put in lowest terms by one gcd each."""
    out = []
    for num, dn in pairs:
        g = gcd(num, dn * dn)
        out.append((num // g, dn // isqrt(g)))
    return out


#: Top bits of x_n, y_n, z_n that bound |A_n| and D_n^2 in _log_naive, and the
#: size of x_n up to which _denominators forms them in full instead.
_TOP_BITS = 128
_EXACT_BITS = 1024


def _log_naive(a: int, d: int, x: int, y: int, z: int) -> float:
    """ln max(|a x^2 - y z|, (d x)^2), bit for bit math.log of that integer.

    The top _TOP_BITS bits of x, y and z bound both integers at one scale
    2^k, so their max lies between lo 2^k and hi 2^k, the greater lower and
    the greater upper bound.  If lo and hi round to the same float, so does
    every integer between: CPython's int-to-float conversion (PyLong_AsDouble,
    _PyLong_Frexp) rounds correctly, hence monotonically, 2^k moves only the
    exponent, and math.log of an int reads nothing but that rounded value (as
    mantissa and exponent past the float range).  So log(lo << k) is exact to
    the last bit; otherwise the integers are formed in full.
    """
    sx, sy, sz = (max(t.bit_length() - _TOP_BITS, 0) for t in (x, y, z))
    k = min(2 * sx, sy + sz)
    xl, yl, zl = abs(x) >> sx, abs(y) >> sy, abs(z) >> sz
    x2l, x2h = xl * xl << 2 * sx - k, (xl + (sx > 0)) ** 2 << 2 * sx - k
    yzl = yl * zl << sy + sz - k
    yzh = (yl + (sy > 0)) * (zl + (sz > 0)) << sy + sz - k
    al, ah = abs(a) * x2l, abs(a) * x2h
    if (a < 0) == ((y < 0) != (z < 0)):  # a x^2 and y z have one sign
        lo, hi = max(al - yzh, yzl - ah, 0), max(ah - yzl, yzh - al)
    else:
        lo, hi = al + yzl, ah + yzh
    lo, hi = max(lo, d * d * x2l), max(hi, d * d * x2h)
    if hi.bit_length() < 1000 and float(lo) == float(hi):  # float() cannot overflow
        return log(lo << k)
    return log(max(abs(a * (x * x) - y * z), (d * x) ** 2))


def _denominators(c: Curve, p: Point, n_max: int, naive: bool = False) -> list:
    """[D_n], or with naive [(D_n, ln max(|A_n|, D_n^2))], n = 1..n_max, from
    _terms and _log_naive: the values of ``multiples`` and ``naive_height``."""
    a, d, terms = _terms(c, p, n_max)
    if not naive:
        return [d * abs(x) for x, _, _ in terms]
    return [(dn, log(max(abs(a * (x * x) - y * z), dn * dn))
             if x.bit_length() <= _EXACT_BITS else _log_naive(a, d, x, y, z))
            for x, y, z in terms for dn in (d * abs(x),)]


def eds(c: Curve, p: Point, n_max: int) -> tuple[int, ...]:
    """Denominator sequence (D_P, D_2P, ..., D_NP) of the multiples of P."""
    if p.is_identity:
        raise ValueError("base point is the identity")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return tuple(_denominators(c, p, n_max))


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
        return LogReal.of_integer(max(abs(p.x.numerator), p.x.denominator))
    a, d = p
    return LogReal.of_integer(max(abs(a), d * d))


#: The multiples nP searched for one with nonsingular reduction at every
#: prime, and for the identity: by Mazur's theorem a point of finite order
#: over Q has order at most 12.
_CAP = 12

#: Rounding allowance of the float series in _archimedean, relative to the
#: size of the logarithms it adds up.
_ROUNDING = 2.0**-40


def _archimedean(c: Curve, a: int, d: int) -> tuple[float, float]:
    """(mu, err): the archimedean local height at x = a/d^2 and its error bound.

    mu(Q) = ln|x(Q)| + o(1) as Q -> O and mu(2Q) = 4 mu(Q) - ln|psi(x)|,
    psi = 4x^3 + b2 x^2 + 2 b4 x + b6; at a point of nonsingular reduction
    everywhere, mu + 2 ln D is twice the canonical height.  Silverman's series
    (Math. Comp. 51, 1988) in t = 1/x:

        mu = -ln|t| + sum_n 4^-(n+1) ln|z(t_n)|,   t_(n+1) = w(t_n) / z(t_n),
        z = 1 - b4 t^2 - 2 b6 t^3 - b8 t^4,   w = 4t + b2 t^2 + 2 b4 t^3 + b6 t^4.

    Where |x| < 1/2 the series runs on t = 1/(x+1), the model shifted by
    x -> x - 1, and a step whose |w| > 2|z| crosses to the other model with
    z + w or z - w, so |t| <= 2 throughout.  The first t and ln|x| are taken
    from the integers, so a huge multiple cannot overflow a float.  Rounding
    is allowed _ROUNDING times the size of the logarithms, and the series
    runs to the D digits that leaves: with H = max(4, |b2|, 2|b4|, 2|b6|,
    |b8|), N >= 5D/3 + 1/2 + 3/4 ln(7 + 4/3 ln H) terms bound the tail by
    10^-D (Silverman 1988).  err is the sum of both allowances.
    """
    b2, b4, b6, b8 = c.b_invariants()
    h = max(4, abs(b2), 2 * abs(b4), 2 * abs(b6), abs(b8))
    models = [tuple(map(float, m)) for m in (  # indexed by on_x
        (b2 - 12, b4 - b2 + 6, b6 - 2 * b4 + b2 - 4, b8 - 3 * b6 + 3 * b4 - b2 + 3),
        (b2, b4, b6, b8))]
    e = d * d
    on_x = 2 * abs(a) >= e  # else the model in x + 1
    num = a if on_x else a + e
    ln_num, ln_e = log(abs(num)), 2 * log(d)
    rounding = _ROUNDING * (ln_num + ln_e + log(h))
    digits = -log10(rounding)
    terms = ceil(5 * digits / 3 + 0.5 + 0.75 * log(7 + 4 / 3 * log(h)))
    mu, t, f = ln_num - ln_e, e / num, 1.0
    for _ in range(terms):
        f /= 4
        c2, c4, c6, c8 = models[on_x]
        tt = t * t
        w = 4 * t + tt * (c2 + t * (2 * c4 + t * c6))
        z = 1 - tt * (c4 + t * (2 * c6 + t * c8))
        if abs(w) > 2 * abs(z):  # |x(2Q)| < 1/2: cross to the other model
            z = z + w if on_x else z - w
            on_x = not on_x
        mu += f * log(abs(z))
        t = w / z
    return mu, 2 * rounding


def canonical_height(c: Curve, p: Point, tol: float = 1e-4) -> float:
    """Canonical height of P from its local heights at a multiple, to tol.

    The normalization is half of h(x), the limit of naive_height(2^k P) /
    (2 * 4^k).  Let m be the least n <= _CAP for which nP = (A/D^2, .) has
    nonsingular reduction at every prime, that is gcd(W2^2, W3) = 1 for the
    homogenised forms W2^2 = 4A^3 + b2 A^2 D^2 + 2 b4 A D^4 + b6 D^6 and
    W3 = 3A^4 + b2 A^3 D^2 + 3 b4 A^2 D^4 + 3 b6 A D^6 + b8 D^8 (Ayad 1992).
    There each non-archimedean local height is max(0, ln|x|_p), and they sum
    to 2 ln D, so h(P) = (mu(mP) + 2 ln D) / (2 m^2) with mu from
    _archimedean.  W_n = 0 for some n <= 12 decides finite order exactly
    (Mazur); such a point returns 0.0 and warns "torsion".  A tol
    below the error bound of the float series, or a point with no such
    m <= _CAP, warns "not certified".
    """
    if p.is_identity:
        raise ValueError("height of the identity")
    if not tol > 0:
        raise ValueError("tol must be positive")
    try:
        pairs = multiples(c, p, _CAP)
    except ValueError as e:  # W_n = 0 for some n <= _CAP
        warnings.warn(f"torsion: {e}")
        return 0.0
    b = b2, b4, b6, _ = c.b_invariants()
    for m, (a, d) in enumerate(pairs, 1):
        e = d * d
        w2sq = ((4 * a + b2 * e) * a + 2 * b4 * e * e) * a + b6 * e**3
        if gcd(w2sq, _w3(b, a, e)) == 1:
            break
    else:
        warnings.warn(f"tolerance {tol} not certified: no multiple up to {_CAP}P "
                      "has nonsingular reduction at every prime")
    mu, err = _archimedean(c, a, d)
    if err > 2 * m * m * tol:
        warnings.warn(f"tolerance {tol} not certified: the float series is "
                      f"only good to {err / (2 * m * m):.1e}")
    return (mu + 2 * log(d)) / (2 * m * m)
