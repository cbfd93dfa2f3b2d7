"""Generalized gcd heights on explicit blowups, and the conjectural RHS evaluator.

Three concrete geometries are covered exactly: projective space with a
blown-up subvariety cut out by homogeneous forms (a coordinate point is the
subvariety of the forms X1, ..., Xn), a product of two elliptic curves via
denominator gcds (the EDS_GCD and ABELIAN_GROWTH rows of ``experiments``),
and the mixed case of an elliptic curve against the multiplicative group.
The right-hand sides all share one shape,

    eps * (ample height)  +  (counting term) / (r - 1 + delta*eps)  +  C,

and ``bound`` is the one place that sums it and decides whether a gcd height
stays under it.  Every constant is explicit: no asymptotic O(1) is ever
hidden (they are all fixed to 0 unless C is passed).
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import gcd, inf, isfinite, isinf, isnan, log

from .arith import EPS_SLACK, LogReal, PrimeSet, prime_to_S_part

__all__ = [
    "PnPoint",
    "HomPoly",
    "PolySystem",
    "VojtaParams",
    "parse_poly",
    "hgcd_pn_subvariety",
    "counting_function_pn",
    "bound",
    "check_pn",
    "check_mixed",
]


# ----------------------------------------------------------------------------
# projective points
# ----------------------------------------------------------------------------

class PnPoint(namedtuple("PnPoint", "coords")):
    """Primitive integer coordinates: gcd 1, first nonzero coordinate positive."""

    __slots__ = ()

    def __new__(cls, coords: tuple[int, ...]) -> "PnPoint":
        if not coords or not any(coords):
            raise ValueError("zero vector")
        g = 0
        for c in coords:
            g = gcd(g, c)
        if g != 1:
            raise ValueError("coordinates not primitive")
        for c in coords:
            if c:
                if c < 0:
                    raise ValueError("sign not normalized")
                break
        return tuple.__new__(cls, (coords,))


# ----------------------------------------------------------------------------
# homogeneous forms
# ----------------------------------------------------------------------------

class HomPoly(namedtuple("HomPoly", "terms")):
    """Integer polynomial as ((coeff, ((var, exp), ...)), ...), like terms merged."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        if self.is_zero:
            return True
        degs = {sum(e for _, e in mono) for _, mono in self.terms}
        return len(degs) == 1

    def max_var(self) -> int:
        return max((v for _, mono in self.terms for v, _ in mono), default=-1)

    def __call__(self, coords: tuple[int, ...]) -> int:
        total = 0
        for coeff, mono in self.terms:
            t = coeff
            for v, e in mono:
                t *= coords[v] ** e
            total += t
        return total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for coeff, mono in self.terms:
            body = "*".join(
                f"X{v}" if e == 1 else f"X{v}^{e}" for v, e in mono
            )
            if not body:
                parts.append(f"{coeff:+d}")
            elif coeff == 1:
                parts.append(f"+{body}")
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff:+d}*{body}")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


_TERM_RE = re.compile(r"^([+-]?\d*)((?:\*?X\d+(?:\^\d+)?)*)$")
_FACTOR_RE = re.compile(r"X(\d+)(?:\^(\d+))?")


def parse_poly(text: str) -> HomPoly:
    """Parse forms like "X1-X0", "X0*X2-X1^2", "2*X0^2-3*X1*X2"."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    chunks = re.split(r"(?=[+-])", s)
    acc: dict[tuple[tuple[int, int], ...], int] = {}
    for chunk in chunks:
        if not chunk:
            continue
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        coeff_s, factors_s = m.groups()
        if coeff_s in ("", "+"):
            coeff = 1
        elif coeff_s == "-":
            coeff = -1
        else:
            coeff = int(coeff_s)
        exps: dict[int, int] = {}
        for v_s, e_s in _FACTOR_RE.findall(factors_s):
            v, e = int(v_s), int(e_s) if e_s else 1
            exps[v] = exps.get(v, 0) + e
        mono = tuple(sorted(exps.items()))
        acc[mono] = acc.get(mono, 0) + coeff
    terms = tuple(
        (c, mono) for mono, c in sorted(acc.items()) if c != 0
    )
    return HomPoly(terms=terms)


class PolySystem(namedtuple("PolySystem", "polys")):
    """Homogeneous forms f_1..f_t, the equations of V."""

    __slots__ = ()

    def __new__(cls, polys: tuple[HomPoly, ...]) -> "PolySystem":
        if not polys:
            raise ValueError("system needs at least one polynomial")
        for f in polys:
            if f.is_zero:
                raise ValueError("zero polynomial in system")
            if not f.is_homogeneous():
                raise ValueError(f"not homogeneous: {f}")
        return tuple.__new__(cls, (polys,))

    @classmethod
    def of(cls, *texts: str) -> "PolySystem":
        return cls(polys=tuple(parse_poly(t) for t in texts))


# ----------------------------------------------------------------------------
# blowup gcd heights on P^n
# ----------------------------------------------------------------------------

def hgcd_pn_subvariety(x: PnPoint, sys: PolySystem) -> LogReal:
    """gcd height against the blowup of V = {f_1 = ... = f_t = 0}.

    ln gcd of the nonzero |f_i(x)|, with the gcd carried as witness.
    """
    vals = [f(x.coords) for f in sys.polys]
    g = 0
    for v in vals:
        g = gcd(g, v)
    if g == 0:
        raise ValueError("point on V")
    return LogReal.of_integer(g)


def counting_function_pn(x: PnPoint, S: PrimeSet) -> LogReal:
    """ln of the prime-to-S part of x_0*x_1*...*x_n (all coordinates nonzero)."""
    prod = 1
    for c in x.coords:
        if c == 0:
            raise ValueError("zero coordinate in counting function")
        prod *= c
    return LogReal.of_integer(prime_to_S_part(prod, S))


# ----------------------------------------------------------------------------
# the bound evaluator
# ----------------------------------------------------------------------------

class VojtaParams(namedtuple("VojtaParams", "epsilon delta C r")):
    __slots__ = ()

    def __new__(cls, epsilon: float, delta: float = 1.0, C: float = 0.0,
                r: int = 2) -> "VojtaParams":
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 < delta < inf:
            raise ValueError("delta must be positive and finite")
        if isnan(C):
            raise ValueError("C must not be NaN")
        if isinf(C):
            raise ValueError("C must be finite")
        if r < 2:
            raise ValueError("r must be an integer >= 2")
        if not epsilon < r - 1:
            raise ValueError("epsilon must be < r - 1")
        self = tuple.__new__(cls, (epsilon, delta, C, r))
        try:
            self.weight
        except OverflowError:
            raise ValueError(
                "r is too large: r - 1 + delta*eps overflows a float") from None
        return self

    @property
    def weight(self) -> float:
        """The counting term's divisor r - 1 + delta*eps."""
        return self.r - 1 + self.delta * self.epsilon


def bound(lhs: float, hA: float, eps: float, C: float,
          hcount: float = 0.0, weight: float = 1.0) -> tuple:
    """(lhs, hA, rhs, holds) of lhs <= eps*hA + hcount/weight + C.

    Every gcd inequality here is this one bound: the counting term is absent
    (0) off P^n, and ``holds`` allows ``EPS_SLACK`` of log rounding.  A rhs
    that overflows a float raises OverflowError: no verdict holds against it.
    """
    rhs = eps * hA + hcount / weight + C
    if not isfinite(rhs):
        raise OverflowError(f"the bound overflows a float: rhs = {rhs}")
    return lhs, hA, rhs, lhs <= rhs + EPS_SLACK


def check_pn(x: PnPoint, sys: PolySystem, S: PrimeSet, p: VojtaParams) -> tuple:
    """Blowup gcd height of x against V versus the conjectural bound.

    Returns (gcd, lhs, hA, hcount, rhs, holds), the columns of a PN_CHECK
    row: lhs is the exact subvariety gcd height, the ample height hA is
    ln max|x_i| and the counting term hcount is the prime-to-S coordinate
    product.  ``p.r`` is taken as the codimension of V and V as smooth, never
    verified here; the PN_CHECK sweep derives r from linear forms.
    """
    g = hgcd_pn_subvariety(x, sys)
    hcount = counting_function_pn(x, S).value
    lhs, hA, rhs, holds = bound(g.value, log(max(abs(c) for c in x.coords)),
                                p.epsilon, p.C, hcount, p.weight)
    return g.exact_arg, lhs, hA, hcount, rhs, holds


def check_mixed(d_q: int, b: int, S: PrimeSet, eps: float, C: float = 1.0) -> tuple:
    """ln gcd(D_Q, |b - 1|) versus ln C + eps*ln max(D_Q, |b|), given D_Q.

    Returns (gcd, lhs, hA, rhs, holds), the columns of a MIXED_CHECK row
    after its index and D_Q.  Here C sits on the multiplicative side of the
    inequality gcd <= C * max^eps, so it enters the log-space rhs as ln C
    (unlike ``bound``'s C, which is already additive in logs).  b must be an
    S-unit with |b| >= 2; otherwise the counting term would not vanish.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not C > 0:
        raise ValueError("C must be positive (it multiplies the bound)")
    if abs(b) < 2:
        raise ValueError("b must satisfy |b| >= 2")
    if prime_to_S_part(b, S) != 1:
        raise ValueError("b is not an S-unit")
    g = gcd(d_q, abs(b - 1))
    return (g, *bound(log(g), log(max(d_q, abs(b))), eps, log(C)))
