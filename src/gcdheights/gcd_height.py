"""Generalized gcd heights on explicit blowups, and the conjectural RHS evaluator.

Three concrete geometries are covered exactly: projective space with a
blown-up coordinate point or subvariety cut out by homogeneous forms, a
product of two elliptic curves via denominator gcds, and the mixed case of an
elliptic curve against the multiplicative group.  The right-hand sides all
share one shape,

    eps * (ample height)  +  (counting term) / (r - 1 + delta*eps)  +  C,

evaluated by ``vojta_rhs`` with every constant explicit: no asymptotic O(1)
is ever hidden (they are all fixed to 0 unless the caller passes C).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, isnan, log

from .arith import EPS_SLACK, LogReal, PrimeSet, prime_to_S_part

__all__ = [
    "PnPoint",
    "HomPoly",
    "PolySystem",
    "VojtaParams",
    "BoundRecord",
    "parse_poly",
    "normalize_pn",
    "hgcd_pn_coordpoint",
    "hgcd_pn_subvariety",
    "counting_function_pn",
    "vojta_rhs",
    "check_pn",
    "check_e2",
    "check_mixed",
]


# ----------------------------------------------------------------------------
# projective points
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PnPoint:
    """Primitive integer coordinates: gcd 1, first nonzero coordinate positive."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coords or not any(self.coords):
            raise ValueError("zero vector")
        g = 0
        for c in self.coords:
            g = gcd(g, c)
        if g != 1:
            raise ValueError("coordinates not primitive")
        for c in self.coords:
            if c:
                if c < 0:
                    raise ValueError("sign not normalized")
                break


def normalize_pn(raw: list[int] | tuple[int, ...]) -> PnPoint:
    """Divide out the gcd and fix the sign of the first nonzero coordinate."""
    if not any(raw):
        raise ValueError("zero vector")
    g = 0
    for c in raw:
        g = gcd(g, c)
    scaled = [c // g for c in raw]
    for c in scaled:
        if c:
            if c < 0:
                scaled = [-v for v in scaled]
            break
    return PnPoint(tuple(scaled))


# ----------------------------------------------------------------------------
# homogeneous forms
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class HomPoly:
    """Integer polynomial as ((coeff, ((var, exp), ...)), ...), like terms merged."""

    terms: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("degree of zero polynomial")
        return sum(e for _, e in self.terms[0][1])

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


@dataclass(frozen=True)
class PolySystem:
    """Homogeneous forms f_1..f_t plus the caller-asserted codimension of V."""

    polys: tuple[HomPoly, ...]
    codim_r: int = 2

    def __post_init__(self) -> None:
        if not self.polys:
            raise ValueError("system needs at least one polynomial")
        for f in self.polys:
            if f.is_zero:
                raise ValueError("zero polynomial in system")
            if not f.is_homogeneous():
                raise ValueError(f"not homogeneous: {f}")
        if self.codim_r < 2:
            raise ValueError("codimension must be >= 2")

    @classmethod
    def of(cls, *texts: str, codim_r: int = 2) -> "PolySystem":
        return cls(polys=tuple(parse_poly(t) for t in texts), codim_r=codim_r)


# ----------------------------------------------------------------------------
# blowup gcd heights on P^n
# ----------------------------------------------------------------------------

def hgcd_pn_coordpoint(x: PnPoint) -> LogReal:
    """gcd height against the blown-up coordinate point [1:0:...:0].

    Equals ln gcd(|x_1|, ..., |x_n|) exactly; the blown-up point itself is
    the one place the height degenerates.
    """
    tail = x.coords[1:]
    g = 0
    for c in tail:
        g = gcd(g, c)
    if g == 0:
        raise ValueError("point on blown-up locus")
    return LogReal.of_integer(g)


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

@dataclass(frozen=True)
class VojtaParams:
    epsilon: float
    delta: float = 1.0
    C: float = 0.0
    r: int = 2

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if isnan(self.C):
            raise ValueError("C must not be NaN")
        if self.r < 2:
            raise ValueError("r must be an integer >= 2")
        if not self.epsilon < self.r - 1:
            raise ValueError("epsilon must be < r - 1")


@dataclass
class BoundRecord:
    """One evaluated inequality instance with its exact ingredients."""

    lhs: float
    rhs: float
    holds: bool
    components: dict[str, float]
    descriptor: dict


def _record(lhs: float, components: dict[str, float], descriptor: dict) -> BoundRecord:
    rhs = sum(components.values())
    return BoundRecord(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + EPS_SLACK,
        components=components,
        descriptor=descriptor,
    )


def vojta_rhs(hA: float, hCount: float, p: VojtaParams) -> float:
    """eps*hA + hCount/(r - 1 + delta*eps) + C."""
    return p.epsilon * hA + hCount / (p.r - 1 + p.delta * p.epsilon) + p.C


def check_pn(x: PnPoint, sys: PolySystem, S: PrimeSet, p: VojtaParams) -> BoundRecord:
    """Blowup gcd height of x against V versus the conjectural bound.

    lhs is the exact subvariety gcd height; the ample height is
    ln max|x_i| and the counting term is the prime-to-S coordinate product.
    Smoothness and the stated codimension of V are assumptions recorded in
    the descriptor, never verified here.
    """
    lhs = hgcd_pn_subvariety(x, sys)
    hA = log(max(abs(c) for c in x.coords))
    hcount = counting_function_pn(x, S)
    comps = {
        "height_term": p.epsilon * hA,
        "counting_term": hcount.value / (p.r - 1 + p.delta * p.epsilon),
        "constant": p.C,
    }
    desc = {
        "point": list(x.coords),
        "system": [str(f) for f in sys.polys],
        "hA": hA,
        "hcount": hcount.value,
        "hcount_witness": hcount.exact_arg,
        "gcd_witness": lhs.exact_arg,
        "assumed_smooth": True,
        "asserted_codim_r": sys.codim_r,
        "params": {"epsilon": p.epsilon, "delta": p.delta, "C": p.C, "r": p.r},
    }
    return _record(lhs.value, comps, desc)


def check_e2(
    d_p: int, h_p: float, d_q: int, h_q: float, eps: float, C: float = 0.0
) -> BoundRecord:
    """ln gcd(D_P, D_Q) versus eps*(naive(P) + naive(Q)) + C.

    Takes the denominators D and the naive heights (``elliptic.naive_height``
    values) of the two points, so a sweep computes them once per point.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    g = gcd(d_p, d_q)
    comps = {
        "height_term": eps * (h_p + h_q),
        "counting_term": 0.0,
        "constant": C,
    }
    desc = {
        "d_p": d_p,
        "d_q": d_q,
        "gcd_witness": g,
        "hA": h_p + h_q,
        "hcount": 0.0,
        "params": {"epsilon": eps, "C": C},
    }
    return _record(log(g), comps, desc)


def check_mixed(
    d_q: int, b: int, S: PrimeSet, eps: float, C: float = 1.0
) -> BoundRecord:
    """ln gcd(D_Q, |b - 1|) versus ln C + eps*ln max(D_Q, |b|), given D_Q.

    Here C sits on the multiplicative side of the inequality
    gcd <= C * max^eps, so it enters the log-space rhs as ln C (unlike
    check_e2, whose C is already additive in logs).  b must be an S-unit
    with |b| >= 2; otherwise the counting term would not vanish.
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
    hA = log(max(d_q, abs(b)))
    comps = {
        "height_term": eps * hA,
        "counting_term": 0.0,
        "constant": log(C),
    }
    desc = {
        "d_q": d_q,
        "b": b,
        "gcd_witness": g,
        "hA": hA,
        "hcount": 0.0,
        "params": {"epsilon": eps, "C": C},
    }
    return _record(log(g), comps, desc)
