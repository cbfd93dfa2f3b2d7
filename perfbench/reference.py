"""Regenerate reference_heights.json: canonical heights of the benchmark's points.

Run from the root of the repository:

    python3 perfbench/reference.py

This route shares no code with the library.  It doubles the x-coordinate
x = A/Z as a pair of coprime integers with

    x(2P) = (x^4 - b4 x^2 - 2 b6 x - b8) / (4 x^3 + b2 x^2 + 2 b4 x + b6)

and never takes a gcd of two big numbers: for coprime (A, Z) the common factor
of the new pair divides the resultant R of the two forms, so
gcd(A', Z') = gcd(gcd(A', R), Z') costs one big-by-small remainder.  The
estimate after k doublings is ln max(|A_k|, Z_k) / (2 * 4^k), in the same
normalization as the library.  Its error is at most B / 4^k for the uniform
bound B on |naive/2 - limit| (Silverman, Math. Comp. 55 (1990), in the form
used by the library); the stored ``err`` is that bound at the stored depth.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import gcd, log
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

OUT = Path(__file__).resolve().parent / "reference_heights.json"
EXTRA_DOUBLINGS = 2  # beyond the depth that certifies tol = 1e-4


def b_invariants(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def discriminant(b2, b4, b6, b8):
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def uniform_bound(coeffs) -> float:
    b2, b4, b6, b8 = b_invariants(*coeffs)
    disc = discriminant(b2, b4, b6, b8)
    j = Fraction((b2 * b2 - 24 * b4) ** 3, disc)
    hj = log(max(abs(j.numerator), j.denominator))
    hd = log(abs(disc))
    return max(hj / 8 + hd / 12 + 0.973, hj / 12 + hd / 12 + 1.07)


def resultant(f: list[int], g: list[int]) -> int:
    """Sylvester resultant of two integer polynomials (highest degree first)."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(f):
            rows[i][i + j] = Fraction(c)
    for i in range(m):
        for j, c in enumerate(g):
            rows[n + i][i + j] = Fraction(c)
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            fct = rows[r][col] / rows[col][col]
            if fct:
                rows[r] = [a - fct * b for a, b in zip(rows[r], rows[col])]
    return int(det)


def height(coeffs, point, depth: int) -> float:
    b2, b4, b6, b8 = b_invariants(*coeffs)
    res = abs(resultant([1, 0, -b4, -2 * b6, -b8], [4, b2, 2 * b4, b6]))
    x = Fraction(point[0])
    a, z = x.numerator, x.denominator
    for _ in range(depth):
        a2, z2 = a * a, z * z
        na = a2 * a2 - b4 * a2 * z2 - 2 * b6 * a * z2 * z - b8 * z2 * z2
        nz = z * (4 * a2 * a + b2 * a2 * z + 2 * b4 * a * z2 + b6 * z2 * z)
        g = gcd(gcd(na, res), nz)
        a, z = na // g, nz // g
        if z < 0:
            a, z = -a, -z
    return log(max(abs(a), z)) / (2.0 * 4.0**depth)


def main() -> int:
    refs = {}
    for name, (coeffs, pts) in workloads.CURVES.items():
        bound = uniform_bound(coeffs)
        depth = 1
        while bound / 4.0**depth > 1e-4:
            depth += 1
        depth += EXTRA_DOUBLINGS
        for pt in pts:
            key = f"{name}:{pt[0]},{pt[1]}"
            refs[key] = {"value": height(coeffs, pt, depth), "depth": depth,
                         "err": bound / 4.0**depth}
            print(key, refs[key], flush=True)
    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
