"""Write src/fpcavity/_bessel_coef.py, the coefficient tables of
fpcavity.specfun's Bessel source, from 50-digit mpmath.

    python tools/bessel_coefficients.py > src/fpcavity/_bessel_coef.py

The output depends on nothing but the constants below and mpmath, and
tests/test_specfun.py re-runs this script and compares its output with the
committed module byte for byte.

Two tables, for J0(x) and g(x) = J1(x)/x at x >= 0:

NEAR (x <= FAR_X0 = NEAR_CELLS - 1/2): cell c covers |x - c| <= 1/2 and
    holds, in powers of t = x - c, the polynomials of degree TERMS - 1 that
    interpolate J0 and g at TERMS Chebyshev points of the cell (at c = 0,
    in powers of t^2 at (TERMS + 1)/2 points of t^2 <= 1/4).  Every
    derivative of J0 and of J1 is bounded by 1, so the interpolation error
    is below 2 (1/4)^TERMS / TERMS! = 5e-18.  The node t = 0 is one of
    them at c >= 1, so the polynomials are exact at the integers; at c = 0
    they are 1 and 1/2 to within 2e-20, which round to exactly that.
    The values come from each cell's Taylor series to TAYLOR_TERMS terms:
    at c = 0 the ascending series; at c >= 1 from J0(c) and J1(c) by the
    recurrence of Bessel's equation x y'' + y' + x y = 0,
        c (k+1)(k+2) a[k+2] = -((k+1)^2 a[k+1] + c a[k] + a[k-1]),
    with J1 = -J0' and g = J1/x from (c + t) g(c + t) = J1(c + t).
    The cells end at 158.5, past 50 pi = 157.08: a plain quadrature pass
    spans at most 50 half-periods pi/v of its factor J(x v), and the first
    call of a tail-mode pass 20 (x v < 20 pi), so all their nodes take the
    cells, and only later tail batches and x > 158.5 the far form.
    NEAR_CELLS is odd, so FAR_X0 rounds (ties to even) to the last cell.
FAR (x > FAR_X0): with w = FAR_X0/x, the polynomials of degree
    FAR_TERMS - 1 in w that interpolate, at Chebyshev points of [0, 1],
        A0 = P0 + Q0,  B0 = P0 - Q0,  A1 = (Q1 - P1)/x,  B1 = (P1 + Q1)/x,
    (A1 and B1 as w/FAR_X0 times interpolants of degree FAR_TERMS - 2),
    where P_n, Q_n are Hankel's modulus-phase functions (DLMF 10.17.3),
    computed from J_n and Y_n.  Then, with r = 1/sqrt(pi x),
        J0 = r (A0 cos x + B0 sin x),   J1/x = r (A1 cos x + B1 sin x),
    the phase coming from cos x and sin x themselves and never from the
    rounded x - pi/4 or x - 3 pi/4.

NEAR is written as one base64 string of the little-endian doubles nearest
to its coefficients, in the order of an array of shape (TERMS, NEAR_CELLS,
2): by degree, then cell, then J0 and g, the layout the Horner loop of
specfun reads.  As float literals the 159 cells took about 30 ms to
compile and execute (median of 21, 2-core x86 box), the string 0.4 ms.
FAR, 36 coefficients, stays literal.
"""

from __future__ import annotations

import binascii
import struct

import mpmath as mp

NEAR_CELLS = 159
TERMS = 13
# Taylor terms behind each cell's interpolant: the first omitted one is
# below 0.5^40 / 40! = 1e-60
TAYLOR_TERMS = 40
FAR_TERMS = 9
DIGITS = 50


def _taylor(c: int, terms: int) -> tuple[list, list]:
    """Taylor coefficients of J0 and of J1(x)/x at x = c, in powers of
    x - c."""
    if c == 0:
        a = [mp.mpf(0)] * terms
        d = [mp.mpf(0)] * terms
        for j in range((terms + 1) // 2):
            q = mp.mpf(-4) ** -j / mp.factorial(j)
            a[2 * j] = q / mp.factorial(j)
            d[2 * j] = q / (2 * mp.factorial(j + 1))
        return a, d
    c = mp.mpf(c)
    a = [mp.besselj(0, c), -mp.besselj(1, c)]
    for k in range(terms - 1):
        prev = a[k - 1] if k else 0
        a.append(-((k + 1) ** 2 * a[k + 1] + c * a[k] + prev)
                 / (c * (k + 1) * (k + 2)))
    d = []
    for k in range(terms):
        b = -(k + 1) * a[k + 1]
        d.append((b - (d[k - 1] if k else 0)) / c)
    return a[:terms], d


def _interpolant(f, terms: int, lo, hi) -> list:
    """Monomial coefficients of the polynomial of degree terms - 1 that
    interpolates f at terms Chebyshev points of [lo, hi]."""
    nodes = [(lo + hi) / 2 + (hi - lo) / 2
             * mp.cos(mp.pi * (j + mp.mpf(1) / 2) / terms)
             for j in range(terms)]
    vandermonde = mp.matrix([[w ** k for k in range(terms)] for w in nodes])
    coef = mp.lu_solve(vandermonde, mp.matrix([f(w) for w in nodes]))
    return [coef[k] for k in range(terms)]


def near_cell(c: int) -> tuple[list, list]:
    """Coefficients in powers of t = x - c of the polynomials of degree
    TERMS - 1 that interpolate J0 and J1(x)/x at Chebyshev points of
    |t| <= 1/2."""
    half = mp.mpf(1) / 2
    out = []
    for series in _taylor(c, TAYLOR_TERMS):
        def f(t, series=series):
            return mp.fsum(a * t ** k for k, a in enumerate(series))
        if c:
            out.append(_interpolant(f, TERMS, -half, half))
        else:
            # both functions are even: interpolate in s = t^2, so that the
            # odd coefficients are exactly 0
            even = _interpolant(lambda s: f(mp.sqrt(s)), (TERMS + 1) // 2, 0,
                                half * half)
            out.append([even[k // 2] if k % 2 == 0 else mp.mpf(0)
                        for k in range(TERMS)])
    return out[0], out[1]


def _modulus_phase(n: int, x):
    """Hankel's P_n(x) and Q_n(x): J_n = sqrt(2/(pi x)) (P cos chi -
    Q sin chi) and Y_n = sqrt(2/(pi x)) (P sin chi + Q cos chi), with
    chi = x - (2n + 1) pi/4."""
    chi = x - (2 * n + 1) * mp.pi / 4
    j, y = mp.besselj(n, x), mp.bessely(n, x)
    scale = mp.sqrt(mp.pi * x / 2)
    return (scale * (j * mp.cos(chi) + y * mp.sin(chi)),
            scale * (y * mp.cos(chi) - j * mp.sin(chi)))


def far_rows(x0) -> list[list]:
    """Monomial coefficients in w = x0/x of A0, B0, A1 and B1.  A1 and B1
    are w/x0 times a polynomial of degree FAR_TERMS - 2, so their constant
    terms are exactly 0."""
    def parts(w):
        x = x0 / w
        p0, q0 = _modulus_phase(0, x)
        p1, q1 = _modulus_phase(1, x)
        return p0 + q0, p0 - q0, (q1 - p1) / x0, (p1 + q1) / x0

    rows = [_interpolant(lambda w: parts(w)[i], FAR_TERMS, 0, 1)
            for i in (0, 1)]
    rows += [[mp.mpf(0)] + _interpolant(lambda w: parts(w)[i], FAR_TERMS - 1,
                                         0, 1)
             for i in (2, 3)]
    return rows


def _row(values, indent: str) -> list[str]:
    """A tuple literal of the doubles nearest to values, three a line."""
    items = [repr(float(v)) + "," for v in values]
    lines = [indent + " ".join(items[i:i + 3])
             for i in range(0, len(items), 3)]
    return [indent[:-1] + "("] + lines + [indent[:-1] + "),"]


def _base64(values, indent: str) -> list[str]:
    """The little-endian doubles nearest to values in base64, as adjacent
    string literals of 76 characters."""
    data = struct.pack(f"<{len(values)}d", *map(float, values))
    text = binascii.b2a_base64(data, newline=False).decode("ascii")
    return [f'{indent}"{text[i:i + 76]}"' for i in range(0, len(text), 76)]


def render() -> str:
    """The text of src/fpcavity/_bessel_coef.py."""
    x0 = mp.mpf(NEAR_CELLS) - mp.mpf(1) / 2
    cells = [near_cell(c) for c in range(NEAR_CELLS)]
    lines = [
        '"""Coefficient tables of fpcavity.specfun\'s Bessel source.',
        "",
        "Written by tools/bessel_coefficients.py from "
        f"{DIGITS}-digit mpmath; do not edit.",
        "NEAR: the coefficients in powers of x - c of J0 and J1(x)/x on the",
        "cells |x - c| <= 1/2, c = 0 .. NEAR_CELLS - 1, as base64 of",
        "little-endian doubles in the order of an array of shape",
        "(TERMS, NEAR_CELLS, 2): by degree, then cell, then J0 and J1(x)/x.",
        "FAR: the coefficients in w = FAR_X0 / x of A0, B0, A1 and B1; see",
        "the script.",
        '"""',
        "",
        f"NEAR_CELLS = {NEAR_CELLS}",
        f"TERMS = {TERMS}",
        f"FAR_X0 = {float(x0)!r}",
        "",
        "NEAR = (",
    ]
    lines += _base64([cells[c][i][k] for k in range(TERMS)
                      for c in range(NEAR_CELLS) for i in (0, 1)], " " * 4)
    lines += [")", "", "# A0, B0, A1, B1", "FAR = ("]
    for row in far_rows(x0):
        lines += _row(row, " " * 5)
    lines += [")", ""]
    return "\n".join(lines)


if __name__ == "__main__":
    with mp.workdps(DIGITS):
        print(render(), end="")
