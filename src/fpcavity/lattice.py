"""The image lattice: the lattice route of EQ21.

The moments S3 = sum rho^-3, v^2 S5 = sum v^2 rho^-5 and
v T5 = sum v a rho^-5 over the image lattice a = 2n + u, rho^2 = a^2 + v^2,
summed term by term over |n| <= 64 and by Euler-Maclaurin beyond; the
inverse-cube lattice sum xi(u, v) = S3; and zeta(3).  The Coulomb kernels
(coulomb) are built on these, and the verification suite checks them
against the quadratures of Bessel integrands (specfun, radiation), so
nothing here or in coulomb imports specfun or radiation, and neither of
those imports this module or coulomb: tests/test_imports.py reads the
import graph.

Nothing here imports scipy.

All functions are pure; units are dimensionless throughout.
"""

from __future__ import annotations

import math

import numpy as np

from ._memo import recall
from .errors import DomainError, as_float
from .geometry import _check_image_distance

__all__ = ["xi", "apery_zeta3"]


# ---------------------------------------------------------------------------
# Image-lattice moments and the inverse-cube lattice sum xi(u, v)
# ---------------------------------------------------------------------------

# |n| <= _LATTICE_N is summed term by term and the rest of each side by
# Euler-Maclaurin through the third-derivative correction.  The remainder is
# below 1e-15 relative for v <= 4 and peaks near 5e-14 relative at v ~ 40,
# where the summand varies on the scale of the first omitted term.
_LATTICE_N = 64
_LATTICE_2N = 2.0 * np.arange(-_LATTICE_N, _LATTICE_N + 1)

def _lattice_moments(u: float, v: float) -> tuple[float, float, float]:
    """S3 = sum rho^-3 and the scaled moments v^2 S5 = sum v^2 rho^-5 and
    v T5 = sum v a rho^-5 over the image lattice a = 2n + u,
    rho^2 = a^2 + v^2, n in Z.

    The one place the rho^-3/rho^-5 lattice is summed: xi = S3, the Coulomb
    kernel E+ and the exact derivatives v d/dv xi = -3 v^2 S5,
    v d/du xi = -3 v T5 all come from these three numbers.  Each scaled
    term is formed as rho^-3 times v^2/rho^2 or v a/rho^2, both at most 1
    in magnitude, so nothing underflows or overflows before S3 itself does
    (S3 ~ 1/v^2 at large v, while S5 alone underflows from v ~ 1e77), and
    every value is finite at every finite v.  Accurate to about 1e-13
    relative (v T5 relative to sum v |a| rho^-5: T5 itself cancels to
    exponentially small values at large v).  DomainError when the nearest
    image is nearer than _MIN_IMAGE_DISTANCE (_check_image_distance).
    """
    u, v = as_float(u), as_float(v)
    if not (math.isfinite(u) and math.isfinite(v)):
        raise DomainError("u and v must be finite")
    if v < 0:
        raise DomainError("v must be non-negative")
    u %= 2.0
    _check_image_distance(u, v)
    a = _LATTICE_2N + u
    rho2 = a * a + v * v
    inv3 = rho2 ** -1.5
    # v / rho^2 <= 1/v, and 0 once v * v overflows
    z = v / rho2
    s3, s5, t5 = (float(np.sum(inv3)), float(np.sum(inv3 * (z * v))),
                  float((a * z) @ inv3))
    # Each side's tail from its first omitted |a| = A, with step 2 in a:
    # sum f = (1/2) int_A^inf f + f(A)/2 - f'(A)/6 + f'''(A)/90.  The n < 0
    # side is the mirror image and enters T5 (odd in a) with a minus sign.
    # The scaled moments take the rho^-5 bracket times v^2 and v as the
    # bracket with every power r^-k lowered to r^-(k-2), times
    # w = v^2/r^2 and z = v/r^2.
    for big_a, sign in ((2 * _LATTICE_N + 2 + u, 1.0),
                        (2 * _LATTICE_N + 2 - u, -1.0)):
        a2 = big_a * big_a
        r2 = a2 + v * v
        r = math.sqrt(r2)
        z = v / r2
        w = z * v
        p1 = 1.0 / r
        p3 = 1.0 / (r2 * r)
        p5 = p3 / r2
        p7 = p5 / r2
        p9 = p7 / r2
        p11 = p9 / r2
        # int_A^inf rho^-3 = 1/(r(r+A)), rho^-5 -> (2r+A)/(3r^3(r+A)^2),
        # a rho^-5 -> 1/(3r^3), all free of cancellation at any v
        s3 += (0.5 / (r * (r + big_a)) + 0.5 * p3 + 0.5 * big_a * p5
               + big_a * (0.5 * p7 - 7.0 / 6.0 * a2 * p9))
        # (2r + A)/(r + A) as (2 + t)/(1 + t), t = A/r: 2, not inf/inf, once
        # v * v overflows
        t = big_a / r
        s5 += w * (p1 * (2.0 + t) / (6.0 * (1.0 + t) * (r + big_a))
                   + 0.5 * p3 + 5.0 / 6.0 * big_a * p5
                   + big_a * (7.0 / 6.0 * p7 - 3.5 * a2 * p9))
        t5 += sign * z * (p1 / 6.0 + 0.5 * big_a * p3
                          - (p3 - 5.0 * a2 * p5) / 6.0
                          - p5 / 6.0 + a2 * (7.0 / 3.0 * p7 - 3.5 * a2 * p9))
    return s3, s5, t5


def xi(u: float, v: float, tol=None) -> float:
    """Two-sided lattice sum sum_{n in Z} ((2n + u)^2 + v^2)^(-3/2).

    Periodic in u with period 2 and symmetric under u -> 2 - u.  Finite for
    v > 0, and for v = 0 whenever u is not an even integer (there the n
    hitting 2n + u = 0 contributes a non-summable term).  Non-finite u or v
    is a domain error, and so is a nearest image (u reduced mod 2, at
    distance hypot(min(u, 2 - u), v)) nearer than 1e-100.

    The moment S3 of _lattice_moments, accurate to about 1e-13 relative
    whatever tol is given, through the memo: check_bessel_hyperbolic reads
    the other two moments at the same (u, v) right after.  tol is ignored:
    it is kept only for the one caller that still passes it, the shifted
    xi of perfbench/test_checks_bite.py, and goes with that call.
    """
    return recall(_lattice_moments, u, v)[0]


_ZETA3 = 1.2020569031595942854


def apery_zeta3() -> float:
    """zeta(3) = sum 1/n^3 to full double precision."""
    return _ZETA3
