"""Special functions and quadrature primitives.

Everything downstream (Coulomb kernels, displacement-field kernels, the
identity suite) is built on four ingredients defined here: the cylindrical
Bessel functions J0, J1, J2 (thin wrappers of scipy.special.jv), the
image-lattice moments behind the inverse-cube lattice sum xi(u, v), an
adaptive Gauss-Kronrod integrator for exponentially decaying integrands on
(0, inf), scalar or vector valued, and the two-sided mode sum
sum_n e^{i alpha n} n^m / (n^2 + beta^2) by two independent routes: its
hyperbolic closed form, and its symmetric truncation summed term by term
in blocks of consecutive n (angle addition from one block's cos/sin table,
constant memory in the truncation, within 2e-15 of the sum of the moduli
of the terms).

All functions are pure; units are dimensionless throughout.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import ConvergenceError, DomainError

__all__ = [
    "Tolerance",
    "ModeSumArgs",
    "DEFAULT_TOL",
    "bessel_j",
    "xi",
    "apery_zeta3",
    "integrate_semi_infinite",
    "hyperbolic_mode_sum",
    "direct_mode_sum",
]


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request for series and quadratures.

    abs_tol and rel_tol must be positive and finite; a computation is
    accepted when its error estimate drops below
    max(abs_tol, rel_tol * |result|).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class ModeSumArgs:
    """Arguments of the mode sum sum_n e^{i alpha n} n^m / (n^2 + beta^2).

    alpha and beta must be finite, beta positive, and m is restricted to
    {0, 1}: the sum diverges for m >= 2.
    """

    alpha: float
    beta: float
    m: int

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("alpha and beta must be finite")
        if not self.beta > 0:
            raise DomainError("beta must be positive")
        if self.m not in (0, 1):
            raise DomainError("m must be 0 or 1 (the sum diverges for m >= 2)")


# ---------------------------------------------------------------------------
# Bessel functions J0, J1, J2
#
# scipy.special.jv for every order.  Against mpmath on [0, 1e4] it is within
# 4e-16 absolute, and 1e-14 relative wherever |J| > 0.05.  The Cephes j0/j1
# routines are faster but reach 6e-12 relative at some points with
# |J| > 1e-4, past the 1e-12 the Bessel tests pin.
# ---------------------------------------------------------------------------

def _jv(order: int, x: np.ndarray) -> np.ndarray:
    """Vectorized J_order for order in {0, 1, 2}, x >= 0."""
    return special.jv(order, np.asarray(x, dtype=float))


def bessel_j(order: int, x: float) -> float:
    """Cylindrical Bessel function J_order(x) for order in {0, 1, 2}, x >= 0."""
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1 or 2, got {order}")
    if x < 0:
        raise DomainError("x must be non-negative")
    return float(_jv(order, np.asarray([x]))[0])


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
    """S3 = sum rho^-3, S5 = sum rho^-5 and T5 = sum a rho^-5 over the image
    lattice a = 2n + u, rho^2 = a^2 + v^2, n in Z.

    The one place the rho^-3/rho^-5 lattice is summed: xi = S3, the Coulomb
    kernel E+ and the exact derivatives d/dv xi = -3 v S5, d/du xi = -3 T5
    all come from these three numbers.  Accurate to about 1e-13 relative
    (T5 relative to sum |a| rho^-5: T5 itself cancels to exponentially small
    values at large v).
    """
    if not (math.isfinite(u) and math.isfinite(v)):
        raise DomainError("u and v must be finite")
    if v < 0:
        raise DomainError("v must be non-negative")
    u = u % 2.0
    if v == 0.0 and u == 0.0:
        raise DomainError("the lattice sum diverges at v = 0 with u an even "
                          "integer")
    a = _LATTICE_2N + u
    rho2 = a * a + v * v
    inv3 = rho2 ** -1.5
    inv5 = inv3 / rho2
    s3, s5, t5 = float(np.sum(inv3)), float(np.sum(inv5)), float(a @ inv5)
    # Each side's tail from its first omitted |a| = A, with step 2 in a:
    # sum f = (1/2) int_A^inf f + f(A)/2 - f'(A)/6 + f'''(A)/90.  The n < 0
    # side is the mirror image and enters T5 (odd in a) with a minus sign.
    for big_a, sign in ((2 * _LATTICE_N + 2 + u, 1.0),
                        (2 * _LATTICE_N + 2 - u, -1.0)):
        a2 = big_a * big_a
        r2 = a2 + v * v
        r = math.sqrt(r2)
        p3 = 1.0 / (r2 * r)
        p5 = p3 / r2
        p7 = p5 / r2
        p9 = p7 / r2
        p11 = p9 / r2
        # int_A^inf rho^-3 = 1/(r(r+A)), rho^-5 -> (2r+A)/(3r^3(r+A)^2),
        # a rho^-5 -> 1/(3r^3), all free of cancellation at any v
        s3 += (0.5 / (r * (r + big_a)) + 0.5 * p3 + 0.5 * big_a * p5
               + big_a * (0.5 * p7 - 7.0 / 6.0 * a2 * p9))
        s5 += ((2.0 * r + big_a) / (6.0 * r2 * r * (r + big_a) ** 2)
               + 0.5 * p5 + 5.0 / 6.0 * big_a * p7
               + big_a * (7.0 / 6.0 * p9 - 3.5 * a2 * p11))
        t5 += sign * (p3 / 6.0 + 0.5 * big_a * p5
                      - (p5 - 5.0 * a2 * p7) / 6.0
                      - p7 / 6.0 + a2 * (7.0 / 3.0 * p9 - 3.5 * a2 * p11))
    return s3, s5, t5


def xi(u: float, v: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Two-sided lattice sum sum_{n in Z} ((2n + u)^2 + v^2)^(-3/2).

    Periodic in u with period 2 and symmetric under u -> 2 - u.  Finite for
    v > 0, and for v = 0 whenever u is not an even integer (there the n
    hitting 2n + u = 0 contributes a non-summable term).  Non-finite u or v
    is a domain error.

    The moment S3 of _lattice_moments, accurate to about 1e-13 relative
    whatever tol is given; tol is kept for the (u, v, tol) contract shared
    with the quadrature routes.
    """
    return _lattice_moments(u, v)[0]


_ZETA3 = 1.2020569031595942854


def apery_zeta3() -> float:
    """zeta(3) = sum 1/n^3 to full double precision."""
    return _ZETA3


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod nodes on [-1, 1] and weights, with the embedded 7-point
# Gauss rule (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_K15_NODES = np.concatenate([-_XGK[:-1], _XGK[-1:], _XGK[-2::-1]])
_K15_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[-1:], _WGK[-2::-1]])
# positions of the Gauss points inside the 15-node array: odd indices
_G7_IDX = np.arange(1, 15, 2)
_G7_WEIGHTS = np.concatenate([_WG[:-1], _WG[-1:], _WG[-2::-1]])


def _gauss_kronrod(f: Callable, a: float, b: float):
    """K15 estimate of int_a^b f and the |K15 - G7| error estimate.

    f returns one value per node, or a (k, n) array with one row per
    component; the estimate and the error are then length-k arrays.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _K15_NODES
    y = np.asarray(f(x), dtype=float)
    k15 = half * (y @ _K15_WEIGHTS)
    g7 = half * (y[..., _G7_IDX] @ _G7_WEIGHTS)
    if y.ndim == 1:
        k15, g7 = float(k15), float(g7)
    return k15, abs(k15 - g7)


def _peak(e) -> float:
    # a panel's largest error over its components; plain floats stay on
    # the fast scalar path
    return e if isinstance(e, float) else float(e.max())


def _unconverged(err, total, tol: Tolerance) -> bool:
    # each component against its own max(abs_tol, rel_tol * |total_i|)
    if isinstance(err, float):
        return err > max(tol.abs_tol, tol.rel_tol * abs(total))
    return bool(np.any(err > np.maximum(tol.abs_tol,
                                        tol.rel_tol * np.abs(total))))


def _adaptive(f: Callable, edges: list[float], tol: Tolerance):
    """Adaptive panel subdivision over the panels defined by edges.

    A float for an integrand with one value per node; for one returning k
    rows, a length-k array.  The pass ends when every component's summed
    error is within its own max(abs_tol, rel_tol * |total_i|), and each
    step splits the panel with the largest error in any component.
    """
    heap: list[tuple] = []
    # the counter breaks ties between zero-width panels before the values
    # would be compared (arrays have no order)
    order = itertools.count()
    total = 0.0
    err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, e = _gauss_kronrod(f, a, b)
        total += val
        err += e
        heapq.heappush(heap, (-_peak(e), a, b, next(order), val, e))
    splits = 0
    while _unconverged(err, total, tol):
        if splits >= tol.max_subdivisions:
            raise ConvergenceError(
                f"quadrature error {_peak(err):.3e} above tolerance after "
                f"{splits} subdivisions",
                best_estimate=total,
                achieved_error=err,
            )
        _, a, b, _, val, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _gauss_kronrod(f, a, mid)
        v2, e2 = _gauss_kronrod(f, mid, b)
        total += v1 + v2 - val
        err += e1 + e2 - e
        heapq.heappush(heap, (-_peak(e1), a, mid, next(order), v1, e1))
        heapq.heappush(heap, (-_peak(e2), mid, b, next(order), v2, e2))
        splits += 1
    return total


def _quad_finite(f: Callable, a: float, b: float,
                 tol: Tolerance = DEFAULT_TOL) -> float:
    """Adaptive quadrature of a vectorized integrand on a finite interval."""
    if not b > a:
        raise DomainError("need b > a")
    n_seed = 8
    edges = list(np.linspace(a, b, n_seed + 1))
    return _adaptive(f, edges, tol)


def _seed_edges(x_max: float) -> list[float]:
    # geometric seed panels: dense near 0 where integrands have their
    # structure, coarse towards the truncation point
    edges = [0.0]
    step = min(1.0, x_max / 8.0)
    x = step
    while x < x_max:
        edges.append(x)
        x *= 2.0
    edges.append(x_max)
    return edges


def integrate_semi_infinite(integrand: Callable, decay_rate_hint: float,
                            tol: Tolerance = DEFAULT_TOL):
    """Integrate a vectorized real integrand over (0, inf).

    The integrand maps an array of n nodes to n values, and the result is a
    float; or to a (k, n) array, one row per component, and the result is a
    length-k array from one adaptive pass in which every component meets
    the tolerance on its own.

    The integrand must decay at least like exp(-decay_rate_hint * x) for
    large x; behaviour at 0 may be integrably singular (panels never touch
    the endpoints).  The interval is truncated where the tail bound falls
    below abs_tol/2, assuming an at-worst-quadratic prefactor of the
    exponential decay, and the remainder is integrated adaptively with
    per-panel Gauss-Kronrod error estimates.

    Raises ConvergenceError (carrying the best estimate and the achieved
    error, per component for a vector integrand) when the tolerance cannot
    be met within max_subdivisions panel splits.
    """
    if not decay_rate_hint > 0:
        raise DomainError("decay_rate_hint must be positive")
    rate = decay_rate_hint
    # an abs_tol above 1 truncates no earlier than abs_tol = 1 would, which
    # keeps x_max positive
    log_inv_tol = max(math.log(1.0 / tol.abs_tol), 0.0)
    x_max = log_inv_tol / rate + 10.0
    # absorb polynomial prefactors x^2 into the truncation point
    for _ in range(3):
        x_max = (log_inv_tol + 2.0 * math.log1p(x_max)) / rate + 10.0
    return _adaptive(integrand, _seed_edges(x_max), tol)


# ---------------------------------------------------------------------------
# Mode sums
# ---------------------------------------------------------------------------

def hyperbolic_mode_sum(args: ModeSumArgs) -> complex:
    """Closed form of sum_{n in Z} e^{i alpha n} n^m / (n^2 + beta^2).

    Valid for m in {0, 1}; alpha is reduced into [0, 2pi) first (the sum is
    2pi-periodic).  At alpha = 0 the m = 1 sum vanishes identically by
    antisymmetry and is returned as exact zero; for alpha > 0,

        pi i^m beta^(m-1) / sinh(pi beta) * cosh(beta (pi - alpha))   (m even)
                                            sinh(beta (pi - alpha))   (m odd)
    """
    alpha = args.alpha % (2.0 * math.pi)
    beta = args.beta
    if args.m == 1 and alpha == 0.0:
        return 0j
    # {cosh,sinh}(beta(pi - alpha))/sinh(pi beta) through non-positive
    # exponents only: |pi - alpha| <= pi keeps this overflow-free at any beta
    arg = beta * (math.pi - alpha)
    top = math.exp(arg - math.pi * beta)
    bot = math.exp(-arg - math.pi * beta)
    ratio_den = -math.expm1(-2.0 * math.pi * beta)
    pref = math.pi * beta ** (args.m - 1)
    if args.m == 0:
        return complex(pref * (top + bot) / ratio_den)
    return 1j * pref * (top - bot) / ratio_den


# The direct sum runs over n = n0 + k, k in [0, _BLOCK), in chunks of
# _CHUNK blocks: n and the weights take 0.5 MB per chunk whatever n_max is.
_BLOCK = 1024
_CHUNK = 32
_K = np.arange(_BLOCK, dtype=float)


def direct_mode_sum(args: ModeSumArgs, n_max: int) -> complex:
    """Symmetric truncation sum_{|n| <= n_max} e^{i alpha n} n^m / (n^2 + beta^2).

    The +n and -n terms are combined before accumulation, which is required
    for the conditionally convergent m = 1 case: 1/beta^2 + 2 Re sum_{n>=1}
    for m = 0 and 2i Im sum_{n>=1} for m = 1.

    The terms are summed in blocks n = n0 + k of _BLOCK consecutive n, with
    cos(alpha k) and sin(alpha k) taken once per call and cos(alpha n0),
    sin(alpha n0) once per block; the angle-addition identities join them.
    Memory stays constant in n_max.  Against a term-by-term fsum of the
    same truncation the result is within 2e-15 times the sum of the moduli
    of the terms (1.5e-15 at alpha = pi, m = 1, n_max = 10^6, where each
    term is the rounding error of its phase); at alpha = 0 the m = 1 sum is
    exactly 0j.

    n_max must be a positive integer (a Python or numpy int).
    """
    try:
        n_max = operator.index(n_max)
    except TypeError:
        raise DomainError(f"n_max must be an integer, got {n_max!r}") from None
    if n_max < 1:
        raise DomainError("n_max must be positive")
    alpha = args.alpha
    beta2 = args.beta * args.beta
    trig_k = np.stack([np.cos(alpha * _K), np.sin(alpha * _K)], axis=1)
    re = im = 0.0
    for first in range(1, n_max + 1, _BLOCK * _CHUNK):
        blocks = min(_CHUNK, (n_max - first) // _BLOCK + 1)
        n = np.arange(first, first + blocks * _BLOCK, dtype=float)
        w = n * n
        w += beta2
        if args.m == 0:
            np.divide(1.0, w, out=w)
        else:
            np.divide(n, w, out=w)
        w[n_max + 1 - first:] = 0.0
        # per block: c = sum_k w cos(alpha k), s = sum_k w sin(alpha k)
        c, s = (w.reshape(blocks, _BLOCK) @ trig_k).T
        phase = alpha * n[::_BLOCK]
        cos0, sin0 = np.cos(phase), np.sin(phase)
        re += float(cos0 @ c - sin0 @ s)
        im += float(sin0 @ c + cos0 @ s)
    if args.m == 0:
        return complex(1.0 / beta2 + 2.0 * re)
    return 2j * im
