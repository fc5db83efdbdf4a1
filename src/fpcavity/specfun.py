"""Special functions and quadrature primitives.

Everything downstream (Coulomb kernels, displacement-field kernels, the
identity suite) is built on four ingredients defined here: the cylindrical
Bessel functions J0, J1, J2 (the package's own, in numpy: J0 and
J1(x)/x from one call, polynomial cells below x = 60.5 and Hankel's
modulus-phase form above, with coefficients written from mpmath by
tools/bessel_coefficients.py; J1 = x (J1(x)/x), and integrands that need
J2 only in J0 + J2 take it as 2 J1(x)/x), the image-lattice moments behind
the inverse-cube lattice sum xi(u, v), an adaptive Gauss-Kronrod
integrator for exponentially decaying integrands on (0, inf), scalar or
vector valued, with an oscillatory-tail mode for slowly damped Bessel-type
integrands (each step splits every panel the tolerance asks for, and the
tail takes its half-periods in batches, in one call of the integrand
each), and the two-sided mode sum sum_n e^{i alpha n} n^m / (n^2 + beta^2)
by two independent routes: its hyperbolic closed form, and its symmetric
truncation summed term by term in blocks of consecutive n (angle addition
from one block's cos/sin table, constant memory in the truncation, within
2e-15 of the sum of the moduli of the terms).

Nothing here imports scipy.

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

from . import _bessel_coef
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
    """Accuracy request for quadratures.

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
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class ModeSumArgs:
    """Arguments of the mode sum sum_n e^{i alpha n} n^m / (n^2 + beta^2).

    alpha and beta must be finite, beta positive with 1/beta^2 (the n = 0
    term of m = 0) a finite double, so beta above about 7.5e-155, and m is
    restricted to {0, 1}: the sum diverges for m >= 2.
    """

    alpha: float
    beta: float
    m: int

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("alpha and beta must be finite")
        if not self.beta > 0:
            raise DomainError("beta must be positive")
        if not self.beta * self.beta > 1.0 / _FLOAT_MAX:
            raise DomainError(f"beta = {self.beta!r} is too small: 1/beta^2 "
                              "overflows")
        if self.m not in (0, 1):
            raise DomainError("m must be 0 or 1 (the sum diverges for m >= 2)")


# ---------------------------------------------------------------------------
# Bessel functions J0, J1, J2
#
# One Bessel source, _bessel_j0_g: J0(x) and g(x) = J1(x)/x together, from
# the tables of _bessel_coef (written from 50-digit mpmath by
# tools/bessel_coefficients.py).  Below _FAR_X0 = 60.5 each x takes the
# polynomials of degree 12 of the cell |x - c| <= 1/2 around the nearest
# integer c; from _FAR_X0 on, Hankel's modulus-phase form (DLMF 10.17)
# with four polynomials of degree 8 in w = _FAR_X0/x, combined with cos x
# and sin x (never with the rounded x - pi/4).  _bessel_j0 is the J0 half
# of the cells, for callers that need J0 alone.  J1 = x g, J0 + J2 = 2 g,
# and J2 = 2 g - J0, from its own series below _J2_SERIES_MAX where that
# difference cancels.  Largest errors against 30-digit mpmath, 10001
# uniform points on [0, 100] with every cell edge and its three
# neighbouring doubles each side, and 2000 geometric points on [100, 1e4]:
#
#   range      function  abs error   rel error where |J| > 1e-4
#   [0, 100]   J0        1.1e-16     1.3e-13
#              J1        1.1e-16     1.3e-13
#              J2        2.2e-16     1.0e-13
#   [100, 1e4] J0        2.8e-17     2.2e-14
#              J1        3.5e-17     1.4e-14
#              J2        2.8e-17     3.5e-14
#
# (1.1e-16 is 1 ulp at J0 ~ 0.97; next to a zero of J at large x the far
# form's relative error is that of cos x and sin x, times their weights.)
# g keeps its relative precision as x -> 0: 1/2 - x^2/16 + ..., exactly
# 1/2 from x = 0 to about 2e-8, so J1 = x g is x/2, correctly rounded,
# down to the subnormals.
#
# Each call is about 30 elementwise numpy calls: in the benchmark's
# operations, where every one of them starts from a cold cache, a gather,
# a reduction or a BLAS product costs several times an in-place multiply,
# so the cells are evaluated by Horner's rule and the cell range reaches
# 60.5, past which only 4 % of the Bessel arguments of a verify pass lie.
# ---------------------------------------------------------------------------

# the coefficients by degree: (terms, cells, 2) for J0 and g side by side,
# (terms, cells) for J0 alone
_NEAR = np.ascontiguousarray(np.transpose(_bessel_coef.NEAR, (2, 0, 1)))
_NEAR_J0 = np.ascontiguousarray(_NEAR[..., 0])
_FAR_X0 = _bessel_coef.FAR_X0
# the largest argument of the cells
_NEAR_MAX = math.nextafter(_FAR_X0, 0.0)
# J0 = r (A0 cos x + B0 sin x) and J1/x = r (A1 cos x + B1 sin x), with
# r = 1/sqrt(pi x) = sqrt(w / (pi _FAR_X0)): the rows A0, A1, B0, B1 of
# _FAR carry the factor 1/sqrt(pi _FAR_X0), which keeps sqrt(w) normal for
# every finite x
_FAR = np.array(_bessel_coef.FAR)[[0, 2, 1, 3]] / math.sqrt(
    math.pi * _FAR_X0)                      # (4, far terms)
_PAIR = np.ones(2)


def _near(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomials with coefficients a (by degree, from the table's
    cells) at t: shape (2, n) for J0 and g, (n,) for J0 alone.

    Horner's rule, each step two in-place elementwise numpy calls over
    every node, J0 and g side by side as an (n, 2) array: after their
    first touch these cost far less than a gathering or a reducing call,
    and the polynomials are short.
    """
    if a.ndim == 3:
        t = t[:, None] * _PAIR
    p = a[-1] * t
    for row in a[-2:0:-1]:
        p += row
        p *= t
    p += a[0]
    return p.T


def _far(x: np.ndarray) -> np.ndarray:
    """J0 and J1(x)/x at x >= _FAR_X0 by the modulus-phase form, as the
    rows of a (2, n) array."""
    w = _FAR_X0 / x
    powers = np.empty((len(x), _FAR.shape[1]))
    powers[:, 0] = np.sqrt(w)
    powers[:, 1:] = w[:, None]
    amp = _FAR @ np.multiply.accumulate(powers, axis=1, out=powers).T
    return amp[:2] * np.cos(x) + amp[2:] * np.sin(x)


def _split(x, table):
    """J0 and J1(x)/x for table = _NEAR, J0 alone for _NEAR_J0, each by
    the form that applies.  A call with every x below _FAR_X0 is one pass
    of Horner's rule; otherwise the far form runs over all of x (clipped
    to its range) and, where some x is below _FAR_X0, np.where picks the
    cells' values there.  J0 alone takes the J0 row of the far form, so
    it has the bits of the pair everywhere."""
    # fmin keeps huge x and NaN castable; both then miss the table
    c = np.rint(np.fmin(x, _FAR_X0 + 1.0))
    cells = c.astype(np.intp)
    try:
        a = table.take(cells, axis=1)
    except IndexError:
        pass  # some x at or past _FAR_X0
    else:
        return _near(a, x - c)
    # a NaN fails the test and takes the far form, which returns NaN
    near = x < _FAR_X0
    far = _far(np.maximum(x, _FAR_X0))
    if table is _NEAR_J0:
        far = far[0]
    if not near.any():
        return far
    a = table.take(cells, axis=1, mode="clip")
    return np.where(near, _near(a, np.where(near, x - c, 0.0)), far)


# nodes per pass of _split: the gathered cells are 26 doubles a node, the
# far form's powers 9
_CHUNK_NODES = 4096


def _chunked(x, table):
    x = np.asarray(x, dtype=float).ravel()
    if len(x) <= _CHUNK_NODES:
        return _split(x, table)
    return np.concatenate([_split(x[i:i + _CHUNK_NODES], table)
                           for i in range(0, len(x), _CHUNK_NODES)], axis=-1)


def _bessel_j0_g(x: np.ndarray) -> np.ndarray:
    """J0(x) and J1(x)/x at x >= 0 as the rows of one (2, n) array."""
    return _chunked(x, _NEAR)


def _bessel_j0(x: np.ndarray) -> np.ndarray:
    """J0(x) at x >= 0: _bessel_j0_g's J0 row, from the J0 half of the
    cells."""
    return _chunked(x, _NEAR_J0)


# Below this argument J2 is less than an eighth of 2 J1(x)/x (J2(1) =
# 0.115), so J2 = 2 J1(x)/x - J0 would lose 3 bits or more to the
# subtraction; J2 is there the ascending series
# (x/2)^2 sum_j (-x^2/4)^j / (j! (j + 2)!), whose first omitted term is
# below 2e-21 relative.
_J2_SERIES_MAX = 1.0
_J2_SERIES = tuple(1.0 / (math.factorial(j) * math.factorial(j + 2))
                   for j in range(10))


def _bessel_j2(x: np.ndarray, j0: np.ndarray, g: np.ndarray) -> np.ndarray:
    """J2(x) from J0(x) and g = J1(x)/x at the same x >= 0."""
    j2 = 2.0 * g - j0
    small = x < _J2_SERIES_MAX
    if small.any():
        q = 0.5 * x[small]
        q = q * q
        s = _J2_SERIES[-1]
        for coef in _J2_SERIES[-2::-1]:
            s = coef - q * s
        j2[small] = q * s
    return j2


def _jv(order: int, x: np.ndarray) -> np.ndarray:
    """Vectorized J_order for order in {0, 1, 2}, x >= 0: J0 alone by the
    J0 half of the tables, J1 and J2 from J0 and J1(x)/x."""
    x = np.asarray(x, dtype=float)
    if order == 0:
        return _bessel_j0(x).reshape(x.shape)
    j0, g = _bessel_j0_g(x)
    j = x.ravel() * g if order == 1 else _bessel_j2(x.ravel(), j0, g)
    return j.reshape(x.shape)


def _bessel_j0_j1_sum(x: np.ndarray):
    """J0(x), J1(x) and J0(x) + J2(x) at x >= 0, from one _bessel_j0_g
    call: J1 = x g and, by the recurrence J0 + J2 = 2 J1(x)/x, the sum is
    2 g (exactly 1 at x = 0)."""
    x = np.asarray(x, dtype=float)
    j0, g = _bessel_j0_g(x)
    return j0, x * g, 2.0 * g


def _bessel_half_period(v: float) -> float | None:
    """Half-period in x of J_n(x v), which every integrand with that factor
    passes to integrate_semi_infinite; None at v = 0, where nothing
    oscillates, and where pi/v overflows (nothing oscillates within any
    truncation point)."""
    if not v > 0:
        return None
    half_period = math.pi / v
    return half_period if half_period < math.inf else None


def bessel_j(order: int, x: float) -> float:
    """Cylindrical Bessel function J_order(x) for order in {0, 1, 2} and
    finite x >= 0."""
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1 or 2, got {order}")
    if not 0.0 <= x < math.inf:
        raise DomainError(f"x must be finite and non-negative, got {x!r}")
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
    exponentially small values at large v).
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


def xi(u: float, v: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Two-sided lattice sum sum_{n in Z} ((2n + u)^2 + v^2)^(-3/2).

    Periodic in u with period 2 and symmetric under u -> 2 - u.  Finite for
    v > 0, and for v = 0 whenever u is not an even integer (there the n
    hitting 2n + u = 0 contributes a non-summable term).  Non-finite u or v
    is a domain error.

    The moment S3 of _lattice_moments, accurate to about 1e-13 relative
    whatever tol is given; tol is ignored, kept only for callers that still
    pass one.
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
# the columns K15 and K15 - G7 of one product with the node values
_GK_WEIGHTS = np.stack([_K15_WEIGHTS, _K15_WEIGHTS], axis=1)
_GK_WEIGHTS[_G7_IDX, 1] -= _G7_WEIGHTS


def _gauss_kronrod(f: Callable, a: np.ndarray, b: np.ndarray):
    """The K15 estimate of int f over each panel [a_i, b_i] and its
    |K15 - G7| error estimate, from one call of f and one product with the
    (15, 2) weight matrix, and each panel's largest error.

    a and b are arrays.  f receives the 15 nodes of every panel in one
    array, panel after panel, and returns one value per node, or a (k, n)
    array with one row per component.  Returns (rule, peaks): rule[i] is
    panel i's (estimate, error), shape (panels, 2) for one value per node
    and (panels, 2, k) for k rows, and peaks, shape (panels,), each
    panel's largest error in any component.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = (mid[:, None] + half[:, None] * _K15_NODES).ravel()
    y = np.asarray(f(x), dtype=float)
    # one row of 15 node values per panel (and component)
    gk = (y.reshape(y.shape[:-1] + (len(a), 15)) @ _GK_WEIGHTS) * half[:, None]
    err = gk[..., 1]
    np.abs(err, out=err)
    if y.ndim == 1:
        return gk, err
    return gk.transpose(1, 2, 0), np.maximum.reduce(err, axis=0)


def _target(total, tol: Tolerance):
    # each component's own max(abs_tol, rel_tol * |total_i|)
    return np.maximum(tol.abs_tol, tol.rel_tol * np.abs(total))


def _check_finite(values: np.ndarray):
    """DomainError unless every integral and error estimate in values is
    finite: a nan would compare False with any target and pass as
    converged."""
    if not all(map(math.isfinite, values.ravel().tolist())):
        raise DomainError("the integral or its error estimate is not "
                          "finite: the integrand gives nan or inf")


def _running_sum(start, terms: np.ndarray):
    """start + terms[0] + terms[1] + ..., added one term after the other
    (per component), as a loop over the panels adds them."""
    if len(terms) == 1:
        return start + terms[0]
    return np.add.accumulate(np.concatenate((start[None], terms)))[-1]


def _subdivide(f: Callable, edges):
    """The adaptive panel subdivision over the panels defined by edges, one
    step at a time, each step one call of f: all seed panels, then both
    halves of every panel the step splits, panel after panel.

    Yields the running integral, its summed |K15 - G7| error and the number
    of panels split so far: numpy scalars for an integrand with one value
    per node; for one returning k rows, length-k arrays.  Each later step
    is sent (target, room): it takes panels worst first (by the largest
    error in any component) until the error left in the panels it has not
    taken is within target in every component, at most room of them, and
    splits them all.  Sent nothing (next), it splits the worst panel alone.

    The seed panels' estimates and errors stay in the one array
    _gauss_kronrod returns them in, and np.add.accumulate sums them from a
    0.0 row in panel order, so each sum has the bits of a loop adding the
    panels to 0.0.  The worst-first order, a heap, is built only when a
    step asks for a split; a split step adds the changes of the panels it
    takes, (both halves - the panel), to the sums in the order it takes
    them.  DomainError as soon as a sum is not finite: a nan would
    compare False with every target and pass as converged.
    """
    edges = np.asarray(edges, dtype=float)
    rule, peaks = _gauss_kronrod(f, edges[:-1], edges[1:])
    # the running integral and error
    sums = _running_sum(np.zeros(rule.shape[1:]), rule)
    # the panels worst first, built at the first split: a heap of
    # (-peak, a, b, row of rule), in which the row, in the order the panels
    # were made, breaks the ties of equal panels
    heap = None
    splits = 0
    while True:
        _check_finite(sums)
        target, room = (yield sums[0], sums[1], splits) or (math.inf, 1)
        if heap is None:
            heap = list(zip((-peaks).tolist(), edges[:-1].tolist(),
                            edges[1:].tolist(), itertools.count()))
            heapq.heapify(heap)
        taken = [heapq.heappop(heap)]
        left = sums[1] - rule[taken[0][3], 1]
        while len(taken) < room and heap and (left > target).any():
            taken.append(heapq.heappop(heap))
            left = left - rule[taken[-1][3], 1]
        lo, hi = [], []
        for _, a, b, _ in taken:
            mid = 0.5 * (a + b)
            lo += (a, mid)
            hi += (mid, b)
        new_rule, new_peaks = _gauss_kronrod(f, np.array(lo), np.array(hi))
        sums = _running_sum(sums, new_rule[0::2] + new_rule[1::2]
                            - rule[[panel[3] for panel in taken]])
        for panel in zip((-new_peaks).tolist(), lo, hi,
                         itertools.count(len(rule))):
            heapq.heappush(heap, panel)
        rule = np.concatenate((rule, new_rule))
        splits += len(taken)


def _adaptive(f: Callable, edges: np.ndarray, tol: Tolerance):
    """Adaptive panel subdivision over the panels defined by edges.

    A float for an integrand with one value per node; for one returning k
    rows, a length-k array.  The pass ends when every component's summed
    error is within its own max(abs_tol, rel_tol * |total_i|); until then
    each step splits every panel that target asks for, in one call of f.
    DomainError when the integral or its error is not finite.
    """
    steps = _subdivide(f, edges)
    total, err, splits = next(steps)
    scalar = total.ndim == 0
    while True:
        target = _target(total, tol)
        if not (err > target).any():
            return float(total) if scalar else total
        if splits >= tol.max_subdivisions:
            raise ConvergenceError(
                f"quadrature error {float(np.max(err)):.3e} above tolerance "
                f"after {splits} subdivisions",
                best_estimate=float(total) if scalar else total,
                achieved_error=float(err) if scalar else err,
            )
        total, err, splits = steps.send(
            (target, tol.max_subdivisions - splits))


def _quad_finite(f: Callable, a: float, b: float, tol: Tolerance) -> float:
    """Adaptive quadrature on [a, b] from eight equal seed panels."""
    if not b > a:
        raise DomainError("need b > a")
    return _adaptive(f, np.linspace(a, b, 9), tol)


def _seed_edges(x_max: float) -> np.ndarray:
    # geometric seed panels: dense near 0 where integrands have their
    # structure, coarse towards the truncation point
    edges = [0.0]
    step = min(1.0, x_max / 8.0)
    x = step
    while x < x_max:
        edges.append(x)
        x *= 2.0
    edges.append(x_max)
    return np.array(edges)


# Oscillatory-tail mode: the head [0, x0] spans _HEAD_HALF_PERIODS
# half-periods; the tail is summed one half-period panel at a time, and the
# first transform is taken after _MIN_TAIL_PANELS panels.  The Levin order
# grows with the panel count up to _LEVIN_MAX_ORDER and then slides over
# the latest partial sums (the transform's rounding error grows with the
# order).
_HEAD_HALF_PERIODS = 4
_MIN_TAIL_PANELS = 4
_LEVIN_MAX_ORDER = 16
# The tail mode runs past this many half-periods in [0, x_max]; below it
# the plain pass is faster (medians of 3, 2-core x86 box): up to 35-50 for
# the four-row Bessel pass and the unsplit D+, up to 55-95 for the
# remainder of kernel_d.
_TAIL_MIN_SPAN = 50
# Levin's signed binomial rows (-1)^j C(k, j), j = 0..k, for every order k
# the transform takes
_LEVIN_BINOMIALS = tuple(
    np.array([(-1.0) ** j * math.comb(k, j) for j in range(k + 1)])
    for k in range(_LEVIN_MAX_ORDER + 1))


def _levin_u(sums: np.ndarray, terms: np.ndarray, first: float) -> np.ndarray:
    """Levin u-transform of the partial sums s_0..s_k, column by column.

    sums and terms are (k + 1, c) arrays of the partial sums and of the
    terms a_n that end them, k <= _LEVIN_MAX_ORDER; the remainder estimates
    are omega_n = (first + n) a_n.  A column in which an omega is 0 (a row
    of exact zeros) or the transform overflows gets its last partial sum.
    """
    k = len(sums) - 1
    n = first + np.arange(k + 1)
    coef = _LEVIN_BINOMIALS[k] * (n / n[-1]) ** (k - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = coef[:, None] / (n[:, None] * terms)
        est = (w * sums).sum(axis=0) / w.sum(axis=0)
    return np.where(np.isfinite(est), est, sums[-1])


def _half_periods(f: Callable, x: float, h: float, x_max: float, n: int):
    """Up to n consecutive half-periods [x, x + h], [x + h, x + 2h], ...,
    each starting before x_max, from one call of f: per half-period the
    _gauss_kronrod rule of its two panels, an array of shape
    (half-periods, 2, 2), or (half-periods, 2, 2, k) for k rows.

    Two K15 panels per half-period: one panel's |K15 - G7| on a whole
    half-wave is about 1e-12 of its value, and these add up.
    """
    edges = [x]
    while len(edges) < 2 * n + 1 and x < x_max:
        edges += (x + 0.5 * h, x + h)
        x += h
    edges = np.array(edges)
    rule, _ = _gauss_kronrod(f, edges[:-1], edges[1:])
    return rule.reshape((len(edges) // 2, 2) + rule.shape[1:])


def _oscillatory_tail(f: Callable, h: float, x_max: float, tol: Tolerance):
    """The head [0, x0], x0 = _HEAD_HALF_PERIODS h, by adaptive subdivision
    and the tail by half-period panels [x, x + h] whose partial sums Levin's
    u-transform extrapolates; see integrate_semi_infinite.

    Each step refines whichever part holds the larger error: the head
    when it does so in a component that has not yet converged, or once the
    tail has reached x_max; otherwise the tail takes one more half-period.
    A head step splits, in one call of f, the panels its share of the
    target, target - tail error - gap, asks for when that share is positive
    in every component, else its worst panel.  The tail fetches
    half-periods in batches, one call of f each (_half_periods):
    _MIN_TAIL_PANELS + 2, the fewest that can end it, and then a third as
    many as it has taken so far, so the batches grow geometrically.  It
    forms each batch's partial sums and summed errors in one pass, in the
    order of the half-periods, into arrays that hold the whole tail
    fetched so far, and takes the half-periods one at a time, so every
    value and decision is that of a tail fetched one half-period at a time.
    The tail panels' summed error only grows, so a component whose
    transforms agree within its target while that sum alone exceeds it
    cannot converge, and the pass fails at once.
    """
    x0 = _HEAD_HALF_PERIODS * h
    head = _subdivide(f, _seed_edges(x0))
    head_total, head_err, head_splits = next(head)
    scalar = head_total.ndim == 0

    def out(values):
        return float(values[0]) if scalar else values

    # row i: the partial sum and the summed panel error after i tail
    # half-periods and the term that ends that sum, for every half-period
    # fetched so far; row 0 is the empty tail
    sums = terms = errs = np.zeros((1, 1 if scalar else len(head_total)))
    taken = 0
    est, gaps = sums[0], (math.inf, math.inf)
    x = x0
    while True:
        tail_err = errs[taken]
        # head splits and tail half-periods taken so far
        splits = head_splits + taken
        gap = np.maximum(*gaps)
        total = head_total + est
        err = head_err + tail_err + gap
        target = _target(total, tol)
        bad = err > target
        if not bad.any():
            _check_finite(total)
            return out(total)
        stuck = bad & (tail_err > target) & (gap <= target)
        if splits >= tol.max_subdivisions or stuck.any():
            raise ConvergenceError(
                f"quadrature error {float(np.max(err)):.3e} above tolerance "
                f"after {splits} subdivisions and tail half-periods",
                best_estimate=out(total), achieved_error=out(err))
        room = tol.max_subdivisions - splits
        if x >= x_max or (bad & (head_err > tail_err + gap)).any():
            share = target - tail_err - gap
            head_total, head_err, head_splits = head.send(
                (share, room) if (share > 0).all() else None)
            continue
        if taken == len(sums) - 1:
            # the fewest half-periods that can end the tail, then a third
            # of those taken so far: at most a quarter of them go unused
            batch = -(-taken // 3) or _MIN_TAIL_PANELS + 2
            rule = _half_periods(f, x, h, x_max, min(batch, room))
            # in C order, which the transform's column sums over the rows
            # take one row after the other
            added = np.ascontiguousarray(
                (rule[:, 0, 0] + rule[:, 1, 0]).reshape(len(rule), -1))
            terms = np.concatenate((terms, added))
            sums = np.concatenate((sums, np.add.accumulate(
                np.concatenate((sums[-1:], added)))[1:]))
            # each half-period adds the errors of its two panels in turn
            errs = np.concatenate((errs, np.add.accumulate(np.concatenate(
                (errs[-1:], rule[:, :, 1].reshape(2 * len(rule), -1))))[2::2]))
        taken += 1
        _check_finite(sums[taken])
        _check_finite(errs[taken])
        x += h
        if x >= x_max:
            # the plain partial sum has reached the truncation point
            est, gaps = sums[taken], (0.0, 0.0)
        elif taken >= _MIN_TAIL_PANELS:
            first = max(0, taken - _LEVIN_MAX_ORDER - 1)
            new = _levin_u(sums[first + 1:taken + 1],
                           terms[first + 1:taken + 1],
                           _HEAD_HALF_PERIODS + first)
            # the larger of the last two gaps between successive
            # transforms, so that two that agree by accident do not end
            # the tail
            if taken > _MIN_TAIL_PANELS:
                gaps = (gaps[1], np.abs(new - est))
            est = new
        else:
            est = sums[taken]


def _truncation(decay_rate_hint: float, tol: Tolerance,
                half_period: float | None) -> tuple[float, float]:
    """Where integrate_semi_infinite truncates (0, inf) for an integrand
    decaying like x^2 exp(-decay_rate_hint * x), x_max, and the span
    x_max / half_period (0 without one).  The one Bessel-argument guard:
    DomainError where x v = pi x / half_period overflows at the farthest
    node, one half-period past x_max."""
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
    if half_period is None:
        return x_max, 0.0
    if not 0.0 < half_period < math.inf:
        raise DomainError("half_period must be positive and finite")
    span = x_max / half_period
    if not (span + 1.0) * math.pi < math.inf:
        raise DomainError(
            f"the Bessel argument x v overflows at the quadrature's farthest "
            f"node x = {x_max + half_period:.3g}: the half-period pi/v = "
            f"{half_period!r} is too small")
    return x_max, span


def integrate_semi_infinite(integrand: Callable, decay_rate_hint: float,
                            tol: Tolerance = DEFAULT_TOL,
                            half_period: float | None = None):
    """Integrate a vectorized real integrand over (0, inf).

    The integrand maps an array of n nodes to n values, and the result is a
    float; or to a (k, n) array, one row per component, and the result is a
    length-k array in which every component meets the tolerance on its own.
    Each call of the integrand takes the nodes of all the panels one step
    evaluates in one array (all seed panels, both halves of every panel a
    step splits, or a batch of tail half-periods), so the integrand must act
    elementwise on an array of any length.

    The step rule is QUADPACK's globally adaptive refinement (Piessens et
    al. 1983), batched: while any component's summed error exceeds its
    target t_i = max(abs_tol, rel_tol * |I_i|), a step takes the panels
    with the largest error (in any component) one by one until the error
    left in the others is within t_i in every component, at most as many
    as max_subdivisions has left, and splits them all in one call.  When the
    worst panel alone covers the excess, that is the one split of the
    one-panel-per-step rule, with the same arithmetic.  One call of the
    four-row Bessel integrand of the verify suite takes about 65 us for 2
    panels and 125 us for 16 (2-core x86 box), so the number of calls more
    than the number of nodes sets the cost.

    The integrand must decay at least like exp(-decay_rate_hint * x) for
    large x; behaviour at 0 may be integrably singular (panels never touch
    the endpoints).  The interval is truncated where the tail bound falls
    below abs_tol/2, assuming an at-worst-quadratic prefactor of the
    exponential decay, and the remainder is integrated adaptively with
    per-panel Gauss-Kronrod error estimates.

    half_period only describes the integrand: it oscillates with that
    half-period far from 0 (pi/v for a factor J_n(x v)) and is smooth on
    its scale there.  The quadrature chooses its mode by one rule: when
    the truncation point lies more than _TAIL_MIN_SPAN = 50 half-periods
    out, it runs the oscillatory-tail mode, else the plain pass, which is
    faster there.  The tail mode integrates the head [0, x0], x0 four
    half-periods, adaptively and the tail one half-period at a time (two
    K15 panels each); Levin's u-transform (Levin 1973, Int. J. Comput.
    Math. B3) extrapolates the tail's partial sums, per component.  The
    error estimate is the larger of the last two gaps between successive
    transforms plus the head's and the tail panels' |K15 - G7|, against
    each component's max(abs_tol, rel_tol * |I_i|); each step refines the
    head or adds a tail half-period, whichever part holds the larger error.
    A head step splits the panels the head's share of the target,
    t_i - tail error - gap, asks for when that share is positive in every
    component, else its worst panel.  The tail half-periods are evaluated
    in batches, _MIN_TAIL_PANELS + 2 = 6 first (the fewest that can end
    the tail) and then a third as many as taken so far, none starting past
    the truncation point, and taken one at a time with the same values and
    decisions as one call each.  The cost then no longer grows with the
    number of oscillations before exp(-rate x) damps them; when the tail
    reaches the truncation point, the plain partial sum is taken.  The one
    guard on the arguments: DomainError where the Bessel argument
    x v = pi x / half_period overflows at the farthest node the pass can
    reach, one half-period past the truncation point.

    An integrand that gives nan or inf is a DomainError in both modes: the
    plain pass and the head refuse a sum or an error that is not finite
    after every step, and the tail refuses a half-period with a non-finite
    partial sum or error when it takes it.  (A nan compares False with
    every target, so without the check it would pass as converged.)

    The bookkeeping is in arrays: a step's panels come back from one call
    of the integrand and one product with the weight matrix, their sums are
    added in panel order by np.add.accumulate, the panels are ordered worst
    first only when a step splits, and the tail keeps its partial sums,
    terms and errors in arrays that grow by a batch at a time.  Every
    node, value and decision is that of a pass adding one panel at a time.

    Raises ConvergenceError (carrying the best estimate and the achieved
    error, per component for a vector integrand) when the tolerance cannot
    be met within max_subdivisions panel splits, and in the
    oscillatory-tail mode tail half-periods as well; a tail half-period
    counts when it is taken, not when its batch is evaluated.  The mode
    also raises it at once when a component's transforms have settled but
    the tail panels' summed error alone, which only grows, exceeds its
    target.
    """
    x_max, span = _truncation(decay_rate_hint, tol, half_period)
    if span > _TAIL_MIN_SPAN:
        return _oscillatory_tail(integrand, half_period, x_max, tol)
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
    ratio_den = -math.expm1(-2.0 * math.pi * beta)
    pref = math.pi * beta ** (args.m - 1)
    if args.m == 0:
        top = math.exp(arg - math.pi * beta)
        bot = math.exp(-arg - math.pi * beta)
        return complex(pref * (top + bot) / ratio_den)
    # 2 e^{-pi beta} sinh(arg) with expm1, free of the cancellation of
    # e^{arg} - e^{-arg} at small |arg|
    odd = math.copysign(math.exp(abs(arg) - math.pi * beta)
                        * -math.expm1(-2.0 * abs(arg)), arg)
    return 1j * pref * odd / ratio_den


# The direct sum runs over n = n0 + k, k in [0, _BLOCK), in chunks of
# _CHUNK blocks: n and the weights take 0.5 MB per chunk whatever n_max is,
# in two buffers each call fills chunk by chunk from _OFFSETS.
_BLOCK = 1024
_CHUNK = 32
_K = np.arange(_BLOCK, dtype=float)
_OFFSETS = np.arange(_BLOCK * _CHUNK, dtype=float)


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

    alpha is reduced into [0, 2pi) first, as in hyperbolic_mode_sum, so a
    huge alpha gives a finite sum.  n_max must be a positive integer (a
    Python or numpy int).
    """
    try:
        n_max = operator.index(n_max)
    except TypeError:
        raise DomainError(f"n_max must be an integer, got {n_max!r}") from None
    if n_max < 1:
        raise DomainError("n_max must be positive")
    alpha = args.alpha % (2.0 * math.pi)
    beta2 = args.beta * args.beta
    trig_k = np.stack([np.cos(alpha * _K), np.sin(alpha * _K)], axis=1)
    n_buf, w_buf = np.empty(_BLOCK * _CHUNK), np.empty(_BLOCK * _CHUNK)
    re = im = 0.0
    for first in range(1, n_max + 1, _BLOCK * _CHUNK):
        blocks = min(_CHUNK, (n_max - first) // _BLOCK + 1)
        n, w = n_buf[:blocks * _BLOCK], w_buf[:blocks * _BLOCK]
        np.add(_OFFSETS[:blocks * _BLOCK], first, out=n)
        np.multiply(n, n, out=w)
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
