"""Identity verification suite.

Every analytic claim the kernels rest on is checked by computing both sides
through independent code paths: quadratures of hyperbolic Bessel integrands
on one side, the image-lattice moments S3 = sum rho^-3, S5 = sum rho^-5 and
T5 = sum a rho^-5 on the other (xi = S3, with the exact derivatives
v d/dv xi = -3 v^2 S5 and v d/du xi = -3 v T5).  Reports carry both error
measures and the pass threshold that was applied; a numerical failure in
any check becomes a failed report rather than aborting the run.

run_suite checks one family, or all of them, on one fixed set of
acceptance grids, the private constants _U_GRID through _ANISO_CUTOFF; its
seed draws only the randomized EQ21 separations, so a run is deterministic
given its seed.  The public check_* functions take any other grid point.

Pass thresholds are pinned: each check reads its TOL_* constant and no
argument moves it.  The quadratures run at the fixed panel-split
budget; one that does not converge gives a failed report.

Check identifiers:

  EQ22        x cosh-ratio J1 integral  vs  v xi(u, v)
  EQ29_PLUS   x^2 cosh-ratio (J0 + J2)  vs  2 xi
  EQ29_MINUS  x^2 cosh-ratio (J0 - J2)  vs  (2 + 2 v d/dv) xi
  EQ30        x^2 sinh-ratio J1         vs  v d/du xi
  EQ21        Coulomb kernel E+  vs  -(1/2 pi) quadratic kernel D+
  SELF_CANCEL xi part of the self-energy matrix vs the single-dipole
              quadratic term, in their physical prefactors
  EQ27        direct mode sum vs hyperbolic closed form
  EQ33, EQ34  Laplace-Bessel integrals vs inverse-distance closed forms
  EQ36        paired image sum vs the difference-of-cosh-ratios integral
  AXIAL20     off-diagonal entries of D+/- vanish on the cavity axis
  ANISO38     coincident-point anisotropy: continuum limit zero, and decay
              of the normalized anisotropy with cavity length
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._memo import recall
from .coulomb import kernel_e
from .errors import ConvergenceError, DomainError, as_float
from .geometry import CavityFrame, Separation, _check_image_distance
from .lattice import _lattice_moments, xi
from .modesum import ModeSumArgs, direct_mode_sum, hyperbolic_mode_sum
from .radiation import (_anisotropy_summand, _cosh_ratio_diff,
                        _hyperbolic_weights, _kernel_d_reference,
                        anisotropy_delta)
from .specfun import (Tolerance, _bessel_half_period, _bessel_j0_g,
                      _quad_finite, integrate_semi_infinite)

__all__ = [
    "IdentityReport",
    "VerificationSummary",
    "check_bessel_hyperbolic",
    "check_kernel_cancellation",
    "check_mode_sum",
    "check_lipschitz",
    "check_green",
    "check_axial_and_aniso",
    "run_suite",
    "SUITE_NAMES",
]


@dataclass
class IdentityReport:
    check_id: str
    params: dict
    lhs: object
    rhs: object
    abs_err: float
    rel_err: float
    passed: bool
    tol_used: Tolerance


@dataclass
class VerificationSummary:
    suite: str
    seed: int
    reports: list
    all_pass: bool


# pass tolerances pinned per check family
TOL_EQ22 = Tolerance(abs_tol=1e-10, rel_tol=1e-8)
TOL_DERIV = Tolerance(abs_tol=1e-8, rel_tol=1e-6)
TOL_EQ21 = Tolerance(abs_tol=1e-12, rel_tol=1e-7)
TOL_SELF = Tolerance(abs_tol=1e-12, rel_tol=1e-8)
TOL_MODESUM = Tolerance(abs_tol=1e-10, rel_tol=1e-5)
TOL_LIPSCHITZ = Tolerance(abs_tol=1e-9, rel_tol=1e-13)
TOL_GREEN = Tolerance(abs_tol=1e-6, rel_tol=1e-13)
TOL_AXIAL = Tolerance(abs_tol=1e-12, rel_tol=1e-15)
TOL_CONTINUUM = Tolerance(abs_tol=1e-12, rel_tol=1e-15)
TOL_DECAY = Tolerance(abs_tol=1.0, rel_tol=1e-15)  # pass <=> metric <= 1


# the acceptance grids of run_suite; the check_* functions take any others
_U_GRID = tuple(round(0.1 + 0.2 * i, 1) for i in range(10))
_V_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
_N_RANDOM_SEPARATIONS = 20
_Z_OVER_L = tuple(round(0.1 * i, 1) for i in range(1, 10))
_MODESUM_ALPHAS = (0.0, 0.5, math.pi)
_MODESUM_BETAS = (0.3, 1.0, 3.0)
_MODESUM_ORDERS = (0, 1)
_MODESUM_N_MAX = 10 ** 6
_LIPSCHITZ_U = (1.0, 2.0)
_LIPSCHITZ_V = (0.0, 1.0, 3.0)
_GREEN_TRIPLES = ((0.5, 1.0, 1.0), (0.3, 1.7, 0.5), (1.2, 0.8, 2.0))
_AXIAL_U = (0.3, 0.7, 1.0, 1.5)
_ANISO_LENGTHS = (1.0, 2.0, 4.0, 8.0)
_ANISO_CUTOFF = math.pi


def _engine(tol: Tolerance) -> Tolerance:
    """Internal computation tolerance: an order below the pass threshold
    tol, floored so engine work stays reasonable."""
    return Tolerance(abs_tol=max(1e-12, 1e-2 * tol.abs_tol),
                     rel_tol=max(1e-11, 1e-2 * tol.rel_tol))


def _largest(values: list[float]) -> float:
    # nan if any value is nan, as numpy's max gives
    return math.nan if any(map(math.isnan, values)) else max(values)


def _errors(lhs, rhs, scale=None) -> tuple[float, float]:
    """The largest entrywise |lhs - rhs| of two sides of the same shape, and
    that over scale, by default the largest |entry| of either side.  A
    side is a number, a pair or a 3x3 array."""
    la = np.asarray(lhs, dtype=float).ravel().tolist()
    ra = np.asarray(rhs, dtype=float).ravel().tolist()
    abs_err = _largest([abs(a - b) for a, b in zip(la, ra, strict=True)])
    denom = scale if scale is not None else max(
        _largest([abs(a) for a in la]), _largest([abs(b) for b in ra]))
    if denom > 0:
        rel_err = abs_err / denom
    else:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    return abs_err, rel_err


def _report(check_id: str, params: dict, lhs, rhs, tol: Tolerance,
            scale=None) -> IdentityReport:
    # one float array per side, which _errors reads and the report keeps
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    abs_err, rel_err = _errors(lhs, rhs, scale)
    passed = abs_err <= tol.abs_tol or rel_err <= tol.rel_tol
    return IdentityReport(check_id=check_id, params=params,
                          lhs=lhs.tolist(), rhs=rhs.tolist(),
                          abs_err=abs_err, rel_err=rel_err, passed=passed,
                          tol_used=tol)


def _rows(params: dict, checks: Sequence, sides: Callable,
          *args) -> list[IdentityReport]:
    """Report each (check_id, tol) of checks on the (lhs, rhs) or
    (lhs, rhs, scale) that sides(*args) gives for it, in the same order.

    The one failure path of the suite.  sides computes every row of one
    call, so a ConvergenceError or DomainError raised in it, such as a
    quadrature that runs out of panel splits or whose Bessel argument
    overflows, fails every row of that call with the same error and never
    aborts a verification run.  Rows that share one quadrature, the four
    Bessel identities at one (u, v) and EQ33/EQ34, thus fail together.
    """
    try:
        results = sides(*args)
    except (ConvergenceError, DomainError) as exc:
        failed = dict(params, error=f"{type(exc).__name__}: {exc}")
        return [IdentityReport(check_id=check_id, params=dict(failed),
                               lhs=None, rhs=None, abs_err=math.inf,
                               rel_err=math.inf, passed=False, tol_used=tol)
                for check_id, tol in checks]
    return [_report(check_id, dict(params), lhs, rhs, tol, *scale)
            for (check_id, tol), (lhs, rhs, *scale)
            in zip(checks, results, strict=True)]


def _check_domain(params: dict) -> None:
    """Refuse a non-finite parameter, and a v < 0: J(xv) is read at xv >= 0."""
    if not (all(map(math.isfinite, params.values())) and params["v"] >= 0):
        raise DomainError(f"want finite parameters and v >= 0, got {params}")


def check_bessel_hyperbolic(u: float, v: float) -> list[IdentityReport]:
    """Check the four hyperbolic-integral identities at one (u, v).

    The integral sides are the four rows of one quadrature pass, so J0, J1
    and the hyperbolic ratios are evaluated once per node; J2 enters only
    through the identity J0 + J2 = 2 J1(xv)/(xv), and J0 - J2 is
    2 J0 - (J0 + J2).  The lattice sides go through the lattice moments,
    xi = S3 with the exact derivatives v d/dv xi = -3 v^2 S5 and
    v d/du xi = -3 v T5, so the two routes share no code.  Thresholds are
    pinned, TOL_DERIV (100x looser relative) for the two derivative
    identities and TOL_EQ22 for the others; every row meets the engine
    tolerance of TOL_EQ22, at the quadrature's fixed panel-split budget.  A
    quadrature that does not converge fails all four rows, and so does a v
    at which x v overflows at the quadrature's nodes, or 1/x at its first.
    """
    eng = _engine(TOL_EQ22)
    u, v = as_float(u), as_float(v)
    params = {"u": u, "v": v}
    # xi by its module-level name, which lets a test substitute a shifted xi
    # (as for SELF_CANCEL); the derivative sides take v^2 S5 and v T5 from
    # the lattice pass that xi left in the memo
    s3 = xi(u, v)
    _, v2s5, vt5 = recall(_lattice_moments, u, v)

    def rows(x):
        xv = x * v
        j0, g = _bessel_j0_g(xv)
        j1 = xv * g
        j02 = 2.0 * g  # J0 + J2
        ch, sh = _hyperbolic_weights(x, u)
        ch *= x
        out = np.empty((4, len(x)))
        np.multiply(ch, j1, out=out[0])
        ch *= x
        np.multiply(ch, j02, out=out[1])
        np.multiply(j0, 2.0, out=out[2])
        out[2] -= j02
        out[2] *= ch
        np.multiply(x, x, out=out[3])
        out[3] *= sh
        out[3] *= j1
        return out

    # EQ22, EQ29_PLUS, EQ29_MINUS against (2 + 2 v d/dv) xi and EQ30
    # against v d/du xi
    lattice = (v * s3, 2.0 * s3, 2.0 * s3 - 6.0 * v2s5, -3.0 * vt5)
    return _rows(params, [("EQ22", TOL_EQ22), ("EQ29_PLUS", TOL_EQ22),
                          ("EQ29_MINUS", TOL_DERIV), ("EQ30", TOL_DERIV)],
                 lambda: zip(integrate_semi_infinite(
                     rows, min(u, 2.0 - u), eng,
                     half_period=_bessel_half_period(v)), lattice))


# ---------------------------------------------------------------------------
# kernel cancellation
# ---------------------------------------------------------------------------

def check_kernel_cancellation(sep_samples: Sequence[Separation],
                              z_samples: Sequence[float], *,
                              kernel_e_fn: Callable = kernel_e,
                              kernel_d_fn: Callable = _kernel_d_reference
                              ) -> list[IdentityReport]:
    """Coulomb / quadratic kernel cancellation, pairwise and single-dipole.

    EQ21: for each separation, E+ must equal -(1/2 pi) D+ entrywise, with
    the residual normalized by the largest E+ entry.  SELF_CANCEL: for each
    z/L, the xi part of the self-energy matrix (weight 1/8 pi) must cancel
    the quadratic single-dipole term (weight 1/16 pi^2).  Thresholds are
    pinned (TOL_EQ21, TOL_SELF), D+ at the fixed panel-split budget.
    kernel_e_fn is called as (sign, sep) and kernel_d_fn as (sign, sep, tol).

    D+ comes by default from the unsplit hyperbolic integrand, not from
    kernel_d: kernel_d adds the nearest image pair back in closed form, and
    those closed forms are the lattice's n = 0 and n = -1 terms, so EQ21 on
    it would partly compare the lattice with itself.  The kernel callables
    are injectable so corrupted kernels can be used to demonstrate the
    checks actually bite.
    """
    eng = _engine(TOL_EQ21)
    eng_self = _engine(TOL_SELF)

    def eq21(sep):
        e_mat = kernel_e_fn("plus", sep).m
        d_mat = kernel_d_fn("plus", sep, eng).m
        return [(e_mat, -d_mat / (2.0 * math.pi),
                 float(np.max(np.abs(e_mat))))]

    def self_cancel(z):
        xi_part = (xi(2.0 * z, 0.0) / (8.0 * math.pi)
                   * np.diag([-1.0, -1.0, -2.0]))
        quad_part = kernel_d_fn("minus", Separation(2.0 * z, 0.0),
                                eng_self).m / (16.0 * math.pi ** 2)
        return [(xi_part, -quad_part, float(np.max(np.abs(xi_part))))]

    reports = [r for sep in sep_samples for r in _rows(
        {"u": sep.u, "v": sep.v, "phi": sep.phi}, [("EQ21", TOL_EQ21)],
        eq21, sep)]
    reports += [r for z in z_samples for r in _rows(
        {"z_over_L": z}, [("SELF_CANCEL", TOL_SELF)], self_cancel, z)]
    return reports


def check_mode_sum(grid: Sequence[ModeSumArgs],
                   n_max: int) -> list[IdentityReport]:
    """Direct symmetric mode sums against the hyperbolic closed form.

    Each side is the pair [real, imag] and the error is the largest
    component error.  For m in {0, 1} one component of both sides is
    exactly zero, so that equals the modulus of the complex difference.
    The threshold is pinned (TOL_MODESUM); no quadrature runs here.
    """
    def sides(args):
        closed = hyperbolic_mode_sum(args)
        direct = direct_mode_sum(args, n_max)
        return [([direct.real, direct.imag], [closed.real, closed.imag])]

    return [r for args in grid for r in _rows(
        {"alpha": args.alpha, "beta": args.beta, "m": args.m,
         "n_max": n_max}, [("EQ27", TOL_MODESUM)], sides, args)]


def check_lipschitz(u: float, v: float) -> list[IdentityReport]:
    """Laplace-Bessel integrals against their closed inverse-distance forms.

    EQ33, int e^{-xu} J0(xv) dx = (u^2 + v^2)^(-1/2), and EQ34,
    int x e^{-xu} J1(xv) dx = v (u^2 + v^2)^(-3/2), are the two rows of one
    quadrature pass, so J0 and J1 come from one Bessel call per node, each
    row meets the engine tolerance on its own, and a quadrature that does
    not converge fails both rows with the same error.  The integrands decay
    only like e^{-xu}.  Where J(xv) oscillates many times before that decay
    the quadrature takes its oscillatory-tail mode, so the cost does not
    grow with the number of oscillations: at u = 1e-4 or 1e-3 both
    identities hold in a few ms.  The threshold is pinned (TOL_LIPSCHITZ),
    the quadrature at the fixed panel-split budget.  A non-finite u or v,
    a u <= 0 (the integrals diverge), a v < 0, a (u, v) so near the
    origin that (u^2 + v^2)^(-3/2) overflows, about u^2 + v^2 < 3e-206,
    and one so far from it that u^2 + v^2 overflows, u or v above about
    1.3e154, are refused with a DomainError before any work: there the
    closed forms would be formed from an infinite u^2 + v^2, and from u
    about 1.7e307 on the damping e^{-xu} would overflow in x u.
    """
    u, v = as_float(u), as_float(v)
    params = {"u": u, "v": v}
    _check_domain(params)
    if not u > 0.0:
        raise DomainError(f"want u > 0, got {params}")
    r2 = u * u + v * v
    if r2 == math.inf:
        raise DomainError(f"(u, v) = ({u!r}, {v!r}) is too far from the "
                          "origin: u^2 + v^2 overflows")
    try:
        eq33, eq34 = r2 ** -0.5, v * r2 ** -1.5
    except (ZeroDivisionError, OverflowError):
        raise DomainError(f"(u, v) = ({u!r}, {v!r}) is too near the origin: "
                          "(u^2 + v^2)^(-3/2) overflows") from None
    eng = _engine(TOL_LIPSCHITZ)

    def rows(x):
        xv = x * v
        out = _bessel_j0_g(xv)
        damp = np.exp(-x * u)
        out[0] *= damp
        out[1] *= xv  # J1 = xv g
        damp *= x
        out[1] *= damp
        return out

    return _rows(params, [("EQ33", TOL_LIPSCHITZ), ("EQ34", TOL_LIPSCHITZ)],
                 lambda: zip(integrate_semi_infinite(
                     rows, u, eng, half_period=_bessel_half_period(v)),
                     (eq33, eq34)))


# terms |n| <= _GREEN_HEAD of the paired image sum are summed directly, the
# rest of each side by Euler-Maclaurin
_GREEN_HEAD = 256
_GREEN_N = np.arange(-_GREEN_HEAD, _GREEN_HEAD + 1, dtype=float)
# 2 n at the half-integer n = _GREEN_HEAD + 1/2 where each side's rest starts
_GREEN_EDGE = 2.0 * _GREEN_HEAD + 1.0


def _inverse_distance_slopes(a: float, v: float) -> tuple[float, float]:
    """The first and third derivatives of f(a) = (a^2 + v^2)^(-1/2),
    -a/r^3 and a (9 v^2 - 6 a^2)/r^7 with r = hypot(a, v), formed from
    a/r and v/r, which are at most 1: nothing overflows at any finite v."""
    r = math.hypot(a, v)
    c, s = a / r, v / r
    r2 = r * r
    return -c / r2, c * (9.0 * s * s - 6.0 * c * c) / (r2 * r2)


def _paired_tail(x: float, x_prime: float, delta: float, v: float) -> float:
    """sum_{k >= 0} [f(x + 1 + 2k) - f(x' + 1 + 2k)], f(a) =
    (a^2 + v^2)^(-1/2), delta = x' - x: one side's rest of the paired sum,
    x and x' its arguments at the half-integer n where the rest starts.

    The terms are the midpoints of panels one n wide, so by Euler-Maclaurin
    the rest is the integral (1/2) int_x^x' f da plus g'/24 - 7 g'''/5760
    of the term g(n) at the start, where d/dn = 2 d/da.  The integral is
    (1/2) log((x' + r')/(x + r)), r = hypot(x, v), taken as log1p(q) of
    the ratio's excess q = delta (1 + (x' + x)/(r' + r))/(x + r), which is
    formed free of cancellation: the ratio is within about 1e-3 of 1 here,
    and rounding it alone, or taking a difference of two logs, would cost
    1e-16 to 1e-15.
    """
    r, r_prime = math.hypot(x, v), math.hypot(x_prime, v)
    q = delta * (1.0 + (x_prime + x) / (r_prime + r)) / (x + r)
    d1, d3 = _inverse_distance_slopes(x, v)
    d1_prime, d3_prime = _inverse_distance_slopes(x_prime, v)
    return (0.5 * math.log1p(q) + (d1 - d1_prime) / 12.0
            - 7.0 * (d3 - d3_prime) / 720.0)


def _paired_inverse_distance_sum(u: float, u_prime: float, v: float) -> float:
    """sum_n [((2n+u)^2+v^2)^(-1/2) - ((2n+u')^2+v^2)^(-1/2)], paired terms,
    for u and u' in (0, 2).

    Each term alone diverges logarithmically; the difference decays like
    n^(-2).  An argument above 1 is first folded to 2 - u, which is exact
    there and leaves the sum unchanged, as 2n + u and 2(-n - 1) + (2 - u)
    are opposite.  The terms |n| <= _GREEN_HEAD are each formed as
    (u' - u)(4n + u + u')/(r r' (r + r')), free of the cancellation of two
    nearly equal inverse distances, and summed; each side's rest is
    _paired_tail, whose first omitted correction is below 1e-18.  So a
    call costs 513 terms and two tails (about 17 us on a 2-core x86 box),
    and the sum is exactly 0 where u' folds onto u.  Against a 40-digit
    mpmath.nsum the
    error is at most 1.5e-17 at the three points of _GREEN_TRIPLES, and
    2e-16 at 20 random points with v in [0, 3].
    """
    u = 2.0 - u if u > 1.0 else u
    u_prime = 2.0 - u_prime if u_prime > 1.0 else u_prime
    delta = u_prime - u
    v2 = v * v
    r = np.sqrt((2.0 * _GREEN_N + u) ** 2 + v2)
    r_prime = np.sqrt((2.0 * _GREEN_N + u_prime) ** 2 + v2)
    # divided in turn: the product r r' (r + r') overflows from v ~ 1e102
    head = (4.0 * _GREEN_N + (u + u_prime)) / (r + r_prime) / r / r_prime
    return (delta * float(np.sum(head))
            + _paired_tail(_GREEN_EDGE + u, _GREEN_EDGE + u_prime, delta, v)
            + _paired_tail(_GREEN_EDGE - u, _GREEN_EDGE - u_prime, -delta,
                           v))


def check_green(u: float, u_prime: float, v: float) -> IdentityReport:
    """Two-plane Green's-function identity.

    The image sum (paired, since single terms diverge) against the
    difference-of-cosh-ratios integral.  The threshold is pinned
    (TOL_GREEN), the quadrature at the fixed panel-split budget.  The
    report fails at a v that the quadrature refuses, where x v overflows
    at its nodes or 1/x at its first (from v about 1.19e306); a non-finite
    argument, a u or u_prime outside (0, 2), between the mirrors, or with
    an image nearer than the kernels' floor (_check_image_distance), and a
    v < 0 are refused with a DomainError before any work.
    """
    u, u_prime, v = map(as_float, (u, u_prime, v))
    params = {"u": u, "u_prime": u_prime, "v": v}
    _check_domain(params)
    if not (0.0 < u < 2.0 and 0.0 < u_prime < 2.0):
        raise DomainError(f"want u and u_prime in (0, 2), got {params}")
    _check_image_distance(u, v)
    _check_image_distance(u_prime, v)
    eng = _engine(TOL_GREEN)
    return _rows(params, [("EQ36", TOL_GREEN)],
                 lambda: [(_paired_inverse_distance_sum(u, u_prime, v),
                           integrate_semi_infinite(
                               lambda x: _cosh_ratio_diff(x, u, u_prime)
                               * _bessel_j0_g(x * v)[0],
                               min(u, 2.0 - u, u_prime, 2.0 - u_prime),
                               eng, half_period=_bessel_half_period(v)))])[0]


def check_axial_and_aniso(rho_z_samples: Sequence[float],
                          L_samples: Sequence[float], cutoff: float, *,
                          decay_factor: float = 1e-2) -> list[IdentityReport]:
    """Axial rotation invariance and coincident-point anisotropy decay.

    Thresholds are pinned (TOL_AXIAL, TOL_CONTINUUM, TOL_DECAY); the
    quadratures run at the fixed panel-split budget.  A decay_factor not
    positive and finite, L_samples not strictly increasing, or a cutoff
    beyond the double range, are refused with a DomainError before any
    work; a cutoff that is not positive and finite fails both ANISO38 rows
    with one.
    """
    cutoff, decay_factor = as_float(cutoff), as_float(decay_factor)
    if not (0.0 < decay_factor < math.inf
            and all(a < b for a, b in zip(L_samples, L_samples[1:]))):
        raise DomainError("decay_factor must be positive and finite and "
                          "L_samples strictly increasing")
    eng = _engine(TOL_AXIAL)

    def axial(u):
        worst = 0.0
        for sign in ("plus", "minus"):
            m = _kernel_d_reference(sign, Separation(u, 0.0), eng).m
            worst = max(worst, abs(m[0, 2]), abs(m[2, 0]))
        return [(worst, 0.0)]

    reports = [r for u in rho_z_samples for r in _rows(
        {"u": u, "entry": "xz/zx"}, [("AXIAL20", TOL_AXIAL)], axial, u)]

    # continuum limit: anisotropy_delta's own summand, integrated over the
    # axial index n in [0, R] instead of summed, vanishes at any cutoff; in
    # t = n/R and over R^3, its scale, the integrand is of order 1 at any R,
    # but its terms reach about R^2, a normal float with room for twice it
    radius = cutoff / math.pi

    def continuum():
        # the summand reads only |cutoff|: a negative one must not pass
        if not 0.0 < cutoff < math.inf:
            raise DomainError("cutoff must be positive and finite")
        if not sys.float_info.min <= radius * radius <= sys.float_info.max / 2:
            raise DomainError(f"(cutoff/pi)^2 = {radius * radius!r} leaves "
                              f"the float range at cutoff = {cutoff!r}")
        return [(_quad_finite(
            lambda t: _anisotropy_summand(radius * t, radius) / radius ** 2,
            0.0, 1.0, eng), 0.0)]

    reports += _rows({"form": "continuum_angular_integral"},
                     [("ANISO38", TOL_CONTINUUM)], continuum)

    if len(L_samples) >= 2:
        params = {"form": "decay", "cutoff": cutoff,
                  "lengths": list(L_samples)}

        def decay():
            results = [anisotropy_delta(CavityFrame(L), cutoff)
                       for L in L_samples]
            normalized = [abs(r.delta) / r.isotropic_scale for r in results]
            ratios = [b / a for a, b in zip(normalized, normalized[1:])]
            # metric < 1 encodes: strictly decreasing AND final below
            # decay_factor times the first value
            metric = max(max(ratios),
                         (normalized[-1] / normalized[0]) / decay_factor)
            slope = float(np.polyfit(np.log(np.asarray(L_samples)),
                                     np.log(np.asarray(normalized)), 1)[0])
            # the fitted values join the report only once they exist
            params.update(normalized=normalized, loglog_slope=slope,
                          decay_factor=decay_factor)
            return [(metric, 0.0)]

        reports += _rows(params, [("ANISO38", TOL_DECAY)], decay)
    return reports


# ---------------------------------------------------------------------------
# aggregate runs
# ---------------------------------------------------------------------------

def random_separations(n: int, seed: int) -> list[Separation]:
    """Seeded kernel-domain samples: u in (0.05, 1.95), v in (0.05, 3)."""
    # one draw, row after row: the stream of three draws per sample
    draws = np.random.default_rng(seed).random((n, 3)).tolist()
    return [Separation(u=0.05 + 1.9 * a, v=0.05 + 2.95 * b,
                       phi=2.0 * math.pi * c) for a, b, c in draws]


# each suite's check calls on the acceptance grids, as a function of the
# seed; "all" runs them in this order
_SUITES: dict[str, Callable[[int], list]] = {
    "bessel": lambda seed: [r for u in _U_GRID for v in _V_GRID
                            for r in check_bessel_hyperbolic(u, v)],
    "cancellation": lambda seed: check_kernel_cancellation(
        random_separations(_N_RANDOM_SEPARATIONS, seed), _Z_OVER_L),
    "modesum": lambda seed: check_mode_sum(
        [ModeSumArgs(alpha=a, beta=b, m=m) for a in _MODESUM_ALPHAS
         for b in _MODESUM_BETAS for m in _MODESUM_ORDERS], _MODESUM_N_MAX),
    "lipschitz": lambda seed: [r for u in _LIPSCHITZ_U for v in _LIPSCHITZ_V
                               for r in check_lipschitz(u, v)],
    "green": lambda seed: [check_green(*t) for t in _GREEN_TRIPLES],
    "aniso": lambda seed: check_axial_and_aniso(_AXIAL_U, _ANISO_LENGTHS,
                                                _ANISO_CUTOFF),
}

SUITE_NAMES = ("all", *_SUITES)


def run_suite(suite: str, seed: int = 42) -> VerificationSummary:
    """Run one named check family, or 'all' of them, on the acceptance grids.

    The grids are the module constants: EQ22-EQ30 on _U_GRID x _V_GRID,
    EQ21 at _N_RANDOM_SEPARATIONS separations drawn from seed and
    SELF_CANCEL at _Z_OVER_L, EQ27 on _MODESUM_ALPHAS x _MODESUM_BETAS x
    _MODESUM_ORDERS at _MODESUM_N_MAX terms, EQ33/EQ34 on _LIPSCHITZ_U x
    _LIPSCHITZ_V, EQ36 at _GREEN_TRIPLES, AXIAL20 at _AXIAL_U and ANISO38
    at _ANISO_LENGTHS and _ANISO_CUTOFF.  Every quadrature runs at the
    fixed panel-split budget, and pass thresholds stay the pinned
    per-check TOL_* constants.  The summary passes iff every report does.
    A suite not in SUITE_NAMES, and a seed that is not an integer >= 0
    (numpy integers are integers), are refused with a DomainError before
    any work.
    """
    # the integers are the types operator.index accepts
    if not (hasattr(seed, "__index__") and operator.index(seed) >= 0):
        raise DomainError(f"seed {seed!r} is not an integer >= 0")
    if suite not in SUITE_NAMES:
        raise DomainError(f"unknown suite {suite!r}; choose from "
                          f"{SUITE_NAMES}")
    seed = operator.index(seed)
    reports = [r for name in (_SUITES if suite == "all" else (suite,))
               for r in _SUITES[name](seed)]
    return VerificationSummary(suite=suite, seed=seed, reports=reports,
                               all_pass=all(r.passed for r in reports))
