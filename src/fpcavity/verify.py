"""Identity verification suite.

Every analytic claim the kernels rest on is checked by computing both sides
through independent code paths: quadratures of hyperbolic Bessel integrands
on one side, the image-lattice moments S3 = sum rho^-3, S5 = sum rho^-5 and
T5 = sum a rho^-5 on the other (xi = S3, with the exact derivatives
v d/dv xi = -3 v^2 S5 and v d/du xi = -3 v T5).  Reports carry both error
measures and the pass threshold that was applied; a numerical failure in
any check becomes a failed report rather than aborting the run.  An
aggregate run is deterministic given its seed.

Pass thresholds are pinned: each check reads its TOL_* constant and no
argument moves it.  max_subdivisions, the quadratures' panel-split budget,
caps only effort; a budget that runs out gives a failed report.

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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coulomb import Separation, kernel_e
from .errors import ConvergenceError, DomainError
from .geometry import CavityFrame
from .radiation import (_anisotropy_summand, _axial_radius,
                        _hyperbolic_weights, _kernel_d_reference,
                        anisotropy_delta)
from .specfun import (DEFAULT_TOL, ModeSumArgs, Tolerance,
                      _bessel_half_period, _bessel_j0_j1_sum, _jv,
                      _lattice_moments, _quad_finite, _truncation,
                      direct_mode_sum, hyperbolic_mode_sum,
                      integrate_semi_infinite, xi)

__all__ = [
    "IdentityReport",
    "VerifyConfig",
    "VerificationSummary",
    "check_bessel_hyperbolic",
    "check_kernel_cancellation",
    "check_mode_sum",
    "check_lipschitz",
    "check_green",
    "check_axial_and_aniso",
    "run_all",
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
    warnings: list


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
# default panel-split budget of every quadrature of the suite
_BUDGET = DEFAULT_TOL.max_subdivisions


@dataclass(frozen=True)
class VerifyConfig:
    """Grids, seed and panel-split budget of the aggregate run.

    Defaults reproduce the acceptance configuration; all randomized inputs
    derive from the seed, an integer >= 0.  max_subdivisions, an integer
    >= 1, caps only effort: pass thresholds are the pinned TOL_* constants.
    Every grid is checked against the domain of the check that reads it
    when the config is built, so a bad entry is a DomainError naming its
    field rather than an abort halfway through a run: u values in (0, 2)
    (lipschitz_u only positive and finite), z/L in (0, 1), transverse v
    finite and >= 0, mode-sum entries as ModeSumArgs takes them, and
    aniso_lengths and aniso_cutoff as anisotropy_delta does.  A v of
    v_grid, lipschitz_v or green_triples is also refused where the
    quadrature's Bessel argument x v would overflow for the u it is paired
    with, by the quadrature's own guard.
    """

    seed: int = 42
    max_subdivisions: int = _BUDGET
    u_grid: tuple = tuple(round(0.1 + 0.2 * i, 1) for i in range(10))
    v_grid: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)
    n_random_separations: int = 20
    z_over_L: tuple = tuple(round(0.1 * i, 1) for i in range(1, 10))
    modesum_alphas: tuple = (0.0, 0.5, math.pi)
    modesum_betas: tuple = (0.3, 1.0, 3.0)
    modesum_orders: tuple = (0, 1)
    modesum_n_max: int = 10 ** 6
    lipschitz_u: tuple = (1.0, 2.0)
    lipschitz_v: tuple = (0.0, 1.0, 3.0)
    green_triples: tuple = ((0.5, 1.0, 1.0), (0.3, 1.7, 0.5), (1.2, 0.8, 2.0))
    axial_u: tuple = (0.3, 0.7, 1.0, 1.5)
    aniso_lengths: tuple = (1.0, 2.0, 4.0, 8.0)
    aniso_cutoff: float = math.pi

    def __post_init__(self):
        for name, least in (("seed", 0), ("max_subdivisions", 1),
                            ("n_random_separations", 0),
                            ("modesum_n_max", 1)):
            value = getattr(self, name)
            # the integers are the types operator.index accepts
            if not (hasattr(value, "__index__")
                    and operator.index(value) >= least):
                raise DomainError(f"{name} must be an integer >= {least}, "
                                  f"got {value!r}")

        def in_cavity(u):
            return 0.0 < u < 2.0

        def transverse(v):
            return 0.0 <= v < math.inf

        for name, inside, domain in (
                ("u_grid", in_cavity, "0 < u < 2"),
                ("v_grid", transverse, "0 <= v < inf"),
                ("z_over_L", lambda z: 0.0 < z < 1.0, "0 < z/L < 1"),
                ("lipschitz_u", lambda u: 0.0 < u < math.inf, "0 < u < inf"),
                ("lipschitz_v", transverse, "0 <= v < inf"),
                ("green_triples", lambda t: (in_cavity(t[0])
                                             and in_cavity(t[1])
                                             and transverse(t[2])),
                 "(u, u', v) with 0 < u, u' < 2 and 0 <= v < inf"),
                ("axial_u", in_cavity, "0 < u < 2")):
            for value in getattr(self, name):
                if not inside(value):
                    raise DomainError(f"{name} entries must satisfy "
                                      f"{domain}, got {value!r}")
        for name, make in (("modesum_alphas", lambda a: ModeSumArgs(a, 1.0, 0)),
                           ("modesum_betas", lambda b: ModeSumArgs(0.0, b, 0)),
                           ("modesum_orders",
                            lambda m: ModeSumArgs(0.0, 1.0, m))):
            for value in getattr(self, name):
                try:
                    make(value)
                except DomainError as exc:
                    raise DomainError(f"{name}: {exc}") from None
        for length in self.aniso_lengths:
            _axial_radius(CavityFrame(length), self.aniso_cutoff)
        for name, tol, rate, v in (
                [("v_grid", TOL_EQ22, min(u, 2.0 - u), v)
                 for u in self.u_grid for v in self.v_grid]
                + [("lipschitz_v", TOL_LIPSCHITZ, u, v)
                   for u in self.lipschitz_u for v in self.lipschitz_v]
                + [("green_triples", TOL_GREEN,
                    min(u, 2.0 - u, up, 2.0 - up), v)
                   for u, up, v in self.green_triples]):
            try:
                _truncation(rate, _engine(tol, self.max_subdivisions),
                            _bessel_half_period(v))
            except DomainError as exc:
                raise DomainError(f"{name}: {exc}") from None


def _engine(tol: Tolerance, max_subdivisions: int) -> Tolerance:
    """Internal computation tolerance: an order below the pass threshold
    tol, floored so engine work stays reasonable."""
    return Tolerance(abs_tol=max(1e-12, 1e-2 * tol.abs_tol),
                     rel_tol=max(1e-11, 1e-2 * tol.rel_tol),
                     max_subdivisions=max_subdivisions)


def _flat(side) -> list[float]:
    """A report side, a number, a pair or a 3x3 array, as a flat list of
    floats."""
    if isinstance(side, np.ndarray):
        return side.ravel().tolist()
    if isinstance(side, (list, tuple)):
        return [float(x) for x in side]
    return [float(side)]


def _largest(values: list[float]) -> float:
    # nan if any value is nan, as numpy's max gives
    return math.nan if any(map(math.isnan, values)) else max(values)


def _errors(lhs, rhs, scale=None) -> tuple[float, float]:
    """The largest entrywise |lhs - rhs| of two sides of the same shape, and
    that over scale, by default the largest |entry| of either side."""
    la, ra = _flat(lhs), _flat(rhs)
    abs_err = _largest([abs(a - b) for a, b in zip(la, ra, strict=True)])
    denom = scale if scale is not None else max(
        _largest([abs(a) for a in la]), _largest([abs(b) for b in ra]))
    if denom > 0:
        rel_err = abs_err / denom
    else:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    return abs_err, rel_err


def _serializable(side):
    if isinstance(side, np.ndarray) and side.ndim:
        return side.tolist()
    if isinstance(side, (list, tuple)):
        return [float(x) for x in side]
    return float(side)


def _report(check_id: str, params: dict, lhs, rhs, tol: Tolerance,
            scale=None) -> IdentityReport:
    abs_err, rel_err = _errors(lhs, rhs, scale)
    passed = abs_err <= tol.abs_tol or rel_err <= tol.rel_tol
    return IdentityReport(check_id=check_id, params=params,
                          lhs=_serializable(lhs), rhs=_serializable(rhs),
                          abs_err=abs_err, rel_err=rel_err, passed=passed,
                          tol_used=tol)


def _failed_report(check_id: str, params: dict, tol: Tolerance,
                   exc: Exception) -> IdentityReport:
    params = dict(params, error=f"{type(exc).__name__}: {exc}")
    return IdentityReport(check_id=check_id, params=params, lhs=None,
                          rhs=None, abs_err=math.inf, rel_err=math.inf,
                          passed=False, tol_used=tol)


def _checked(check_id: str, params: dict, tol: Tolerance,
             sides: Callable, *args) -> IdentityReport:
    """Report check_id on sides(*args) -> (lhs, rhs) or (lhs, rhs, scale).

    The one failure path of the suite: a ConvergenceError or DomainError
    raised while computing the sides becomes a failed report, so a
    numerical failure, such as a quadrature that runs out of panel splits
    or whose Bessel argument overflows, never aborts a verification run.
    """
    try:
        lhs, rhs, *scale = sides(*args)
    except (ConvergenceError, DomainError) as exc:
        return _failed_report(check_id, params, tol, exc)
    return _report(check_id, dict(params), lhs, rhs, tol, *scale)


def _cosh_ratio_diff(x, u, u_prime):
    # [cosh(x a) - cosh(x b)]/sinh(x) with a = u-1, b = u'-1, through
    # cosh(xa) - cosh(xb) = 2 sinh(x(a+b)/2) sinh(x(a-b)/2).  With a >= b
    # (the ratio is odd under the swap) and s = a + b, that is
    # e^{x(a-1)} expm1(-x(a-b)) expm1(-x s) for s >= 0 and
    # -e^{-x(b+1)} expm1(-x(a-b)) expm1(x s) for s < 0 (the numerator over
    # e^x, as the denominator -expm1(-2x) is): every exponent is at most 0,
    # so nothing overflows at large x, and expm1 does the cancellations at
    # u' near u and near 2 - u analytically.
    a, b = u - 1.0, u_prime - 1.0
    sign = 1.0
    if a < b:
        a, b, sign = b, a, -1.0
    s = a + b
    if s >= 0.0:
        num = np.exp(x * (a - 1.0)) * np.expm1(-x * s)
    else:
        num = -np.exp(-x * (b + 1.0)) * np.expm1(x * s)
    return sign * num * np.expm1(-x * (a - b)) / (-np.expm1(-2.0 * x))


def check_bessel_hyperbolic(u: float, v: float, *,
                            max_subdivisions: int = _BUDGET
                            ) -> list[IdentityReport]:
    """Check the four hyperbolic-integral identities at one (u, v).

    The integral sides are the four rows of one quadrature pass, so J0, J1
    and the hyperbolic ratios are evaluated once per node; J2 enters only
    through the identity J0 + J2 = 2 J1(xv)/(xv), and J0 - J2 is
    2 J0 - (J0 + J2).  The lattice sides go through the lattice moments,
    xi = S3 with the exact derivatives v d/dv xi = -3 v^2 S5 and
    v d/du xi = -3 v T5, so the two routes share no code.  Thresholds are
    pinned, TOL_DERIV (100x looser relative) for the two derivative
    identities and TOL_EQ22 for the others; every row meets the engine
    tolerance of TOL_EQ22, and max_subdivisions caps only the quadrature
    effort.  A quadrature that
    runs out of panel splits fails all four rows, and so does a v at which
    the Bessel argument x v overflows at the quadrature's nodes.
    """
    eng = _engine(TOL_EQ22, max_subdivisions)
    params = {"u": u, "v": v}
    # xi by its module-level name, which lets a test substitute a shifted xi
    # (as for SELF_CANCEL); the derivative sides take v^2 S5 and v T5
    # directly
    s3 = xi(u, v)
    _, v2s5, vt5 = _lattice_moments(u, v)

    def rows(x):
        j0, j1, j02 = _bessel_j0_j1_sum(x * v)
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

    try:
        lhs = integrate_semi_infinite(rows, min(u, 2.0 - u), eng,
                                      half_period=_bessel_half_period(v))
    except (ConvergenceError, DomainError) as exc:
        lhs = exc

    def sides(row, rhs):
        if isinstance(lhs, Exception):
            raise lhs
        return lhs[row], rhs

    return [
        _checked("EQ22", params, TOL_EQ22, sides, 0, v * s3),
        _checked("EQ29_PLUS", params, TOL_EQ22, sides, 1, 2.0 * s3),
        # (2 + 2 v d/dv) xi
        _checked("EQ29_MINUS", params, TOL_DERIV, sides, 2,
                 2.0 * s3 - 6.0 * v2s5),
        # v d/du xi
        _checked("EQ30", params, TOL_DERIV, sides, 3, -3.0 * vt5),
    ]


# ---------------------------------------------------------------------------
# kernel cancellation
# ---------------------------------------------------------------------------

def check_kernel_cancellation(sep_samples: Sequence[Separation],
                              z_samples: Sequence[float], *,
                              max_subdivisions: int = _BUDGET,
                              kernel_e_fn: Callable = kernel_e,
                              kernel_d_fn: Callable = _kernel_d_reference
                              ) -> list[IdentityReport]:
    """Coulomb / quadratic kernel cancellation, pairwise and single-dipole.

    EQ21: for each separation, E+ must equal -(1/2 pi) D+ entrywise, with
    the residual normalized by the largest E+ entry.  SELF_CANCEL: for each
    z/L, the xi part of the self-energy matrix (weight 1/8 pi) must cancel
    the quadratic single-dipole term (weight 1/16 pi^2).  Thresholds are
    pinned (TOL_EQ21, TOL_SELF); max_subdivisions caps only D+'s effort.
    kernel_e_fn is called as (sign, sep) and kernel_d_fn as (sign, sep, tol).

    D+ comes by default from the unsplit hyperbolic integrand, not from
    kernel_d: kernel_d adds the nearest image pair back in closed form, and
    those closed forms are the lattice's n = 0 and n = -1 terms, so EQ21 on
    it would partly compare the lattice with itself.  The kernel callables
    are injectable so corrupted kernels can be used to demonstrate the
    checks actually bite.
    """
    eng = _engine(TOL_EQ21, max_subdivisions)
    eng_self = _engine(TOL_SELF, max_subdivisions)

    def eq21(sep):
        e_mat = kernel_e_fn("plus", sep).m
        d_mat = kernel_d_fn("plus", sep, eng).m
        return e_mat, -d_mat / (2.0 * math.pi), float(np.max(np.abs(e_mat)))

    def self_cancel(z):
        xi_part = (xi(2.0 * z, 0.0) / (8.0 * math.pi)
                   * np.diag([-1.0, -1.0, -2.0]))
        quad_part = kernel_d_fn("minus", Separation(2.0 * z, 0.0),
                                eng_self).m / (16.0 * math.pi ** 2)
        return xi_part, -quad_part, float(np.max(np.abs(xi_part)))

    reports = [_checked("EQ21", {"u": sep.u, "v": sep.v, "phi": sep.phi},
                        TOL_EQ21, eq21, sep) for sep in sep_samples]
    reports += [_checked("SELF_CANCEL", {"z_over_L": z}, TOL_SELF,
                         self_cancel, z) for z in z_samples]
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
        return [direct.real, direct.imag], [closed.real, closed.imag]

    return [_checked("EQ27", {"alpha": args.alpha, "beta": args.beta,
                              "m": args.m, "n_max": n_max}, TOL_MODESUM,
                     sides, args) for args in grid]


def check_lipschitz(u: float, v: float, *,
                    max_subdivisions: int = _BUDGET) -> list[IdentityReport]:
    """Laplace-Bessel integrals against their closed inverse-distance forms.

    The integrands decay only like e^{-xu}.  Where J(xv) oscillates many
    times before that decay the quadrature takes its oscillatory-tail mode,
    so the cost does not grow with the number of oscillations: at u = 1e-4
    or 1e-3 both identities hold in a few ms.  The threshold is pinned
    (TOL_LIPSCHITZ); max_subdivisions caps only the quadrature effort.
    """
    eng = _engine(TOL_LIPSCHITZ, max_subdivisions)
    half_period = _bessel_half_period(v)
    params = {"u": u, "v": v}

    def quad(f):
        return integrate_semi_infinite(f, u, eng, half_period=half_period)

    return [
        _checked("EQ33", params, TOL_LIPSCHITZ, lambda: (
            quad(lambda x: np.exp(-x * u) * _jv(0, x * v)),
            (u * u + v * v) ** -0.5)),
        _checked("EQ34", params, TOL_LIPSCHITZ, lambda: (
            quad(lambda x: x * np.exp(-x * u) * _jv(1, x * v)),
            v * (u * u + v * v) ** -1.5)),
    ]


def _paired_inverse_distance_sum(u: float, u_prime: float, v: float,
                                 n_terms: int = 20000) -> float:
    """sum_n [((2n+u)^2+v^2)^(-1/2) - ((2n+u')^2+v^2)^(-1/2)], paired terms.

    Each term alone diverges logarithmically; the difference decays like
    n^(-2).  The tail beyond |n| <= n_terms is added in closed form (the
    midpoint-rule integral of the difference has an elementary
    antiderivative); its error is O(n_terms^-3).
    """
    n = np.arange(-n_terms, n_terms + 1, dtype=float)
    a, b = 2.0 * n + u, 2.0 * n + u_prime
    total = float(np.sum((a * a + v * v) ** -0.5 - (b * b + v * v) ** -0.5))

    def tail(x, xp):
        r = math.hypot(x, v)
        rp = math.hypot(xp, v)
        return 0.5 * math.log((xp + rp) / (x + r))

    edge = 2.0 * (n_terms + 0.5)
    total += tail(edge + u, edge + u_prime)    # n -> +inf side
    total += tail(edge - u, edge - u_prime)    # n -> -inf side
    return total


def check_green(u: float, u_prime: float, v: float, *,
                max_subdivisions: int = _BUDGET) -> IdentityReport:
    """Two-plane Green's-function identity.

    The image sum (paired, since single terms diverge) against the
    difference-of-cosh-ratios integral.  The threshold is pinned
    (TOL_GREEN); max_subdivisions caps only the quadrature effort.  The
    report fails at a v where the Bessel argument x v overflows at the
    quadrature's nodes.
    """
    eng = _engine(TOL_GREEN, max_subdivisions)
    return _checked("EQ36", {"u": u, "u_prime": u_prime, "v": v}, TOL_GREEN,
                    lambda: (_paired_inverse_distance_sum(u, u_prime, v),
                             integrate_semi_infinite(
                                 lambda x: _cosh_ratio_diff(x, u, u_prime)
                                 * _jv(0, x * v),
                                 min(u, 2.0 - u, u_prime, 2.0 - u_prime),
                                 eng, half_period=_bessel_half_period(v))))


def check_axial_and_aniso(rho_z_samples: Sequence[float],
                          L_samples: Sequence[float], cutoff: float, *,
                          max_subdivisions: int = _BUDGET,
                          decay_factor: float = 1e-2) -> list[IdentityReport]:
    """Axial rotation invariance and coincident-point anisotropy decay.

    Thresholds are pinned (TOL_AXIAL, TOL_CONTINUUM, TOL_DECAY);
    max_subdivisions caps only the quadrature effort.
    """
    eng = _engine(TOL_AXIAL, max_subdivisions)

    def axial(u):
        worst = 0.0
        for sign in ("plus", "minus"):
            m = _kernel_d_reference(sign, Separation(u, 0.0), eng).m
            worst = max(worst, abs(m[0, 2]), abs(m[2, 0]))
        return worst, 0.0

    reports = [_checked("AXIAL20", {"u": u, "entry": "xz/zx"}, TOL_AXIAL,
                        axial, u) for u in rho_z_samples]

    # continuum limit: anisotropy_delta's own summand, integrated over the
    # axial index n in [0, R] instead of summed, vanishes at any cutoff; in
    # t = n/R and over R^3, its scale, the integrand is of order 1 at any R
    radius = cutoff / math.pi
    reports.append(_checked(
        "ANISO38", {"form": "continuum_angular_integral"}, TOL_CONTINUUM,
        lambda: (_quad_finite(
            lambda t: _anisotropy_summand(radius * t, radius) / radius ** 2,
            0.0, 1.0, eng), 0.0)))

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
            return metric, 0.0

        reports.append(_checked("ANISO38", params, TOL_DECAY, decay))
    return reports


# ---------------------------------------------------------------------------
# aggregate runs
# ---------------------------------------------------------------------------

SUITE_NAMES = ("all", "bessel", "cancellation", "modesum", "lipschitz",
               "green", "aniso")


def random_separations(n: int, seed: int) -> list[Separation]:
    """Seeded kernel-domain samples: u in (0.05, 1.95), v in (0.05, 3)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(Separation(u=0.05 + 1.9 * rng.random(),
                              v=0.05 + 2.95 * rng.random(),
                              phi=2.0 * math.pi * rng.random()))
    return out


def run_suite(suite: str,
              config: VerifyConfig | None = None) -> VerificationSummary:
    """Run one named check family (or 'all') on the configured grids.

    The configuration's max_subdivisions caps every quadrature's effort;
    pass thresholds stay the pinned per-check TOL_* constants.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    cfg = config if config is not None else VerifyConfig()
    reports: list[IdentityReport] = []
    warnings: list[str] = []
    budget = cfg.max_subdivisions

    def note_empty(name, items):
        if len(items) == 0:
            warnings.append(f"no coverage: empty grid for {name}")
        return items

    if suite in ("all", "bessel"):
        for u in note_empty("bessel u_grid", cfg.u_grid):
            for v in cfg.v_grid:
                reports.extend(check_bessel_hyperbolic(
                    u, v, max_subdivisions=budget))
        if len(cfg.v_grid) == 0:
            warnings.append("no coverage: empty grid for bessel v_grid")
    if suite in ("all", "cancellation"):
        seps = random_separations(cfg.n_random_separations, cfg.seed)
        note_empty("cancellation separations", seps)
        note_empty("cancellation z grid", cfg.z_over_L)
        reports.extend(check_kernel_cancellation(
            seps, cfg.z_over_L, max_subdivisions=budget))
    if suite in ("all", "modesum"):
        grid = [ModeSumArgs(alpha=a, beta=b, m=m)
                for a in cfg.modesum_alphas
                for b in cfg.modesum_betas
                for m in cfg.modesum_orders]
        note_empty("mode-sum grid", grid)
        reports.extend(check_mode_sum(grid, cfg.modesum_n_max))
    if suite in ("all", "lipschitz"):
        pairs = [(u, v) for u in cfg.lipschitz_u for v in cfg.lipschitz_v]
        note_empty("Laplace-Bessel grid", pairs)
        for u, v in pairs:
            reports.extend(check_lipschitz(u, v, max_subdivisions=budget))
    if suite in ("all", "green"):
        for u, up, v in note_empty("Green triples", cfg.green_triples):
            reports.append(check_green(u, up, v, max_subdivisions=budget))
    if suite in ("all", "aniso"):
        note_empty("axial grid", cfg.axial_u)
        note_empty("anisotropy length grid", cfg.aniso_lengths)
        if len(cfg.axial_u) > 0 or len(cfg.aniso_lengths) > 0:
            reports.extend(check_axial_and_aniso(
                cfg.axial_u, cfg.aniso_lengths, cfg.aniso_cutoff,
                max_subdivisions=budget))
    if len(reports) == 0:
        warnings.append("no coverage: suite produced zero reports")
    return VerificationSummary(suite=suite, seed=cfg.seed, reports=reports,
                               all_pass=all(r.passed for r in reports),
                               warnings=warnings)


def run_all(config: VerifyConfig | None = None) -> VerificationSummary:
    """Run every check family; aggregate passes iff every report passes."""
    return run_suite("all", config)
