"""Displacement-field (gauge-transformation) interaction kernels.

The quadratic kernels D+ and D- = D+ . R are the radiation-side
counterparts of the Coulomb kernels: for every separation,
E+ = -(1/2 pi) D+ entrywise in L = 1 units, which is the cancellation this
package exists to verify.

Two representations are implemented.  The production path integrates the
hyperbolic summed form

    D+(u, v) = pi * int_0^inf dx x^2/sinh(x) *
        [[ (-J0 + J2)(xv) ch,        0,          -2 J1(xv) sh ],
         [ 0,             (-J0 - J2)(xv) ch,                0 ],
         [ -2 J1(xv) sh,              0,          2 J0(xv) ch ]]

with ch = cosh(x(u-1)), sh = sinh(x(u-1)), the hyperbolic ratios folded
into stable non-positive exponentials.  The four distinct entries xx, yy,
zz and xz are integrated together, as the four rows of one vector-valued
adaptive pass, so J0, J1 and the ratios are evaluated once per node and
each entry still meets the tolerance on its own.  Every route takes J0
and g = J1(xv)/(xv) from one Bessel call and forms the rest from them:
J1 = xv g, J0 + J2 = 2 g and J0 - J2 = 2 (J0 - g).

As it stands the integrand decays only like exp(-x min(u, 2-u)), so near
a mirror J(xv) oscillates many times before it is damped.  kernel_d
therefore splits off the nearest image pair: with
ch/sinh(x) = sum_{n>=0} [e^{-x(2n+u)} + e^{-x(2n+2-u)}] and sh/sinh(x) the
same with e^{-x(2n+2-u)} - e^{-x(2n+u)},

    ch/sinh(x) - (e^{-xu} + e^{-x(2-u)}) = e^{-2x} ch/sinh(x),

and likewise for sh.  The pair's transforms int x^2 e^{-xa} J_n(xv) are
elementary (_laplace_bessel_x2) and are added back in closed form, while
the adaptive pass integrates the remainder, which decays at rate
2 + min(u, 2-u) for every u in (0, 2).

Those closed forms are, analytically, the n = 0 and n = -1 terms of the
image lattice that E+ sums, so checking E+ = -(1/2 pi) D+ on the split
route would partly compare the lattice with itself.  The unsplit integrand
therefore stays as the reference route (_kernel_d_reference) that the
verification suite uses for EQ21, SELF_CANCEL and AXIAL20; it never calls
the lattice code.  Both routes build their rows with one helper (_d_rows)
from the two hyperbolic weights, which one helper (_hyperbolic_weights)
computes together; the difference of two cosh ratios that the
verification suite integrates for EQ36 (_cosh_ratio_diff) is formed here
too.

Both pass the half-period pi/v of J(xv) to integrate_semi_infinite, which
sums half-period panels and extrapolates them past 50 half-periods before
its truncation point.  So the reference converges down to u = 1e-3 in a
few ms, and a kernel_d call takes 1.7-2.0 ms at v = 30 and 0.65-1.1 ms at
v = 1e3-1e4 on a 2-core x86 box; at v <= 3 it takes the plain pass.

The spectral route, kernel_d_spectral, sums the cavity's axial modes
exactly at each transverse node with modesum's direct mode sums in place
of the hyperbolic weights, in one adaptive pass like the others.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_float
from .geometry import (CavityFrame, KernelMatrix, Separation,
                       _check_image_distance, _frame_kernel,
                       _kernel_from_base, _rotate)
from .modesum import _direct_sums
from .specfun import (DEFAULT_TOL, Tolerance, _bessel_half_period,
                      _bessel_j0_g, integrate_semi_infinite)

__all__ = [
    "AnisotropyResult",
    "kernel_d",
    "kernel_d_spectral",
    "quadratic_self_term",
    "anisotropy_delta",
]

D_PLUS = "D_PLUS"
D_MINUS = "D_MINUS"


@dataclass(frozen=True)
class AnisotropyResult:
    """xx - zz anisotropy of the coincident-point quadratic kernel.

    delta is the anisotropy under a sharp cutoff on the wave-vector modulus;
    isotropic_scale is the cutoff-dominated diagonal magnitude (~ cutoff^3)
    used to normalize it.  The isotropic part itself is divergent and never
    reported.
    """

    delta: float
    cavity_length: float
    cutoff: float
    isotropic_scale: float


def _hyperbolic_weights(x: np.ndarray, u: float):
    """cosh(x(u-1))/sinh(x) and sinh(x(u-1))/sinh(x) at the nodes x.

    Both are (e^{x(u-2)} +- e^{-xu}) / (1 - e^{-2x}), with the three
    exponentials taken once for the pair; all exponents are <= 0 for
    0 < u < 2, so neither weight overflows at large x.  Near 0 the cosh
    weight goes like 1/x, finite at every node the quadrature accepts
    (specfun._truncation).
    """
    far = np.exp(x * (u - 2.0))
    near = np.exp(-x * u)
    den = -np.expm1(-2.0 * x)
    return (far + near) / den, (far - near) / den


def _cosh_ratio_diff(x: np.ndarray, u: float, u_prime: float):
    """[cosh(x a) - cosh(x b)]/sinh(x) at the nodes x, a = u-1, b = u'-1:
    the weight of the Green's-function integral of EQ36.

    Through cosh(xa) - cosh(xb) = 2 sinh(x(a+b)/2) sinh(x(a-b)/2).  With
    hi >= lo the larger and the smaller of u, u' (the ratio is odd under the
    swap) and s = a + b, that is e^{x(hi-2)} expm1(-x s) expm1(-x(hi-lo))
    for s >= 0 and -e^{-x lo} expm1(x s) expm1(-x(hi-lo)) for s < 0 (over
    e^x, as the denominator -expm1(-2x) is): every exponent is at most 0, so
    nothing overflows at large x, expm1 does the cancellations at u' near u
    and near 2 - u, and an argument next to a mirror keeps its digits.
    """
    hi, lo, sign = u, u_prime, 1.0
    if hi < lo:
        hi, lo, sign = lo, hi, -1.0
    s = (hi - 1.0) + (lo - 1.0)
    if s >= 0.0:
        num = np.exp(x * (hi - 2.0)) * np.expm1(-x * s)
    else:
        num = -np.exp(-x * lo) * np.expm1(x * s)
    return sign * num * np.expm1(-x * (hi - lo)) / (-np.expm1(-2.0 * x))


def _check_d_domain(sep: Separation):
    # excludes the coincident-point origin too, where the kernel is
    # ill-defined (only its anisotropy has meaning, see anisotropy_delta)
    if not (0.0 < sep.u < 2.0):
        raise DomainError(
            "quadratic kernel requires 0 < u < 2 (hyperbolic integrand "
            "converges only there)")
    _check_image_distance(sep.u, sep.v)


def _d_rows(x: np.ndarray, v: float, ch: np.ndarray,
            sh: np.ndarray) -> np.ndarray:
    """The rows xx, yy, zz and xz of the D+ integrand (without the factor
    pi) at the nodes x, given the cosh weight ch and the sinh weight sh.

    One Bessel call gives J0 and g = J1(xv)/(xv); J2 enters only through
    J0 + J2 = 2 g, so xx carries J2 - J0 = 2 (g - J0) and yy -(J0 + J2).
    """
    xv = x * v
    # at v = 0 every node has J0 = 1 and g = 1/2, the Bessel source's own
    # values at 0, so the Horner pass is skipped
    j0, g = (1.0, 0.5) if v == 0.0 else _bessel_j0_g(xv)
    # c = 2 x^2 ch, then -2 x^2 ch, and s = -2 x^2 sh: every row is one
    # product with them, in place
    x2 = x * x
    c = x2 * ch
    c += c
    s = x2 * sh
    s *= -2.0
    rows = np.empty((4, len(x)))
    np.subtract(g, j0, out=rows[0])
    rows[0] *= c
    np.multiply(c, j0, out=rows[2])
    c *= -1.0
    np.multiply(c, g, out=rows[1])
    np.multiply(xv, g, out=rows[3])
    rows[3] *= s
    return rows


def _laplace_bessel_x2(a: float, v: float) -> tuple[float, float, float]:
    """int_0^inf x^2 e^{-xa} J_n(xv) dx for n = 0, 1, 2, in closed form, at
    a > 0.

    With r^2 = a^2 + v^2 they are (2a^2 - v^2)/r^5, 3av/r^5 and 3v^2/r^5:
    the a-derivatives of the Laplace-Bessel forms EQ33/EQ34.  They are
    formed from r = hypot(a, v), c = a/r and s = v/r as (2c^2 - s^2)/r^3,
    3cs/r^3 and 3s^2/r^3, which neither overflows nor gives inf * 0 at
    any finite v.
    """
    r = math.hypot(a, v)
    c, s = a / r, v / r
    q = 1.0 / r
    inv3 = q * q * q
    return (2.0 * c * c - s * s) * inv3, 3.0 * c * s * inv3, 3.0 * s * s * inv3


def _nearest_pair_rows(u: float, v: float) -> np.ndarray:
    """The rows of the n = 0 image pair, e^{-xu} and e^{-x(2-u)}, in closed
    form.

    Both exponentials enter the cosh weight with a plus sign; the sinh
    weight carries e^{-x(2-u)} - e^{-xu}.
    """
    rows = (0.0, 0.0, 0.0, 0.0)
    for a, sinh_sign in ((u, -1.0), (2.0 - u, 1.0)):
        i0, i1, i2 = _laplace_bessel_x2(a, v)
        rows = [r + t for r, t in zip(
            rows, (i2 - i0, -(i0 + i2), 2.0 * i0, -2.0 * sinh_sign * i1))]
    return np.array(rows)


def _d_matrix(rows) -> np.ndarray:
    return math.pi * _frame_kernel(*rows)


def _d_plus_base(u: float, v: float, tol: Tolerance) -> np.ndarray:
    """D+ entries in the frame with the transverse separation along x.

    The nearest image pair in closed form plus one adaptive pass over the
    remainder, whose weights carry an extra e^{-2x} (see the module
    docstring); at v = 0 the xz row is exactly 0.
    """
    def remainder(x):
        damp = np.exp(-2.0 * x)
        ch, sh = _hyperbolic_weights(x, u)
        return _d_rows(x, v, damp * ch, damp * sh)

    rows = integrate_semi_infinite(remainder, 2.0 + min(u, 2.0 - u), tol,
                                   half_period=_bessel_half_period(v))
    return _d_matrix(rows + _nearest_pair_rows(u, v))


def _d_plus_reference(u: float, v: float, tol: Tolerance) -> np.ndarray:
    """D+ entries from the unsplit integrand, the route verify checks EQ21
    against: it shares no closed form with the image lattice."""
    def rows(x):
        return _d_rows(x, v, *_hyperbolic_weights(x, u))

    return _d_matrix(integrate_semi_infinite(
        rows, min(u, 2.0 - u), tol, half_period=_bessel_half_period(v)))


def kernel_d(sign: str, sep: Separation, tol: Tolerance = DEFAULT_TOL) -> KernelMatrix:
    """Quadratic displacement-field kernel D+ (or D- = D+ . R) in L = 1 units.

    Evaluated with the transverse separation along x and conjugated by the
    rotation through sep.phi.  Requires 0 < u < 2 and the nearest image,
    at hypot(min(u, 2 - u), v), no nearer than 1e-100, where the entries
    would overflow.  Asking for the other sign at the same separation and
    tolerance right after reuses the last quadrature.
    """
    return _kernel_from_base(_d_plus_base, (D_PLUS, D_MINUS), _check_d_domain,
                             sign, sep, tol)


def _kernel_d_reference(sign: str, sep: Separation,
                        tol: Tolerance = DEFAULT_TOL) -> KernelMatrix:
    """kernel_d by the unsplit integrand: the independent route of verify.

    The integrand decays like exp(-x min(u, 2-u)); the oscillatory-tail
    mode keeps it to a few ms down to u = 1e-3 (or 1.999), where it is
    within about 1e-12 of kernel_d relative to the largest entry.  Its
    accuracy there is bounded by the rounding of the large, oscillating
    tail panels: a tolerance asking for more, for a small entry next to a
    mirror, raises ConvergenceError.  Asking for the other sign at the
    same separation and tolerance right after reuses the last quadrature
    of this route, never one of kernel_d.
    """
    return _kernel_from_base(_d_plus_reference, (D_PLUS, D_MINUS),
                             _check_d_domain, sign, sep, tol)


def kernel_d_spectral(sep: Separation) -> KernelMatrix:
    """D+ from the cavity's axial modes, summed exactly.

    At each transverse node x the axial sum of the spectral integrand is
    EQ27's mode sum at alpha = pi u, beta = x/pi (the divergent remainder
    sum_n cos(pi n u) vanishes for 0 < u < 2): the cosh weight is
    x S0/pi^2 = 1/x + 2x Re P0/pi^2 and the sinh weight
    -Im S1/pi = -2 Im P1/pi, S_m = sum_{n in Z} e^{i alpha n} n^m/(n^2 +
    beta^2) and P_m its one-sided sum over n >= 1, each summed term by
    term with its Euler tail (modesum._direct_sums), never from a closed
    form.  The n = 0 mode's term is 1/x, finite at every node the
    quadrature accepts, where pi^2/x^2 would overflow at the first nodes
    of a v above about 1e154 (x near 1e-2/v); the quadrature refuses a v
    above about 1.19e306, where 1/x would overflow at its first node.  One
    pass of integrate_semi_infinite at DEFAULT_TOL then meets
    _kernel_d_reference within about 1e-12 of the largest entry, in 2 to
    16 ms at u in [0.05, 1.95] and v <= 4 (2-core x86 box).  The axial
    head grows like 256/(pi min(u, 2 - u)) terms per node: about 0.1 s a
    call at u = 1e-3, and a DomainError before any term is summed from
    about u = 1e-4 (modesum's bound on head terms times nodes).
    """
    _check_d_domain(sep)
    u, v = sep.u, sep.v

    def rows(x):
        beta = x / math.pi
        p0 = _direct_sums(math.pi * u, beta, 0, None).real
        p1 = _direct_sums(math.pi * u, beta, 1, None).imag
        return _d_rows(x, v, 1.0 / x + 2.0 * x * p0 / math.pi ** 2,
                       -2.0 * p1 / math.pi)

    mat = _d_matrix(integrate_semi_infinite(
        rows, min(u, 2.0 - u), DEFAULT_TOL,
        half_period=_bessel_half_period(v)))
    return KernelMatrix(_rotate(mat, sep.phi), D_PLUS)


def quadratic_self_term(z_over_L: float, tol: Tolerance = DEFAULT_TOL) -> KernelMatrix:
    """Position-dependent single-dipole quadratic term D-(2z zhat).

    This is the piece that cancels the xi part of the Coulomb self-energy
    matrix; the coincident-point part D+(0) is divergent and excluded (only
    its anisotropy is exposed, see anisotropy_delta).  As in kernel_d, a
    dipole nearer than 5e-101 L to a mirror is a domain error.
    """
    if not (0.0 < z_over_L < 1.0):
        raise DomainError("dipole must lie strictly between the mirrors")
    return kernel_d("minus", Separation(2.0 * z_over_L, 0.0), tol)


# axial modes anisotropy_delta sums in one array expression: at R = 1e6 a
# call took 22 ms and 40 MB more peak RSS (2-core x86 box), and cancellation
# cost delta 6e-5 of its value, a loss growing about like R^2
_MAX_AXIAL_MODES = 1_000_000


def _axial_radius(frame: CavityFrame, cutoff: float) -> float:
    """R = cutoff L / pi, checked to admit 1 to _MAX_AXIAL_MODES modes."""
    if not 0.0 < cutoff < math.inf:
        raise DomainError("cutoff must be positive and finite")
    radius = cutoff * frame.length_L / math.pi
    if not 1.0 <= radius < _MAX_AXIAL_MODES + 1:
        raise DomainError(f"cutoff L / pi = {radius!r} must admit 1 to "
                          f"{_MAX_AXIAL_MODES} axial modes")
    return radius


def _anisotropy_summand(n, radius: float):
    """3 n^2 log1p(X^2/n^2) - X^2 with X^2 = (R - n)(R + n), exactly 0 at
    n = R: twice the xx - zz transverse integral at axial index n, without
    the factor pi^3/L^2.  Its integral over n in [0, R], the continuum
    limit of the axial sum, is 0."""
    x2 = (radius - n) * (radius + n)
    return 3.0 * (n * n * np.log1p(x2 / (n * n))) - x2


def anisotropy_delta(frame: CavityFrame, cutoff: float) -> AnisotropyResult:
    """Anisotropy xx - zz of the coincident-point kernel under a cutoff.

    The sharp cutoff |k| <= cutoff restricts the axial index n and the
    reduced transverse coordinate x to x^2 + n^2 <= R^2, R = cutoff L / pi,
    and each per-n transverse integral is elementary: with X^2 = R^2 - n^2,
    int_0^X x (2n^2 -+ x^2)/(x^2 + n^2) dx = -+X^2/2 + ((2 +- 1) n^2/2)
    log1p(X^2/n^2), upper signs for delta, lower for isotropic_scale.  The
    two-sided sum takes n = 0 once and n = 1..floor(R) twice.

    Replacing the axial sum by an integral (the large-L continuum limit)
    makes the anisotropy vanish identically for any cutoff, so delta decays
    with the cavity length; isotropic_scale (~ cutoff^3 ball magnitude)
    provides the natural normalization.
    """
    L, cutoff = frame.length_L, as_float(cutoff)
    radius = _axial_radius(frame, cutoff)
    n = np.arange(1.0, math.floor(radius) + 1.0)
    terms = _anisotropy_summand(n, radius)
    x2 = (radius - n) * (radius + n)
    # pi^3/L^2 and both results, about cutoff^3 L, may leave the float
    # range, where their ratio means nothing
    half_r2 = 0.5 * radius * radius
    pref = math.pi ** 3 / (L * L) if L * L else math.inf
    delta = pref * (float(np.sum(terms)) - half_r2)
    # the isotropic summand X^2 + n^2 log1p(X^2/n^2), from delta's
    scale = pref * (float(np.sum(x2 + (terms + x2) / 3.0)) + half_r2)
    if not (math.isfinite(delta) and sys.float_info.min <= scale < math.inf):
        raise DomainError(f"the anisotropy at L = {L!r}, cutoff = "
                          f"{cutoff!r} leaves the float range: its scale "
                          f"reads {scale!r}")
    return AnisotropyResult(delta=delta, cavity_length=L, cutoff=cutoff,
                            isotropic_scale=scale)
