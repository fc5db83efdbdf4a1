"""The two-sided mode sum sum_n e^{i alpha n} n^m / (n^2 + beta^2).

Two independent routes, the two sides of EQ27: its hyperbolic closed form,
and its symmetric truncation: a head summed term by term in blocks of
consecutive n (angle addition from one block's cos/sin table), then the
rest as the difference of two tails built from the summand alone (the
Euler transformation, or Euler-Maclaurin at alpha = 0), so the cost does
not grow with the truncation; within a few 1e-15 of the sum of the moduli
of the terms.  Neither route uses the lattice or the quadrature.

Nothing here imports scipy.

All functions are pure; units are dimensionless throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["ModeSumArgs", "hyperbolic_mode_sum", "direct_mode_sum"]


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
# Mode sums
# ---------------------------------------------------------------------------

def hyperbolic_mode_sum(args: ModeSumArgs) -> complex:
    """Closed form of sum_{n in Z} e^{i alpha n} n^m / (n^2 + beta^2).

    Valid for m in {0, 1}; alpha is reduced into [0, 2pi) first (the sum is
    2pi-periodic).  At alpha = 0 the m = 1 sum vanishes identically by
    antisymmetry and is returned as exact zero; for alpha > 0,

        pi i^m beta^(m-1) / sinh(pi beta) * cosh(beta (pi - alpha))   (m even)
                                            sinh(beta (pi - alpha))   (m odd)

    The ratios are formed at every beta as
    (e^{-alpha beta} +- e^{-(2pi - alpha) beta}) / (1 - e^{-2pi beta}).
    Every exponent is at most 0, so nothing overflows, and each is a
    product rounded once, not a difference with pi beta, so the result is
    good to about (1 + min(alpha, 2pi - alpha) beta) ulps, and an alpha
    below ulp(pi)/2 is not lost.
    """
    alpha = args.alpha % (2.0 * math.pi)
    beta = args.beta
    if args.m == 1 and alpha == 0.0:
        return 0j
    near, far = alpha * beta, (2.0 * math.pi - alpha) * beta
    ratio_den = -math.expm1(-2.0 * math.pi * beta)
    pref = math.pi * beta ** (args.m - 1)
    if args.m == 0:
        return complex(pref * (math.exp(-near) + math.exp(-far)) / ratio_den)
    # e^{-near} - e^{-far} as e^{-min(near, far)} (1 - e^{-2|arg|}), arg =
    # beta (pi - alpha): expm1 is free of the cancellation at alpha near pi
    arg = beta * (math.pi - alpha)
    odd = math.exp(-min(near, far)) * -math.expm1(-2.0 * abs(arg))
    return 1j * pref * math.copysign(odd, arg) / ratio_den


# The head of the direct sum runs over n = n0 + k, k in [0, _BLOCK), in
# chunks of _CHUNK blocks: n and the weights take 0.5 MB per chunk whatever
# the head's length is, in two buffers each call fills chunk by chunk from
# _OFFSETS.
_BLOCK = 1024
_CHUNK = 32
_K = np.arange(_BLOCK, dtype=float)
_OFFSETS = np.arange(_BLOCK * _CHUNK, dtype=float)
# The head runs to n = max(_SUM_HEAD_MIN, _SUM_HEAD_REACH/|1 - e^{i alpha}|),
# and the rest of the truncation is added through its tails.  That far out,
# a term of the Euler transformation is at most about j/_SUM_HEAD_REACH of
# the one before, so fewer than 15 reach _EULER_EPS; _EULER_TERMS only caps
# the loop.
_SUM_HEAD_MIN = 4096
_SUM_HEAD_REACH = 256.0
# The longest head a call sums: where alpha is so near 0 mod 2pi that the
# head runs to n_max, a term costs about 5.5e-9 s (2-core x86 box), so a
# head at the bound takes about 1.7 s, and one of 2^53 terms would take
# about 1.6 years
_MAX_HEAD_TERMS = 300_000_000
_EULER_EPS = 2.0 ** -60
_EULER_TERMS = 64
# B_2j / 2j for j = 1, 2, 3: the Euler-Maclaurin corrections of _em_ends
_EM_COEF = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0)
# 2pi - math.tau
_TAU_LO = 2.4492935982947064e-16


def _em_ends(k: int, beta: float) -> float:
    """The end terms of Euler-Maclaurin at x = k for f = 1/(x^2 + beta^2).

    -f(k)/2 - sum_j B_2j/(2j)! f^(2j-1)(k), with f^(p) = Im(d^p/dx^p of
    1/(x - i beta))/beta = Im((-1)^p p!/(k - i beta)^(p+1))/beta.  With
    k >= _SUM_HEAD_MIN the next correction is below 1e-34.
    """
    g = 1.0 / complex(k, -beta)
    q = g * g
    power, total = q, 0.0
    for coef in _EM_COEF:
        total += coef * power.imag
        power *= q
    return total / beta - 0.5 / (k * k + beta * beta)


def _euler_tail(alpha: float, beta: float, m: int, k: int,
                one_minus_z: complex) -> complex:
    """sum_{n > k} z^n f(n) by the Euler transformation, z = e^{i alpha}.

    z^(k+1)/(1 - z) sum_j w^j Delta^j f(k + 1), w = z/(1 - z), with the
    forward differences of f taken exactly from its partial fraction:
    f = Im(g)/beta for m = 0 and Re(g) for m = 1, g(n) = 1/(n - i beta),
    and Delta^j g(n) = (-1)^j j!/prod_{l=0..j}(n + l - i beta).
    """
    w = complex(math.cos(alpha), math.sin(alpha)) / one_minus_z
    n = float(k + 1)
    d = complex(n, -beta)
    phase = alpha * n
    coef = complex(math.cos(phase), math.sin(phase)) / one_minus_z
    diff = 1.0 / d
    total = 0j
    for j in range(1, _EULER_TERMS + 1):
        total += coef * (diff.imag / beta if m == 0 else diff.real)
        coef *= w
        diff *= -j / (d + j)
        # a bound on the next term, with g_j = Delta^j g(n), now diff:
        # |Re g_j| <= |g_j| and, with s the sum of the arguments
        # atan(beta/(n + l)) of the factors of its denominator,
        # |Im g_j| = |g_j| |sin s| <= |g_j| min(1, (j + 1) beta/n)
        size = abs(coef * diff)
        if m == 0:
            size *= min(1.0 / beta, (j + 1) / n)
        if size <= _EULER_EPS * abs(total):
            break
    return total


def direct_mode_sum(args: ModeSumArgs, n_max: int) -> complex:
    """Symmetric truncation sum_{|n| <= n_max} e^{i alpha n} n^m / (n^2 + beta^2).

    The +n and -n terms are combined before accumulation, which is required
    for the conditionally convergent m = 1 case: 1/beta^2 + 2 Re P for m = 0
    and 2i Im P for m = 1, P = sum_{n=1}^{n_max} z^n f(n), z = e^{i alpha},
    f(n) = n^m/(n^2 + beta^2).

    The head, n up to H = min(n_max, max(4096, ceil(256/|1 - z|))), is
    summed term by term in blocks n = n0 + k of _BLOCK consecutive n, with
    cos(alpha k) and sin(alpha k) taken once per call and cos(alpha n0),
    sin(alpha n0) once per block; the angle-addition identities join them.
    Memory stays constant in n_max.  When H < n_max, the rest is added as
    T(H) - T(n_max), T(K) = sum_{n>K} z^n f(n), formed from f alone (never
    from the closed form hyperbolic_mode_sum, the other side of EQ27):
    for z != 1 by the Euler transformation
    z^(K+1)/(1 - z) sum_j (z/(1 - z))^j Delta^j f(K + 1), with the
    differences exact from the partial fraction of f, and at alpha = 0
    (m = 0; the m = 1 sum is exactly 0j) by Euler-Maclaurin from the
    integral atan(beta/K)/beta, the two integrals joined into one arctan.
    So the cost does not grow with n_max: about 0.1 ms a call at n_max =
    10^6 or 10^15 on a 2-core x86 box, against 3 ms for the blocked sum
    alone at 10^6.  The head is longer than 4096 where |1 - z| < 1/16, as
    nearer the tail's terms would shrink too slowly; where alpha is so near
    0 mod 2pi that 256/|1 - z| reaches n_max, H is n_max and the call is
    the plain blocked sum, at no more cost than without the tails.  Against
    a term-by-term fsum of the same truncation, with exactly reduced
    phases, the result is within 2e-15 times the sum of the moduli of the
    terms, and within 3.5e-15 at alpha = pi, m = 1, where each term is the
    rounding error of its phase; at alpha = 0 the m = 1 sum is exactly 0j.

    alpha is reduced into [0, 2pi) first, as in hyperbolic_mode_sum, so a
    huge alpha gives a finite sum, and then into (-pi, pi] with 2pi in two
    doubles, so that alpha near 2pi is summed as accurately as alpha near 0.
    n_max must be an integer (a Python or numpy int) in [1, 2^53], where
    every n is exactly a double.  A head longer than _MAX_HEAD_TERMS (alpha
    within about 256/n_max of 0 mod 2pi, and n_max above the bound) is a
    DomainError before any term is summed.
    """
    try:
        n_max = operator.index(n_max)
    except TypeError:
        raise DomainError(f"n_max must be an integer, got {n_max!r}") from None
    if not 1 <= n_max <= 2 ** 53:
        raise DomainError(f"n_max must be in [1, 2^53], got {n_max}")
    alpha = args.alpha % (2.0 * math.pi)
    if alpha > math.pi:
        # alpha - 2pi to one rounding: alpha - math.tau is exact, and
        # 2pi = math.tau + _TAU_LO.  Near 2pi the phases alpha n then carry
        # no error of order n ulp(2pi), which a block's terms, all of about
        # the same phase there, would add up.
        alpha = (alpha - 2.0 * math.pi) - _TAU_LO
    beta, m = args.beta, args.m
    beta2 = beta * beta
    # 1 - z = 2 sin^2(alpha/2) - i sin(alpha), free of the cancellation of
    # 1 - cos(alpha) near alpha = 0 mod 2pi
    one_minus_z = complex(2.0 * math.sin(0.5 * alpha) ** 2, -math.sin(alpha))
    reach = (_SUM_HEAD_MIN if alpha == 0.0
             else max(_SUM_HEAD_MIN, _SUM_HEAD_REACH / abs(one_minus_z)))
    head = n_max if reach >= n_max else math.ceil(reach)
    if head > _MAX_HEAD_TERMS:
        raise DomainError(f"alpha = {args.alpha!r} with n_max = {n_max} "
                          f"needs a head of {head} terms, above the bound "
                          f"{_MAX_HEAD_TERMS}: alpha is too near 0 mod 2pi")
    trig_k = np.stack([np.cos(alpha * _K), np.sin(alpha * _K)], axis=1)
    n_buf, w_buf = np.empty(_BLOCK * _CHUNK), np.empty(_BLOCK * _CHUNK)
    re = im = 0.0
    for first in range(1, head + 1, _BLOCK * _CHUNK):
        blocks = min(_CHUNK, (head - first) // _BLOCK + 1)
        n, w = n_buf[:blocks * _BLOCK], w_buf[:blocks * _BLOCK]
        np.add(_OFFSETS[:blocks * _BLOCK], first, out=n)
        np.multiply(n, n, out=w)
        w += beta2
        if m == 0:
            np.divide(1.0, w, out=w)
        else:
            np.divide(n, w, out=w)
        w[head + 1 - first:] = 0.0
        # per block: c = sum_k w cos(alpha k), s = sum_k w sin(alpha k)
        c, s = (w.reshape(blocks, _BLOCK) @ trig_k).T
        phase = alpha * n[::_BLOCK]
        cos0, sin0 = np.cos(phase), np.sin(phase)
        re += float(cos0 @ c - sin0 @ s)
        im += float(sin0 @ c + cos0 @ s)
    if head < n_max:
        if alpha == 0.0:
            if m == 0:
                # int_H^N dx/(x^2 + beta^2) as one arctan: the difference
                # of atan(beta/H) and atan(beta/N) loses digits at large beta
                re += (math.atan(beta * ((n_max - head) / n_max)
                                 / (head + beta * (beta / n_max))) / beta
                       + _em_ends(head, beta) - _em_ends(n_max, beta))
        else:
            tail = (_euler_tail(alpha, beta, m, head, one_minus_z)
                    - _euler_tail(alpha, beta, m, n_max, one_minus_z))
            re += tail.real
            im += tail.imag
    if m == 0:
        return complex(1.0 / beta2 + 2.0 * re)
    return 2j * im
