"""The two-sided mode sum sum_n e^{i alpha n} n^m / (n^2 + beta^2).

Two independent routes, the two sides of EQ27: its hyperbolic closed form,
and its direct sum, one engine (_direct_sums) over an array of beta for
the one-sided sum over 1 <= n <= n_max or over every n >= 1, which its
callers make two-sided with the n = 0 term.  The engine sums a head term
by term in blocks of consecutive n (angle addition from one block's
cos/sin table), then the rest as the difference of two tails built from
the summand alone (one fixed pass of 16 terms of the Euler
transformation, or at alpha = 0 Euler-Maclaurin with its first two
corrections), one tail for the whole sum, so the cost
does not grow with the truncation; within a few 1e-15 of the sum of the
moduli of the terms.  direct_mode_sum is the engine at one beta, and the
spectral route of the displacement-field kernel (radiation) sums the
cavity's axial modes with it at every transverse node.  Neither route uses
the lattice or the quadrature.

Nothing here imports scipy.

All functions are pure; units are dimensionless throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_float

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
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, as_float(getattr(self, name)))
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


# The head of the direct sums runs over n = n0 + k, k in [0, _BLOCK), in
# chunks of at most _CHUNK blocks, and over the betas in batches whose
# weights fill one buffer of _BLOCK * _CHUNK doubles (0.25 MB); the tails
# take _TAIL_ROWS betas at a time.  Memory stays constant in n_max and in
# the number of betas.
_BLOCK = 1024
_CHUNK = 32
_K = np.arange(_BLOCK, dtype=float)
_OFFSETS = np.arange(_BLOCK * _CHUNK, dtype=float)
_TAIL_ROWS = 512
# The head runs to n = max(_SUM_HEAD_MIN, _SUM_HEAD_REACH/|1 - e^{i alpha}|),
# and the rest of the truncation is added through its tails.  That far out,
# a term of the Euler transformation is at most about (j + 1)/_SUM_HEAD_REACH
# of the one before, so the first term after _EULER_TERMS of them is below
# about 16!/256^16 = 6e-26 (under 2^-80) of the first: one pass of
# _EULER_TERMS terms ends every sum.
_SUM_HEAD_MIN = 4096
_SUM_HEAD_REACH = 256.0
_EULER_TERMS = 16
# The most head terms a call sums, over all its betas: a term costs about
# 5.5e-9 s (2-core x86 box), so a call at the bound takes about 1.7 s, and
# one head of 2^53 terms (alpha so near 0 mod 2pi that the head runs to
# n_max) would take about 1.6 years
_MAX_HEAD_TERMS = 300_000_000
# 2pi - math.tau
_TAU_LO = 2.4492935982947064e-16


def _em_tails(beta: np.ndarray, head: int, n_max: int | None) -> np.ndarray:
    """T(head) - T(n_max) at z = 1 and m = 0 at each beta, by Euler-Maclaurin.

    The integral int_head^n_max dx/(x^2 + beta^2) is one arctan (the
    difference of atan(beta/head) and atan(beta/n_max) loses digits at
    large beta), and the end terms at x = k are -f(k)/2 - sum_j B_2j/(2j)!
    f^(2j-1)(k), with f^(p) = Im(d^p/dx^p of 1/(x - i beta))/beta =
    Im((-1)^p p!/(k - i beta)^(p+1))/beta: two corrections, B_2j/(2j)
    Im(g^(2j))/beta with g = 1/(k - i beta), for B_2 = 1/6 and B_4 = -1/30.
    With k >= _SUM_HEAD_MIN the next is below 1e-23 of the tail T(k).
    """
    k = np.array([head] if n_max is None else [head, n_max], float)[:, None]
    g = 1.0 / (k - 1j * beta)
    q = g * g
    total = (1.0 / 12.0) * q.imag + (-1.0 / 120.0) * (q * q).imag
    ends = total / beta - 0.5 / (k * k + beta * beta)
    arg = (beta / head if n_max is None else
           beta * ((n_max - head) / n_max) / (head + beta * (beta / n_max)))
    ends[0] += np.arctan(arg) / beta
    return ends[0] if n_max is None else ends[0] - ends[1]


def _euler_tails(alpha: float, beta: np.ndarray, m: int, head: int,
                 n_max: int | None, one_minus_z: complex) -> np.ndarray:
    """T(head) - T(n_max) at each beta, T(k) = sum_{n > k} z^n f(n) by the
    Euler transformation, z = e^{i alpha}, and T(inf) = 0.

    T(k) = z^(k+1)/(1 - z) sum_j w^j Delta^j f(k + 1), w = z/(1 - z), with the
    forward differences of f taken exactly from its partial fraction:
    f = Im(g)/beta for m = 0 and Re(g) for m = 1, g(n) = 1/(n - i beta),
    and Delta^j g(n) = (-1)^j j!/prod_{l=0..j}(n + l - i beta).  All
    _EULER_TERMS terms are taken by cumprod and added by cumsum, which is
    sequential, as a loop over j is (np.sum would add them pairwise).
    """
    n = np.array([[[k + 1.0]] for k in ([head] if n_max is None
                                        else [head, n_max])])
    # coef_j = z^(k+1)/(1 - z) w^(j-1), j = 1 .. _EULER_TERMS
    coef = np.full((len(n), 1, _EULER_TERMS),
                   complex(math.cos(alpha), math.sin(alpha)) / one_minus_z)
    coef[:, 0, 0] = [complex(math.cos(alpha * nk), math.sin(alpha * nk))
                     / one_minus_z for nk in n.ravel().tolist()]
    coef = coef.cumprod(axis=2)
    col = beta[:, None]
    # g_j, j = 1 .. _EULER_TERMS: the running products of 1/(n - i beta)
    # and -j/(n + j - i beta)
    j = np.arange(float(_EULER_TERMS))
    tops = np.where(j > 0, -j, 1.0)
    diff = np.cumprod(tops / (n + j - 1j * col), axis=2)
    part = diff.imag / col if m == 0 else diff.real
    tails = np.cumsum(coef * part, axis=2)[..., -1]
    return tails[0] if n_max is None else tails[0] - tails[1]


def _head_sums(alpha: float, beta2: np.ndarray, m: int, head: int):
    """sum_{n=1}^{head} z^n f(n) at each beta^2 of beta2."""
    trig_k = np.stack([np.cos(alpha * _K), np.sin(alpha * _K)], axis=1)
    buf = np.empty(_BLOCK * _CHUNK)
    sums = np.zeros(len(beta2), complex)
    for first in range(1, head + 1, _BLOCK * _CHUNK):
        blocks = min(_CHUNK, (head - first) // _BLOCK + 1)
        n = _OFFSETS[:blocks * _BLOCK] + first
        n2 = n * n
        phase = alpha * n[::_BLOCK]
        cos0, sin0 = np.cos(phase), np.sin(phase)
        rows = _CHUNK // blocks
        for lo in range(0, len(beta2), rows):
            b2 = beta2[lo:lo + rows, None]
            w = buf[:len(b2) * blocks * _BLOCK].reshape(len(b2), -1)
            np.add(n2, b2, out=w)
            np.divide(1.0 if m == 0 else n, w, out=w)
            w[:, head + 1 - first:] = 0.0
            # per block: c = sum_k w cos(alpha k), s = sum_k w sin(alpha k)
            cs = (w.reshape(-1, _BLOCK) @ trig_k).reshape(len(b2), blocks, 2)
            c, s = cs[:, :, 0], cs[:, :, 1]
            sums.real[lo:lo + rows] += c @ cos0 - s @ sin0
            sums.imag[lo:lo + rows] += c @ sin0 + s @ cos0
    return sums


def _direct_sums(alpha: float, betas: np.ndarray, m: int,
                 n_max: int | None) -> np.ndarray:
    """The one-sided sum P = sum_{n=1}^{n_max} z^n f(n), z = e^{i alpha},
    f(n) = n^m/(n^2 + beta^2), at each beta of the 1-d array betas, or the
    whole sum over n >= 1 for n_max None: the one engine of the direct side
    of EQ27 (m is 0 or 1, n_max None or an integer in [1, 2^53], every beta
    positive).

    Its callers combine the +n and -n terms after accumulation, as the
    conditionally convergent m = 1 case requires: the two-sided sum is
    1/beta^2 + 2 Re P for m = 0 and 2i Im P for m = 1.  The n = 0 term
    is left to them, since 1/beta^2 overflows below beta = 7.5e-155 while
    P stays finite.  The head, n up to H = min(n_max, max(4096,
    ceil(256/|1 - z|))), is summed term by term in blocks n = n0 + k of
    _BLOCK consecutive n, joined by angle addition from cos(alpha k),
    sin(alpha k) and one cos(alpha n0), sin(alpha n0) per block.  When
    H < n_max, the rest is added as T(H) - T(n_max),
    T(K) = sum_{n>K} z^n f(n) and T(inf) = 0, formed from f alone (never
    from hyperbolic_mode_sum, the other side of EQ27): by one fixed pass
    of 16 terms of the Euler transformation (_euler_tails), and at alpha =
    0 (m = 0; the m = 1 sum is exactly 0j) by Euler-Maclaurin with its
    first two corrections (_em_tails).  So the cost
    does not grow with n_max.  The head is longer than 4096 where
    |1 - z| < 1/16, as nearer the tail's terms shrink too slowly.

    alpha is reduced into [0, 2pi), as in hyperbolic_mode_sum, and then
    into (-pi, pi] with 2pi in two doubles, so that alpha near 2pi is
    summed as accurately as alpha near 0.  Over an array each value is
    within a few ulps of the sum of the moduli of its one-beta call (the
    per-block sums of a batch may round differently).  H times the number
    of betas above _MAX_HEAD_TERMS is a DomainError before any term is
    summed.
    """
    reduced = alpha % (2.0 * math.pi)
    if reduced > math.pi:
        # alpha - 2pi to one rounding: alpha - math.tau is exact, and
        # 2pi = math.tau + _TAU_LO.  Near 2pi the phases alpha n then carry
        # no error of order n ulp(2pi), which a block's terms, all of about
        # the same phase there, would add up.
        reduced = (reduced - 2.0 * math.pi) - _TAU_LO
    # 1 - z = 2 sin^2(alpha/2) - i sin(alpha), free of the cancellation of
    # 1 - cos(alpha) near alpha = 0 mod 2pi
    one_minus_z = complex(2.0 * math.sin(0.5 * reduced) ** 2,
                          -math.sin(reduced))
    reach = (_SUM_HEAD_MIN if reduced == 0.0
             else max(_SUM_HEAD_MIN, _SUM_HEAD_REACH / abs(one_minus_z)))
    head = (n_max if n_max is not None and reach >= n_max
            else math.ceil(reach))
    beta = np.asarray(betas, dtype=float)
    if head * len(beta) > _MAX_HEAD_TERMS:
        raise DomainError(
            f"alpha = {alpha!r} with n_max = {n_max} needs a head of {head} "
            f"terms at each of {len(beta)} beta, above the bound "
            f"{_MAX_HEAD_TERMS} on their product: alpha is too near 0 mod "
            "2pi")
    # as scalar arithmetic does, take inf silently: beta^2, in the head and
    # in the Euler-Maclaurin ends, overflows at large beta
    with np.errstate(all="ignore"):
        sums = _head_sums(reduced, beta * beta, m, head)
        if (n_max is None or head < n_max) and (reduced != 0.0 or m == 0):
            for lo in range(0, len(beta), _TAIL_ROWS):
                b = beta[lo:lo + _TAIL_ROWS]
                sums[lo:lo + _TAIL_ROWS] += (
                    _em_tails(b, head, n_max) if reduced == 0.0 else
                    _euler_tails(reduced, b, m, head, n_max, one_minus_z))
    return sums


def direct_mode_sum(args: ModeSumArgs, n_max: int) -> complex:
    """Symmetric truncation sum_{|n| <= n_max} e^{i alpha n} n^m / (n^2 + beta^2).

    One call of _direct_sums at one beta, about 0.1 ms at n_max = 10^6 or
    10^15 (2-core x86 box), and the n = 0 term 1/beta^2 for m = 0; where
    alpha is so near 0 mod 2pi that 256/|1 - z| reaches n_max, the head is
    the whole truncation.  Against a term-by-term fsum with exactly reduced
    phases, the result is within 2e-15 times the sum of the moduli of the
    terms, and within 3.5e-15 at alpha = pi, m = 1, where each term is the
    rounding error of its phase.  n_max must be an integer (a Python or
    numpy int) in [1, 2^53], where every n is exactly a double.  A head
    longer than _MAX_HEAD_TERMS (alpha within about 256/n_max of 0 mod 2pi)
    is a DomainError before any term is summed.
    """
    try:
        n_max = operator.index(n_max)
    except TypeError:
        raise DomainError(f"n_max must be an integer, got {n_max!r}") from None
    if not 1 <= n_max <= 2 ** 53:
        raise DomainError(f"n_max must be in [1, 2^53], got {n_max}")
    p = _direct_sums(args.alpha, np.array([args.beta]), args.m, n_max)[0]
    if args.m == 1:
        return complex(2j * p.imag)
    return complex(1.0 / (args.beta * args.beta) + 2.0 * p.real)
