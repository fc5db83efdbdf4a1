"""Bessel functions and quadrature: the integral route of EQ21.

The displacement-field kernels (radiation) and the integral side of every
identity the suite checks are built on the two ingredients defined here:
the cylindrical Bessel functions J0, J1, J2 (the package's own, in numpy:
one entry point gives J0 and J1(x)/x from one call, polynomial cells up to
x = 158.5, past every argument of a plain quadrature pass (x v < 50 pi)
and of a tail pass's first call (x v < 20 pi), and Hankel's modulus-phase
form above, with coefficients written from mpmath by
tools/bessel_coefficients.py, the cells as one base64 table; every
integrand forms J1 = x (J1(x)/x) and J0 +- J2 from that pair, and only the
scalar bessel_j returns J2 alone), and an adaptive Gauss-Kronrod
integrator for exponentially decaying integrands on (0, inf), scalar or
vector valued, with an oscillatory-tail mode for slowly damped Bessel-type
integrands (one driver at one fixed budget; seed panels at most half a
half-period wide, so that most passes end on their first call of the
integrand; each step splits every panel the tolerance asks for; the tail
fetches its half-periods in batches, the first in the same call of the
integrand as the head's seed panels, and makes the tests of its steps for
a whole batch at once).  Nothing here or in radiation imports the image
lattice (lattice) or the Coulomb kernels built on it (coulomb), the other
side of EQ21: tests/test_imports.py reads the import graph.

Nothing here imports scipy.

All functions are pure; units are dimensionless throughout.
"""

from __future__ import annotations

import binascii
import functools
import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _bessel_coef
from .errors import ConvergenceError, DomainError, as_float

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "bessel_j",
    "integrate_semi_infinite",
]


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request for quadratures.

    abs_tol and rel_tol must be positive and finite; a computation is
    accepted when its error estimate drops below
    max(abs_tol, rel_tol * |result|).  The panel-split budget is not part
    of the request: every quadrature has the same fixed one.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")


DEFAULT_TOL = Tolerance()


# ---------------------------------------------------------------------------
# Bessel functions J0, J1, J2
#
# One Bessel source, _bessel_j0_g: J0(x) and g(x) = J1(x)/x together, from
# the tables of _bessel_coef (written from 50-digit mpmath by
# tools/bessel_coefficients.py; the cells are one base64 string of
# little-endian doubles, decoded here once).  Up to _FAR_X0 = 158.5 each x
# takes the polynomials of degree 12 of the cell |x - c| <= 1/2 around the
# nearest integer c (ties to even, so 158.5 is in cell 158, the last);
# past _FAR_X0, Hankel's modulus-phase form (DLMF 10.17) with four
# polynomials of degree 8 in w = _FAR_X0/x, combined with cos x and sin x
# (never with the rounded x - pi/4).  Every caller takes what it needs from the pair: J0 is its
# first row, J1 = x g, J0 + J2 = 2 g and J0 - J2 = 2 (J0 - g).  J2 alone,
# which only bessel_j(2, x) returns, is 2 g - J0, from its own series below
# _J2_SERIES_MAX where that difference cancels.  Largest errors against
# 30-digit mpmath, 15851 uniform points on [0, 158.5] with every cell edge
# and its three neighbouring doubles each side, and 2000 geometric points
# on [158.5, 1e4]:
#
#   range        function  abs error   rel error where |J| > 1e-4
#   [0, 158.5]   J0        1.1e-16     4.2e-14
#                J1        1.1e-16     4.1e-14
#                J2        2.2e-16     1.0e-13
#   [158.5, 1e4] J0        2.1e-17     1.6e-14
#                J1        2.1e-17     1.1e-14
#                J2        2.1e-17     2.4e-14
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
# so the cells are evaluated by Horner's rule, and they reach 158.5, past
# 50 pi = 157.1: a plain quadrature pass spans at most _TAIL_MIN_SPAN = 50
# half-periods pi/v of its factor J(x v), and the first call of the
# integrand in a tail-mode pass 20 (x v < 20 pi), so each of their calls
# is one Horner pass.  Only later tail batches and x > 158.5 take the far
# form; no call of `fpcavity verify all` does.  A call with arguments on
# both sides of _FAR_X0 runs each form over its own arguments alone
# (_split).
# ---------------------------------------------------------------------------

# the coefficients by degree: (terms, cells, 2), J0 and g side by side, as
# the table stores them (read-only)
_NEAR = np.frombuffer(binascii.a2b_base64(_bessel_coef.NEAR),
                      dtype="<f8").reshape(_bessel_coef.TERMS,
                                           _bessel_coef.NEAR_CELLS, 2)
_FAR_X0 = _bessel_coef.FAR_X0
# J0 = r (A0 cos x + B0 sin x) and J1/x = r (A1 cos x + B1 sin x), with
# r = 1/sqrt(pi x) = sqrt(w / (pi _FAR_X0)): the rows A0, A1, B0, B1 of
# _FAR carry the factor 1/sqrt(pi _FAR_X0), which keeps sqrt(w) normal for
# every finite x
_FAR = np.array(_bessel_coef.FAR)[[0, 2, 1, 3]] / math.sqrt(
    math.pi * _FAR_X0)                      # (4, far terms)
_PAIR = np.ones(2)


def _near(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomials with coefficients a (by degree, from the table's
    cells) at t, J0 and g as the rows of a (2, n) array.

    Horner's rule, each step two in-place elementwise numpy calls over
    every node, J0 and g side by side as an (n, 2) array: after their
    first touch these cost far less than a gathering or a reducing call,
    and the polynomials are short.
    """
    t = t[:, None] * _PAIR
    p = a[-1] * t
    for row in a[-2:0:-1]:
        p += row
        p *= t
    p += a[0]
    return p.T


def _far(x: np.ndarray) -> np.ndarray:
    """J0 and J1(x)/x at x >= _FAR_X0 by the modulus-phase form, as the
    rows of a (2, n) array.

    The powers sqrt(w), sqrt(w) w, ... are built row by row, each row the
    one before times w in one elementwise call.  The amplitudes are
    einsum's plain sums of products over a copy with one row of powers per
    x, not a BLAS matrix product, whose rounding depends on how many x
    share the call: each value is the same bits whatever batch it comes in.
    """
    w = _FAR_X0 / x
    powers = np.empty((_FAR.shape[1], len(x)))
    np.sqrt(w, out=powers[0])
    for row in range(1, len(powers)):
        np.multiply(powers[row - 1], w, out=powers[row])
    amp = np.einsum("kt,nt->kn", _FAR, np.ascontiguousarray(powers.T))
    return amp[:2] * np.cos(x) + amp[2:] * np.sin(x)


def _split(x):
    """J0 and J1(x)/x, each x by the form that applies.  A call with every
    x in a cell (x <= _FAR_X0) is one pass of Horner's rule; otherwise the
    cells run over the x in a cell alone and the far form over the rest,
    each into its own columns of the result, so each x gets the form, and
    the bits, it gets alone."""
    # fmin keeps huge x and NaN castable; both then miss the table
    c = np.rint(np.fmin(x, _FAR_X0 + 1.0))
    cells = c.astype(np.intp)
    try:
        a = _NEAR.take(cells, axis=1)
    except IndexError:
        pass  # some x past _FAR_X0
    else:
        return _near(a, x - c)
    # a NaN fails the test and takes the far form, which returns NaN
    near = x <= _FAR_X0
    if not near.any():
        return _far(x)
    out = np.empty((2, len(x)))
    out[:, near] = _near(_NEAR.take(cells[near], axis=1), x[near] - c[near])
    far = ~near
    out[:, far] = _far(x[far])
    return out


# nodes per pass of _split: the gathered cells are 26 doubles a node, the
# far form's powers 18 (by rows, then one row per node)
_CHUNK_NODES = 4096


def _bessel_j0_g(x) -> np.ndarray:
    """J0(x) and J1(x)/x at x >= 0 (flattened) as the rows of one (2, n)
    array; a call of more than _CHUNK_NODES nodes runs in chunks.  x < 0,
    unchecked on this hot path, is wrong: np.take wraps its negative cell
    to the table's far end, giving J0(158) = 0.0629 at -1, not 0.7652."""
    x = np.asarray(x, dtype=float).ravel()
    if len(x) <= _CHUNK_NODES:
        return _split(x)
    return np.concatenate([_split(x[i:i + _CHUNK_NODES])
                           for i in range(0, len(x), _CHUNK_NODES)], axis=1)


# Below this argument J2 is less than an eighth of 2 J1(x)/x (J2(1) =
# 0.115), so J2 = 2 J1(x)/x - J0 would lose 3 bits or more to the
# subtraction; J2 is there the ascending series
# (x/2)^2 sum_j (-x^2/4)^j / (j! (j + 2)!), whose first omitted term is
# below 2e-21 relative.
_J2_SERIES_MAX = 1.0
_J2_SERIES = tuple(1.0 / (math.factorial(j) * math.factorial(j + 2))
                   for j in range(10))


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
    x = as_float(x)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"x must be finite and non-negative, got {x!r}")
    j0, g = _bessel_j0_g(x)[:, 0].tolist()
    if order == 0:
        return j0
    if order == 1:
        return x * g
    if x >= _J2_SERIES_MAX:
        return 2.0 * g - j0
    q = 0.5 * x
    q = q * q
    s = _J2_SERIES[-1]
    for coef in _J2_SERIES[-2::-1]:
        s = coef - q * s
    return q * s



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


def _gauss_kronrod(f: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The K15 estimate of int f over each panel [a_i, b_i] and its
    |K15 - G7| error estimate, from one call of f and one product with the
    (15, 2) weight matrix.

    a and b are arrays.  f receives the 15 nodes of every panel in one
    array, panel after panel, and returns one value per node, or a (k, n)
    array with one row per component.  Returns the rule: rule[i] is panel
    i's (estimate, error), shape (panels, 2) for one value per node and
    (panels, 2, k) for k rows.
    """
    mid = 0.5 * (a + b)
    half = (0.5 * (b - a))[:, None]
    x = (mid[:, None] + half * _K15_NODES).ravel()
    y = np.asarray(f(x), dtype=float)
    # one row of 15 node values per panel (and component).  An inf or a
    # huge node value makes a sum inf or nan here, and adding 0 gk makes
    # each such sum nan and leaves the others as they are, so that no later
    # sum of the drivers warns; they refuse it when they take it
    with np.errstate(invalid="ignore", over="ignore"):
        gk = (y.reshape(y.shape[:-1] + (len(a), 15)) @ _GK_WEIGHTS) * half
        gk += 0.0 * gk
    err = gk[..., 1]
    np.abs(err, out=err)
    return gk if y.ndim == 1 else gk.transpose(1, 2, 0)


def _peaks(rule: np.ndarray) -> np.ndarray:
    """Each panel's largest error in any component (rule as _gauss_kronrod
    gives it), by which _subdivide orders the panels."""
    return rule[:, 1] if rule.ndim == 2 else np.maximum.reduce(rule[:, 1],
                                                               axis=1)


def _target(total, tol: Tolerance):
    # each component's own max(abs_tol, rel_tol * |total_i|)
    return np.maximum(tol.abs_tol, tol.rel_tol * np.abs(total))


_NOT_FINITE = ("the integral or its error estimate is not finite: the "
               "integrand gives nan or inf")


def _running_sum(terms: np.ndarray, start=None):
    """start + terms[0] + terms[1] + ..., added one term after the other
    (per component), as a loop over the panels adds them; without a start,
    from +0.0 (a sum from terms[0] differs from that only where every term
    is -0.0, which adding 0.0 makes +0.0)."""
    if start is None:
        return np.add.accumulate(terms)[-1] + 0.0
    if len(terms) == 1:
        return start + terms[0]
    return np.add.accumulate(np.concatenate((start[None], terms)))[-1]


def _subdivide(f: Callable, edges, rule=None):
    """The adaptive panel subdivision over the panels defined by edges, one
    step at a time, each step one call of f: all seed panels (unless rule
    brings their _gauss_kronrod rule), then both halves of every panel the
    step splits, panel after panel.  Yields the running integral, its
    summed |K15 - G7| error and the panels split so far: numpy scalars, or
    length-k arrays for k rows.  Each later step is sent (target, room):
    it takes panels worst first (_peaks, a heap built at the first split)
    until the error left in the others is within target in every
    component, at most room of them, and splits them all; sent nothing, it
    splits the worst alone.  The sums have the bits of a loop adding the
    panels to 0.0 (_running_sum), a split adding each panel's change in
    turn.  DomainError as soon as a sum is not finite: a nan would compare
    False with every target and pass as converged.
    """
    edges = np.asarray(edges, dtype=float)
    if rule is None:
        rule = _gauss_kronrod(f, edges[:-1], edges[1:])
    # the running integral and error
    sums = _running_sum(rule)
    # the panels worst first, built at the first split: a heap of
    # (-peak, a, b, row of rule), in which the row, in the order the panels
    # were made, breaks the ties of equal panels
    heap = None
    splits = 0
    while True:
        if not all(map(math.isfinite, sums.ravel().tolist())):
            raise DomainError(_NOT_FINITE)
        target, room = (yield sums[0], sums[1], splits) or (math.inf, 1)
        if heap is None:
            heap = list(zip((-_peaks(rule)).tolist(), edges[:-1].tolist(),
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
        new_rule = _gauss_kronrod(f, np.array(lo), np.array(hi))
        sums = _running_sum(new_rule[0::2] + new_rule[1::2]
                            - rule[[panel[3] for panel in taken]], sums)
        for panel in zip((-_peaks(new_rule)).tolist(), lo, hi,
                         itertools.count(len(rule))):
            heapq.heappush(heap, panel)
        rule = np.concatenate((rule, new_rule))
        splits += len(taken)


def _seed_edges(x_max: float, half_period: float | None,
                decay_rate: float) -> list[float]:
    """The seed panels' edges on [0, x_max]: geometric from
    min(1, x_max/8, 4/decay_rate), dense near 0 where integrands have their
    structure, but no panel wider than half_period/2, as the tail takes two
    K15 panels per half-period (_half_periods).  Without a half-period the
    panels are geometric to x_max.  The first panel ends within four decay
    lengths: at a rate of 1e4, exp(-decay_rate x) on a first panel [0, 1]
    has all but e^-43 of its weight before the first node, and the K15 and
    G7 sums there agree on a value near 0.  Seeds that fine end most
    passes in their first call of the integrand: at most about 100 capped
    panels for a plain pass (_TAIL_MIN_SPAN), 8 for the tail mode's head.
    """
    width = math.inf if half_period is None else 0.5 * half_period
    edges = [0.0]
    x = min(1.0, x_max / 8.0, width, 4.0 / decay_rate)
    while x < x_max:
        edges.append(x)
        x += min(x, width)
    edges.append(x_max)
    return edges


# Oscillatory-tail mode: the head [0, x0] spans _HEAD_HALF_PERIODS
# half-periods; the tail is summed one half-period (two K15 panels) at a
# time, and the first transform is taken after _MIN_TAIL_PANELS of them.
# The Levin order grows with the half-periods up to _LEVIN_MAX_ORDER and
# then slides over the latest partial sums (the transform's rounding error
# grows with the order).
_HEAD_HALF_PERIODS = 4
_MIN_TAIL_PANELS = 4
_LEVIN_MAX_ORDER = 16
# The tail mode runs past this many half-periods in [0, x_max]; below it
# the plain pass is faster.  Chosen with geometric seed panels (medians of
# 3, 2-core x86 box: up to 35-50 for the four-row Bessel pass and the
# unsplit D+, up to 55-95 for the remainder of kernel_d) and re-checked
# with the seeds of _seed_edges and the tail's batched decisions (three
# runs of medians of 9, same box): 35 and 100 are within the runs' noise
# of 50 (up to 0.9 ms either way of the 13 ms of run_suite("bessel") and
# the 7 ms of run_suite("cancellation")), 200 takes 0.6-2.8 ms more of
# the first, and kernel_d at the kernels benchmark's separations is the
# same at 35-200.
_TAIL_MIN_SPAN = 50
# The most head panel splits and tail half-periods one pass may take
_MAX_SUBDIVISIONS = 4000
# A pass summed to its truncation point refuses its result where the panel
# (or tail half-period) that ends there exceeds its component's target and
# this share of the component's largest single |estimate|: the integrand
# has not decayed as decay_rate_hint says (_check_decay).  An integrand
# that does not decay leaves its largest panel at the end, and 1/(1 + x)^2
# at a hint of 1 leaves 0.0124 of it; over the golden outputs, verify all
# and the benchmark's ops no pass leaves more than 1.2e-7
_DECAY_SHARE = 2.0 ** -7
# the partial sums in the transform of the highest order
_LEVIN_WINDOW = _LEVIN_MAX_ORDER + 1
# Levin's signed binomial rows (-1)^j C(k, j), j = 0..k, for every order k
# the transform takes, each padded with zeros to _LEVIN_WINDOW
_LEVIN_ROWS = np.array([[(-1.0) ** j * math.comb(k, j) if j <= k else 0.0
                         for j in range(_LEVIN_WINDOW)]
                        for k in range(_LEVIN_WINDOW)])
# The fields of a tail row (_Tail): the remainder estimate omega_n = n a_n
# of the term a_n that ends the partial sum, the partial sum, the summed
# panel error, the gap, the estimate and the step |est_i - est_(i-1)|.
# Each pair read together is adjacent: omega and sum (the transform), sum
# and error (their finiteness), and error and gap (the tests).
_OMEGA, _SUM, _ERR, _GAP, _EST, _STEP = range(6)
# row 0, the empty tail; its omega +inf pads the transform windows
_EMPTY_TAIL = np.array([math.inf, 0.0, 0.0, math.inf, 0.0, math.inf])[:, None]


def _check_decay(estimates: np.ndarray, totals: list, targets: list,
                 x_max: float):
    """DomainError where the last of the panel estimates (or tail terms),
    the one that ends at the truncation point x_max, exceeds in a
    component its target, targets[i], and _DECAY_SHARE of the largest
    single |estimate| of that component: the integrand has not decayed
    there, and the sum is cut off, not converged.  Scaled by the largest
    part, a component whose parts cancel passes, and unlike a sum of the
    parts that scale does not grow with their number; scaled by the
    target, a component that is rounding noise throughout passes.  The
    largest part, at least |totals[i]| / len(estimates), is found only
    where the last estimate also exceeds _DECAY_SHARE |totals[i]| /
    len(estimates)."""
    last = estimates[-1].reshape(-1).tolist()
    share = _DECAY_SHARE / len(estimates)
    for a, s, t in zip(last, totals, targets):
        if abs(a) > max(t, share * abs(s)):
            break
    else:
        return
    largest = np.abs(estimates).reshape(len(estimates), -1).max(axis=0)
    for a, scale, t in zip(last, largest.tolist(), targets):
        if abs(a) > max(t, _DECAY_SHARE * scale):
            raise DomainError(
                f"the integrand does not decay as decay_rate_hint says: the "
                f"panel ending at the truncation point x = {x_max:.6g} holds "
                f"{abs(a) / scale:.3g} of the largest panel")


# the first batch's range of ends (4 to 16) recurs in every tail; the
# ranges of later batches vary with the steps taken
@functools.lru_cache(maxsize=16)
def _levin_tables(first_end: int, count: int, columns: int):
    """The parts of _levin_windows' windows that depend on the ends alone,
    for the consecutive ends first_end .. first_end + count - 1, built once
    per range and number of components and read-only: each window's
    coefficients (shape (count, _LEVIN_WINDOW, columns)) and the rows it
    reads (shape (count, _LEVIN_WINDOW)), a window shorter than
    _LEVIN_WINDOW padded with row 0 and the coefficient -0.0."""
    ends = np.arange(first_end, first_end + count)
    firsts = np.maximum(ends - _LEVIN_WINDOW, 0)
    rows = firsts[:, None] + np.arange(1, _LEVIN_WINDOW + 1)
    n = (_HEAD_HALF_PERIODS - 1) + rows
    # the order k of each window, whose last half-period is n_k = n_0 + k
    order = np.minimum(ends, _LEVIN_WINDOW)[:, None] - 1
    coef = _LEVIN_ROWS[order[:, 0]] * (n / (n[:, :1] + order)) ** (order - 1)
    pad = rows > ends[:, None]
    coef[pad] = -0.0
    rows[pad] = 0
    coef = np.repeat(coef[:, :, None], columns, axis=2)
    for table in (coef, rows):
        table.flags.writeable = False
    return coef, rows


@functools.lru_cache(maxsize=16)
def _row_n(top: int, end: int) -> np.ndarray:
    """The half-period n = _HEAD_HALF_PERIODS - 1 + i of each tail row i
    from top to end - 1, a read-only column, built once per range: a
    row's omega is n a_n, and every tail's first batch has rows 1 to 16."""
    n = np.arange(top, end, dtype=float)[:, None] + (_HEAD_HALF_PERIODS - 1)
    n.flags.writeable = False
    return n


def _levin_windows(rows: np.ndarray, ends: range):
    """The estimates of the tail's rows (_Tail) ends (consecutive, each at
    least _MIN_TAIL_PANELS): for each row e, Levin's u-transform, per
    component, of the partial sums of rows first + 1..e,
    first = max(0, e - _LEVIN_WINDOW), with the remainder estimates
    omega_n = n a_n that end them.  Where the transform is not finite, as
    in a component with an omega 0 (a row of exact zeros) or where it
    overflows, the row keeps the estimate it holds, its partial sum.  Run
    with numpy's floating-point errors ignored.

    Every window has order k = min(e, _LEVIN_WINDOW) - 1 and the
    coefficients (-1)^j C(k, j) (n_j / n_k)^(k - 1), one rule for the
    first, shorter windows and the full ones, from _levin_tables.  The
    windows' omegas and sums are gathered in one call, a window shorter
    than _LEVIN_WINDOW reading row 0 (omega +inf, sum 0.0) with the
    coefficient -0.0 in its padding, whose weight and weighted sum are
    -0.0 (x + -0.0 = x); weights and weighted sums are summed together,
    row after row (np.add.accumulate), in one order for any number of
    components.
    """
    coef, window_rows = _levin_tables(ends.start, len(ends), rows.shape[2])
    # ([weight, weighted sum], window, row, component)
    parts = rows[_OMEGA:_SUM + 1].take(window_rows, axis=1)
    weights = parts[0]
    np.divide(coef, weights, out=weights)
    parts[1] *= weights
    np.add.accumulate(parts, axis=2, out=parts)
    est = parts[1, :, -1] / parts[0, :, -1]
    np.copyto(rows[_EST, ends.start:ends.stop], est, where=np.isfinite(est))


def _half_period_edges(x: float, h: float, x_max: float, n: int):
    """The panel edges of up to n consecutive half-periods [x, x + h],
    [x + h, x + 2h], ..., each starting before x_max: x, x + h/2, x + h,
    ...  Two K15 panels per half-period: one panel's |K15 - G7| on a whole
    half-wave is about 1e-12 of its value, and these add up."""
    edges = [x]
    while len(edges) < 2 * n + 1 and x < x_max:
        edges += (x + 0.5 * h, x + h)
        x += h
    return edges


def _half_periods(f: Callable, x: float, h: float, x_max: float, n: int):
    """Up to n consecutive half-periods from x (_half_period_edges), from
    one call of f: per half-period the _gauss_kronrod rule of its two
    panels, an array of shape (half-periods, 2, 2), or (half-periods, 2, 2,
    k) for k rows, and where the last of them ends."""
    edges = _half_period_edges(x, h, x_max, n)
    ends = np.array(edges)
    rule = _gauss_kronrod(f, ends[:-1], ends[1:])
    return rule.reshape((len(edges) // 2, 2) + rule.shape[1:]), edges[-1]


class _Tail:
    """The tail half-periods taken so far, as one array (fields _OMEGA ..
    _STEP, rows, components): row i after i half-periods, row 0 the empty
    tail.  The estimate is the partial sum before _MIN_TAIL_PANELS
    half-periods, then Levin's transform of the latest partial sums; the
    gap the larger of the last two steps between transforms, so that two
    that agree by accident do not end the tail.  Once the tail reaches
    x_max, the estimate is the plain partial sum, with no gap.
    """

    def __init__(self, columns: int, size: int, x: float, x_max: float):
        self.rows = np.empty((len(_EMPTY_TAIL), 1 + size, columns))
        self.rows[:, 0] = _EMPTY_TAIL
        # rows, where the fetched half-periods end, and the first row whose
        # sum or error is not finite (every later row's is not either)
        self.top, self.x, self.x_max = 1, x, x_max
        self.not_finite_from = math.inf

    def terms(self, head: np.ndarray) -> np.ndarray:
        """The head's panel estimates, then the tail's terms omega_n / n."""
        return np.concatenate((head, self.rows[_OMEGA, 1:self.top]
                               / _row_n(1, self.top)))

    def _add(self, rule: np.ndarray, x_end: float):
        """The rows of the half-periods of rule (as _half_periods gives,
        whose errors it consumes), the last of which ends at x_end."""
        top, end = self.top, self.top + len(rule)
        if end > self.rows.shape[1]:
            self.rows = np.concatenate((self.rows[:, :top], np.empty(
                (len(self.rows), end, self.rows.shape[2]))), axis=1)
        self.top, self.x, rows = end, x_end, self.rows
        # (panel, [estimate, error], component), two panels a half-period:
        # each term v1 + v2, its omega and the running sum from the last row
        rule = rule.reshape(2 * len(rule), 2, -1)
        sums = rows[_SUM, top - 1:end]
        np.add(rule[0::2, 0], rule[1::2, 0], out=sums[1:])
        np.multiply(sums[1:], _row_n(top, end), out=rows[_OMEGA, top:end])
        np.add.accumulate(sums, axis=0, out=sums)
        # the running error, the panels' errors added in turn to the last
        # row's (in place, to the first panel's)
        errors = rule[:, 1]
        errors[0] += rows[_ERR, top - 1]
        rows[_ERR, top:end] = np.add.accumulate(errors, axis=0)[1::2]
        if not all(map(math.isfinite,
                       rows[_SUM:_ERR + 1, end - 1].ravel().tolist())):
            finite = np.isfinite(rows[_SUM:_ERR + 1, top:end]).all(axis=(0, 2))
            self.not_finite_from = top + int(finite.argmin())
        rows[_EST, top:end] = sums[1:]
        # no transform where the tail reaches x_max
        ends = range(max(top, _MIN_TAIL_PANELS), end - (x_end >= self.x_max))
        if ends:
            _levin_windows(rows, ends)
        # each |est_i - est_(i-1)|, inf until two transforms (a row past one
        # the pass refuses may hold inf - inf), and the gaps
        step = rows[_STEP, top:end]
        np.subtract(rows[_EST, top:end], rows[_EST, top - 1:end - 1], out=step)
        np.abs(step, out=step)
        rows[_STEP, top:_MIN_TAIL_PANELS + 1] = math.inf
        np.maximum(rows[_STEP, top - 1:end - 1], step, out=rows[_GAP, top:end])
        if x_end >= self.x_max:
            rows[_GAP, end - 1] = 0.0

    def step(self, batch, taken: int, head_total, head_err, room: int,
             tol: Tolerance):
        """Add a batch's rows, (rule, x_end) as _half_periods gives it, and
        find the first row from taken on at which a test fires, for a head
        holding head_total and head_err and a budget spent from row room on:
        (row, test, total, err, share), share t_i - tail error - gap for a
        head step; test 0 a sum or error, or a converged estimate, is not
        finite (DomainError), 1 converged, 2 budget spent or a component
        stuck (ConvergenceError), 3 the head holds the larger error above a
        target or the tail reached x_max (head step), 4 the last row (fetch
        more).  Under one np.errstate; test 0 refuses what overflows."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if batch is not None:
                self._add(*batch)
            rows = self.rows[:, taken:self.top]
            total = rows[_EST] + head_total
            err = rows[_ERR] + head_err
            err += rows[_GAP]
            target = _target(total, tol)
            # per component: stuck (the tail error alone above the target,
            # the gap within it), the head's error the larger, error above
            flags = np.empty((3,) + total.shape, dtype=bool)
            np.greater(rows[_ERR:_GAP + 1], target, out=flags[:2])
            np.greater(flags[0], flags[1], out=flags[0])
            np.greater(err, target, out=flags[2])
            np.greater(head_err, rows[_ERR] + rows[_GAP], out=flags[1])
            flags[1] &= flags[2]
            for i, (stuck, head, bad) in enumerate(flags.any(axis=2).T.tolist()):
                row = taken + i
                last = row == self.top - 1
                if row >= self.not_finite_from or not (
                        bad or all(map(math.isfinite, total[i].tolist()))):
                    test = 0
                elif not bad:
                    test = 1
                elif stuck or row >= room:
                    test = 2
                elif head or last and self.x >= self.x_max:
                    test = 3
                elif last:
                    test = 4
                else:
                    continue
                return (row, test, total[i], err[i], target[i] - rows[_ERR, i]
                        - rows[_GAP, i] if test == 3 else None)


def _integrate(f: Callable, edges, h: float | None, x_max: float | None,
               tol: Tolerance):
    """The one quadrature driver, by the rules of integrate_semi_infinite:
    the head, the panels of edges (_seed_edges) by adaptive subdivision,
    and, if it ends before x_max, the tail in half-periods [x, x + h]
    extrapolated by Levin's u-transform, each step decided by _Tail.step.
    The plain pass, a head that reaches x_max, or a finite interval (x_max
    None), has no tail.  The first call of f takes the seed panels and
    _LEVIN_MAX_ORDER tail half-periods, later ones a third as many as the
    tail has taken; _MAX_SUBDIVISIONS, read at the call, bounds head splits
    and tail half-periods.  A pass summed to x_max checks the decay there.
    """
    budget = _MAX_SUBDIVISIONS
    x, n = float(edges[-1]), len(edges) - 1
    has_tail = x_max is not None and x < x_max
    if has_tail:
        # the seed panels and the first tail batch in one call of f
        edges = list(edges) + _half_period_edges(
            x, h, x_max, min(_LEVIN_MAX_ORDER, budget))[1:]
    x_end = float(edges[-1])
    edges = np.array(edges, dtype=float)
    rule = _gauss_kronrod(f, edges[:-1], edges[1:])
    head = _subdivide(f, edges[:n + 1], rule[:n])
    head_total, head_err, head_splits = next(head)
    scalar = head_total.ndim == 0

    def out(values):
        return values.item() if scalar else values

    def unconverged(total, err, splits: int) -> ConvergenceError:
        return ConvergenceError(
            f"quadrature error {float(np.max(err)):.3e} above tolerance "
            f"after {splits} subdivisions and tail half-periods",
            best_estimate=out(total), achieved_error=out(err))

    while not has_tail:
        # the whole target is the head's, _target on Python floats
        totals = head_total.reshape(-1).tolist()
        targets = [max(tol.abs_tol, tol.rel_tol * abs(t)) for t in totals]
        if not any(e > t for e, t in zip(head_err.reshape(-1).tolist(),
                                         targets)):
            if x_max is not None:
                _check_decay(rule[:, 0], totals, targets, x_max)
            return out(head_total)
        if head_splits >= budget:
            raise unconverged(head_total, head_err, head_splits)
        head_total, head_err, head_splits = head.send(
            (np.array(targets), budget - head_splits))
    batch = rule[n:].reshape((-1, 2) + rule.shape[1:]), x_end
    tail = _Tail(1 if scalar else len(head_total), len(batch[0]), x, x_max)
    taken = 0
    while True:
        taken, test, total, err, share = tail.step(
            batch, taken, head_total, head_err, budget - head_splits, tol)
        # head splits and tail half-periods the budget has left
        batch, room = None, budget - head_splits - taken
        if test == 0:
            raise DomainError(_NOT_FINITE)
        if test == 1:
            if taken == tail.top - 1 and tail.x >= x_max:
                _check_decay(tail.terms(rule[:n, 0].reshape(n, -1)),
                             total.reshape(-1).tolist(),
                             _target(total, tol).reshape(-1).tolist(), x_max)
            return out(total)
        if test == 2:
            raise unconverged(total, err, head_splits + taken)
        if test == 3:
            head_total, head_err, head_splits = head.send(
                (share, room) if (share > 0).all() else None)
        else:
            # a third as many as taken so far, at most a quarter of which
            # go unused, in one call of f
            batch = _half_periods(f, tail.x, h, x_max,
                                  min(-(-taken // 3), room))


def _quad_finite(f: Callable, a: float, b: float, tol: Tolerance) -> float:
    """Adaptive quadrature on [a, b] from eight equal seed panels: a pass
    of _integrate over a finite interval."""
    if not b > a:
        raise DomainError("need b > a")
    return _integrate(f, np.linspace(a, b, 9), None, None, tol)


# the first node of a pass whose first seed panel is half a half-period
# wide (_seed_edges), in half-periods: (1 + the lowest K15 node)/4, 0.0021
_FIRST_NODE = 0.25 * (1.0 + float(_K15_NODES[0]))
# below this node 1/x overflows, with 1 % to spare for the node's rounding
_MIN_NODE = 1.0 / (0.99 * sys.float_info.max)


def _truncation(decay_rate_hint: float, tol: Tolerance,
                half_period: float | None) -> tuple[float, float]:
    """Where integrate_semi_infinite truncates (0, inf) for an integrand
    decaying like x^2 exp(-decay_rate_hint * x), x_max, and the span
    x_max / half_period (0 without one).  DomainError for a decay rate not
    positive and finite, or one so small that x_max overflows, and the two
    Bessel-argument guards: DomainError where x v = pi x / half_period
    overflows at the farthest node, one half-period past x_max, and where
    the half-period is so small that 1/x overflows at the first node,
    from v = pi/half_period above about 1.19e306.  The hyperbolic weights
    of D+ and of the Bessel identities go like 1/x at 0, and would be inf
    there."""
    if not 0.0 < decay_rate_hint < math.inf:
        # at an infinite rate the seed panels would start at 4/rate = 0 and
        # never grow
        raise DomainError("decay_rate_hint must be positive and finite")
    rate = as_float(decay_rate_hint)
    # an abs_tol above 1 truncates no earlier than abs_tol = 1 would, which
    # keeps x_max positive
    log_inv_tol = max(math.log(1.0 / tol.abs_tol), 0.0)
    x_max = log_inv_tol / rate + 10.0
    # absorb polynomial prefactors x^2 into the truncation point
    for _ in range(3):
        x_max = (log_inv_tol + 2.0 * math.log1p(x_max)) / rate + 10.0
    if not x_max < math.inf:
        raise DomainError(
            f"the truncation point overflows: decay_rate_hint = {rate!r} is "
            f"too small")
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
    if not half_period * _FIRST_NODE >= _MIN_NODE:
        raise DomainError(
            f"1/x overflows at the quadrature's first node x = "
            f"{half_period * _FIRST_NODE:.3g}: the half-period pi/v = "
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
    evaluates in one array (all seed panels, with the first batch of tail
    half-periods in the tail mode, both halves of every panel a step
    splits, or a later batch of tail half-periods), so the integrand must
    act elementwise on an array of any length.

    The step rule is QUADPACK's globally adaptive refinement (Piessens et
    al. 1983), batched: while any component's summed error exceeds its
    target t_i = max(abs_tol, rel_tol * |I_i|), a step takes the panels
    with the largest error (in any component) one by one until the error
    left in the others is within t_i in every component, at most as many
    as the budget has left, and splits them all in one call.  When the
    worst panel alone covers the excess, that is the one split of the
    one-panel-per-step rule, with the same arithmetic.  One call of the
    four-row Bessel integrand of the verify suite with its K15 rule takes
    about 39 us for 1 panel, 46 us for 8, 82 us for 48 and 122 us for 100
    (warm, best of nine medians of 200 calls, 2-core x86 Xeon box), so the
    number of calls more than the number of nodes sets the cost.  The seed panels are therefore fine
    enough that most passes converge on their first call: geometric from
    min(1, x_max/8, 4/decay_rate_hint), dense near 0 where integrands have
    their structure, but none wider than half_period/2, the two K15 panels
    per half-period that the tail takes too (without a half-period,
    geometric to the truncation point).  A plain pass spans at most
    _TAIL_MIN_SPAN half-periods, so it seeds at most about 100 panels past
    the geometric prefix; the tail mode's head, about 8, in the same call
    as the first tail batch.  A verify run of every suite then makes 107
    calls of its integrands.

    The integrand must decay at least like exp(-decay_rate_hint * x) for
    large x; behaviour at 0 may be integrably singular (panels never touch
    the endpoints).  The interval is truncated where the tail bound falls
    below abs_tol/2, assuming an at-worst-quadratic prefactor of the
    exponential decay, and the remainder is integrated adaptively with
    per-panel Gauss-Kronrod error estimates.  A pass that sums up to the
    truncation point checks the decay there: where the panel (or tail
    half-period) that ends there holds more than _DECAY_SHARE = 2^-7 of the
    largest single |panel estimate| of a component and more than its
    target, the integral is cut off, not converged, and the pass raises
    DomainError.  Scaled by the largest panel, not by |I_i|, a component
    whose parts cancel passes; and the largest panel, unlike a sum over the
    panels, does not grow with their number, so 1 + cos x at a hint of 0.01
    (a tail of 1264 half-periods) is refused as at a hint of 0.2 (56).
    Over the golden outputs, verify all and the benchmark's ops the largest
    share is 1.2e-7, and every check ends at its first stage on Python
    floats, which passes where the last panel is within 2^-7 |I_i| over
    the number of panels.

    half_period only describes the integrand: it oscillates with that
    half-period far from 0 (pi/v for a factor J_n(x v)) and is smooth on
    its scale there.  One rule chooses the mode: when the truncation point
    lies more than _TAIL_MIN_SPAN = 50 half-periods out, the head ends at
    x0 = four half-periods and the oscillatory-tail mode sums the tail one
    half-period (two K15 panels) at a time; else the head reaches the
    truncation point, and this plain pass, with no tail, is faster.
    Levin's u-transform (Levin 1973, Int. J. Comput. Math. B3)
    extrapolates the tail's partial sums, per component.  The error
    estimate is the larger of the last two gaps between successive
    transforms plus the head's and the tail panels' |K15 - G7|, against
    each component's max(abs_tol, rel_tol * |I_i|); each step refines the
    head or adds a tail half-period, whichever part holds the larger error.
    A head step splits the panels the head's share of the target,
    t_i - tail error - gap, asks for when that share is positive in every
    component, else its worst panel.  The tail half-periods are evaluated
    in batches, _LEVIN_MAX_ORDER = 16 first, in the call of the head's
    seed panels (enough to end most tails there; the fewest that can end
    one is _MIN_TAIL_PANELS + 2 = 6), and then a third as many as taken so
    far, none starting past the truncation point.  A batch's partial sums,
    transforms and gaps are formed together, each transform summing its
    window row after row, for one component as for several.  One verdict
    makes the tests of a step for every half-period of the batch at once,
    in one order (not finite, converged, budget spent or stuck, head
    step): the pass goes on from the first at which one fires, with the
    values and decisions of taking the half-periods one at a time.  So a
    tail-mode pass of the four-row Bessel integrand of the verify suite
    costs about 0.16 ms, against 0.12 ms for a plain pass (warm, same
    box), and the cost does not grow with the number of oscillations
    before exp(-rate x) damps them; when the tail reaches the truncation
    point, the plain partial sum is taken.  The guards on the arguments:
    DomainError for a decay_rate_hint not positive and finite, where the
    Bessel argument x v = pi x / half_period overflows at the farthest
    node the pass can reach, one half-period past the truncation point,
    and where 1/x overflows at the first node, 0.0021 half-periods from 0.

    An integrand that gives nan or inf is a DomainError in both modes: the
    plain pass and the head refuse a sum or an error that is not finite
    after every step, and the tail refuses a half-period with a non-finite
    partial sum or error when it takes it.  (A nan compares False with
    every target, so without the check it would pass as converged.)  The
    rule's product turns an inf or an overflowing panel sum into nan, so
    no step warns on the way to the refusal.

    The bookkeeping is in arrays (see _subdivide, _Tail and _integrate),
    and every node, value and decision is that of a pass adding one panel
    or one half-period at a time.  A numpy call costs several times more
    cold than warm, so the bookkeeping makes few of them: cold, as the
    benchmark runs each op after its reference work, that tail-mode pass
    takes about 0.43 ms, 0.13 ms of it the integrand, 0.08 ms the rest of
    its K15 call and 0.23 ms the bookkeeping, 0.12 ms of which is the
    tail's one step (medians of 61, same box).

    Raises ConvergenceError (carrying the best estimate and the achieved
    error, per component for a vector integrand) when the tolerance cannot
    be met within the fixed budget of _MAX_SUBDIVISIONS = 4000 panel splits
    and tail half-periods together; a tail half-period counts when it is
    taken, not when its batch is evaluated.  The tail mode also raises it
    at once when a component's transforms have settled but the tail
    panels' summed error alone, which only grows, exceeds its target.
    """
    x_max, span = _truncation(decay_rate_hint, tol, half_period)
    x0 = _HEAD_HALF_PERIODS * half_period if span > _TAIL_MIN_SPAN else x_max
    return _integrate(integrand,
                      _seed_edges(x0, half_period, decay_rate_hint),
                      half_period, x_max, tol)
