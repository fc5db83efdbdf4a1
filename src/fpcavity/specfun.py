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
    # one row of 15 node values per panel (and component).  An inf or a
    # huge node value makes a sum inf or nan here, and adding 0 gk makes
    # each such sum nan and leaves the others as they are, so that no later
    # sum of the drivers warns; they refuse it when they take it
    with np.errstate(invalid="ignore", over="ignore"):
        gk = ((y.reshape(y.shape[:-1] + (len(a), 15)) @ _GK_WEIGHTS)
              * half[:, None])
        gk += 0.0 * gk
    err = gk[..., 1]
    np.abs(err, out=err)
    if y.ndim == 1:
        return gk, err
    return gk.transpose(1, 2, 0), np.maximum.reduce(err, axis=0)


def _target(total, tol: Tolerance):
    # each component's own max(abs_tol, rel_tol * |total_i|)
    return np.maximum(tol.abs_tol, tol.rel_tol * np.abs(total))


_NOT_FINITE = ("the integral or its error estimate is not finite: the "
               "integrand gives nan or inf")


def _running_sum(start, terms: np.ndarray):
    """start + terms[0] + terms[1] + ..., added one term after the other
    (per component), as a loop over the panels adds them."""
    if len(terms) == 1:
        return start + terms[0]
    return np.add.accumulate(np.concatenate((start[None], terms)))[-1]


def _subdivide(f: Callable, edges, seeds=None):
    """The adaptive panel subdivision over the panels defined by edges, one
    step at a time, each step one call of f: all seed panels (unless seeds
    brings their _gauss_kronrod rule and peaks, evaluated with other
    panels in one call), then both halves of every panel the step splits,
    panel after panel.

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
    rule, peaks = seeds or _gauss_kronrod(f, edges[:-1], edges[1:])
    # the running integral and error
    sums = _running_sum(np.zeros(rule.shape[1:]), rule)
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


def _seed_edges(x_max: float, half_period: float | None,
                decay_rate: float) -> np.ndarray:
    """The seed panels' edges on [0, x_max]: geometric from
    min(1, x_max/8, 4/decay_rate), dense near 0 where integrands have their
    structure, but no panel wider than half_period/2, as the tail takes two
    K15 panels per half-period (_half_periods).  Without a half-period the
    panels are geometric to x_max.  The first panel ends within four decay
    lengths: at a rate of 1e4, exp(-decay_rate x) on a first panel [0, 1]
    has all but e^-43 of its weight before the first node, and the K15 and
    G7 sums there agree on a value near 0.

    Seeds that fine end most passes in their first call of the integrand:
    a call costs far more than its nodes (see integrate_semi_infinite).  A
    plain pass spans at most _TAIL_MIN_SPAN half-periods, so it seeds at
    most about 100 capped panels; the tail mode's head, 8.
    """
    width = math.inf if half_period is None else 0.5 * half_period
    edges = [0.0]
    x = min(1.0, x_max / 8.0, width, 4.0 / decay_rate)
    while x < x_max:
        edges.append(x)
        x += min(x, width)
    edges.append(x_max)
    return np.array(edges)


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
# the partial sums in the transform of the highest order
_LEVIN_WINDOW = _LEVIN_MAX_ORDER + 1
# Levin's signed binomial rows (-1)^j C(k, j), j = 0..k, for every order k
# the transform takes, each padded with zeros to _LEVIN_WINDOW
_LEVIN_ROWS = np.array([[(-1.0) ** j * math.comb(k, j) if j <= k else 0.0
                         for j in range(_LEVIN_WINDOW)]
                        for k in range(_LEVIN_WINDOW)])


# the first batch's range of ends (4 to 16) recurs in every tail; the
# ranges of later batches vary with the steps taken
@functools.lru_cache(maxsize=16)
def _levin_tables(first_end: int, count: int):
    """The parts of _levin_windows' windows that depend on the ends alone,
    for the consecutive ends first_end .. first_end + count - 1, built once
    per range and read-only: each window's coefficients and n_j (shape
    (count, _LEVIN_WINDOW, 1), to broadcast over the columns), the rows of
    sums and terms it reads, and the mask of its padding rows."""
    ends = np.arange(first_end, first_end + count)
    firsts = np.maximum(ends - _LEVIN_WINDOW, 0)
    rows = firsts[:, None] + np.arange(1, _LEVIN_WINDOW + 1)
    n = (_HEAD_HALF_PERIODS - 1) + rows
    # the order k of each window, whose last half-period is n_k = n_0 + k
    order = np.minimum(ends, _LEVIN_WINDOW)[:, None] - 1
    coef = _LEVIN_ROWS[order[:, 0]] * (n / (n[:, :1] + order)) ** (order - 1)
    tables = (coef[:, :, None], n[:, :, None].astype(float),
              np.minimum(rows, ends[:, None]), rows > ends[:, None])
    for table in tables:
        table.flags.writeable = False
    return tables


def _levin_windows(sums: np.ndarray, terms: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """The transform the tail takes after each row e of ends (consecutive,
    each at least _MIN_TAIL_PANELS), one row per e: Levin's u-transform,
    column by column, of the partial sums in rows first + 1..e of sums,
    first = max(0, e - _LEVIN_WINDOW), with terms holding the terms a_n
    that end them and the remainder estimates omega_n = n a_n of
    half-periods n = _HEAD_HALF_PERIODS + first on.  A column in which an
    omega is 0 (a row of exact zeros) or the transform overflows gets its
    last partial sum.

    Every window has order k = min(e, _LEVIN_WINDOW) - 1, and its rows j
    the coefficients (-1)^j C(k, j) (n_j / n_k)^(k - 1), from one rule for
    the tail's first, shorter windows and the full ones alike.  The
    windows are stacked along a new axis, a window shorter than
    _LEVIN_WINDOW rows padded with -0.0 (x + -0.0 = x), and each is summed
    one row after the other (np.add.accumulate), in the same order for any
    number of columns.  Everything but the data, the coefficients, n, the
    rows each window reads and its padding, comes from _levin_tables, built
    once for each range of ends: every tail's first batch asks for the same
    ends, 4 to 16, and each call forms only the weights and the sums.
    """
    # a batch may take no transform: all its rows before _MIN_TAIL_PANELS,
    # or its one row at x_max
    coef, n, rows, pad = _levin_tables(int(ends[0]) if len(ends) else 0,
                                       len(ends))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = coef / (n * terms[rows])
        ws = w * sums[rows]
        w[pad] = ws[pad] = -0.0
        est = (np.add.accumulate(ws, axis=1)[:, -1]
               / np.add.accumulate(w, axis=1)[:, -1])
    return np.where(np.isfinite(est), est, sums[ends])


def _half_period_edges(x: float, h: float, x_max: float, n: int):
    """The panel edges of up to n consecutive half-periods [x, x + h],
    [x + h, x + 2h], ..., each starting before x_max: x, x + h/2, x + h,
    ...  Two K15 panels per half-period: one panel's |K15 - G7| on a whole
    half-wave is about 1e-12 of its value, and these add up."""
    edges = [x]
    while len(edges) < 2 * n + 1 and x < x_max:
        edges += (x + 0.5 * h, x + h)
        x += h
    return np.array(edges)


def _half_periods(f: Callable, x: float, h: float, x_max: float, n: int):
    """Up to n consecutive half-periods from x (_half_period_edges), from
    one call of f: per half-period the _gauss_kronrod rule of its two
    panels, an array of shape (half-periods, 2, 2), or (half-periods, 2, 2,
    k) for k rows."""
    edges = _half_period_edges(x, h, x_max, n)
    rule, _ = _gauss_kronrod(f, edges[:-1], edges[1:])
    return rule.reshape((len(edges) // 2, 2) + rule.shape[1:])


class _Tail:
    """The tail half-periods fetched so far, in arrays with one row per
    state: row i after i half-periods, row 0 the empty tail.

    Per row: the partial sum, the term that ends it and the summed panel
    error, and the estimate and the gap the pass holds there.  The estimate
    is the partial sum before _MIN_TAIL_PANELS half-periods, then Levin's
    transform of the latest partial sums.  The gap is the larger of the
    last two gaps between successive transforms, so that two that agree by
    accident do not end the tail.  Once the tail reaches x_max, the
    estimate is the plain partial sum, with no gap.  The rows of a batch
    are formed together, their transforms by _levin_windows, and verdict
    decides the steps of all of them at once.
    """

    def __init__(self, columns: int, x: float, h: float, x_max: float):
        self.sums = self.terms = self.errs = self.ests = np.zeros((1, columns))
        # where the fetched half-periods end
        self.x, self.h, self.x_max = x, h, x_max

    def add(self, rule: np.ndarray):
        """The rows of the half-periods of rule (as _half_periods gives)."""
        top = len(self.sums)
        for _ in range(len(rule)):
            self.x += self.h
        added = (rule[:, 0, 0] + rule[:, 1, 0]).reshape(len(rule), -1)
        self.terms = np.concatenate((self.terms, added))
        self.sums = np.concatenate((self.sums, np.add.accumulate(
            np.concatenate((self.sums[-1:], added)))[1:]))
        # each half-period adds the errors of its two panels in turn
        self.errs = np.concatenate((self.errs, np.add.accumulate(
            np.concatenate((self.errs[-1:],
                            rule[:, :, 1].reshape(2 * len(rule), -1))))[2::2]))
        ests = self.sums[top:].copy()
        # no transform where the tail reaches x_max
        levin = np.arange(max(top, _MIN_TAIL_PANELS),
                          len(self.sums) - (self.x >= self.x_max))
        ests[levin - top] = _levin_windows(self.sums, self.terms, levin)
        self.ests = np.concatenate((self.ests, ests))
        # each row's |est_i - est_(i-1)|, inf until two transforms; a row
        # past one the pass refuses may hold inf - inf
        with np.errstate(invalid="ignore"):
            steps = np.abs(self.ests - np.concatenate((self.ests[:1],
                                                       self.ests[:-1])))
        steps[:_MIN_TAIL_PANELS + 1] = math.inf
        self.gaps = np.maximum(np.concatenate((steps[:1], steps[:-1])), steps)
        if self.x >= self.x_max:
            self.gaps[-1] = 0.0

    def verdict(self, taken: int, head_total, head_err, room: int,
                tol: Tolerance):
        """The first row from taken on that decides a step, for a head
        holding head_total and head_err and a budget spent from row room
        on, tested for every row at once with the arithmetic of one row at
        a time: (row, test, total, err, share), with the row's estimate,
        error and head's share of the target, t_i - tail error - gap, and
        the first test that fires there: 0 a partial sum or error, or the
        estimate where it converges, is not finite (DomainError); 1 every
        component converged; 2 the budget is spent or a component is stuck
        (ConvergenceError); 3 the head holds the larger error in a
        component above its target, or the tail has reached x_max (a head
        step); 4 none up to the last row fetched (fetch more)."""
        rows = slice(taken, None)
        tail_err, gap = self.errs[rows], self.gaps[rows]
        # a row past one the pass refuses may hold inf - inf, and a total
        # may overflow: test 0 refuses both
        with np.errstate(invalid="ignore", over="ignore"):
            total = head_total + self.ests[rows]
            err = head_err + tail_err + gap
            target = _target(total, tol)
            bad = err > target
            converged = ~bad.any(axis=1)
            tests = np.array((
                ~(np.isfinite(self.sums[rows])
                  & np.isfinite(tail_err)).all(axis=1)
                | converged & ~np.isfinite(total).all(axis=1),
                converged,
                (bad & (tail_err > target) & (gap <= target)).any(axis=1),
                (bad & (head_err > tail_err + gap)).any(axis=1),
                np.zeros(len(total), dtype=bool)))
        tests[2, max(room - taken, 0):] = True
        tests[3, -1] |= self.x >= self.x_max
        tests[4, -1] = True
        i, test = divmod(int(tests.T.argmax()), 5)
        return (taken + i, test, total[i], err[i],
                target[i] - tail_err[i] - gap[i])


def _integrate(f: Callable, edges: np.ndarray, h: float | None,
               x_max: float, tol: Tolerance):
    """The one quadrature driver, by the rules of integrate_semi_infinite:
    the head, the panels defined by edges (_seed_edges: fine enough that
    most passes converge on this first call of f), by adaptive subdivision
    and, when the head ends before x_max, the tail in half-periods
    [x, x + h] whose partial sums Levin's u-transform extrapolates (_Tail).
    A head that reaches x_max leaves no tail (h is unused): the plain pass,
    a loop of head steps alone.  Head splits and tail half-periods together
    may number _MAX_SUBDIVISIONS, read at the call.  The first call of f
    takes the head's seed panels and _LEVIN_MAX_ORDER tail half-periods;
    later ones, a third as many half-periods as the tail has taken.  One
    function, _Tail.verdict, decides every step of the tail mode.
    """
    budget = _MAX_SUBDIVISIONS
    x = float(edges[-1])
    has_tail = x < x_max
    seeds = None
    if has_tail:
        # the head's seed panels and the first tail batch, enough
        # half-periods to end most tails, in one call of f
        both = np.concatenate((edges, _half_period_edges(
            x, h, x_max, min(_LEVIN_MAX_ORDER, budget))[1:]))
        rule, peaks = _gauss_kronrod(f, both[:-1], both[1:])
        n = len(edges) - 1
        seeds = rule[:n], peaks[:n]
    head = _subdivide(f, edges, seeds)
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
        # the whole target is the head's
        target = _target(head_total, tol)
        if not (head_err > target).any():
            return out(head_total)
        if head_splits >= budget:
            raise unconverged(head_total, head_err, head_splits)
        head_total, head_err, head_splits = head.send(
            (target, budget - head_splits))
    tail = _Tail(1 if scalar else len(head_total), x, h, x_max)
    tail.add(rule[n:].reshape((-1, 2) + rule.shape[1:]))
    taken = 0
    while True:
        taken, test, total, err, share = tail.verdict(
            taken, head_total, head_err, budget - head_splits, tol)
        # head splits and tail half-periods the budget has left
        room = budget - head_splits - taken
        if test == 0:
            raise DomainError(_NOT_FINITE)
        if test == 1:
            return out(total)
        if test == 2:
            raise unconverged(total, err, head_splits + taken)
        if test == 3:
            head_total, head_err, head_splits = head.send(
                (share, room) if (share > 0).all() else None)
        else:
            # a third as many as taken so far, at most a quarter of which
            # go unused, in one call of f
            tail.add(_half_periods(f, tail.x, h, x_max,
                                   min(-(-taken // 3), room)))


def _quad_finite(f: Callable, a: float, b: float, tol: Tolerance) -> float:
    """Adaptive quadrature on [a, b] from eight equal seed panels: a pass
    of _integrate whose head reaches b."""
    if not b > a:
        raise DomainError("need b > a")
    return _integrate(f, np.linspace(a, b, 9), None, b, tol)


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
    about 37 us for 1 panel, 41 us for 8, 74 us for 48 and 117 us for 100
    (warm, 2-core x86 Xeon box), so the number of calls more than the
    number of nodes sets the cost.  The seed panels are therefore fine
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
    per-panel Gauss-Kronrod error estimates.

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
    costs about 0.36 ms, against 0.19 ms for a plain pass (warm, same
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
    or one half-period at a time.

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
