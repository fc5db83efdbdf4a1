"""A reference copy of the quadrature driver of fpcavity.specfun as it
was before its bookkeeping moved into arrays: panels in a heap of tuples,
sums and error sums added panel by panel in Python, and a list of partial
sums turned into an array at every tail step.

The tests compare the array driver with it call by call: the nodes of
every integrand call, the estimates and errors of every step, the results
and the ConvergenceError payloads must agree bit for bit.  Only the
bookkeeping is copied; the rule constants, the truncation point, the
tolerance and the panel-split budget (read at every use) come from
fpcavity.specfun, as they are shared.  Like the original, it does not
refuse a non-finite integrand, which the array driver turns into a
DomainError.  It keeps the plain pass (_adaptive) and the tail mode in
functions of their own; where the array driver forms a batch's transforms together and decides the
steps of every half-period of the batch at once, the reference takes one
half-period a step, with one transform and one set of tests each.  Its
Levin transform sums its partial sums row after row, in the one order the
array driver's transforms take for any number of components.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
from typing import Callable

import numpy as np

from fpcavity import specfun
from fpcavity.errors import ConvergenceError, DomainError
from fpcavity.specfun import (_GK_WEIGHTS, _HEAD_HALF_PERIODS, _K15_NODES,
                              _LEVIN_MAX_ORDER, _MIN_TAIL_PANELS,
                              _TAIL_MIN_SPAN, DEFAULT_TOL, Tolerance,
                              _target, _truncation)


def _gauss_kronrod(f: Callable, a, b):
    """K15 estimates of int f over the panels [a_i, b_i], their
    |K15 - G7| error estimates and each panel's largest error, from one
    call of f and one product with the (15, 2) weight matrix.

    f receives the 15 nodes of every panel in one array, panel after panel,
    and returns one value per node, or a (k, n) array with one row per
    component.  Returns (estimates, errors, peaks), one entry per panel:
    floats, or for k rows length-k arrays (peaks are floats either way).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = (mid[:, None] + half[:, None] * _K15_NODES).ravel()
    y = np.asarray(f(x), dtype=float)
    # one row of 15 node values per panel (and component)
    y = y.reshape(y.shape[:-1] + (len(a), 15))
    gk = (y @ _GK_WEIGHTS) * half[:, None]
    k15, err = gk[..., 0], np.abs(gk[..., 1])
    if y.ndim == 2:
        err = err.tolist()
        return k15.tolist(), err, err
    return k15.T, err.T, err.max(axis=0).tolist()


def _subdivide(f: Callable, edges: list[float], seeds=None):
    """The adaptive panel subdivision over the panels defined by edges, one
    step at a time, each step one call of f: all seed panels (unless seeds
    brings their _gauss_kronrod estimates, errors and peaks), then both
    halves of every panel the step splits, panel after panel.

    Yields the running integral, its summed |K15 - G7| error and the number
    of panels split so far: floats for an integrand with one value per
    node; for one returning k rows, length-k arrays.  Each later step is
    sent (target, room): it takes panels worst first (by the largest error
    in any component) until the error left in the panels it has not taken
    is within target in every component, at most room of them, and splits
    them all.  Sent nothing (next), it splits the worst panel alone.
    """
    heap: list[tuple] = []
    # the counter breaks ties between zero-width panels before the values
    # would be compared (arrays have no order)
    order = itertools.count()
    total = 0.0
    err = 0.0
    splits = 0
    panels = seeds or _gauss_kronrod(f, edges[:-1], edges[1:])
    for a, b, val, e, peak in zip(edges[:-1], edges[1:], *panels):
        total += val
        err += e
        heapq.heappush(heap, (-peak, a, b, next(order), val, e))
    while True:
        target, room = (yield total, err, splits) or (math.inf, 1)
        popped = [heapq.heappop(heap)]
        left = err - popped[0][5]
        while len(popped) < room and heap and np.any(left > target):
            popped.append(heapq.heappop(heap))
            left = left - popped[-1][5]
        lo, hi = [], []
        for _, a, b, *_ in popped:
            mid = 0.5 * (a + b)
            lo += (a, mid)
            hi += (mid, b)
        vals, errs, peaks = _gauss_kronrod(f, lo, hi)
        for i, (_, a, b, _, val, e) in enumerate(popped):
            v1, v2 = vals[2 * i], vals[2 * i + 1]
            e1, e2 = errs[2 * i], errs[2 * i + 1]
            total += v1 + v2 - val
            err += e1 + e2 - e
            mid = hi[2 * i]
            heapq.heappush(heap, (-peaks[2 * i], a, mid, next(order), v1, e1))
            heapq.heappush(heap, (-peaks[2 * i + 1], mid, b, next(order), v2,
                                  e2))
        splits += len(popped)


def _adaptive(f: Callable, edges: list[float], tol: Tolerance):
    """Adaptive panel subdivision over the panels defined by edges.

    A float for an integrand with one value per node; for one returning k
    rows, a length-k array.  The pass ends when every component's summed
    error is within its own max(abs_tol, rel_tol * |total_i|); until then
    each step splits every panel that target asks for, in one call of f.
    """
    steps = _subdivide(f, edges)
    total, err, splits = next(steps)
    while True:
        target = _target(total, tol)
        if not np.any(err > target):
            return total
        if splits >= specfun._MAX_SUBDIVISIONS:
            raise ConvergenceError(
                f"quadrature error {float(np.max(err)):.3e} above tolerance "
                f"after {splits} subdivisions and tail half-periods",
                best_estimate=total,
                achieved_error=err,
            )
        total, err, splits = steps.send(
            (target, specfun._MAX_SUBDIVISIONS - splits))


def _quad_finite(f: Callable, a: float, b: float, tol: Tolerance) -> float:
    """Adaptive quadrature on [a, b] from eight equal seed panels."""
    if not b > a:
        raise DomainError("need b > a")
    return _adaptive(f, list(np.linspace(a, b, 9)), tol)


def _seed_edges(x_max: float, half_period: float | None,
                decay_rate: float) -> list[float]:
    # geometric seed panels: dense near 0 where integrands have their
    # structure, coarse towards the truncation point, but none wider than
    # half a half-period, and the first within four decay lengths
    width = math.inf if half_period is None else 0.5 * half_period
    edges = [0.0]
    x = min(1.0, x_max / 8.0, width, 4.0 / decay_rate)
    while x < x_max:
        edges.append(x)
        x += min(x, width)
    edges.append(x_max)
    return edges


def _levin_u(sums: np.ndarray, terms: np.ndarray, first: float) -> np.ndarray:
    """Levin u-transform of the partial sums s_0..s_k, column by column.

    sums and terms are (k + 1, c) arrays of the partial sums and of the
    terms a_n that end them; the remainder estimates are
    omega_n = (first + n) a_n.  Its sums run over the rows one after the
    other, whatever the number of columns.  A column in which an omega is
    0 (a row of exact zeros) or the transform overflows gets its last
    partial sum.
    """
    k = len(sums) - 1
    n = first + np.arange(k + 1)
    coef = np.array([(-1.0) ** j * math.comb(k, j) for j in range(k + 1)])
    coef *= (n / n[-1]) ** (k - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = coef[:, None] / (n[:, None] * terms)
        est = (np.add.accumulate(w * sums)[-1]
               / np.add.accumulate(w)[-1])
    return np.where(np.isfinite(est), est, sums[-1])


def _half_period_panels(x: float, h: float, x_max: float, n: int):
    """The panels [lo_i, hi_i] of up to n consecutive half-periods
    [x, x + h], [x + h, x + 2h], ..., each starting before x_max, two K15
    panels per half-period: one panel's |K15 - G7| on a whole half-wave is
    about 1e-12 of its value, and these add up."""
    lo, hi = [], []
    while len(lo) < 2 * n and x < x_max:
        mid = x + 0.5 * h
        end = x + h
        lo += (x, mid)
        hi += (mid, end)
        x = end
    return lo, hi


def _pairs(vals, errs):
    """Per half-period the K15 values and |K15 - G7| errors of its two
    panels, ((v1, v2), (e1, e2))."""
    return collections.deque((vals[i:i + 2], errs[i:i + 2])
                             for i in range(0, len(vals), 2))


def _half_periods(f: Callable, x: float, h: float, x_max: float, n: int):
    """Up to n consecutive half-periods from x (_half_period_panels), from
    one call of f, as _pairs."""
    lo, hi = _half_period_panels(x, h, x_max, n)
    vals, errs, _ = _gauss_kronrod(f, lo, hi)
    return _pairs(vals, errs)


def _oscillatory_tail(f: Callable, h: float, x_max: float, rate: float,
                      tol: Tolerance):
    """The head [0, x0], x0 = _HEAD_HALF_PERIODS h, by adaptive subdivision
    and the tail by half-period panels [x, x + h] whose partial sums Levin's
    u-transform extrapolates; see integrate_semi_infinite.

    Each step refines whichever part holds the larger error: the head
    when it does so in a component that has not yet converged, or once the
    tail has reached x_max; otherwise the tail takes one more half-period.
    A head step splits, in one call of f, the panels its share of the
    target, target - tail error - gap, asks for when that share is positive
    in every component, else its worst panel.  The tail fetches
    half-periods in batches: _LEVIN_MAX_ORDER, enough to end most tails,
    in the head's first call of f, and then a third as many as it has
    taken so far, one call each (_half_periods), so the batches grow
    geometrically; it takes them one at a time, with one transform and
    one set of tests per half-period.
    The tail panels' summed error only grows, so a component whose
    transforms agree within its target while that sum alone exceeds it
    cannot converge, and the pass fails at once.
    """
    x0 = _HEAD_HALF_PERIODS * h
    edges = _seed_edges(x0, h, rate)
    seeds = len(edges) - 1
    lo, hi = _half_period_panels(
        x0, h, x_max, min(_LEVIN_MAX_ORDER, specfun._MAX_SUBDIVISIONS))
    vals, errs, peaks = _gauss_kronrod(f, edges[:-1] + lo, edges[1:] + hi)
    head = _subdivide(f, edges, (vals[:seeds], errs[:seeds], peaks[:seeds]))
    head_total, head_err, head_splits = next(head)
    scalar = isinstance(head_total, float)

    def out(values):
        return float(values[0]) if scalar else values

    sums, terms = [], []
    partial = tail_err = np.zeros(np.shape(head_total) or (1,))
    est, gaps = partial, (math.inf, math.inf)
    x = x0
    fetched = _pairs(vals[seeds:], errs[seeds:])
    while True:
        # head splits and tail half-periods taken so far
        splits = head_splits + len(sums)
        gap = np.maximum(*gaps)
        total = head_total + est
        err = head_err + tail_err + gap
        target = _target(total, tol)
        bad = err > target
        if not np.any(bad):
            return out(total)
        stuck = bad & (tail_err > target) & (gap <= target)
        if splits >= specfun._MAX_SUBDIVISIONS or np.any(stuck):
            raise ConvergenceError(
                f"quadrature error {float(np.max(err)):.3e} above tolerance "
                f"after {splits} subdivisions and tail half-periods",
                best_estimate=out(total), achieved_error=out(err))
        room = specfun._MAX_SUBDIVISIONS - splits
        if x >= x_max or np.any(bad & (head_err > tail_err + gap)):
            share = target - tail_err - gap
            head_total, head_err, head_splits = head.send(
                (share, room) if np.all(share > 0) else None)
            continue
        if not fetched:
            # a third of those taken so far, at most a quarter of which go
            # unused
            fetched = _half_periods(f, x, h, x_max,
                                    min(-(-len(sums) // 3), room))
        (v1, v2), (e1, e2) = fetched.popleft()
        x += h
        val = np.atleast_1d(v1 + v2)
        partial = partial + val
        tail_err = tail_err + e1 + e2
        sums.append(partial)
        terms.append(val)
        if x >= x_max:
            # the plain partial sum has reached the truncation point
            est, gaps = partial, (0.0, 0.0)
        elif len(sums) >= _MIN_TAIL_PANELS:
            lo = max(0, len(sums) - _LEVIN_MAX_ORDER - 1)
            new = _levin_u(np.array(sums[lo:]), np.array(terms[lo:]),
                           _HEAD_HALF_PERIODS + lo)
            # the larger of the last two gaps between successive
            # transforms, so that two that agree by accident do not end
            # the tail
            if len(sums) > _MIN_TAIL_PANELS:
                gaps = (gaps[1], np.abs(new - est))
            est = new
        else:
            est = partial


def integrate_semi_infinite(integrand: Callable, decay_rate_hint: float,
                            tol: Tolerance = DEFAULT_TOL,
                            half_period: float | None = None):
    """fpcavity.specfun.integrate_semi_infinite on the reference driver."""
    x_max, span = _truncation(decay_rate_hint, tol, half_period)
    if span > _TAIL_MIN_SPAN:
        return _oscillatory_tail(integrand, half_period, x_max,
                                 decay_rate_hint, tol)
    return _adaptive(integrand,
                     _seed_edges(x_max, half_period, decay_rate_hint), tol)
