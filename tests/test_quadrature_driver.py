"""The array-based quadrature driver of fpcavity.specfun against the
panel-by-panel reference driver in quad_reference.py, bit for bit and call
by call, and the refusal of a non-finite integrand."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import quad_reference as ref
from fpcavity import (ConvergenceError, DomainError, Separation, Tolerance,
                      bessel_j, integrate_semi_infinite, kernel_d)
from fpcavity import radiation, specfun, verify
from fpcavity.specfun import _HEAD_HALF_PERIODS, _K15_NODES, _TAIL_MIN_SPAN
from fpcavity.radiation import (_d_rows, _hyperbolic_weights,
                                _kernel_d_reference)

TIGHT = Tolerance(1e-12, 1e-12)
EDGES = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 30.0]


def _bits(x):
    """The type and the bytes of a float or an array of floats."""
    return type(x), np.asarray(x, dtype=float).tobytes()


def _recording(f):
    calls = []

    def g(x):
        calls.append(np.array(x))
        return f(x)
    return g, calls


def _same_calls(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def _outcome(integrate, f, *args, **kwargs):
    """The result of integrate(recorded f, ...), or the ConvergenceError's
    message and payload, and the nodes of every call of f."""
    g, calls = _recording(f)
    try:
        out = ("result", _bits(integrate(g, *args, **kwargs)))
    except ConvergenceError as exc:
        out = ("error", str(exc), _bits(exc.best_estimate),
               _bits(exc.achieved_error))
    return out, calls


def _assert_same(f, *args, **kwargs):
    got, got_calls = _outcome(integrate_semi_infinite, f, *args, **kwargs)
    want, want_calls = _outcome(ref.integrate_semi_infinite, f, *args,
                                **kwargs)
    assert got == want
    _same_calls(got_calls, want_calls)
    return got


def _scalar(x):
    return np.exp(-x) * np.cos(3.0 * x)


def _four_rows(x):
    # four components of different size and shape, one of them zero
    damp = np.exp(-x)
    return np.array([damp * np.cos(3.0 * x), 1e-6 * x * damp * np.sin(7.0 * x),
                     np.zeros_like(x), x * x * damp * special.j1(2.0 * x)])


def _bump(x):
    # narrow bumps that take many split steps of several panels each
    return (np.exp(-x) + np.exp(-((x - 1.3) / 0.01) ** 2)
            + 0.5 * np.exp(-((x - 7.1) / 0.003) ** 2))


def _four_row_bumps(x):
    return np.array([_bump(x), _scalar(x), 1e-9 * _bump(x + 0.5),
                     np.exp(-((x - 2.2) / 0.02) ** 2)])


def _tail_scalar(x):
    return np.exp(-1e-3 * x) * special.j0(x)


def _tail_rows(x):
    damp = np.exp(-1e-3 * x)
    return np.array([damp * special.j0(x), np.zeros_like(x),
                     x * x * damp * special.j1(x) / (2.0 + x),
                     damp * special.j0(x) + np.exp(-((x - 1.0) / 0.01) ** 2)])


PLAIN = [_scalar, _four_rows, _bump, _four_row_bumps]
PLAIN_IDS = ["scalar", "four_rows", "bump", "four_row_bumps"]
TAIL = [_tail_scalar, _tail_rows]
TAIL_IDS = ["scalar", "four_rows"]


@pytest.mark.parametrize("f", PLAIN, ids=PLAIN_IDS)
@pytest.mark.parametrize("tol", [TIGHT, Tolerance(1e-9, 1e-7),
                                 Tolerance(1e-14, 1e-14)])
def test_plain_pass_matches_the_reference(f, tol):
    _assert_same(f, 1.0, tol)


def _finite_bump(t):
    # a peak of width 0.03 at 0.1 on [-1, 1], and a narrower one at 0.7
    return 1.0 / (9e-4 + (t - 0.1) ** 2) + np.exp(-((t - 0.7) / 0.005) ** 2)


def _finite_rows(t):
    return np.array([_finite_bump(t), np.cos(5.0 * t), np.zeros_like(t),
                     1e-8 * _finite_bump(-t)])


@pytest.mark.parametrize("f", [_finite_bump, _finite_rows],
                         ids=["scalar", "four_rows"])
@pytest.mark.parametrize("tol, budget", [
    (TIGHT, 4000), (Tolerance(1e-9, 1e-7), 4000),
    (Tolerance(1e-300, 1e-300), 1), (Tolerance(1e-300, 1e-300), 13),
    (TIGHT, 3)])
def test_quad_finite_matches_the_reference(f, tol, budget, monkeypatch):
    # the finite-interval pass, from eight equal seed panels, converged and
    # with its budget spent: same nodes, same result or same error payload
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", budget)
    got, got_calls = _outcome(specfun._quad_finite, f, -1.0, 1.0, tol)
    want, want_calls = _outcome(ref._quad_finite, f, -1.0, 1.0, tol)
    assert got == want
    _same_calls(got_calls, want_calls)
    assert got[0] == ("result" if budget == 4000 else "error")


def test_bumps_take_many_panels_per_step():
    # the case is worth its name: some step splits more than two panels
    g, calls = _recording(_four_row_bumps)
    integrate_semi_infinite(g, 1.0, TIGHT)
    assert max(len(x) for x in calls[1:]) > 2 * 30


@pytest.mark.parametrize("f", PLAIN, ids=PLAIN_IDS)
@pytest.mark.parametrize("budget", [1, 2, 5, 13, 40])
def test_spent_budget_matches_the_reference(f, budget, monkeypatch):
    # a tolerance below the rounding: the pass spends its budget, and the
    # error's message, estimate and achieved error are the reference's
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", budget)
    got = _assert_same(f, 1.0, Tolerance(1e-300, 1e-300))
    assert got[0] == "error"


@pytest.mark.parametrize("f", TAIL, ids=TAIL_IDS)
@pytest.mark.parametrize("tol, budget", [
    (TIGHT, 4000), (Tolerance(1e-10, 1e-10), 4000),
    (Tolerance(1e-300, 1e-300), 25), (Tolerance(1e-12, 1e-12), 8)],
    ids=["tol0", "tol1", "tol2", "tol3"])
def test_tail_mode_matches_the_reference(f, tol, budget, monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", budget)
    _assert_same(f, 1e-3, tol, half_period=math.pi)


@pytest.mark.parametrize("rate", [1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
def test_fast_decay_is_resolved(rate):
    # the first seed panel ends within four decay lengths: a first panel
    # [0, 1] gave 3.2e-21 for 1e-4 at a rate of 1e4, with no error
    f = lambda x: np.exp(-rate * x)
    _assert_same(f, rate)
    assert integrate_semi_infinite(f, rate) == pytest.approx(1.0 / rate,
                                                             rel=1e-12)


def test_fast_decay_in_the_tail_mode():
    # a truncation point 100 half-periods out takes the tail mode, whose
    # head seeds start at 4/rate too
    rate, h = 1e3, 0.1
    f = lambda x: np.exp(-rate * x) * np.cos(math.pi / h * x)
    _assert_same(f, rate, half_period=h)
    want = rate / (rate ** 2 + (math.pi / h) ** 2)
    assert integrate_semi_infinite(f, rate, half_period=h) == pytest.approx(
        want, rel=1e-10)


def _slow_tail_scalar(x):
    # a term (1 + x)^-3 that the transform extrapolates slowly: the tail
    # takes many batches, with head splits between some of them
    return np.exp(-1e-3 * x) * (special.j0(x) + (1.0 + x) ** -3)


def _slow_tail_rows(x):
    return np.array([_slow_tail_scalar(x), np.zeros_like(x),
                     x * x * np.exp(-1e-3 * x) * special.j1(x) / (2.0 + x)])


@pytest.mark.parametrize("f", [_slow_tail_scalar, _slow_tail_rows],
                         ids=TAIL_IDS)
@pytest.mark.parametrize("tol", [Tolerance(1e-10, 1e-10), TIGHT,
                                 Tolerance(1e-10, 1e-8)],
                         ids=["tol0", "tol1", "tol2"])
def test_slow_tail_matches_the_reference(f, tol):
    # every batch's decisions, made for all its half-periods at once, are
    # those of the reference, which takes one half-period a step; at TIGHT
    # the rows' tail gets stuck
    got = _assert_same(f, 1e-3, tol, half_period=math.pi)
    assert got[0] == ("error" if f is _slow_tail_rows and tol is TIGHT
                      else "result")


@pytest.mark.parametrize("tol, budget", [
    (TIGHT, 17), (TIGHT, 21), (Tolerance(1e-300, 1e-300), 17),
    (Tolerance(1e-300, 1e-300), 34)], ids=["tol0", "tol1", "tol2", "tol3"])
def test_budget_spent_inside_a_batch_matches_the_reference(tol, budget,
                                                           monkeypatch):
    # head splits between tail steps spend the budget before the fetched
    # half-periods are all taken: the pass stops at the half-period that
    # spends it, as the reference does
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", budget)
    got = _assert_same(_tail_rows, 1e-3, tol, half_period=math.pi)
    assert got[0] == "error" and f"after {budget} " in got[1]


@pytest.mark.parametrize("budget", [5, 6])
def test_a_tail_ends_after_six_half_periods_at_the_fewest(budget,
                                                          monkeypatch):
    # the head alone meets the target, and the tail's terms fall off
    # fast: the gap needs two transforms after the first, so five
    # half-periods spend a budget of five and six end the pass
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", budget)
    got = _assert_same(lambda x: np.exp(-x) * special.j0(x), 1e-3,
                       Tolerance(1e-10, 1e-10), half_period=math.pi)
    assert got[0] == ("error" if budget == 5 else "result")


def test_tail_reaching_the_truncation_point_matches_the_reference():
    # a real decay far slower than the hint: the transforms keep moving
    # and the tail runs to x_max, where its estimate is the plain partial
    # sum with no gap.  The kinks put the tail panels' error near 0.8 of
    # the target and the head's near 0.45: not converged, not stuck, and
    # the head holds the smaller error, so only the tail having reached
    # x_max turns the pass to the head
    def f(x):
        slow = np.exp(-0.05 * x)
        return (slow + 9e-8 * np.abs(np.sin(2.9 * x)) * (x < 1.2)
                + 6.5e-11 * np.abs(np.sin(7.3 * x)) * slow * (x > 1.2))

    # The true integral is about 20: the public call refuses the sum the
    # reference driver, which has no decay check, returns, after the same
    # calls of f
    args = (1.0, Tolerance(1e-12, 1e-300))
    g, got_calls = _recording(f)
    with pytest.raises(DomainError, match="holds 0.11 of the largest"):
        integrate_semi_infinite(g, *args, half_period=0.3)
    want, want_calls = _outcome(ref.integrate_semi_infinite, f, *args,
                                half_period=0.3)
    assert want[0] == "result"
    _same_calls(got_calls, want_calls)


def test_tail_mode_stuck_component_matches_the_reference():
    # x^2 sinh(x(u-1))/sinh(x) J1(x) at u = 0.005: the tail panels' summed
    # error alone exceeds the target, and the pass fails once the
    # transforms agree
    u = 0.005

    def f(x):
        return (x * x * (np.exp(x * (u - 2.0)) - np.exp(-x * u))
                / -np.expm1(-2.0 * x) * special.j1(x))

    got = _assert_same(f, u, Tolerance(1e-12, 1e-10), half_period=math.pi)
    assert got[0] == "error"


@pytest.mark.parametrize("u, v", [(1.6699899950525248, 1.486301846637082),
                                  (1.9702726761868574, 0.18384412428257013),
                                  (0.336932334826859, 1.7665381007648442),
                                  (0.01, 1.0)])
def test_unsplit_d_plus_matches_the_reference(u, v):
    # the four rows of the reference D+ route, in the tail mode, where the
    # transform sums up to 17 partial sums per component
    def rows(x):
        return _d_rows(x, v, *_hyperbolic_weights(x, u))

    _assert_same(rows, min(u, 2.0 - u), Tolerance(1e-13, 1e-11),
                 half_period=math.pi / v)


class _Captured(Exception):
    pass


def _captured_pass(module, call):
    """The integrand, decay rate and half-period of the first quadrature
    pass that call() makes through module.integrate_semi_infinite, which
    is stopped there."""
    seen = []

    def capture(integrand, rate, tol, half_period=None):
        seen.append((integrand, rate, half_period))
        raise _Captured

    saved = module.integrate_semi_infinite
    module.integrate_semi_infinite = capture
    try:
        call()
    except _Captured:
        pass
    finally:
        module.integrate_semi_infinite = saved
    return seen[0]


# the three integrands of the package's passes at (u, v): the four rows of
# the Bessel identities of verify, the remainder of kernel_d and the unsplit
# D+ of the reference route
_PHYSICS = {
    "bessel": lambda u, v: _captured_pass(
        verify, lambda: verify.check_bessel_hyperbolic(u, v)),
    "remainder": lambda u, v: _captured_pass(
        radiation, lambda: radiation._d_plus_base(u, v, TIGHT)),
    "unsplit": lambda u, v: _captured_pass(
        radiation, lambda: radiation._d_plus_reference(u, v, TIGHT)),
}


def _exits(calls, outcome, rate, tol, h):
    """The ways a pass ran, read from the nodes of its calls and its
    outcome: plain, head splits, first-batch tail, later batch, tail at
    x_max, spent budget."""
    x_max, span = specfun._truncation(rate, tol, h)
    if outcome[0] == "error":
        kinds = {"spent budget"}
    else:
        kinds = set()
    if not span > _TAIL_MIN_SPAN:
        kinds.add("plain")
        if len(calls) > 1:
            kinds.add("head splits")
        return kinds
    x0 = _HEAD_HALF_PERIODS * h
    later = [x for x in calls[1:] if x.min() > x0]
    if any(x.max() < x0 for x in calls[1:]):
        kinds.add("head splits")
    kinds.add("later batch" if later else "first-batch tail")
    fetched = sum(len(x) for x in [calls[0][calls[0] > x0]] + later) // 30
    if x0 + fetched * h >= x_max:
        kinds.add("tail at x_max")
    return kinds


_DRIVER_EXITS = set()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(_PHYSICS)),
       u=st.builds(lambda e, mirror: abs(mirror - 10.0 ** e),
                   st.floats(-3.0, 0.0), st.sampled_from([0.0, 2.0])),
       v=st.floats(0.0, 40.0), abs_exp=st.floats(-17.0, -6.0),
       rel_exp=st.floats(-16.0, -5.0),
       budget=st.one_of(st.just(4000), st.integers(1, 60)))
# two tails whose transforms keep moving by more than the target, 80 and
# 200 half-periods long: they run to the truncation point
@example(kind="unsplit", u=0.5, v=2.5, abs_exp=-15.0, rel_exp=-14.0,
         budget=4000)
@example(kind="remainder", u=0.5, v=22.0, abs_exp=-17.0, rel_exp=-15.0,
         budget=4000)
def _driver_matches_the_reference_on_the_physics(
        kind, u, v, abs_exp, rel_exp, budget):
    f, rate, h = _PHYSICS[kind](u, v)
    tol = Tolerance(10.0 ** abs_exp, 10.0 ** rel_exp)
    if abs_exp < -13.0:
        # a target below the rounding of the sums, which may spend any
        # budget in head splits of one call each: 300 keeps such draws
        # short and still lets a tail run to the truncation point
        budget = min(budget, 300)
    saved = specfun._MAX_SUBDIVISIONS
    specfun._MAX_SUBDIVISIONS = budget
    try:
        got, got_calls = _outcome(integrate_semi_infinite, f, rate, tol,
                                  half_period=h)
        want, want_calls = _outcome(ref.integrate_semi_infinite, f, rate,
                                    tol, half_period=h)
    finally:
        specfun._MAX_SUBDIVISIONS = saved
    assert got == want
    _same_calls(got_calls, want_calls)
    _DRIVER_EXITS.update(_exits(got_calls, got, rate, tol, h))


def test_driver_matches_the_reference_on_the_physics_integrands():
    # the Bessel rows, the remainder of kernel_d and the unsplit D+ at u
    # log-uniform to within 1e-3 of a mirror, v in [0, 40], drawn
    # tolerances and, for some draws, a small budget: same nodes, same
    # result or same error payload, call by call; and the draws together
    # take every exit of the driver
    _DRIVER_EXITS.clear()
    _driver_matches_the_reference_on_the_physics()
    assert _DRIVER_EXITS == {"plain", "head splits", "first-batch tail",
                             "later batch", "tail at x_max", "spent budget"}


def _steps(subdivide, f, edges, sends):
    """Every yield of subdivide(f, edges) for the given sends, and the
    nodes of every call of f."""
    def bits(step):
        # taken at once: the reference adds to its arrays in place
        total, err, splits = step
        return _bits(total)[1], _bits(err)[1], splits

    g, calls = _recording(f)
    steps = subdivide(g, edges)
    out = [bits(next(steps))]
    for sent in sends:
        out.append(bits(steps.send(sent) if sent is not None
                        else next(steps)))
    return out, calls


def _assert_same_steps(f, edges, sends):
    # the array driver yields numpy scalars where the reference yields
    # floats; the values agree bit for bit
    got, got_calls = _steps(specfun._subdivide, f, edges, sends)
    want, want_calls = _steps(ref._subdivide, f, edges, sends)
    assert got == want
    _same_calls(got_calls, want_calls)


@pytest.mark.parametrize("f", PLAIN, ids=PLAIN_IDS)
def test_subdivision_steps_match_the_reference(f):
    # one-panel steps, steps bounded by their room, and steps that take
    # panels until a target is met, in turn
    rng = np.random.default_rng(7)
    sends = []
    for _ in range(12):
        kind = rng.integers(3)
        if kind == 0:
            sends.append(None)
        elif kind == 1:
            sends.append((1e-300, int(rng.integers(1, 6))))
        else:
            sends.append((10.0 ** rng.uniform(-12, -4), 100))
    _assert_same_steps(f, EDGES, sends)


def _halves_nodes(a, b):
    mid = 0.5 * (a + b)
    return np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * _K15_NODES
                           for lo, hi in ((a, mid), (mid, b))])


@pytest.mark.parametrize("rows", [1, 4], ids=["scalar", "four_rows"])
def test_tied_peaks_split_in_position_order(rows):
    # a constant: a panel's error depends on its width alone, so panels of
    # one width tie, and the order among them is by position, as the
    # reference's heap breaks ties
    def f(x):
        ones = np.ones_like(x)
        return ones if rows == 1 else np.array([ones, 2.0 * ones,
                                                -ones, 0.5 * ones])

    edges = [0.0, 1.0, 2.0, 2.5, 3.0]
    g, calls = _recording(f)
    steps = specfun._subdivide(g, edges)
    for _ in range(4):
        next(steps)
    # [0, 1] and then [1, 2] split; their halves tie with [2, 2.5] and
    # [2.5, 3], which were made first, and [0, 0.5] comes first by position
    assert calls[1].tobytes() == _halves_nodes(0.0, 1.0).tobytes()
    assert calls[2].tobytes() == _halves_nodes(1.0, 2.0).tobytes()
    assert calls[3].tobytes() == _halves_nodes(0.0, 0.5).tobytes()
    _assert_same_steps(f, edges, [None, None, None, (1e-300, 4), None,
                                  (1e-300, 9)])


@pytest.mark.parametrize("rows", [1, 4], ids=["scalar", "four_rows"])
def test_zero_panels_tie_and_follow_the_others(rows):
    # the panels below x = 4 are exactly zero: their errors tie at 0 and
    # they are taken last, in position order
    def f(x):
        y = np.where(x > 4.0, np.exp(-x) * np.cos(3.0 * x), 0.0)
        return y if rows == 1 else np.array([y, 2.0 * y, np.zeros_like(x),
                                             -y])

    _assert_same_steps(f, EDGES, [(1e-300, 100), (1e-300, 7), None])


@pytest.mark.parametrize("f", [_scalar, _four_rows], ids=TAIL_IDS)
def test_gauss_kronrod_matches_the_reference(f):
    lo = np.array([0.0, 0.5, 1.0, 3.0, 3.0])
    hi = np.array([0.5, 1.0, 3.0, 3.0, 9.5])
    g, calls = _recording(f)
    rule = specfun._gauss_kronrod(g, lo, hi)
    h, want_calls = _recording(f)
    vals, errs, want_peaks = ref._gauss_kronrod(h, lo, hi)
    _same_calls(calls, want_calls)
    assert rule[:, 0].tobytes() == np.asarray(vals, dtype=float).tobytes()
    assert rule[:, 1].tobytes() == np.asarray(errs, dtype=float).tobytes()
    assert (specfun._peaks(rule).tobytes()
            == np.asarray(want_peaks, dtype=float).tobytes())


def test_j0_plus_j2_is_twice_j1_over_x_bit_for_bit():
    # one call of the Bessel source gives J0 and g = J1(x)/x, and bessel_j
    # has their bits, from 0 through the subnormals to the far form: J1 is
    # x g and, from x = 1 on, where it takes no series, J2 = 2 g - J0, so
    # J0 + J2 is 2 g
    x0 = specfun._FAR_X0
    x = np.concatenate([[0.0, 5e-324, 1e-300, 1e-8, 2e-4, 0.5, x0, 1e3],
                        np.geomspace(1e-6, x0 - 0.5, 400)])
    for t in x.tolist():
        j0, g = specfun._bessel_j0_g(t)[:, 0].tolist()
        assert _bits(bessel_j(0, t)) == _bits(j0)
        assert _bits(bessel_j(1, t)) == _bits(t * g)
        if t >= 1.0:
            assert _bits(bessel_j(2, t)) == _bits(2.0 * g - j0)
    assert 2.0 * specfun._bessel_j0_g(0.0)[1, 0] == 1.0
    assert bessel_j(1, 0.0) == 0.0


def test_levin_rows_come_from_the_table():
    # one row per order k, zero-padded to the longest window
    width = specfun._LEVIN_WINDOW
    assert specfun._LEVIN_ROWS.shape == (width, width)
    for k, row in enumerate(specfun._LEVIN_ROWS):
        assert row.tolist() == [(-1.0) ** j * math.comb(k, j)
                                for j in range(k + 1)] + [0.0] * (width - k - 1)


# ---------------------------------------------------------------------------
# a non-finite integrand is a domain error
# ---------------------------------------------------------------------------

def _nan_past(x0, f):
    return lambda x: np.where(x > x0, np.nan, f(x))


def _inf_past(x0, f):
    return lambda x: np.where(x > x0, np.inf, f(x))


def _huge_past(x0, f):
    # finite, but its panel sums pass the largest double
    return lambda x: np.where(x > x0, 1.7e308, f(x))


def _signed_inf_past(x0, f):
    # +inf, then -inf: a sum of both would be inf - inf
    return lambda x: np.where(x > x0, np.where(x > x0 + 5.0, -np.inf, np.inf),
                              f(x))


def _inf(x0, f):
    return lambda x: np.full_like(x, np.inf)


def _rows(f):
    return lambda x: np.array([f(x), np.exp(-x), np.zeros_like(x)])


@pytest.mark.parametrize("bad", [_nan_past, _inf_past, _huge_past,
                                 _signed_inf_past, _inf],
                         ids=["nan", "inf", "huge", "signed_inf", "all_inf"])
@pytest.mark.parametrize("shape", [lambda f: f, _rows], ids=["scalar",
                                                           "three_rows"])
def test_non_finite_integrand_is_a_domain_error(bad, shape):
    # in both modes, and with no RuntimeWarning from the quadrature's own
    # sums on the way
    plain = shape(bad(3.0, lambda x: np.exp(-x)))
    tail = shape(bad(30.0, lambda x: np.exp(-1e-3 * x) * np.cos(x)))
    with pytest.raises(DomainError, match="not finite"):
        integrate_semi_infinite(plain, 1.0)
    with pytest.raises(DomainError, match="not finite"):
        integrate_semi_infinite(tail, 1e-3, half_period=math.pi)


def test_non_finite_component_is_refused_before_the_others_converge(
        monkeypatch):
    # one row turns nan past x = 30 while the others cannot meet a target
    # of 1e-300: the tail refuses the nan once it takes it, not after the
    # budget
    def rows(x):
        damp = np.exp(-1e-3 * x)
        return np.array([np.where(x > 30.0, np.nan, damp * np.cos(x)),
                         damp * np.sin(x)])

    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 200)
    with pytest.raises(DomainError):
        integrate_semi_infinite(rows, 1e-3, Tolerance(1e-300, 1e-300),
                                half_period=math.pi)


def test_overflowing_total_is_a_domain_error():
    # head and tail are each finite, about 9e307 and 1e308, but their sum
    # overflows: the tail mode refuses the total where it would converge,
    # with no overflow warning on the way
    def f(x):
        return (1e305 * np.exp(-1e-3 * x) * (1.0 + np.sin(x))
                + 2.5e307 * np.exp(-((x - 6.0) / 2.0) ** 2))

    with pytest.raises(DomainError, match="not finite"):
        integrate_semi_infinite(f, 1e-3, half_period=math.pi)


def test_non_finite_value_in_a_split_panel_is_a_domain_error():
    # the seed panels are finite; a nan appears only once the bump at 1.3
    # is split
    def f(x):
        y = _bump(x)
        return np.where(np.abs(x - 1.3) < 1e-4, np.nan, y)

    g, calls = _recording(f)
    with pytest.raises(DomainError):
        integrate_semi_infinite(g, 1.0, TIGHT)
    assert len(calls) > 1


def test_non_finite_failure_becomes_a_failed_report(monkeypatch):
    def nan_pass(*args, **kwargs):
        return integrate_semi_infinite(lambda x: np.full((4, len(x)), np.nan),
                                       1.0)

    monkeypatch.setattr(verify, "integrate_semi_infinite", nan_pass)
    reports = verify.check_bessel_hyperbolic(0.5, 1.0)
    assert len(reports) == 4
    for r in reports:
        assert not r.passed and r.abs_err == math.inf
        assert "DomainError" in r.params["error"]


# ---------------------------------------------------------------------------
# an integrand that does not decay as its hint says is a domain error
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f, share", [
    (np.exp, "1"), (lambda x: np.exp(0.5 * x), "1"),
    (np.ones_like, "0.53")], ids=["exp", "exp_half", "ones"])
def test_integrand_that_does_not_decay_is_a_domain_error(f, share):
    # these diverge, and a pass cut off at the truncation point returned
    # 3.785632303407461e+17, 1230549843.1354933 and 40.47515950889746: the
    # panel that ends there holds that share of the largest panel
    with pytest.raises(DomainError, match=f"holds {share} of the largest"):
        integrate_semi_infinite(f, 1.0)


def test_tail_that_does_not_decay_is_a_domain_error():
    # 1 + cos x in the tail mode, about 56 half-periods out: the transforms
    # never settle, the tail reaches the truncation point, and its last
    # half-period is as large as any
    with pytest.raises(DomainError, match="holds 1 of the largest"):
        integrate_semi_infinite(lambda x: 1.0 + np.cos(x), 0.2,
                                half_period=math.pi)


@pytest.mark.parametrize("f, rate, half_period, share", [
    # a tail of 1264 half-periods, each as large as the last: the share of
    # the summed |half-periods| was 7.9e-4, and the pass returned 3970.97
    (lambda x: 1.0 + np.cos(x), 0.01, math.pi, "1"),
    # algebraic decay: the pass returned 0.9758891825410467 (exactly 1)
    (lambda x: 1.0 / (1.0 + x) ** 2, 1.0, None, "0.0124"),
    # decay at 0.05 against a hint of 1: the pass returned 17.408 (exactly
    # about 20.025)
    (lambda x: np.exp(-0.05 * x) * (1.0 + 0.5 * np.cos(x)), 1.0, math.pi,
     "0.0407")], ids=["long_tail", "algebraic", "slow_tail"])
def test_long_or_slow_tail_is_a_domain_error(f, rate, half_period, share):
    # the last panel or half-period is compared with the largest single
    # one, which does not shrink as the pass grows
    with pytest.raises(DomainError, match=f"holds {share} of the largest"):
        integrate_semi_infinite(f, rate, half_period=half_period)


@settings(max_examples=150, deadline=None)
@given(p=st.floats(0.0, 2.0), log_rate=st.floats(-2.0, 2.0),
       omega=st.one_of(st.just(0.0), st.floats(0.1, 50.0)))
def test_decay_check_refuses_no_correctly_hinted_integral(p, log_rate, omega):
    # x^p e^(-r x) cos(omega x), whose integral is
    # Gamma(p + 1) Re (r - i omega)^(-p - 1), at its own rate as the hint:
    # the pass returns it or fails to converge, and is never refused
    rate = 10.0 ** log_rate

    def f(x):
        return x ** p * np.exp(-rate * x) * np.cos(omega * x)

    exact = math.gamma(p + 1.0) * ((rate - 1j * omega) ** (-p - 1.0)).real
    try:
        got = integrate_semi_infinite(
            f, rate, half_period=math.pi / omega if omega else None)
    except ConvergenceError:
        return
    assert abs(got - exact) <= max(1e-8, 1e-8 * abs(exact)), (got, exact)


@pytest.mark.parametrize("half_period", [None, math.pi])
def test_decay_check_passes_noise_and_cancelling_components(half_period):
    # a component that does not decay but stays within its target, and one
    # whose parts cancel to nearly 0 over the panels: each is scaled by its
    # own target and largest panel, not by |total|
    def rows(x):
        damp = np.exp(-x)
        return np.array([damp, 1e-14 * np.ones_like(x),
                         damp * np.sin(2.0 * math.pi * x)])

    got = integrate_semi_infinite(rows, 1.0, half_period=half_period)
    assert got[0] == pytest.approx(1.0, rel=1e-10)
    assert abs(got[1]) < 1e-12


# ---------------------------------------------------------------------------
# the axis: D+- xz/zx are +0.0
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("route", [kernel_d, _kernel_d_reference],
                         ids=["kernel_d", "reference"])
@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("u", [1e-3, 0.3, 1.0, 1.7, 1.999])
def test_axial_d_xz_entries_are_positive_zero(route, sign, u):
    # so that the CLI prints 0 and not -0, as for E
    mat = route(sign, Separation(u, 0.0)).m
    assert mat[0, 2] == 0.0 and mat[2, 0] == 0.0
    assert not np.signbit(mat[0, 2]) and not np.signbit(mat[2, 0])


# ---------------------------------------------------------------------------
# report errors without numpy
# ---------------------------------------------------------------------------

def _errors_with_numpy(lhs, rhs, scale=None):
    # the report errors as numpy computes them
    la, ra = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    with np.errstate(invalid="ignore"):
        abs_err = float(np.max(np.abs(la - ra)))
    denom = scale if scale is not None else max(float(np.max(np.abs(la))),
                                                float(np.max(np.abs(ra))))
    if denom > 0:
        rel_err = abs_err / denom
    else:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    return abs_err, rel_err


def _sides():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3))
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-310, 1e308]
    yield 1.5, 1.5 + 1e-13, None
    yield np.float64(-2.0), -2.0, None
    yield 0.0, -0.0, None
    yield 0.0, 0.0, 0.0
    yield [1.0, 0.0], [1.0 + 1e-9, 0.0], None
    yield (0.25, -0.5), [0.25, -0.5], None
    yield m, m + 1e-12 * rng.standard_normal((3, 3)), None
    yield m, -m, float(np.max(np.abs(m)))
    for s in specials:
        for t in specials:
            yield s, t, None
            yield [s, 1.0], [t, 1.0], None
            mm = m.copy()
            mm[1, 2] = s
            yield mm, m, None
            yield m, mm, 2.0


def test_report_errors_match_numpy():
    for lhs, rhs, scale in _sides():
        got = verify._errors(lhs, rhs, scale)
        want = _errors_with_numpy(lhs, rhs, scale)
        assert all(type(g) is float for g in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_report_sides_serialize_as_with_numpy():
    for lhs, rhs, scale in _sides():
        report = verify._report("EQ22", {}, lhs, rhs, verify.TOL_EQ22, scale)
        for side, got in ((lhs, report.lhs), (rhs, report.rhs)):
            a = np.asarray(side, dtype=float)
            want = float(a) if a.ndim == 0 else a.tolist()
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.array(got).tobytes() == np.array(want).tobytes()
        assert (np.array([report.abs_err, report.rel_err]).tobytes()
                == np.array(_errors_with_numpy(lhs, rhs, scale)).tobytes())
