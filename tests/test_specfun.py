import heapq
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from fpcavity import (ConvergenceError, DomainError, ModeSumArgs, Tolerance,
                      apery_zeta3, bessel_j, direct_mode_sum,
                      hyperbolic_mode_sum, integrate_semi_infinite, xi)
from fpcavity import specfun
from fpcavity.specfun import (_BLOCK, _CHUNK, _G7_IDX, _G7_WEIGHTS,
                              _HEAD_HALF_PERIODS, _K15_NODES, _K15_WEIGHTS,
                              _MIN_TAIL_PANELS,
                              _TAIL_MIN_SPAN, _bessel_j0_j1_sum, _jv,
                              _lattice_moments, _quad_finite, _subdivide,
                              _truncation)

TIGHT = Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=4000)


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------

def _series_j0(x, terms=60):
    # independent ascending-series oracle, deliberately naive
    total, term = 1.0, 1.0
    q = 0.25 * x * x
    for k in range(1, terms):
        term *= -q / (k * k)
        total += term
    return total


def _first_j0_zero_by_bisection():
    lo, hi = 2.0, 3.0
    assert _series_j0(lo) > 0 > _series_j0(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _series_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(2, 0.0) == 0.0


def test_bessel_first_zero_from_series_oracle():
    zero = _first_j0_zero_by_bisection()
    assert zero == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(bessel_j(0, zero)) < 1e-12


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_against_scipy_wide_range(order):
    # scipy is itself a double-precision approximation, so only the absolute
    # deviation (and the relative one away from zeros) is meaningful here;
    # the sharper relative contract is checked against mpmath below
    ref_fn = {0: special.j0, 1: special.j1, 2: lambda x: special.jn(2, x)}[order]
    xs = np.concatenate([
        np.linspace(0.0, 9.0, 400),
        np.linspace(9.0, 18.0, 200),
        np.geomspace(18.0, 1e4, 400),
    ])
    for x in xs:
        ref = float(ref_fn(x))
        val = bessel_j(order, float(x))
        assert abs(val - ref) < 5e-13
        if abs(ref) > 0.05:
            assert abs(val - ref) / abs(ref) < 1e-12


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_relative_precision_against_mpmath(order):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(17)
    xs = np.concatenate([rng.uniform(0.01, 20, 25),
                         rng.uniform(20, 1e4, 25)])
    for x in xs:
        ref = float(mp.besselj(order, mp.mpf(float(x))))
        val = bessel_j(order, float(x))
        assert abs(val - ref) < 1e-13
        if abs(ref) > 1e-4:
            assert abs(val - ref) / abs(ref) < 1e-12


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(3, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, -0.5)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_bessel_refuses_non_finite_x(order, x):
    with pytest.raises(DomainError):
        bessel_j(order, x)


def _edges_grid():
    # [0, 60] densely, a geometric grid on to 1e4, and every edge of the
    # Bessel source's ranges (the cells' edges c + 1/2 and the start of the
    # far form, 60.5) with its three neighbouring doubles each side
    x0 = specfun._FAR_X0
    near = []
    for edge in np.arange(0.5, x0 + 1.0):
        near.append(edge)
        for direction in (0.0, math.inf):
            x = edge
            for _ in range(3):
                x = math.nextafter(x, direction)
                near.append(x)
    return np.concatenate([np.linspace(0.0, 60.0, 1201), near,
                           np.linspace(x0 - 0.35, x0 + 0.35, 71),
                           np.geomspace(60.0, 1e4, 400)])


@pytest.mark.parametrize("order", [0, 1])
def test_jv_splice_against_mpmath(order):
    # orders 0 and 1 come from the polynomial cells below 60.5 and from the
    # modulus-phase form above; every range edge stays within 5e-16
    # absolute of 30-digit mpmath, and within 1e-12 relative wherever
    # |J| > 1e-4
    xs = _edges_grid()
    got = _jv(order, xs)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.besselj(order, mpmath.mpf(float(x))))
                         for x in xs])
    err = np.abs(got - want)
    assert err.max() <= 5e-16
    big = np.abs(want) > 0.05
    assert (err[big] / np.abs(want[big])).max() <= 1e-14
    away = np.abs(want) > 1e-4
    assert (err[away] / np.abs(want[away])).max() <= 1e-12


@pytest.mark.parametrize("x", [1e5, 3.7e6, 1e10, 1e15])
def test_far_form_against_mpmath_at_large_x(x):
    # the phase comes from cos x and sin x, so the error stays at the
    # rounding of the amplitude sqrt(2/(pi x)) however large x is
    j0, g = specfun._bessel_j0_g(np.array([x]))
    with mpmath.workdps(40):
        amp = float(mpmath.sqrt(2 / (mpmath.pi * x)))
        want = (float(mpmath.besselj(0, x)),
                float(mpmath.besselj(1, x) / x))
    assert abs(j0[0] - want[0]) <= 4e-16 * amp
    assert abs(g[0] - want[1]) <= 4e-16 * amp / x


@pytest.mark.parametrize("pair", [False, True], ids=["j0", "j0_g"])
def test_bessel_routes_only_large_arguments_to_the_far_form(pair,
                                                             monkeypatch):
    # a call all below 60.5 runs the cells alone, a call all from 60.5 on
    # the modulus-phase form alone, and a mixed call gives each argument
    # the value of its own form; the far form never sees an argument below
    # 60.5
    calls = {"near": 0, "far": []}
    near, far = specfun._near, specfun._far

    def near_counted(a, t):
        calls["near"] += 1
        return near(a, t)

    def far_recorded(x):
        calls["far"].append(np.array(x))
        return far(x)

    monkeypatch.setattr(specfun, "_near", near_counted)
    monkeypatch.setattr(specfun, "_far", far_recorded)
    fn = specfun._bessel_j0_g if pair else specfun._bessel_j0
    x0 = specfun._FAR_X0
    xs = _edges_grid()
    got = fn(xs)
    assert np.concatenate(calls["far"]).min() >= x0
    lo = xs < x0
    for part, n_near, n_far in ((lo, 1, 0), (~lo, 0, 1)):
        calls["near"] = 0
        calls["far"].clear()
        assert np.array_equal(got[..., part], fn(xs[part]))
        assert (calls["near"], len(calls["far"])) == (n_near, n_far)


def test_a_long_call_works_in_chunks():
    # the gathered cells take 26 doubles a node, so a long call (the
    # spectral route's grid) runs in chunks: its memory does not grow with
    # the number of nodes, and each node gets what a short call gives it
    x = np.linspace(0.0, 200.0, 200_001)
    tracemalloc.start()
    try:
        got = specfun._bessel_j0_g(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * got.nbytes + (4 << 20)
    for lo in (0, 61_000, 199_000):
        part = slice(lo, lo + 1000)
        assert np.abs(got[:, part] - specfun._bessel_j0_g(x[part])).max() \
            <= 1e-16


def test_j0_alone_agrees_with_the_pair():
    # the J0-only path takes the J0 half of the same tables
    xs = _edges_grid()
    assert np.abs(specfun._bessel_j0(xs)
                  - specfun._bessel_j0_g(xs)[0]).max() <= 1e-16


def test_bessel_exact_at_zero():
    j0, g = specfun._bessel_j0_g(np.zeros(3))
    assert (j0 == 1.0).all() and (g == 0.5).all()
    for order, want in ((0, 1.0), (1, 0.0), (2, 0.0)):
        got = _jv(order, np.zeros(2))
        assert (got == want).all() and not np.signbit(got).any()


@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-160, 1e-8, 1e-4, 0.01,
                               0.5, 0.99, 1.0, 1.01])
def test_bessel_small_arguments_keep_relative_precision(x):
    # J1, 2 J1(x)/x and J2 to 1e-14 relative where they are normal doubles;
    # J2 takes its series below 1, where 2 J1(x)/x - J0 cancels
    j0, g = specfun._bessel_j0_g(np.array([x]))
    with mpmath.workdps(40):
        want_j1 = mpmath.besselj(1, x)
        want_g2 = float(2 * want_j1 / x)
        want_j1 = float(want_j1)
        want_j2 = float(mpmath.besselj(2, x))
    got_j1 = float(_jv(1, np.array([x]))[0])
    got_j2 = float(_jv(2, np.array([x]))[0])
    assert abs(2.0 * g[0] - want_g2) <= 1e-14 * want_g2
    assert got_j1 == x * g[0]
    tiny = float(np.finfo(float).tiny)
    for got, want in ((got_j1, want_j1), (got_j2, want_j2)):
        if abs(want) >= tiny:
            assert abs(got - want) <= 1e-14 * abs(want)
        else:
            assert abs(got - want) <= tiny * 1e-14 + 5e-324 * 2


def test_bessel_coefficient_tables_match_their_script():
    # the committed tables are what tools/bessel_coefficients.py writes
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(root, "tools", "bessel_coefficients.py")
    out = subprocess.run([sys.executable, script], capture_output=True,
                         check=True).stdout
    with open(specfun._bessel_coef.__file__, "rb") as f:
        assert f.read() == out


def test_bessel_recurrence_dense_grid():
    # 2 J1(x)/x == J0(x) + J2(x)
    for x in np.linspace(0.05, 50.0, 1200):
        lhs = 2.0 * bessel_j(1, float(x)) / float(x)
        rhs = bessel_j(0, float(x)) + bessel_j(2, float(x))
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1e-8, 1e-4, 1.0, 30.0])
def test_bessel_j0_plus_j2_from_j1_against_mpmath(x):
    # J0 + J2 = 2 J1(x)/x without the order-2 call, as twice g = J1(x)/x,
    # which keeps its relative precision down to the subnormals
    j0, j1, j02 = _bessel_j0_j1_sum(np.array([x]))
    with mpmath.workdps(40):
        want = 1.0 if x == 0.0 else float(2 * mpmath.besselj(1, x) / x)
        want_j0 = float(mpmath.besselj(0, x))
        want_j1 = float(mpmath.besselj(1, x))
    assert abs(j02[0] - want) <= 1e-15 * abs(want)
    assert j0[0] == _jv(0, x) and j1[0] == _jv(1, x)
    assert abs(j0[0] - want_j0) <= 5e-16
    assert abs(j1[0] - want_j1) <= 5e-16
    assert abs(j1[0] - want_j1) <= 1e-14 * abs(want_j1)


def test_bessel_derivative_identity():
    # d J1 / dx == (J0 - J2)/2, central difference to O(h^2)
    h = 1e-5
    for x in (0.5, 1.7, 3.3, 7.9, 12.4, 25.0):
        fd = (bessel_j(1, x + h) - bessel_j(1, x - h)) / (2 * h)
        an = 0.5 * (bessel_j(0, x) - bessel_j(2, x))
        assert abs(fd - an) < 5e-9


# ---------------------------------------------------------------------------
# lattice sum xi
# ---------------------------------------------------------------------------

def test_xi_odd_cube_closed_form():
    # sum over odd integers k of |k|^-3 equals (7/4) zeta(3)
    assert xi(1.0, 0.0, TIGHT) == pytest.approx(1.75 * apery_zeta3(), rel=1e-10)


def test_xi_brute_force_oracle():
    n = np.arange(-10 ** 6, 10 ** 6 + 1, dtype=float)
    brute = float(np.sum(((2 * n + 0.5) ** 2) ** -1.5))
    assert xi(0.5, 0.0, TIGHT) == pytest.approx(brute, abs=1e-10)


def test_xi_brute_force_oracle_transverse():
    n = np.arange(-10 ** 6, 10 ** 6 + 1, dtype=float)
    brute = float(np.sum(((2 * n + 0.7) ** 2 + 1.3 ** 2) ** -1.5))
    assert xi(0.7, 1.3, TIGHT) == pytest.approx(brute, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(u=st.floats(0.05, 1.95), v=st.floats(0.0, 4.0))
def test_xi_reflection_symmetry(u, v):
    assert xi(u, v) == pytest.approx(xi(2.0 - u, v), rel=1e-10, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(u=st.floats(-3.0, 3.0), v=st.floats(0.1, 4.0))
def test_xi_periodicity(u, v):
    assert xi(u, v) == pytest.approx(xi(u + 2.0, v), rel=1e-12, abs=1e-14)


def test_xi_monotone_decreasing_in_v():
    vals = [xi(0.7, v) for v in (0.1, 0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_xi_domain_errors():
    with pytest.raises(DomainError):
        xi(0.0, 0.0)
    with pytest.raises(DomainError):
        xi(2.0, 0.0)
    with pytest.raises(DomainError):
        xi(0.5, -1.0)
    for bad in ((0.5, math.inf), (0.5, math.nan), (math.nan, 1.0),
                (math.inf, 1.0)):
        with pytest.raises(DomainError):
            xi(*bad)


def _mp_moments(u, v):
    """S3, S5, T5 and sum |a| rho^-5 by mpmath.nsum at 30 digits.

    T5 is summed one side at a time (a > 0 for n >= 0, a < 0 for n < 0 when
    0 <= u < 2), which also gives the scale sum |a| rho^-5 that T5 is
    measured against: T5 itself cancels to exponentially small values at
    large v, where no double-precision sum keeps its relative accuracy.
    """
    with mpmath.workdps(30):
        um, vm = mpmath.mpf(u), mpmath.mpf(v)

        def lattice(term, lo, hi):
            return mpmath.nsum(lambda n: term(2 * n + um), [lo, hi])

        def s3(a):
            return (a * a + vm * vm) ** mpmath.mpf(-1.5)

        def s5(a):
            return (a * a + vm * vm) ** mpmath.mpf(-2.5)

        def t5(a):
            return a * s5(a)

        inf = mpmath.inf
        pos, neg = lattice(t5, 0, inf), lattice(t5, -inf, -1)
        return (float(lattice(s3, -inf, inf)), float(lattice(s5, -inf, inf)),
                float(pos + neg), float(pos - neg))


@pytest.mark.parametrize("v", [1e80, 1e100, 1e150])
def test_scaled_lattice_moments_at_huge_v(v):
    # S5 alone underflows from v ~ 1e77; v^2 S5 -> 2/(3 v^2) and S3 -> 1/v^2
    # as the lattice turns into a sheet, and v T5 vanishes exponentially
    s3, v2s5, vt5 = _lattice_moments(0.5, v)
    assert s3 == pytest.approx(v ** -2, rel=1e-13)
    assert v2s5 == pytest.approx(2.0 / 3.0 * v ** -2, rel=1e-13)
    assert vt5 == 0.0


def test_lattice_moments_against_mpmath():
    # the moments come scaled: v^2 S5 and v T5
    for u in (1e-3, 0.3, 1.0, 1.5, 1.999):
        for v in (0.0, 0.5, 1.0, 4.0):
            s3, v2s5, vt5 = _lattice_moments(u, v)
            r3, r5, rt, t_scale = _mp_moments(u, v)
            assert abs(s3 - r3) <= 1e-13 * r3, (u, v)
            assert abs(v2s5 - v * v * r5) <= 1e-13 * v * v * r5, (u, v)
            assert abs(vt5 - v * rt) <= 1e-13 * v * t_scale, (u, v)


def test_xi_against_poisson_bessel_k1_series():
    # Poisson summation (Linton, SIAM Review 52, 2010):
    # xi = 1/v^2 + sum_{k >= 1} (2 pi k / v) K1(pi k v) cos(pi k u); the
    # terms fall like e^(-pi k v), so k up to 45/(pi v) reaches 1e-19
    for v in (0.5, 2.0, 10.0, 40.0, 2000.0):
        with mpmath.workdps(30):
            ks = range(1, int(math.ceil(45.0 / (math.pi * v))) + 1)
            weights = [2 * mpmath.pi * k / v
                       * mpmath.besselk(1, mpmath.pi * k * v) for k in ks]
        for u in (0.1, 0.7, 1.6):
            with mpmath.workdps(30):
                want = float(1 / mpmath.mpf(v) ** 2 + sum(
                    w * mpmath.cos(mpmath.pi * k * u)
                    for k, w in zip(ks, weights)))
            assert abs(xi(u, v) - want) <= 1e-13 * want, (u, v)


# ---------------------------------------------------------------------------
# Apery's constant
# ---------------------------------------------------------------------------

def test_zeta3_partial_sum_with_tail_bound():
    big_n = 2000
    n = np.arange(1, big_n + 1, dtype=float)
    partial = float(np.sum(n ** -3))
    # integral tail bracket: 1/(2 (N+1)^2) <= tail <= 1/(2 N^2), padded by
    # a few ulps of float slack
    lo = partial + 0.5 * (big_n + 1.0) ** -2 - 1e-14
    hi = partial + 0.5 * float(big_n) ** -2 + 1e-14
    assert lo <= apery_zeta3() <= hi
    assert apery_zeta3() == pytest.approx(float(special.zeta(3)), rel=1e-15)


def test_zeta3_odd_term_sum():
    k = np.arange(1, 2000001, 2, dtype=float)
    odd_sum = float(np.sum(k ** -3))
    assert 2.0 * (1.0 - 0.125) * apery_zeta3() == pytest.approx(2.0 * odd_sum,
                                                                rel=1e-9)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_plain_exponential():
    val = integrate_semi_infinite(lambda x: np.exp(-x), 1.0, TIGHT)
    assert val == pytest.approx(1.0, abs=1e-13)


def test_quadrature_bessel_laplace_value():
    val = integrate_semi_infinite(lambda x: np.exp(-x) * _jv(0, x), 1.0, TIGHT)
    assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_quadrature_bessel_laplace_derivative_value():
    val = integrate_semi_infinite(
        lambda x: x * np.exp(-x) * _jv(1, 2.0 * x), 1.0, TIGHT)
    assert val == pytest.approx(2.0 * 5.0 ** -1.5, abs=1e-12)


def test_quadrature_integrable_singularities_at_zero():
    # panels never touch the endpoints, so integrable singularities at 0
    # are within the contract
    val = integrate_semi_infinite(lambda x: np.exp(-x) / np.sqrt(x), 1.0,
                                  Tolerance(1e-9, 1e-9, 4000))
    assert val == pytest.approx(math.sqrt(math.pi), abs=1e-9)
    euler_gamma = 0.5772156649015329
    val = integrate_semi_infinite(lambda x: np.log(x) * np.exp(-x), 1.0,
                                  TIGHT)
    assert val == pytest.approx(-euler_gamma, abs=1e-10)


def test_quadrature_reports_failure_with_best_estimate():
    nasty = lambda x: np.cos(40.0 * x) * np.exp(-0.1 * x)
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_semi_infinite(nasty, 0.1,
                                Tolerance(1e-13, 1e-13, max_subdivisions=1))
    err = exc_info.value
    assert err.best_estimate is not None
    assert err.achieved_error > 0


def test_quadrature_accepts_loose_abs_tol():
    # a truncation point from log(1/abs_tol) alone turns negative here; any
    # finite value meets this tolerance, and the seed panels still give ~1
    val = integrate_semi_infinite(lambda x: np.exp(-x), 0.5,
                                  Tolerance(abs_tol=1e20, rel_tol=1e-10))
    assert val == pytest.approx(1.0, abs=1e-6)


def test_quadrature_rejects_bad_rate():
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda x: np.exp(-x), 0.0)


def test_quadrature_scalar_integrand_returns_float():
    val = integrate_semi_infinite(lambda x: np.exp(-x), 1.0)
    assert type(val) is float


def test_quadrature_vector_matches_scalar_passes():
    rows = [lambda x: np.exp(-x),
            lambda x: np.exp(-x) * _jv(0, x),
            lambda x: x * np.exp(-x) * _jv(1, 2.0 * x)]
    vec = integrate_semi_infinite(lambda x: np.array([f(x) for f in rows]),
                                  1.0, TIGHT)
    assert isinstance(vec, np.ndarray) and vec.shape == (3,)
    for val, f, exact in zip(vec, rows,
                             (1.0, 1.0 / math.sqrt(2.0), 2.0 * 5.0 ** -1.5)):
        assert val == pytest.approx(integrate_semi_infinite(f, 1.0, TIGHT),
                                    abs=2e-12)
        assert val == pytest.approx(exact, abs=1e-12)


def test_quadrature_vector_holds_small_component_to_abs_tol():
    # the second row is about 1e-6 of the first, so a norm-wide test at
    # rel_tol = 1e-6 would accept it at ~100% error; each row meets its own
    # max(abs_tol, rel_tol |total_i|) instead
    tol = Tolerance(abs_tol=1e-13, rel_tol=1e-6)
    big, small = integrate_semi_infinite(
        lambda x: np.array([np.exp(-x), 1e-6 * np.cos(20.0 * x) * np.exp(-x)]),
        1.0, tol)
    assert big == pytest.approx(1.0, rel=1e-6)
    assert small == pytest.approx(1e-6 / 401.0, abs=1e-13)


def test_quadrature_vector_failure_carries_per_component_arrays():
    nasty = lambda x: np.array([np.cos(40.0 * x) * np.exp(-0.1 * x),
                                np.exp(-x)])
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_semi_infinite(nasty, 0.1,
                                Tolerance(1e-13, 1e-13, max_subdivisions=1))
    err = exc_info.value
    assert np.shape(err.best_estimate) == (2,)
    assert np.shape(err.achieved_error) == (2,)
    assert err.achieved_error[0] > 1e-13


def _laplace_bessel_rows(a, v):
    # e^{-ax} J0(vx), a row of zeros and x^2 e^{-ax} J1(vx)/(2 + x):
    # oscillating with half-period pi/v, damped only like e^{-ax}
    def rows(x):
        damp = np.exp(-a * x)
        return np.array([damp * special.jv(0, v * x), np.zeros_like(x),
                         x * x * damp * special.jv(1, v * x) / (2.0 + x)])
    return rows


def test_quadrature_tail_mode_against_mpmath_quadosc():
    a, v = 1e-3, 1.0
    with mpmath.workdps(15):
        want = float(mpmath.quadosc(
            lambda x: x * x * mpmath.exp(-a * x) * mpmath.besselj(1, v * x)
            / (2 + x), [0, mpmath.inf], omega=v))
    got = integrate_semi_infinite(_laplace_bessel_rows(a, v), a, TIGHT,
                                  half_period=math.pi / v)
    assert got.shape == (3,)
    assert got[0] == pytest.approx((a * a + v * v) ** -0.5, rel=1e-12)
    assert got[1] == 0.0
    assert got[2] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_quadrature_tail_mode_scalar_laplace_bessel():
    # int_0^inf x e^{-ux} J1(vx) dx = v (u^2 + v^2)^(-3/2); the plain pass
    # runs out of panel splits at u = 1e-4
    u, v = 1e-4, 0.5
    val = integrate_semi_infinite(lambda x: x * np.exp(-u * x)
                                  * special.jv(1, v * x), u, TIGHT,
                                  half_period=math.pi / v)
    assert type(val) is float
    assert val == pytest.approx(v * (u * u + v * v) ** -1.5, rel=1e-12)


def test_quadrature_tail_mode_budget_failure_carries_per_component_arrays():
    # the head's seed panels are free; eight steps do not reach two
    # successive transforms of the tail
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_semi_infinite(_laplace_bessel_rows(1e-3, 1.0), 1e-3,
                                Tolerance(1e-12, 1e-12, max_subdivisions=8),
                                half_period=math.pi)
    err = exc_info.value
    assert np.shape(err.best_estimate) == (3,)
    assert np.shape(err.achieved_error) == (3,)
    assert err.achieved_error[0] > 1e-12
    assert err.best_estimate[1] == 0.0


def test_quadrature_tail_mode_counts_tail_panel_errors():
    # a bump of width 0.1 at x = 30 is not smooth on the half-period scale:
    # the K15 panels of the tail cannot resolve it, and their |K15 - G7|
    # keeps the pass from accepting an extrapolation 4e-4 off
    def f(x):
        return (np.exp(-1e-3 * x) * special.jv(0, x)
                + np.exp(-100.0 * (x - 30.0) ** 2))

    with pytest.raises(ConvergenceError):
        integrate_semi_infinite(f, 1e-3, half_period=math.pi)


def test_quadrature_tail_mode_stops_below_the_rounding_floor():
    # x^2 sinh(x(u-1))/sinh(x) J1(x) at u = 0.005 integrates to -0.0133,
    # while its tail panels are of order 100: their summed |K15 - G7|, at
    # the rounding level, exceeds abs_tol 1e-12.  The pass fails once the
    # transforms agree, not after spending the whole budget
    u = 0.005
    calls = []

    def f(x):
        calls.append(x)
        return (x * x * (np.exp(x * (u - 2.0)) - np.exp(-x * u))
                / -np.expm1(-2.0 * x) * special.jv(1, x))

    with pytest.raises(ConvergenceError):
        integrate_semi_infinite(f, u, Tolerance(1e-12, 1e-10),
                                half_period=math.pi)
    # fewer than 100 K15 panels of 15 nodes
    assert sum(len(x) for x in calls) < 100 * 15


def test_quadrature_tail_mode_falls_back_to_plain_pass():
    # at v = 0.25 the truncation point (about 80 at rate 0.5) lies about 6
    # half-periods out, far below _TAIL_MIN_SPAN: the plain pass runs, bit
    # for bit
    f = lambda x: x * np.exp(-0.5 * x) * special.jv(1, 0.25 * x)
    assert integrate_semi_infinite(f, 0.5, TIGHT, half_period=4.0 * math.pi) \
        == integrate_semi_infinite(f, 0.5, TIGHT)


@pytest.mark.parametrize("span", [0.999 * _TAIL_MIN_SPAN,
                                  1.001 * _TAIL_MIN_SPAN])
def test_quadrature_chooses_its_mode_by_the_span(span, monkeypatch):
    # x e^{-x/2} J1(xv) with the half-period that puts the truncation point
    # just below or just above _TAIL_MIN_SPAN half-periods out
    x_max, _ = _truncation(0.5, TIGHT, None)
    h = x_max / span
    v = math.pi / h
    assert _truncation(0.5, TIGHT, h) == (x_max, pytest.approx(span))
    levin = specfun._levin_u
    levin_calls = []

    def levin_u(*args):
        levin_calls.append(args)
        return levin(*args)

    monkeypatch.setattr(specfun, "_levin_u", levin_u)
    f = lambda x: x * np.exp(-0.5 * x) * special.jv(1, v * x)
    got = integrate_semi_infinite(f, 0.5, TIGHT, half_period=h)
    assert got == pytest.approx(v * (0.25 + v * v) ** -1.5, rel=1e-11)
    if span < _TAIL_MIN_SPAN:
        assert not levin_calls
        assert got == integrate_semi_infinite(f, 0.5, TIGHT)
    else:
        assert levin_calls


def test_quadrature_refuses_an_overflowing_bessel_argument():
    # the one Bessel-argument guard: x v = pi x / half_period overflows at
    # the farthest node, one half-period past the truncation point (about
    # 22 at rate 2); int e^{-2x} J0(xv) dx = 1/sqrt(4 + v^2)
    for v in (1e306, 1e308):
        f = lambda x: np.exp(-2.0 * x) * special.j0(v * x)
        if v > 1e307:
            with pytest.raises(DomainError, match="x v overflows"):
                integrate_semi_infinite(f, 2.0, half_period=math.pi / v)
        else:
            assert integrate_semi_infinite(f, 2.0, half_period=math.pi / v) \
                == pytest.approx(1.0 / v, rel=1e-8)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_quadrature_rejects_bad_half_period(bad):
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda x: np.exp(-x), 1.0, half_period=bad)


# ---------------------------------------------------------------------------
# one integrand call per quadrature step
# ---------------------------------------------------------------------------

def _panel_nodes(a, b):
    # the 15 Kronrod nodes of the one panel [a, b]
    return 0.5 * (a + b) + 0.5 * (b - a) * _K15_NODES


def _panel_rule(f, a, b):
    """K15 and |K15 - G7| (per component) of the one panel [a, b]."""
    y = np.asarray(f(_panel_nodes(a, b)), dtype=float)
    half = 0.5 * (b - a)
    k15 = half * (y @ _K15_WEIGHTS)
    return k15, np.abs(k15 - half * (y[..., _G7_IDX] @ _G7_WEIGHTS))


def _per_panel_nodes(f, edges, steps):
    """The nodes, panel after panel, that a subdivision evaluating one panel
    per call of f visits over `steps` splits: the seed panels in order, then
    both halves of the panel with the largest |K15 - G7| (in any
    component), first half first."""
    visited = []

    def panel(a, b):
        visited.append(_panel_nodes(a, b))
        return float(np.max(_panel_rule(f, a, b)[1]))

    order = itertools.count()
    heap = [(-panel(a, b), a, b, next(order))
            for a, b in zip(edges[:-1], edges[1:])]
    heapq.heapify(heap)
    for _ in range(steps):
        _, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            heapq.heappush(heap, (-panel(lo, hi), lo, hi, next(order)))
    return visited


def _recording(f):
    calls = []

    def g(x):
        calls.append(np.array(x))
        return f(x)
    return g, calls


_SCALAR = lambda x: np.exp(-x) * np.cos(3.0 * x)  # noqa: E731
_VECTOR = lambda x: np.array([np.exp(-x) * np.cos(3.0 * x),  # noqa: E731
                              x * np.exp(-2.0 * x) * np.sin(7.0 * x)])


@pytest.mark.parametrize("f", [_SCALAR, _VECTOR], ids=["scalar", "k_by_n"])
def test_subdivision_calls_the_integrand_once_per_step(f):
    edges = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 30.0]
    g, calls = _recording(f)
    steps = _subdivide(g, edges)
    next(steps)
    assert len(calls) == 1 and len(calls[0]) == 15 * (len(edges) - 1)
    for split in range(1, 21):
        next(steps)
        assert len(calls) == 1 + split and len(calls[-1]) == 30
    assert np.array_equal(np.concatenate(calls),
                          np.concatenate(_per_panel_nodes(f, edges, 20)))


def _split_to_target_nodes(f, edges, tol):
    """The nodes, call after call, of a scalar subdivision that evaluates
    each panel on its own: the seed panels in one call, then per step the
    panels with the largest |K15 - G7|, taken worst first until the error
    left in the others is within max(abs_tol, rel_tol |total|) (at most
    the splits left in the budget), both halves of each in turn."""
    order = itertools.count()
    calls, heap = [], []

    def panels(bounds):
        calls.append(np.concatenate([_panel_nodes(a, b) for a, b in bounds]))
        for a, b in bounds:
            k15, e = _panel_rule(f, a, b)
            heapq.heappush(heap, (-e, a, b, next(order), k15))

    panels(list(zip(edges[:-1], edges[1:])))
    splits = 0
    while True:
        total = sum(p[4] for p in heap)
        err = sum(-p[0] for p in heap)
        target = max(tol.abs_tol, tol.rel_tol * abs(total))
        if err <= target or splits >= tol.max_subdivisions:
            return calls
        taken = [heapq.heappop(heap)]
        while (len(taken) < tol.max_subdivisions - splits
               and err + sum(p[0] for p in taken) > target):
            taken.append(heapq.heappop(heap))
        splits += len(taken)
        halves = []
        for _, a, b, _, _ in taken:
            mid = 0.5 * (a + b)
            halves += [(a, mid), (mid, b)]
        panels(halves)


def test_quad_finite_calls_the_integrand_once_per_step():
    # a peak of width 0.03 at 0.1: the seed panels alone do not resolve it
    f = lambda t: 1.0 / (9e-4 + (t - 0.1) ** 2)  # noqa: E731
    g, calls = _recording(f)
    got = _quad_finite(g, -1.0, 1.0, TIGHT)
    want = (math.atan(0.9 / 0.03) + math.atan(1.1 / 0.03)) / 0.03
    assert got == pytest.approx(want, rel=1e-12)
    # the eight seed panels in one call, then one call per step, holding
    # both halves of each panel the step splits, worst panel first
    assert len(calls[0]) == 8 * 15 and len(calls) > 1
    assert all(len(x) % 30 == 0 for x in calls[1:])
    assert max(len(x) for x in calls[1:]) > 30
    edges = list(np.linspace(-1.0, 1.0, 9))
    want_calls = _split_to_target_nodes(f, edges, TIGHT)
    assert len(calls) == len(want_calls)
    for got_nodes, want_nodes in zip(calls, want_calls):
        assert np.array_equal(got_nodes, want_nodes)


@pytest.mark.parametrize("f", [_SCALAR, _VECTOR], ids=["scalar", "k_by_n"])
def test_split_step_takes_one_panel_when_it_covers_the_excess(f):
    # a target that the worst panel's error alone brings the rest within:
    # the step splits that panel alone, bit for bit as a plain next() does;
    # a target just beyond that takes a second panel in the same call
    edges = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 30.0]
    # the |K15 - G7| in each component of the panel whose largest one is
    # the largest
    worst = max((_panel_rule(f, a, b)[1]
                 for a, b in zip(edges[:-1], edges[1:])), key=np.max)
    for share, panels in ((0.999, 1), (1.001, 2)):
        g, calls = _recording(f)
        sent = _subdivide(g, edges)
        _, err, splits = next(sent)
        assert splits == 0
        got = sent.send((err - share * worst, 100))
        assert len(calls) == 2 and len(calls[1]) == 30 * panels
        assert got[2] == panels
        if panels == 1:
            plain = _subdivide(f, edges)
            next(plain)
            want = next(plain)
            assert want[2] == 1
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("f", [_SCALAR, _VECTOR], ids=["scalar", "k_by_n"])
def test_split_step_never_takes_more_panels_than_the_budget_left(f):
    # a target no split meets: a step takes exactly the room it is given
    edges = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 30.0]
    g, calls = _recording(f)
    steps = _subdivide(g, edges)
    next(steps)
    for room, splits in ((3, 3), (1, 4), (5, 9)):
        assert steps.send((1e-300, room))[2] == splits
        assert len(calls[-1]) == 30 * room
    # and the pass runs out of its budget exactly, never past it
    for budget in (1, 7, 20):
        g, calls = _recording(f)
        with pytest.raises(ConvergenceError, match=f"after {budget} "):
            specfun._adaptive(g, edges, Tolerance(1e-300, 1e-300, budget))
        assert sum(len(x) for x in calls[1:]) == 30 * budget


@pytest.mark.parametrize("f", [
    lambda x: np.exp(-1e-3 * x) * special.jv(0, x),
    _laplace_bessel_rows(1e-3, 1.0)], ids=["scalar", "k_by_n"])
def test_tail_mode_calls_the_integrand_once_per_batch_of_half_periods(f):
    # a tolerance no step meets: the pass takes exactly its budget of head
    # splits and tail half-periods, and no call of the integrand takes more
    # than the budget has left (at 20 that cuts the last batch short)
    h = math.pi
    x0 = _HEAD_HALF_PERIODS * h
    for budget in (20, 30):
        g, calls = _recording(f)
        with pytest.raises(ConvergenceError, match=f"after {budget} "):
            integrate_semi_infinite(g, 1e-3,
                                    Tolerance(1e-300, 1e-300, budget),
                                    half_period=h)
        assert calls[0].max() < x0
        # the first tail call holds the fewest half-periods that can end
        # the tail; each holds the two K15 panels of consecutive
        # half-periods, in order, continuing where the previous one stopped
        x = x0
        head_splits = fetched = 0
        for nodes in calls[1:]:
            if nodes.max() < x0:
                # the head's share of a target this small is negative: one
                # panel a step
                assert len(nodes) == 30
                head_splits += 1
                continue
            assert len(nodes) == 30 * (_MIN_TAIL_PANELS + 2) or fetched
            # a batch is fetched once the last one is all taken
            assert len(nodes) // 30 <= budget - head_splits - fetched
            want = []
            for _ in range(len(nodes) // 30):
                mid = x + 0.5 * h
                want += [_panel_nodes(x, mid), _panel_nodes(mid, x + h)]
                x += h
            assert np.array_equal(nodes, np.concatenate(want))
            fetched += len(nodes) // 30
        assert fetched > _MIN_TAIL_PANELS + 2
        assert budget - head_splits <= fetched <= budget


@pytest.mark.parametrize("f", [
    lambda x: np.exp(-1e-3 * x) * special.jv(0, x),
    _laplace_bessel_rows(1e-3, 1.0)], ids=["scalar", "k_by_n"])
def test_batched_half_periods_match_one_at_a_time(f):
    # one call for n half-periods gives each one's K15 values and errors
    # bit for bit as a call for that half-period alone
    h, x0 = math.pi, 4.0 * math.pi
    batch = specfun._half_periods(f, x0, h, 100.0, 9)
    assert len(batch) == 9
    x = x0
    for got in batch:
        mid = x + 0.5 * h
        want, _ = specfun._gauss_kronrod(f, np.array([x, mid]),
                                         np.array([mid, x + h]))
        assert np.array_equal(got, want)
        x += h
    # none starts at or past x_max
    assert len(specfun._half_periods(f, x0, h, x0 + 2.5 * h, 9)) == 3


def test_tail_mode_head_splits_its_share_in_one_call():
    # a Gaussian bump of width 0.01 at x = 1 in the head: once the tail's
    # error leaves the head a positive share of the target, one call splits
    # every head panel that share asks for
    a, w = 1e-3, 0.01
    g, calls = _recording(lambda x: np.exp(-a * x) * special.j0(x)
                          + np.exp(-((x - 1.0) / w) ** 2))
    got = integrate_semi_infinite(g, a, TIGHT, half_period=math.pi)
    want = 1.0 / math.sqrt(1.0 + a * a) + w * math.sqrt(math.pi)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    head = [len(x) for x in calls[1:] if x.max() < _HEAD_HALF_PERIODS * math.pi]
    assert all(n % 30 == 0 for n in head)
    assert head[0] == 30 and max(head) > 30


def test_tail_batches_do_not_change_the_result(monkeypatch):
    # the pass with every batch cut to one half-period takes the same
    # steps to the same bits, in more calls
    f = _laplace_bessel_rows(1e-3, 1.0)
    g, batched = _recording(f)
    want = integrate_semi_infinite(g, 1e-3, TIGHT, half_period=math.pi)
    fetch = specfun._half_periods
    monkeypatch.setattr(specfun, "_half_periods",
                        lambda f, x, h, x_max, n: fetch(f, x, h, x_max, 1))
    g, single = _recording(f)
    got = integrate_semi_infinite(g, 1e-3, TIGHT, half_period=math.pi)
    assert np.array_equal(got, want)
    assert len(single) > len(batched)
    # the one-at-a-time pass evaluates a prefix of the batched pass's tail
    tail = lambda calls: np.concatenate(  # noqa: E731
        [x for x in calls if x.min() > _HEAD_HALF_PERIODS * math.pi])
    assert np.array_equal(tail(single), tail(batched)[:len(tail(single))])


# ---------------------------------------------------------------------------
# mode sums
# ---------------------------------------------------------------------------

def test_mode_sum_coth_value():
    val = hyperbolic_mode_sum(ModeSumArgs(0.0, 1.0, 0))
    assert val.real == pytest.approx(math.pi / math.tanh(math.pi), rel=1e-14)
    assert val.imag == 0.0


def test_mode_sum_odd_zero_at_alpha_zero():
    assert hyperbolic_mode_sum(ModeSumArgs(0.0, 2.0, 1)) == 0j
    # pairwise cancellation makes the direct sum exactly zero too
    assert direct_mode_sum(ModeSumArgs(0.0, 2.0, 1), 500) == 0j


def test_mode_sum_direct_matches_closed_form():
    # the m = 1 truncation tail is O(1/n_max) in absolute terms, so tiny
    # closed-form values are only reproduced to that absolute level
    n_max = 10 ** 6
    for alpha, beta, m in [(0.0, 1.0, 0), (0.5, 1.0, 1), (math.pi, 0.5, 0),
                           (0.5, 3.0, 1), (2.5, 3.0, 1)]:
        args = ModeSumArgs(alpha, beta, m)
        closed = hyperbolic_mode_sum(args)
        direct = direct_mode_sum(args, n_max)
        assert abs(closed - direct) <= max(1e-5 * abs(closed), 3.0 / n_max)


def test_mode_sum_alpha_reduction():
    a1 = hyperbolic_mode_sum(ModeSumArgs(0.5, 1.2, 0))
    a2 = hyperbolic_mode_sum(ModeSumArgs(0.5 + 2.0 * math.pi, 1.2, 0))
    assert a1 == pytest.approx(a2, rel=1e-12)


def test_mode_sum_args_validation():
    with pytest.raises(DomainError):
        ModeSumArgs(0.0, -1.0, 0)
    with pytest.raises(DomainError):
        ModeSumArgs(0.0, 1.0, 2)
    with pytest.raises(DomainError):
        direct_mode_sum(ModeSumArgs(0.0, 1.0, 0), 0)


@pytest.mark.parametrize("alpha, beta", [
    (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
    (0.5, math.inf), (0.5, math.nan),
])
def test_mode_sum_args_reject_non_finite(alpha, beta):
    with pytest.raises(DomainError):
        ModeSumArgs(alpha, beta, 0)


def test_direct_mode_sum_reduces_huge_alpha():
    # alpha n overflows unless alpha is reduced mod 2pi first
    args = ModeSumArgs(1e305, 1.0, 0)
    got = direct_mode_sum(args, 10 ** 6)
    assert math.isfinite(got.real) and math.isfinite(got.imag)
    assert got == direct_mode_sum(
        ModeSumArgs(1e305 % (2.0 * math.pi), 1.0, 0), 10 ** 6)
    assert direct_mode_sum(ModeSumArgs(-1e305, 0.5, 1), 100) == \
        direct_mode_sum(ModeSumArgs(-1e305 % (2.0 * math.pi), 0.5, 1), 100)


def _closed_form_mp(alpha, beta, m):
    a = mpmath.mpf(alpha) % (2 * mpmath.pi)
    b = mpmath.mpf(beta)
    if m == 0:
        return (mpmath.pi / b * mpmath.cosh(b * (mpmath.pi - a))
                / mpmath.sinh(mpmath.pi * b))
    return (mpmath.pi * mpmath.sinh(b * (mpmath.pi - a))
            / mpmath.sinh(mpmath.pi * b))


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("alpha", [1e-3, 0.5, 3.0, 3.3, 6.0])
def test_hyperbolic_mode_sum_small_beta_against_mpmath(alpha, m):
    # the m = 1 numerator sinh(beta (pi - alpha)) loses digits to
    # cancellation at small beta unless it is formed with expm1
    with mpmath.workdps(40):
        for k in range(151):
            beta = 10.0 ** -k
            got = hyperbolic_mode_sum(ModeSumArgs(alpha, beta, m))
            want = _closed_form_mp(alpha, beta, m)
            value = got.real if m == 0 else got.imag
            assert abs(value - want) <= 1e-14 * abs(want), k


@pytest.mark.parametrize("beta", [1e-155, 1e-160, 1e-200, 1e-310, 5e-324])
def test_mode_sum_args_reject_beta_with_overflowing_square(beta):
    # 1/beta^2, the n = 0 term, is not a finite double
    with pytest.raises(DomainError):
        ModeSumArgs(0.5, beta, 0)


def test_mode_sum_finite_at_smallest_beta():
    beta = 7.46e-155
    for m in (0, 1):
        args = ModeSumArgs(0.5, beta, m)
        for value in (hyperbolic_mode_sum(args), direct_mode_sum(args, 100)):
            assert math.isfinite(value.real) and math.isfinite(value.imag)
    # pi sinh(beta (pi - alpha)) / sinh(pi beta) -> pi - alpha as beta -> 0
    closed = hyperbolic_mode_sum(ModeSumArgs(0.5, beta, 1)).imag
    assert closed == pytest.approx(math.pi - 0.5, rel=1e-14)


def test_direct_mode_sum_rejects_non_integral_n_max():
    args = ModeSumArgs(0.5, 1.0, 0)
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(DomainError):
            direct_mode_sum(args, bad)
    assert direct_mode_sum(args, np.int64(3)) == direct_mode_sum(args, 3)


# n_max on and around the block and chunk boundaries of the blocked sum
_CHUNK_N = _BLOCK * _CHUNK
_BOUNDARY_N_MAX = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, _CHUNK_N - 1,
                   _CHUNK_N + 1, 3 * _CHUNK_N + 7]


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("alpha", [0.0, 0.5, math.pi, 2.5, 6.0])
def test_direct_mode_sum_matches_fsum_reference(alpha, m):
    # the symmetric truncation term by term, paired as the sum pairs it;
    # the bound is relative to the sum of the moduli of the terms
    beta2 = 0.7 ** 2
    trig = math.cos if m == 0 else math.sin
    terms = [2.0 * n ** m / (n * n + beta2) for n in
             range(1, max(_BOUNDARY_N_MAX) + 1)]
    paired = [t * trig(alpha * n) for n, t in enumerate(terms, 1)]
    for n_max in _BOUNDARY_N_MAX:
        got = direct_mode_sum(ModeSumArgs(alpha, 0.7, m), n_max)
        if m == 0:
            want = complex(1.0 / beta2 + math.fsum(paired[:n_max]))
            scale = 1.0 / beta2 + math.fsum(terms[:n_max])
        else:
            want = 1j * math.fsum(paired[:n_max])
            scale = math.fsum(terms[:n_max])
        assert abs(got - want) <= 1e-14 * scale, n_max


def test_direct_mode_sum_odd_zero_at_block_boundaries():
    for n_max in _BOUNDARY_N_MAX:
        assert direct_mode_sum(ModeSumArgs(0.0, 0.7, 1), n_max) == 0j


def test_direct_mode_sum_memory_constant_in_n_max():
    # an n_max-long array of doubles would take 8 MB
    args = ModeSumArgs(0.5, 1.0, 1)
    direct_mode_sum(args, 10)
    tracemalloc.start()
    try:
        direct_mode_sum(args, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_tolerance_validation():
    with pytest.raises(DomainError):
        Tolerance(abs_tol=0.0)
    with pytest.raises(DomainError):
        Tolerance(max_subdivisions=0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_tolerance_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        Tolerance(abs_tol=bad)
    with pytest.raises(DomainError):
        Tolerance(rel_tol=bad)
