import math
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
from fpcavity.specfun import _BLOCK, _CHUNK, _lattice_moments

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


def test_bessel_recurrence_dense_grid():
    # 2 J1(x)/x == J0(x) + J2(x)
    for x in np.linspace(0.05, 50.0, 1200):
        lhs = 2.0 * bessel_j(1, float(x)) / float(x)
        rhs = bessel_j(0, float(x)) + bessel_j(2, float(x))
        assert abs(lhs - rhs) < 1e-12


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


def test_lattice_moments_against_mpmath():
    for u in (1e-3, 0.3, 1.0, 1.5, 1.999):
        for v in (0.0, 0.5, 1.0, 4.0):
            s3, s5, t5 = _lattice_moments(u, v)
            r3, r5, rt, t_scale = _mp_moments(u, v)
            assert abs(s3 - r3) <= 1e-13 * r3, (u, v)
            assert abs(s5 - r5) <= 1e-13 * r5, (u, v)
            assert abs(t5 - rt) <= 1e-13 * t_scale, (u, v)


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
    from fpcavity.specfun import _jv
    val = integrate_semi_infinite(lambda x: np.exp(-x) * _jv(0, x), 1.0, TIGHT)
    assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_quadrature_bessel_laplace_derivative_value():
    from fpcavity.specfun import _jv
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
    from fpcavity.specfun import _jv
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
