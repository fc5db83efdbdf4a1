import contextlib
import heapq
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import quad_reference
from fpcavity import (ConvergenceError, DomainError, ModeSumArgs, Tolerance,
                      apery_zeta3, bessel_j, direct_mode_sum,
                      hyperbolic_mode_sum, integrate_semi_infinite, xi)
from fpcavity import (Separation, _memo, cli, kernel_d, kernel_d_spectral,
                      modesum, specfun, verify)
from fpcavity.lattice import _lattice_moments
from fpcavity.modesum import (_BLOCK, _CHUNK, _SUM_HEAD_MIN, _SUM_HEAD_REACH,
                              _direct_sums)
from fpcavity.specfun import (_G7_IDX, _G7_WEIGHTS, _HEAD_HALF_PERIODS,
                              _K15_NODES, _K15_WEIGHTS, _LEVIN_MAX_ORDER,
                              _TAIL_MIN_SPAN, _bessel_j0_g, _quad_finite,
                              _subdivide, _truncation)

TIGHT = Tolerance(abs_tol=1e-12, rel_tol=1e-12)


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
    # the cells densely, a geometric grid on to 1e4, and every edge of the
    # Bessel source's ranges (the cells' edges c + 1/2 and the start of the
    # far form, _FAR_X0) with its three neighbouring doubles each side
    x0 = specfun._FAR_X0
    near = []
    for edge in np.arange(0.5, x0 + 1.0):
        near.append(edge)
        for direction in (0.0, math.inf):
            x = edge
            for _ in range(3):
                x = math.nextafter(x, direction)
                near.append(x)
    return np.concatenate([np.linspace(0.0, x0 - 0.5, 20 * round(x0) + 1),
                           near, np.linspace(x0 - 0.35, x0 + 0.35, 71),
                           np.geomspace(x0 - 0.5, 1e4, 400)])


@pytest.mark.parametrize("order", [0, 1])
def test_jv_splice_against_mpmath(order):
    # orders 0 and 1 come from the polynomial cells up to _FAR_X0 and from
    # the modulus-phase form above; every range edge stays within 5e-16
    # absolute of 30-digit mpmath, and within 1e-12 relative wherever
    # |J| > 1e-4
    xs = _edges_grid()
    j0, g = _bessel_j0_g(xs)
    got = j0 if order == 0 else xs * g
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


@pytest.mark.parametrize("fn", [_bessel_j0_g], ids=["j0_g"])
def test_bessel_routes_only_large_arguments_to_the_far_form(fn, monkeypatch):
    # a call all up to _FAR_X0 runs the cells alone (once per chunk), a
    # call all past it the modulus-phase form alone, and a mixed call gives
    # each argument the value of its own form; the far form never sees an
    # argument below _FAR_X0
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
    x0 = specfun._FAR_X0
    xs = _edges_grid()
    got = fn(xs)
    assert np.concatenate(calls["far"]).min() >= x0
    lo = xs <= x0
    chunks = -(-lo.sum() // specfun._CHUNK_NODES)
    for part, n_near, n_far in ((lo, chunks, 0), (~lo, 0, 1)):
        calls["near"] = 0
        calls["far"].clear()
        assert np.array_equal(got[..., part], fn(xs[part]))
        assert (calls["near"], len(calls["far"])) == (n_near, n_far)


def test_a_value_does_not_depend_on_its_batch():
    # every x of a mixed call longer than one chunk gets the bits of its
    # one-point call: the far form uses no BLAS product, whose rounding
    # depends on the batch, and _FAR_X0 is in the last cell alone or batched
    rng = np.random.default_rng(7)
    x0 = specfun._FAR_X0
    edges = [math.nextafter(x0, d) for d in (0.0, math.inf)]
    x = np.concatenate([[1.0, x0, 70.0, 1e3, 1e8, 1e300, 0.0], edges,
                        rng.uniform(0.0, x0, 2500),
                        rng.uniform(x0, x0 + 3000.0, 2500)])
    rng.shuffle(x)
    assert len(x) > specfun._CHUNK_NODES
    got = specfun._bessel_j0_g(x)
    alone = np.array([specfun._bessel_j0_g(t)[:, 0] for t in x.tolist()]).T
    assert got.tobytes() == alone.tobytes()


def test_each_bessel_form_sees_only_its_own_nodes(monkeypatch):
    # in a mixed batch the cells run over the x up to _FAR_X0 alone, at their
    # offsets from their cells' centres, and the far form over the rest
    # alone, each once, in the order of the batch
    seen = {"near": [], "far": []}
    near, far = specfun._near, specfun._far

    def near_seen(a, t):
        seen["near"].append(np.array(t))
        return near(a, t)

    def far_seen(x):
        seen["far"].append(np.array(x))
        return far(x)

    monkeypatch.setattr(specfun, "_near", near_seen)
    monkeypatch.setattr(specfun, "_far", far_seen)
    x0 = specfun._FAR_X0
    rng = np.random.default_rng(11)
    x = np.concatenate([[0.0, x0, math.nextafter(x0, math.inf), 1e300],
                        rng.uniform(0.0, 2.0 * x0, 300)])
    rng.shuffle(x)
    got = specfun._bessel_j0_g(x)
    lo = x <= x0
    assert len(seen["near"]) == len(seen["far"]) == 1
    assert seen["near"][0].tobytes() == (x - np.rint(x))[lo].tobytes()
    assert seen["far"][0].tobytes() == x[~lo].tobytes()
    assert got[:, lo].tobytes() == near(specfun._NEAR.take(
        np.rint(x[lo]).astype(np.intp), axis=1),
        (x - np.rint(x))[lo]).tobytes()
    assert got[:, ~lo].tobytes() == far(x[~lo]).tobytes()


def test_the_cells_hold_every_plain_pass_and_every_first_tail_call():
    # a plain pass spans at most _TAIL_MIN_SPAN half-periods pi/v of its
    # factor J(x v), and the first call of a tail-mode pass the head's
    # _HEAD_HALF_PERIODS and _LEVIN_MAX_ORDER tail half-periods: every x v
    # they ask for is in a cell.  _FAR_X0 rounds (ties to even) to the
    # table's last cell
    x0 = specfun._FAR_X0
    assert x0 >= _TAIL_MIN_SPAN * math.pi
    assert x0 >= (_HEAD_HALF_PERIODS + _LEVIN_MAX_ORDER) * math.pi
    assert np.rint(x0) == specfun._NEAR.shape[1] - 1
    assert x0 == specfun._NEAR.shape[1] - 0.5


def test_verify_and_the_golden_kernels_never_take_the_far_form(monkeypatch):
    # the whole verification suite and every kernel output in tests/golden
    # evaluate all their Bessel arguments in the cells
    far = _spying(monkeypatch, "_far")
    _memo._entries.clear()
    assert verify.run_suite("all", 42).all_pass
    root = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(root, "golden", "MANIFEST.json")) as fh:
        outputs = json.load(fh)["outputs"].values()
    kernels = [argv for argv in outputs if argv[0] == "kernel"]
    assert len(kernels) == 13
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in kernels:
            assert cli.dispatch(argv) == 0
    assert not far


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


def test_bessel_exact_at_zero():
    j0, g = specfun._bessel_j0_g(np.zeros(3))
    assert (j0 == 1.0).all() and (g == 0.5).all()
    for order, want in ((0, 1.0), (1, 0.0), (2, 0.0)):
        got = bessel_j(order, 0.0)
        assert got == want and math.copysign(1.0, got) == 1.0


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
    got_j1 = bessel_j(1, x)
    got_j2 = bessel_j(2, x)
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
    j0, g = _bessel_j0_g(x)
    j1, j02 = x * g, 2.0 * g
    with mpmath.workdps(40):
        want = 1.0 if x == 0.0 else float(2 * mpmath.besselj(1, x) / x)
        want_j0 = float(mpmath.besselj(0, x))
        want_j1 = float(mpmath.besselj(1, x))
    assert abs(j02[0] - want) <= 1e-15 * abs(want)
    assert j0[0] == bessel_j(0, x) and j1[0] == bessel_j(1, x)
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
    assert xi(1.0, 0.0) == pytest.approx(1.75 * apery_zeta3(), rel=1e-10)


def test_xi_brute_force_oracle():
    n = np.arange(-10 ** 6, 10 ** 6 + 1, dtype=float)
    brute = float(np.sum(((2 * n + 0.5) ** 2) ** -1.5))
    assert xi(0.5, 0.0) == pytest.approx(brute, abs=1e-10)


def test_xi_brute_force_oracle_transverse():
    n = np.arange(-10 ** 6, 10 ** 6 + 1, dtype=float)
    brute = float(np.sum(((2 * n + 0.7) ** 2 + 1.3 ** 2) ** -1.5))
    assert xi(0.7, 1.3) == pytest.approx(brute, abs=1e-10)


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

def _j0(x):
    return _bessel_j0_g(x)[0]


def _j1(x):
    return x * _bessel_j0_g(x)[1]


def test_quadrature_plain_exponential():
    val = integrate_semi_infinite(lambda x: np.exp(-x), 1.0, TIGHT)
    assert val == pytest.approx(1.0, abs=1e-13)


def test_quadrature_bessel_laplace_value():
    val = integrate_semi_infinite(lambda x: np.exp(-x) * _j0(x), 1.0, TIGHT)
    assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_quadrature_bessel_laplace_derivative_value():
    val = integrate_semi_infinite(
        lambda x: x * np.exp(-x) * _j1(2.0 * x), 1.0, TIGHT)
    assert val == pytest.approx(2.0 * 5.0 ** -1.5, abs=1e-12)


def test_quadrature_integrable_singularities_at_zero():
    # panels never touch the endpoints, so integrable singularities at 0
    # are within the contract
    val = integrate_semi_infinite(lambda x: np.exp(-x) / np.sqrt(x), 1.0,
                                  Tolerance(1e-9, 1e-9))
    assert val == pytest.approx(math.sqrt(math.pi), abs=1e-9)
    euler_gamma = 0.5772156649015329
    val = integrate_semi_infinite(lambda x: np.log(x) * np.exp(-x), 1.0,
                                  TIGHT)
    assert val == pytest.approx(-euler_gamma, abs=1e-10)


def test_quadrature_reports_failure_with_best_estimate(monkeypatch):
    nasty = lambda x: np.cos(40.0 * x) * np.exp(-0.1 * x)
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 1)
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_semi_infinite(nasty, 0.1, Tolerance(1e-13, 1e-13))
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
            lambda x: np.exp(-x) * _j0(x),
            lambda x: x * np.exp(-x) * _j1(2.0 * x)]
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


def test_quadrature_vector_failure_carries_per_component_arrays(
        monkeypatch):
    nasty = lambda x: np.array([np.cos(40.0 * x) * np.exp(-0.1 * x),
                                np.exp(-x)])
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 1)
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_semi_infinite(nasty, 0.1, Tolerance(1e-13, 1e-13))
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


def test_quadrature_tail_mode_budget_failure_carries_per_component_arrays(
        monkeypatch):
    # the head's seed panels are free; eight steps do not reach two
    # successive transforms of the tail
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 8)
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_semi_infinite(_laplace_bessel_rows(1e-3, 1.0), 1e-3,
                                Tolerance(1e-12, 1e-12), half_period=math.pi)
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


def _spying(monkeypatch, name):
    """Replace specfun.<name> by a wrapper that records the arguments of
    every call; returns the list they go into."""
    fn = getattr(specfun, name)
    calls = []

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(specfun, name, spy)
    return calls


def _assert_plain_seeds(gk_calls, x_max, h):
    # the seed call of a plain pass: panels from 0 to the truncation point,
    # geometric from min(1, x_max/8) while they are narrower than h/2, then
    # each h/2 wide but the last, which ends at x_max
    _, a, b = gk_calls[0]
    assert a[0] == 0.0 and b[-1] == x_max
    assert np.array_equal(a[1:], b[:-1])
    width = b - a
    assert width[0] == min(1.0, x_max / 8.0, 0.5 * h)
    # the geometric prefix: each panel [x, 2x] after the first
    prefix = np.argmin((a == 0.0) | (b == 2.0 * a))
    assert prefix > 0 and np.all(width[:prefix] <= 0.5 * h)
    assert np.allclose(width[prefix:-1], 0.5 * h, rtol=1e-12, atol=0.0)
    assert 0.0 < width[-1] <= 0.5 * h * (1.0 + 1e-12)


def test_quadrature_tail_mode_falls_back_to_plain_pass(monkeypatch):
    # at v = 0.25 the truncation point (about 80 at rate 0.5) lies about 6
    # half-periods out, far below _TAIL_MIN_SPAN: the plain pass runs, no
    # transform is taken, and its seed panels are at most h/2 wide
    h = 4.0 * math.pi
    levin_calls = _spying(monkeypatch, "_levin_windows")
    gk_calls = _spying(monkeypatch, "_gauss_kronrod")
    f = lambda x: x * np.exp(-0.5 * x) * special.jv(1, 0.25 * x)
    got = integrate_semi_infinite(f, 0.5, TIGHT, half_period=h)
    assert got == pytest.approx(0.25 * (0.25 + 0.0625) ** -1.5, rel=1e-11)
    assert not levin_calls
    _assert_plain_seeds(gk_calls, _truncation(0.5, TIGHT, None)[0], h)


@pytest.mark.parametrize("span", [0.999 * _TAIL_MIN_SPAN,
                                  1.001 * _TAIL_MIN_SPAN])
def test_quadrature_chooses_its_mode_by_the_span(span, monkeypatch):
    # x e^{-x/2} J1(xv) with the half-period that puts the truncation point
    # just below or just above _TAIL_MIN_SPAN half-periods out
    x_max, _ = _truncation(0.5, TIGHT, None)
    h = x_max / span
    v = math.pi / h
    assert _truncation(0.5, TIGHT, h) == (x_max, pytest.approx(span))
    levin_calls = _spying(monkeypatch, "_levin_windows")
    gk_calls = _spying(monkeypatch, "_gauss_kronrod")
    f = lambda x: x * np.exp(-0.5 * x) * special.jv(1, v * x)
    got = integrate_semi_infinite(f, 0.5, TIGHT, half_period=h)
    assert got == pytest.approx(v * (0.25 + v * v) ** -1.5, rel=1e-11)
    if span < _TAIL_MIN_SPAN:
        assert not levin_calls
        _assert_plain_seeds(gk_calls, x_max, h)
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


def test_quadrature_refuses_a_first_node_at_which_1_over_x_overflows():
    # the first node lies 0.0021 half-periods from 0, where the hyperbolic
    # weights of D+ go like 1/x: from v about 1.19e306 on, 1/x overflows
    # there, though x v stays finite at every node up to about 7e306 here
    for v in (1.5e306, 3e306):
        f = lambda x: np.exp(-2.0 * x) * special.j0(v * x)
        with pytest.raises(DomainError, match="1/x overflows"):
            integrate_semi_infinite(f, 2.0, half_period=math.pi / v)
    assert _truncation(2.0, TIGHT, math.pi / 1.18e306)[1] > 0.0


@pytest.mark.parametrize("half_period", [None, 1.1])
def test_quadrature_refuses_an_infinite_decay_rate(half_period):
    # the seed panels would start at 4/rate = 0 and never grow: the pass
    # would not return.  _truncation is asked first, so that a missing
    # guard fails here instead of hanging below
    with pytest.raises(DomainError, match="decay_rate_hint"):
        _truncation(math.inf, TIGHT, half_period)
    with pytest.raises(DomainError, match="decay_rate_hint"):
        integrate_semi_infinite(lambda x: np.exp(-x), math.inf,
                                half_period=half_period)


@pytest.mark.parametrize("half_period", [None, 1.1])
def test_quadrature_refuses_an_overflowing_truncation_point(half_period):
    # at a decay rate of 5e-324 the truncation point log(1/tol) / rate is
    # infinite; the refusal names the decay rate, not the Bessel argument
    with pytest.raises(DomainError, match="decay_rate_hint = 5e-324") as err:
        integrate_semi_infinite(lambda x: np.exp(-x), 5e-324,
                                half_period=half_period)
    assert "Bessel" not in str(err.value)
    # a rate whose truncation point, about 2.8e301, is finite integrates
    assert integrate_semi_infinite(lambda x: np.exp(-x), 1e-300) \
        == pytest.approx(1.0, rel=1e-10)


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
        if err <= target or splits >= specfun._MAX_SUBDIVISIONS:
            return calls
        taken = [heapq.heappop(heap)]
        while (len(taken) < specfun._MAX_SUBDIVISIONS - splits
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
def test_split_step_never_takes_more_panels_than_the_budget_left(
        f, monkeypatch):
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
        monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", budget)
        g, calls = _recording(f)
        with pytest.raises(ConvergenceError, match=f"after {budget} "):
            specfun._integrate(g, np.array(edges), None, edges[-1],
                               Tolerance(1e-300, 1e-300))
        assert sum(len(x) for x in calls[1:]) == 30 * budget


@pytest.mark.parametrize("f", [
    lambda x: np.exp(-1e-3 * x) * special.jv(0, x),
    _laplace_bessel_rows(1e-3, 1.0)], ids=["scalar", "k_by_n"])
def test_tail_mode_calls_the_integrand_once_per_batch_of_half_periods(
        f, monkeypatch):
    # a tolerance no step meets: the pass takes exactly its budget of head
    # splits and tail half-periods, and no call of the integrand takes more
    # than the budget has left (at 20 that cuts the last batch short)
    h = math.pi
    x0 = _HEAD_HALF_PERIODS * h
    for budget in (20, 30):
        monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", budget)
        g, calls = _recording(f)
        with pytest.raises(ConvergenceError, match=f"after {budget} "):
            integrate_semi_infinite(g, 1e-3, Tolerance(1e-300, 1e-300),
                                    half_period=h)
        # the first call holds the head's seed panels and then
        # _LEVIN_MAX_ORDER half-periods, or what the budget has; each tail
        # batch holds the two K15 panels of consecutive half-periods, in
        # order, continuing where the previous one stopped
        first = 30 * min(_LEVIN_MAX_ORDER, budget)
        assert calls[0][:-first].max() < x0 < calls[0][-first:].min()
        x = x0
        head_splits = fetched = 0
        for nodes in [calls[0][-first:]] + calls[1:]:
            if nodes.max() < x0:
                # the head's share of a target this small is negative: one
                # panel a step
                assert len(nodes) == 30
                head_splits += 1
                continue
            # a batch is fetched once the last one is all taken
            assert len(nodes) // 30 <= budget - head_splits - fetched
            want = []
            for _ in range(len(nodes) // 30):
                mid = x + 0.5 * h
                want += [_panel_nodes(x, mid), _panel_nodes(mid, x + h)]
                x += h
            assert np.array_equal(nodes, np.concatenate(want))
            fetched += len(nodes) // 30
        assert fetched > _LEVIN_MAX_ORDER
        assert budget - head_splits <= fetched <= budget


def test_verify_all_takes_few_integrand_calls(monkeypatch):
    # seed panels at most half a half-period wide, and a first tail batch
    # of _LEVIN_MAX_ORDER half-periods in the same call as the head's
    # seeds, end most passes in their first call of the integrand: 107
    # calls for the whole suite, against 134 with the first tail batch in
    # a call of its own and 360 with geometric seeds and a first batch of
    # six.  Every tail there has four rows, and takes its transforms a
    # batch at a time
    calls = _spying(monkeypatch, "_gauss_kronrod")
    batches = _spying(monkeypatch, "_levin_windows")
    _memo._entries.clear()
    assert verify.run_suite("all").all_pass
    assert len(calls) <= 107
    assert batches
    assert all(rows.shape[2] == 4 for rows, _ in batches)


def _kernels_benchmark_separations():
    """The 100 (u, v) of the kernels benchmark workload (phi, drawn from
    its seed, only rotates the kernel): 75 cell centres of
    u in (0.4, 1.6), cell i paired with v-cell 32 i mod 75 of (0.05, 1.5),
    and 25 near a mirror, u = d and u = 2 - d in turn, d the cell centres
    of (0.05, 0.25), v = 4 d."""
    seps = [Separation(0.4 + 1.2 * (i + 0.5) / 75,
                       0.05 + 1.45 * ((32 * i) % 75 + 0.5) / 75)
            for i in range(75)]
    for k in range(25):
        d = 0.05 + 0.2 * (k + 0.5) / 25
        seps.append(Separation(d if k % 2 == 0 else 2.0 - d, 4.0 * d))
    return seps


def test_kernel_d_converges_in_one_integrand_call(monkeypatch):
    # at the default tolerance the remainder of D+ spans fewer than
    # _TAIL_MIN_SPAN half-periods at every one of these separations: a
    # plain pass whose seed panels, at most h/2 wide, already meet it
    calls = _spying(monkeypatch, "_gauss_kronrod")
    counts = []
    for sep in _kernels_benchmark_separations():
        _memo._entries.clear()
        calls.clear()
        kernel_d("plus", sep)
        counts.append(len(calls))
    assert counts == [1] * 100


@pytest.mark.parametrize("f", [
    lambda x: np.exp(-1e-3 * x) * special.jv(0, x),
    _laplace_bessel_rows(1e-3, 1.0)], ids=["scalar", "k_by_n"])
def test_batched_half_periods_match_one_at_a_time(f):
    # one call for n half-periods gives each one's K15 values and errors
    # bit for bit as a call for that half-period alone
    h, x0 = math.pi, 4.0 * math.pi
    batch, end = specfun._half_periods(f, x0, h, 100.0, 9)
    assert len(batch) == 9
    x = x0
    for got in batch:
        mid = x + 0.5 * h
        want = specfun._gauss_kronrod(f, np.array([x, mid]),
                                      np.array([mid, x + h]))
        assert np.array_equal(got, want)
        x += h
    # the batch ends where the last of them does
    assert end == x
    # none starts at or past x_max
    assert len(specfun._half_periods(f, x0, h, x0 + 2.5 * h, 9)[0]) == 3


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


def _slow_tail_rows(x):
    # _laplace_bessel_rows(1e-3, 1.0) whose first row adds (1 + x)^-3:
    # that tail takes several batches and a head split between two of them
    # to meet 1e-10
    rows = _laplace_bessel_rows(1e-3, 1.0)(x)
    rows[0] += np.exp(-1e-3 * x) * (1.0 + x) ** -3
    return rows


def test_tail_batches_do_not_change_the_result(monkeypatch):
    # the pass with every batch after the first cut to one half-period
    # takes the same steps to the same bits, in more calls
    tol = Tolerance(1e-10, 1e-10)
    g, batched = _recording(_slow_tail_rows)
    want = integrate_semi_infinite(g, 1e-3, tol, half_period=math.pi)
    assert len(batched) > 3
    fetch = specfun._half_periods
    monkeypatch.setattr(specfun, "_half_periods",
                        lambda f, x, h, x_max, n: fetch(f, x, h, x_max, 1))
    g, single = _recording(_slow_tail_rows)
    got = integrate_semi_infinite(g, 1e-3, tol, half_period=math.pi)
    assert np.array_equal(got, want)
    assert len(single) > len(batched)
    # the one-at-a-time pass evaluates a prefix of the batched pass's tail
    tail = lambda calls: np.concatenate(  # noqa: E731
        [x for x in calls if x.min() > _HEAD_HALF_PERIODS * math.pi])
    assert np.array_equal(tail(single), tail(batched)[:len(tail(single))])


def _tail_rows(sums, terms):
    """The rows of a tail (specfun._Tail) holding these partial sums and
    terms, row 0 the empty tail, whose omega +inf pads the windows."""
    rows = np.zeros((len(specfun._EMPTY_TAIL),) + sums.shape)
    n = _HEAD_HALF_PERIODS - 1.0 + np.arange(len(sums))
    rows[specfun._OMEGA] = n[:, None] * terms
    rows[specfun._SUM] = sums
    rows[specfun._OMEGA, 0] = math.inf
    return rows


def _levin_windows(rows, lo, hi):
    # the estimates of rows lo..hi-1 as the tail takes them, from their
    # partial sums, with numpy's floating-point errors ignored (a zero
    # term divides by zero), one row per end
    rows[specfun._EST] = rows[specfun._SUM]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        specfun._levin_windows(rows, range(lo, hi))
    return rows[specfun._EST, lo:hi]


@pytest.mark.parametrize("columns", [1, 2, 4])
def test_levin_windows_match_levin_u_window_by_window(columns):
    # the transforms a batch of tail rows takes, from a few numpy calls for
    # all of them, are those of the reference's _levin_u on each window
    # alone, bit for bit: the growing first windows of 4 to 17 rows, the
    # sliding windows of 17 past 17 half-periods, in any batch, summed row
    # after row for one column as for several; and a column with an
    # exact-zero term, or a term so small that the transform overflows,
    # falls back to its last partial sum in every window that holds it
    rng = np.random.default_rng(columns)
    n = np.arange(60.0)[:, None]
    terms = (rng.standard_normal((60, columns)) * (-1.0) ** n
             / (1.0 + n) ** rng.uniform(0.5, 2.0, columns))
    terms[0] = 0.0
    terms[9, 0] = 0.0
    terms[40, -1] = 5e-324
    sums = np.add.accumulate(terms)
    rows = _tail_rows(sums, terms)
    first = lambda e: max(0, e - _LEVIN_MAX_ORDER - 1)  # noqa: E731
    want = {e: quad_reference._levin_u(sums[first(e) + 1:e + 1],
                                       terms[first(e) + 1:e + 1],
                                       _HEAD_HALF_PERIODS + first(e))
            for e in range(4, 60)}
    for lo, hi in ((4, 60), (4, 5), (4, 12), (12, 17), (16, 19), (17, 18),
                   (20, 60)):
        got = _levin_windows(rows, lo, hi)
        assert got.shape == (hi - lo, columns)
        for e, est in zip(range(lo, hi), got):
            assert est.tobytes() == want[e].tobytes(), e
    for e in range(9, 26):
        assert want[e][0] == sums[e, 0]
    for e in range(40, 57):
        assert want[e][-1] == sums[e, -1]
    assert any(want[e][-1] != sums[e, -1] for e in range(20, 40))


@pytest.mark.parametrize("columns", [1, 4])
def test_levin_tables_are_built_once_and_read_only(columns):
    # _levin_windows takes all but the data from _levin_tables, built once
    # per range of ends: a tail's first batch asks for ends 4..16, or
    # 4..15 where it reaches x_max, and a later batch for ends past 16.  A
    # range asked for again gets the same read-only arrays, and the
    # transforms, from a fresh table or a kept one, are those of the
    # reference's _levin_u on each window alone, bit for bit
    rng = np.random.default_rng(5 + columns)
    n = np.arange(41.0)[:, None]
    terms = rng.standard_normal((41, columns)) * (-1.0) ** n / (1.0 + n)
    sums = np.add.accumulate(terms)
    rows = _tail_rows(sums, terms)
    first = lambda e: max(0, e - _LEVIN_MAX_ORDER - 1)  # noqa: E731
    specfun._levin_tables.cache_clear()
    for lo, hi in ((4, 17), (4, 16), (17, 41)):
        tables = specfun._levin_tables(lo, hi - lo, columns)
        assert specfun._levin_tables(lo, hi - lo, columns) is tables
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.flat[0] = 1
        for _ in range(2):
            got = _levin_windows(rows, lo, hi)
            assert got.shape == (hi - lo, columns)
            for e, est in zip(range(lo, hi), got):
                want = quad_reference._levin_u(
                    sums[first(e) + 1:e + 1], terms[first(e) + 1:e + 1],
                    _HEAD_HALF_PERIODS + first(e))
                assert est.tobytes() == want.tobytes(), e
    assert specfun._levin_tables.cache_info().misses == 3


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


def _closed_form_exponents_mp(alpha, beta, m):
    # the closed form as (e^{-alpha beta} +- e^{-(2pi - alpha) beta}) /
    # (1 - e^{-2pi beta}), whose exponents lose nothing to cancellation:
    # at 40 digits beta (pi - alpha) would lose an alpha below 1e-40
    a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
    top, bot = mpmath.exp(-a * b), mpmath.exp(-(2 * mpmath.pi - a) * b)
    ratio = (top + bot if m == 0 else top - bot) / -mpmath.expm1(
        -2 * mpmath.pi * b)
    return mpmath.pi * b ** (m - 1) * ratio


@pytest.mark.parametrize("m", [0, 1])
def test_hyperbolic_mode_sum_huge_beta_against_mpmath(m):
    # the exponents -alpha beta and -(2pi - alpha) beta are formed
    # directly at every beta, so each is accurate to about
    # (1 + min(alpha, 2pi - alpha) beta) ulps, also where beta (pi - alpha)
    # overflows (from beta ~ 5.7e307 on), and e^{-alpha beta} is not
    # negligible where alpha is within 1e3 / beta of 0.  Any warning fails
    # the test; every value is finite
    rng = np.random.default_rng(32)
    top = sys.float_info.max
    draws = [(float(rng.uniform(0.0, 2.0 * math.pi)),
              float(10.0 ** rng.uniform(-3.0, math.log10(top))))
             for _ in range(600)]
    for beta in (*rng.uniform(top / math.pi, top, 60).tolist(), top):
        draws += [(0.0, beta), (float(rng.uniform(0.0, 2.0 * math.pi)), beta),
                  (float(10.0 ** rng.uniform(-3.0, 3.0)) / beta, beta)]
    eps = sys.float_info.epsilon
    # draws whose beta (pi - alpha) overflows and whose value is not 0
    reached = 0
    with warnings.catch_warnings(), mpmath.workdps(40):
        warnings.simplefilter("error")
        for alpha, beta in draws:
            got = hyperbolic_mode_sum(ModeSumArgs(alpha, beta, m))
            assert math.isfinite(got.real) and math.isfinite(got.imag)
            value = got.real if m == 0 else got.imag
            if m == 1 and alpha == 0.0:
                # odd in n: exactly 0, where alpha -> 0+ tends to pi
                assert got == 0j
                continue
            overflows = math.isinf(beta * (math.pi - alpha))
            scale = min(alpha, 2.0 * math.pi - alpha) * beta
            want = _closed_form_exponents_mp(alpha, beta, m)
            # a few subnormal ulps where the value underflows
            assert (abs(value - want)
                    <= 8.0 * eps * (1.0 + scale) * abs(want) + 1e-323), (
                alpha, beta)
            reached += overflows and value != 0.0
    assert reached >= 40


def test_hyperbolic_mode_sum_keeps_a_small_alpha_at_large_beta():
    # alpha beta in [1e-3, 1e3], where e^{-alpha beta} carries the value:
    # an alpha below ulp(pi)/2 would be lost in beta (pi - alpha), and
    # beta (pi - alpha) - pi beta would carry a rounding of pi beta ulps
    rng = np.random.default_rng(35)
    eps = sys.float_info.epsilon
    with mpmath.workdps(40):
        for _ in range(600):
            beta = float(10.0 ** rng.uniform(3.0, 300.0))
            alpha = float(10.0 ** rng.uniform(-3.0, 3.0)) / beta
            m = int(rng.integers(2))
            got = hyperbolic_mode_sum(ModeSumArgs(alpha, beta, m))
            value = got.real if m == 0 else got.imag
            want = _closed_form_exponents_mp(alpha, beta, m)
            scale = min(alpha, 2.0 * math.pi - alpha) * beta
            # a few subnormal ulps where the value underflows
            assert (abs(value - want)
                    <= 8.0 * eps * (1.0 + scale) * abs(want) + 1e-323), (
                alpha, beta, m)
    assert hyperbolic_mode_sum(ModeSumArgs(1e-17, 1e18, 0)) == \
        pytest.approx(float(_closed_form_exponents_mp(1e-17, 1e18, 0)),
                      rel=1e-15)


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
    # beyond 2^53 not every n is a double
    assert math.isfinite(direct_mode_sum(args, 2 ** 53).real)
    with pytest.raises(DomainError):
        direct_mode_sum(args, 2 ** 53 + 1)


def test_direct_mode_sum_refuses_a_head_past_its_bound(monkeypatch):
    # at alpha = 1e-300 the head runs to n_max: 2^53 terms would take
    # about 1.6 years.  The bound is read first, so that a missing guard
    # fails here instead of summing
    from fpcavity import modesum
    bound = modesum._MAX_HEAD_TERMS
    assert 2 ** 53 > bound >= 10 ** 8
    with pytest.raises(DomainError, match=r"alpha = 1e-300.*n_max = "
                       + str(2 ** 53)):
        direct_mode_sum(ModeSumArgs(1e-300, 1.0, 0), 2 ** 53)
    # refused before any term is summed, and a head at the bound is summed
    monkeypatch.setattr(modesum, "_MAX_HEAD_TERMS", 5000)
    args = ModeSumArgs(1e-300, 1.0, 1)
    with pytest.raises(DomainError, match="n_max = 5001"):
        direct_mode_sum(args, 5001)
    assert direct_mode_sum(args, 5000).imag > 0.0
    # alpha = 0 sums a head of _SUM_HEAD_MIN whatever n_max is
    assert math.isfinite(direct_mode_sum(ModeSumArgs(0.0, 1.0, 0),
                                         2 ** 53).real)


# n_max on and around the block and chunk boundaries of the blocked sum
_CHUNK_N = _BLOCK * _CHUNK
_BOUNDARY_N_MAX = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, _CHUNK_N - 1,
                   _CHUNK_N + 1, 3 * _CHUNK_N + 7]


def _head_length(alpha: float) -> int:
    """The length of direct_mode_sum's blocked head before its tails."""
    gap = 2.0 * abs(math.sin(0.5 * alpha))  # |1 - e^{i alpha}|
    if gap == 0.0:
        return _SUM_HEAD_MIN
    return max(_SUM_HEAD_MIN, math.ceil(_SUM_HEAD_REACH / gap))


def _signed_alpha(alpha: float) -> float:
    """alpha mod 2pi in (-pi, pi], from mpmath, for the reference phases:
    at alpha near 2pi, the rounding of a double alpha n is of order n
    ulp(2pi), far above the sum's own rounding."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha) % (2 * mpmath.pi)
        return float(a - 2 * mpmath.pi if a > mpmath.pi else a)


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("alpha", [0.0, 0.5, math.pi, 2.5, 6.0, 1e-3, 0.05,
                                   2.0 * math.pi - 1e-3])
def test_direct_mode_sum_matches_fsum_reference(alpha, m):
    # the symmetric truncation term by term, paired as the sum pairs it, at
    # the block and chunk boundaries of the head and just below, at and
    # just above its length, where the tails take over; the bound is
    # relative to the sum of the moduli of the terms
    beta2 = 0.7 ** 2
    head = _head_length(alpha)
    ends = sorted({*_BOUNDARY_N_MAX, head - 1, head, head + 1, 10 ** 6})
    n = np.arange(1, ends[-1] + 1, dtype=float)
    terms = 2.0 * n ** m / (n * n + beta2)
    trig = np.cos if m == 0 else np.sin
    paired = terms * trig(_signed_alpha(alpha) * n)
    # fsum of each stretch between two ends, then of the stretches so far:
    # each stretch's sum rounds once, within 1.2e-16 of its moduli
    starts = [0, *ends[:-1]]
    stretch_paired = [math.fsum(paired[a:b]) for a, b in zip(starts, ends)]
    stretch_terms = [math.fsum(terms[a:b]) for a, b in zip(starts, ends)]
    for i, n_max in enumerate(ends, 1):
        got = direct_mode_sum(ModeSumArgs(alpha, 0.7, m), n_max)
        total = math.fsum(stretch_paired[:i])
        if m == 0:
            want = complex(1.0 / beta2 + total)
            scale = 1.0 / beta2 + math.fsum(stretch_terms[:i])
        else:
            want = 1j * total
            scale = math.fsum(stretch_terms[:i])
        assert abs(got - want) <= 1e-14 * scale, n_max


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("alpha", [0.0, 0.5, math.pi])
def test_direct_mode_sum_at_huge_n_max_meets_the_closed_form(alpha, m):
    # the blocked sum alone would take about a month at 10^15 terms; the
    # head and the two tails take about 0.1 ms.  The truncation error there
    # is at most 2e-15 of the sum of the moduli of the terms.
    n_max = 10 ** 15
    for beta in (0.3, 0.7, 3.0):
        args = ModeSumArgs(alpha, beta, m)
        got = direct_mode_sum(args, n_max)
        if alpha == 0.0 and m == 1:
            assert got == 0j
            continue
        # the moduli: the m = 0 sum at alpha = 0, and for m = 1 about
        # 2 sum_{n <= n_max} 1/n
        scale = (hyperbolic_mode_sum(ModeSumArgs(0.0, beta, 0)).real
                 if m == 0 else 2.0 * math.log(n_max))
        assert abs(got - hyperbolic_mode_sum(args)) <= 1e-14 * scale, beta


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


def _moduli(beta, m, n_max):
    """The sum of the moduli of the terms of the mode sum to n_max: the
    m = 0 sum at alpha = 0 (over n in Z; it exceeds every truncation), and
    about 2 log(n_max) for m = 1."""
    if m == 0:
        return hyperbolic_mode_sum(ModeSumArgs(0.0, beta, 0)).real
    return 2.0 * math.log(n_max)


def _two_sided(alpha, betas, m, n_max):
    """The engine's one-sided sums P made two-sided, as direct_mode_sum
    makes them: 1/beta^2 + 2 Re P for m = 0, 2i Im P for m = 1."""
    p = _direct_sums(alpha, betas, m, n_max)
    return 1.0 / (betas * betas) + 2.0 * p.real if m == 0 else 2j * p.imag


def test_whole_sum_meets_the_truncation_at_2_53():
    # the engine's sum over n in Z against direct_mode_sum at n_max = 2^53,
    # at the EQ27 grid points and at a seeded array of betas up to 200
    # summed in one call.  At alpha = 0 the m = 0 terms past 2^53 add
    # 2/2^53, which is added to the truncation
    n_max = 2 ** 53
    grid = [(a, b, m) for a in verify._MODESUM_ALPHAS
            for b in verify._MODESUM_BETAS for m in verify._MODESUM_ORDERS]
    assert len(grid) == 18
    for alpha, beta, m in grid:
        whole = _two_sided(alpha, np.array([beta]), m, None)[0]
        want = direct_mode_sum(ModeSumArgs(alpha, beta, m), n_max)
        if alpha == 0.0 and m == 0:
            want += 2.0 / n_max
        assert abs(whole - want) <= 4e-15 * _moduli(beta, m, n_max), (
            alpha, beta, m)
    betas = np.random.default_rng(37).uniform(1e-3, 200.0, 200)
    for alpha in (0.0, 0.5, 2.0, math.pi, 6.0):
        for m in (0, 1):
            whole = _two_sided(alpha, betas, m, None)
            for beta, got in zip(betas, whole):
                want = direct_mode_sum(ModeSumArgs(alpha, beta, m), n_max)
                if alpha == 0.0 and m == 0:
                    want += 2.0 / n_max
                assert abs(got - want) <= 4e-15 * _moduli(beta, m, n_max), (
                    alpha, beta, m)


@pytest.mark.parametrize("n_max", [None, 5000, 10 ** 6])
def test_batched_betas_match_one_beta_calls(n_max, monkeypatch):
    # one call over many betas, in head batches of 8 betas at a head of
    # 4096 and in tails of 7, against one call per beta: the per-block sums
    # of a batch may round differently, within a few ulps of the moduli
    monkeypatch.setattr(modesum, "_TAIL_ROWS", 7)
    betas = np.concatenate([np.random.default_rng(7).uniform(0.01, 50.0, 37),
                            [0.3, 1.0, 3.0]])
    eps = sys.float_info.epsilon
    for alpha in (0.0, 0.5, math.pi, 2.0, 6.0, 1e-3):
        for m in (0, 1):
            batched = _two_sided(alpha, betas, m, n_max)
            for beta, got in zip(betas, batched):
                one = _two_sided(alpha, np.array([beta]), m, n_max)[0]
                assert abs(got - one) <= 4.0 * eps * _moduli(
                    beta, m, n_max or 2 ** 53), (alpha, beta, m)


def test_engine_refuses_head_terms_times_betas_past_the_bound(monkeypatch):
    # the bound is on head terms times betas, read before any term is
    # summed; a call at the bound sums
    def never(*args, **kwargs):
        raise AssertionError("a term summed before the bound was checked")

    monkeypatch.setattr(modesum, "_MAX_HEAD_TERMS", 3 * _SUM_HEAD_MIN)
    assert _direct_sums(0.5, np.ones(3), 0, None).shape == (3,)
    monkeypatch.setattr(modesum, "_head_sums", never)
    with pytest.raises(DomainError, match="4096 terms at each of 4 beta"):
        _direct_sums(0.5, np.ones(4), 0, None)
    with pytest.raises(DomainError, match="n_max = 10"):
        _direct_sums(1e-300, np.ones(2), 1, 10 ** 10)


def _seeded_mode_sums():
    rng = np.random.default_rng(36)
    draws = [(float(rng.uniform(-10.0, 10.0)), float(10 ** rng.uniform(-3, 3)),
              int(rng.integers(2)), int(10 ** rng.uniform(4, 15)))
             for _ in range(60)]
    sums = [direct_mode_sum(ModeSumArgs(a, b, m), n) for a, b, m, n in draws]
    return [(s.real.hex(), s.imag.hex()) for s in sums]


def test_euler_pass_cut_to_12_terms_keeps_every_bit(monkeypatch):
    # the Euler terms past the 12th are below half an ulp of every total
    # seen, so the 4 more of the one pass change no bit of a mode sum or of
    # the spectral route
    sep = Separation(0.05, 3.0)
    want = _seeded_mode_sums(), kernel_d_spectral(sep).m.tobytes()
    monkeypatch.setattr(modesum, "_EULER_TERMS", 12)
    assert (_seeded_mode_sums(), kernel_d_spectral(sep).m.tobytes()) == want


def test_one_euler_pass_ends_every_sum():
    # past a head of at least _SUM_HEAD_REACH/|1 - z| terms, Euler term j is
    # at most about j/_SUM_HEAD_REACH of term j - 1, so the first term the
    # fixed pass leaves out is below 16!/256^16 of the first, far under the
    # 2^-53 of a double's last bit
    assert modesum._EULER_TERMS == 16
    assert math.factorial(16) / _SUM_HEAD_REACH ** 16 < 2.0 ** -80


def test_tolerance_validation():
    with pytest.raises(DomainError):
        Tolerance(abs_tol=0.0)
    # the budget is fixed, not part of the request
    with pytest.raises(TypeError):
        Tolerance(max_subdivisions=1)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_tolerance_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        Tolerance(abs_tol=bad)
    with pytest.raises(DomainError):
        Tolerance(rel_tol=bad)
