import json
import math
import sys
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcavity import (KernelMatrix, ModeSumArgs, Separation, Tolerance,
                      check_axial_and_aniso, check_bessel_hyperbolic,
                      check_green, check_kernel_cancellation, check_lipschitz,
                      check_mode_sum, kernel_d, kernel_e, run_suite)
from fpcavity import lattice, verify
from fpcavity.cli import dispatch
from fpcavity.errors import DomainError
from fpcavity.verify import SUITE_NAMES, _report, random_separations
from tests_helpers import starve_verify


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(lhs=st.floats(-1e6, 1e6), err=st.floats(0, 1.0),
       abs_tol=st.floats(1e-12, 1e-2), rel_tol=st.floats(1e-12, 1e-2))
def test_report_pass_rule(lhs, err, abs_tol, rel_tol):
    tol = Tolerance(abs_tol=abs_tol, rel_tol=rel_tol)
    rep = _report("EQ22", {}, lhs, lhs + err, tol)
    assert rep.abs_err >= 0 and rep.rel_err >= 0
    assert rep.passed == (rep.abs_err <= tol.abs_tol
                          or rep.rel_err <= tol.rel_tol)


def test_report_matrix_normalization():
    lhs = np.diag([1.0, 1.0, -2.0])
    rhs = lhs + 1e-9
    rep = _report("EQ21", {}, lhs, rhs, Tolerance(1e-12, 1e-7), scale=2.0)
    assert rep.abs_err == pytest.approx(1e-9)
    assert rep.rel_err == pytest.approx(0.5e-9)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def test_bessel_hyperbolic_midpoint():
    reports = check_bessel_hyperbolic(1.0, 1.0)
    by_id = {r.check_id: r for r in reports}
    assert set(by_id) == {"EQ22", "EQ29_PLUS", "EQ29_MINUS", "EQ30"}
    assert by_id["EQ22"].rel_err < 1e-8
    assert all(r.passed for r in reports)
    # the derivative sides are exact lattice moments, not finite differences:
    # (2 + 2 v d/dv) xi = 2 S3 - 6 v^2 S5, and v d/du xi vanishes at u = 1
    with mpmath.workdps(30):
        s3 = mpmath.nsum(lambda n: ((2 * n + 1) ** 2 + 1) ** -1.5,
                         [-mpmath.inf, mpmath.inf])
        s5 = mpmath.nsum(lambda n: ((2 * n + 1) ** 2 + 1) ** -2.5,
                         [-mpmath.inf, mpmath.inf])
        want = float(2 * s3 - 6 * s5)
    assert by_id["EQ29_MINUS"].rhs == pytest.approx(want, rel=1e-13)
    assert abs(by_id["EQ30"].rhs) < 1e-15
    assert all(r.params == {"u": 1.0, "v": 1.0} for r in reports)


def test_bessel_hyperbolic_symmetry_point():
    # at u = 1 the sinh-weighted integrand vanishes pointwise and the
    # u-derivative of xi vanishes by reflection symmetry
    reports = check_bessel_hyperbolic(1.0, 0.7)
    eq30 = next(r for r in reports if r.check_id == "EQ30")
    assert abs(eq30.lhs) < 1e-10
    assert abs(eq30.rhs) < 1e-8
    assert eq30.passed


def test_bessel_hyperbolic_zero_transverse():
    # both sides vanish with the transverse separation
    reports = check_bessel_hyperbolic(0.6, 0.0)
    eq22 = next(r for r in reports if r.check_id == "EQ22")
    assert eq22.lhs == 0.0 and eq22.rhs == 0.0
    assert eq22.passed


def test_mode_sum_check():
    grid = [ModeSumArgs(0.0, 1.0, 0), ModeSumArgs(0.0, 2.0, 1),
            ModeSumArgs(math.pi, 0.3, 1)]
    reports = check_mode_sum(grid, 10 ** 5)
    assert all(r.passed for r in reports)
    zero_case = reports[1]
    assert zero_case.abs_err == 0.0


def test_lipschitz_check_values():
    r33, r34 = check_lipschitz(1.0, 0.0)
    assert r33.rhs == pytest.approx(1.0)
    assert r33.passed and r34.passed
    r33, _ = check_lipschitz(1.0, 1.0)
    assert r33.rhs == pytest.approx(1.0 / math.sqrt(2.0))
    _, r34 = check_lipschitz(2.0, 3.0)
    assert r34.rhs == pytest.approx(3.0 * 13.0 ** -1.5)
    assert r34.abs_err < 1e-10


def test_lipschitz_small_u_limit():
    # the smallest u the check_lipschitz docstring promises at v in [0, 3]
    for v in (0.0, 0.5, 1.0, 3.0):
        assert all(r.passed for r in check_lipschitz(0.01, v))
    assert all(r.passed for r in check_lipschitz(1e-4, 0.0))


@pytest.mark.parametrize("u", [1e4, 1e8])
def test_lipschitz_fast_decay(u):
    # e^{-xu} decays within the first seed panel; EQ33 holds to the
    # relative tolerance, not only by TOL_LIPSCHITZ's abs_tol
    r33, r34 = check_lipschitz(u, 1.0)
    assert r33.passed and r34.passed
    assert r33.lhs == pytest.approx(r33.rhs, rel=1e-12)
    assert r34.lhs == pytest.approx(r34.rhs, rel=1e-12)


def test_lipschitz_failure_is_a_report(monkeypatch):
    # too few panel splits for the near-singular u = 1e-4 integrands (the
    # oscillatory-tail mode needs 12): both identities come back failed
    # instead of the ConvergenceError aborting
    starve_verify(monkeypatch, 8)
    start = time.perf_counter()
    reports = check_lipschitz(1e-4, 1.0)
    assert time.perf_counter() - start < 5.0
    assert [r.check_id for r in reports] == ["EQ33", "EQ34"]
    for r in reports:
        assert not r.passed
        assert r.abs_err == math.inf
        assert r.params["error"].startswith("ConvergenceError")


@pytest.mark.parametrize("u, v", [(1.0, 0.0), (1.0, 3.0), (1e-3, 1.0)])
def test_lipschitz_makes_one_quadrature(u, v, monkeypatch):
    # EQ33 and EQ34 are the two rows of one vector-valued pass
    calls = []
    quad = verify.integrate_semi_infinite

    def counted(f, *args, **kwargs):
        calls.append(args)
        return quad(f, *args, **kwargs)

    monkeypatch.setattr(verify, "integrate_semi_infinite", counted)
    reports = check_lipschitz(u, v)
    assert len(calls) == 1
    assert [r.check_id for r in reports] == ["EQ33", "EQ34"]
    assert all(r.passed for r in reports)


def test_lipschitz_starved_pass_fails_both_rows_alike(monkeypatch):
    # at u = 0.01, v = 1 the pass takes the tail mode, which needs at least
    # six half-periods: one is too few, and the shared quadrature fails
    # both identities, with the same error
    starve_verify(monkeypatch, 1)
    r33, r34 = check_lipschitz(0.01, 1.0)
    for r in (r33, r34):
        assert not r.passed and r.abs_err == math.inf
        assert r.params["error"].startswith("ConvergenceError")
    assert r33.params == r34.params


@pytest.mark.parametrize("u, v", [(1e-200, 0.0), (1e-160, 0.0),
                                  (1e-110, 1e-110)])
def test_lipschitz_refuses_a_point_at_the_origin(u, v):
    # u^2 + v^2 underflows to 0, or its -3/2 power overflows: a
    # DomainError, not a ZeroDivisionError or OverflowError from the
    # closed forms
    with pytest.raises(DomainError, match="overflows"):
        check_lipschitz(u, v)


@pytest.mark.parametrize("u, v", [(sys.float_info.max, 8.9e-11),
                                  (1e155, 1.0), (1.0, 1e155)])
def test_lipschitz_refuses_a_point_far_from_the_origin(u, v, monkeypatch):
    # u^2 + v^2 overflows: the closed forms came from an infinite r^2, and
    # at u = 1.8e308 the damping e^{-xu} overflowed in x u with a
    # RuntimeWarning; now a DomainError before any quadrature
    calls = []
    monkeypatch.setattr(verify, "integrate_semi_infinite",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(DomainError, match="far from the origin"):
        check_lipschitz(u, v)
    assert calls == []


def test_lipschitz_just_inside_the_far_bound_gives_finite_rows():
    for r in check_lipschitz(1e154, 1.0):
        assert math.isfinite(r.abs_err) and math.isfinite(r.rel_err), r


@pytest.mark.parametrize("check, args", [
    (check_lipschitz, (math.inf, 1.0)), (check_lipschitz, (math.nan, 1.0)),
    (check_lipschitz, (1.0, math.inf)), (check_lipschitz, (1.0, -1.0)),
    (check_green, (math.inf, 1.0, 1.0)), (check_green, (0.5, math.nan, 1.0)),
    (check_green, (0.5, 1.0, math.inf)), (check_green, (0.5, 1.0, -1.0)),
    (check_lipschitz, (-1.0, 1.0)), (check_lipschitz, (0.0, 1.0)),
    (check_green, (2.5, 1.0, 1.0)), (check_green, (0.5, 0.0, 1.0)),
], ids=lambda a: getattr(a, "__name__", repr(a)))
def test_lipschitz_and_green_refuse_bad_input(check, args, monkeypatch):
    # refused before any quadrature runs: unguarded, u = inf gave two
    # passing EQ33/EQ34 rows with lhs = rhs = 0, a v < 0 read the Bessel
    # factors J(xv) at negative arguments, where _bessel_j0_g gives wrong
    # values, and a u <= 0 or a u, u_prime outside (0, 2) gave failed rows
    # whose error was the quadrature's refusal of its decay rate
    calls = []
    monkeypatch.setattr(verify, "integrate_semi_infinite",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(DomainError):
        check(*args)
    assert calls == []


@pytest.mark.parametrize("u, v", [(1e-3, 1.0), (1e-3, 3.0), (1e-4, 0.5),
                                  (5e-3, 3.0)])
def test_lipschitz_next_to_a_mirror(u, v):
    # the plain adaptive pass ran out of panel splits at all four points
    # after about 0.5 s; the oscillatory-tail mode takes a few ms
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reports = check_lipschitz(u, v)
        best = min(best, time.perf_counter() - start)
    assert [r.check_id for r in reports] == ["EQ33", "EQ34"]
    for r in reports:
        assert r.passed and r.abs_err < 1e-12, r
    assert best < 0.05


def test_bessel_suite_sums_the_lattice_once_a_point(monkeypatch):
    # S3 through xi and the derivative sides read one lattice pass per
    # (u, v), by the memo
    calls = []
    moments = lattice._lattice_moments

    def counted(u, v):
        calls.append((u, v))
        return moments(u, v)

    for module in (lattice, verify):
        monkeypatch.setattr(module, "_lattice_moments", counted)
    summary = run_suite("bessel")
    assert len(summary.reports) == 200
    assert len(calls) == len(set(calls)) == 50


def test_bessel_hyperbolic_near_a_mirror():
    # u = 0.01 at v = 4: about 130 oscillations of J before e^{-0.01 x}
    # damps them
    assert all(r.passed for r in check_bessel_hyperbolic(0.01, 4.0))
    assert all(r.passed for r in check_bessel_hyperbolic(1.999, 3.0))


def test_bessel_hyperbolic_starved_pass_fails_all_four_rows(monkeypatch):
    # the four identities share one quadrature pass
    starve_verify(monkeypatch, 1)
    reports = check_bessel_hyperbolic(0.1, 4.0)
    assert [r.check_id for r in reports] == [
        "EQ22", "EQ29_PLUS", "EQ29_MINUS", "EQ30"]
    for r in reports:
        assert not r.passed and r.abs_err == math.inf
        assert r.params["error"].startswith("ConvergenceError")


def test_verify_bessel_at_a_budget_of_one_fails_whole_points(monkeypatch,
                                                            capsys):
    # a budget of one starves every quadrature that takes the tail mode,
    # which needs at least six half-periods: the command exits 1, and as
    # the four identities share one quadrature per (u, v), at each point
    # all four rows pass or all four fail, with the same error
    starve_verify(monkeypatch, 1)
    assert dispatch(["verify", "bessel", "--format", "json"]) == 1
    points = {}
    for c in json.loads(capsys.readouterr().out)["checks"]:
        points.setdefault((c["params"]["u"], c["params"]["v"]), {})[
            c["id"]] = c
    failed = []
    for point, rows in points.items():
        assert sorted(rows) == ["EQ22", "EQ29_MINUS", "EQ29_PLUS",
                                "EQ30"], point
        assert len({c["pass"] for c in rows.values()}) == 1, point
        assert len({c["params"].get("error")
                    for c in rows.values()}) == 1, point
        if not rows["EQ22"]["pass"]:
            assert "error" in rows["EQ22"]["params"], point
            failed.append(point)
    assert failed


def test_green_check():
    rep = check_green(0.5, 1.0, 1.0)
    assert rep.passed and rep.abs_err < 1e-6


@pytest.mark.parametrize("u, u_prime", [(1.95, 0.1), (0.1, 1.95)])
def test_green_arguments_near_opposite_mirrors(u, u_prime):
    # at v = 0 the quadrature runs to x ~ 500, past the x ~ 380 where
    # expm1(x (u - u')) overflows while its exponential factor underflows
    rep = check_green(u, u_prime, 0.0)
    assert rep.check_id == "EQ36"
    assert all(math.isfinite(x) for x in (rep.lhs, rep.rhs, rep.abs_err,
                                          rep.rel_err))
    assert rep.passed


def test_green_next_to_both_mirrors():
    # seeded draws with one argument within 1e-12 to 1e-3 of either mirror
    # and v below that distance.  The weight's exponents were formed from
    # u - 1 and u' - 1, which lose the digits of an argument next to 0:
    # check_green(1e-12, 1.0, 0.0) read rel_err 2.2e-5
    rng = np.random.default_rng(36)
    for _ in range(40):
        near = 10.0 ** rng.uniform(-12.0, -3.0)
        u = near if rng.random() < 0.5 else 2.0 - near
        other = rng.uniform(0.05, 1.95)
        v = 0.0 if rng.random() < 0.3 else near * rng.random()
        args = (u, other) if rng.random() < 0.5 else (other, u)
        rep = check_green(*args, v)
        assert rep.passed and rep.rel_err < 1e-13, (args, v, rep.rel_err)


def test_green_refuses_an_underflowing_image_distance():
    # hypot(u, v) underflowed to 0 in the paired image sum, which divided
    # by it; refused as the kernels refuse a nearest image within 1e-100
    for args in ((1.85e-269, 0.0879, 2.55e-298),
                 (0.0879, 1.85e-269, 2.55e-298), (0.5, 1e-101, 0.0)):
        with pytest.raises(DomainError, match="nearest image"):
            check_green(*args)


def test_green_at_a_vanishing_decay_rate_blames_the_decay_rate():
    # u = 5e-324 is in the domain, but the decay hint min(u, 2 - u) puts the
    # quadrature's truncation point at infinity: the row fails with that
    # cause, not with an overflowing Bessel argument
    rep = check_green(5e-324, 2.1e-4, 2.85)
    assert not rep.passed and rep.abs_err == math.inf
    assert rep.params["error"] == (
        "DomainError: the truncation point overflows: decay_rate_hint = "
        "5e-324 is too small")


@pytest.mark.parametrize("v", [1e150, 1e160, 1e200, 1e308])
def test_huge_transverse_distance_gives_no_nan(v):
    # v v overflowed where s5 underflowed (EQ29_MINUS: inf x 0), and the
    # Green tail took log(inf / inf); at 1e308 the Bessel argument x v
    # overflows at the quadrature's nodes, and every row fails instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = check_bessel_hyperbolic(0.5, v) + [check_green(0.5, 1.0, v)]
    assert [r.check_id for r in reports] == [
        "EQ22", "EQ29_PLUS", "EQ29_MINUS", "EQ30", "EQ36"]
    for r in reports:
        assert not math.isnan(r.abs_err) and not math.isnan(r.rel_err)
        if v < 1e300:
            assert r.passed
        else:
            assert not r.passed and r.abs_err == math.inf
            assert r.params["error"].startswith("DomainError")
            assert "overflows" in r.params["error"]


@pytest.mark.parametrize("triple, bound", [
    ((0.5, 1.0, 1.0), 4.0e-17), ((0.3, 1.7, 0.5), 6.7e-17),
    ((1.2, 0.8, 2.0), 1.0e-16)])
def test_paired_image_sum_against_mpmath(triple, bound):
    # each bound is the error of the 40001-term direct sum that the short
    # head and its Euler-Maclaurin tails replaced.  The doubles 0.3 and 1.7
    # are not mirror images (2 - 0.3 is 1.7 + 5.6e-17), so the second sum
    # is 7.5e-17, not 0; 0.8 is exactly 2 - 1.2, so the third is 0
    assert triple in verify._GREEN_TRIPLES
    with mpmath.workdps(40):
        u, u_prime, v = map(mpmath.mpf, triple)
        want = mpmath.nsum(lambda n: ((2 * n + u) ** 2 + v ** 2) ** -0.5
                           - ((2 * n + u_prime) ** 2 + v ** 2) ** -0.5,
                           [-mpmath.inf, mpmath.inf])
    got = verify._paired_inverse_distance_sum(*triple)
    assert abs(got - want) <= bound


def test_green_trivial_equal_arguments():
    rep = check_green(0.7, 0.7, 1.0)
    assert rep.lhs == 0.0
    assert rep.passed


def test_green_reflection_and_swap():
    # reflecting both arguments through u -> 2 - u preserves each image
    # family, so the paired sum is unchanged; swapping the arguments (which
    # is what composing the reflection with a family exchange does) negates
    # it
    a = check_green(0.5, 1.2, 0.8)
    b = check_green(2.0 - 0.5, 2.0 - 1.2, 0.8)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-10, abs=1e-12)
    c = check_green(1.2, 0.5, 0.8)
    assert c.lhs == pytest.approx(-a.lhs, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("v", [1e80, 1e100, 1e150])
def test_derivative_identity_at_huge_v(v):
    # S5 alone underflows from v ~ 1e77: EQ29_MINUS's lattice side lost its
    # v^2 S5 term there and took the wrong sign, passing only on abs_tol.
    # The scaled moment keeps both sides at -2/v^2
    eq29_minus = check_bessel_hyperbolic(0.5, v)[2]
    assert eq29_minus.check_id == "EQ29_MINUS"
    assert eq29_minus.rhs == pytest.approx(-2.0 / v ** 2, rel=1e-12)
    assert eq29_minus.rel_err <= 1e-6


@pytest.mark.parametrize("cutoff", [0.5, math.pi, 1e3, math.pi * 1e6])
def test_continuum_row_integrates_the_anisotropy_summand(cutoff,
                                                         monkeypatch):
    # the row integrates anisotropy_delta's own summand over the axial
    # index: it passes at any cutoff, and fails once the 3 of the summand
    # becomes 2.999
    def row():
        return check_axial_and_aniso([], [1.0, 2.0], cutoff)[0]

    assert row().params == {"form": "continuum_angular_integral"}
    assert row().passed

    def mutated(n, radius):
        x2 = (radius - n) * (radius + n)
        return 2.999 * (n * n * np.log1p(x2 / (n * n))) - x2

    monkeypatch.setattr(verify, "_anisotropy_summand", mutated)
    assert not row().passed


@pytest.mark.parametrize("lengths, cutoff", [
    ([1e200, 2e200], 1e-199),    # (cutoff/pi)^2 and pi^3/L^2 underflow
    ([1e-170, 2e-170], 3.5e170),  # both overflow
    ([1.0, 2.0], math.inf), ([1.0, 2.0], 0.0)])
def test_axial_and_aniso_fails_rows_out_of_the_float_range(lengths, cutoff):
    # each aborted the run with a RuntimeWarning (an error in this suite)
    # or ZeroDivisionError; now both anisotropy rows fail with the cause
    reports = check_axial_and_aniso([0.5], lengths, cutoff)
    assert [r.check_id for r in reports] == ["AXIAL20", "ANISO38", "ANISO38"]
    assert reports[0].passed
    for r in reports[1:]:
        assert not r.passed and r.abs_err == math.inf
        assert r.params["error"].startswith("DomainError")


@pytest.mark.parametrize("cutoff", [-1.0, 0.0, -math.inf, math.nan])
def test_continuum_row_refuses_a_cutoff_that_is_not_positive(cutoff):
    # the continuum row read only (cutoff/pi)^2, so -1 passed it while the
    # decay row failed; both rows now fail with the same cause
    reports = check_axial_and_aniso([0.5], [1.0, 2.0], cutoff)
    assert [r.check_id for r in reports] == ["AXIAL20", "ANISO38", "ANISO38"]
    for r in reports[1:]:
        assert not r.passed and r.abs_err == math.inf
        assert r.params["error"] == ("DomainError: cutoff must be positive "
                                     "and finite")


def test_axial_and_aniso_structure():
    reports = check_axial_and_aniso([0.7], [1.0, 2.0, 4.0, 8.0], math.pi)
    ids = [r.check_id for r in reports]
    assert ids.count("AXIAL20") == 1
    assert ids.count("ANISO38") == 2
    assert all(r.passed for r in reports)
    decay = [r for r in reports if r.params.get("form") == "decay"][0]
    assert "loglog_slope" in decay.params
    assert decay.params["loglog_slope"] < 0


@pytest.mark.parametrize("lengths, decay_factor", [
    ([1.0, 2.0], 0.0), ([1.0, 2.0], -1.0), ([1.0, 2.0], math.nan),
    ([1.0, 2.0], math.inf), ([1.0, 1.0], 1e-2), ([2.0, 1.0], 1e-2),
    ([1.0, math.nan, 4.0], 1e-2),
])
def test_axial_and_aniso_refuses_bad_decay_input(lengths, decay_factor,
                                                 monkeypatch):
    # 0 divided by zero and aborted the run, a negative or nan factor made
    # the decay row pass untested, and repeated lengths made polyfit warn;
    # all are refused before any work
    def refuse(*args, **kwargs):
        raise AssertionError("work done for refused input")

    monkeypatch.setattr(verify, "_kernel_d_reference", refuse)
    monkeypatch.setattr(verify, "anisotropy_delta", refuse)
    with pytest.raises(DomainError):
        check_axial_and_aniso([0.7], lengths, math.pi,
                              decay_factor=decay_factor)


# ---------------------------------------------------------------------------
# cancellation and mutation sensitivity
# ---------------------------------------------------------------------------

def _sample_seps():
    return random_separations(4, seed=7)


def test_cancellation_check_passes():
    reports = check_kernel_cancellation(_sample_seps(), [0.25, 0.5])
    assert all(r.passed for r in reports)
    assert sum(r.check_id == "EQ21" for r in reports) == 4
    assert sum(r.check_id == "SELF_CANCEL" for r in reports) == 2


def test_cancellation_on_axis_structure():
    # on the axis both kernels are diagonal with the same (1, 1, -2)
    # pattern up to the -(1/2 pi) weight, so the residual is pure noise
    reports = check_kernel_cancellation([Separation(0.5, 0.0)], [])
    assert len(reports) == 1 and reports[0].passed
    assert reports[0].rel_err < 1e-10


def _flipped_d(sign, sep, tol):
    k = kernel_d(sign, sep, tol)
    return KernelMatrix(-k.m, k.kind)


def test_mutation_sign_flip_detected():
    reports = check_kernel_cancellation(_sample_seps()[:2], [0.4],
                                        kernel_d_fn=_flipped_d)
    assert any(not r.passed for r in reports)


def test_mutation_sign_flip_fails_eq21_at_every_budget(monkeypatch):
    # no argument sets a threshold: a loose Tolerance is refused outright,
    # and any split budget of the quadratures leaves the pinned TOL_EQ21 in
    # force
    seps = _sample_seps()[:2]
    with pytest.raises(TypeError):
        check_kernel_cancellation(seps, [], Tolerance(10.0, 10.0),
                                  kernel_d_fn=_flipped_d)
    with pytest.raises(TypeError):
        check_kernel_cancellation(seps, [], tol=Tolerance(10.0, 10.0),
                                  kernel_d_fn=_flipped_d)
    for budget in (1, 4000, 10 ** 6):
        starve_verify(monkeypatch, budget)
        reports = check_kernel_cancellation(seps, [], kernel_d_fn=_flipped_d)
        assert [r.check_id for r in reports] == ["EQ21", "EQ21"]
        assert not any(r.passed for r in reports)
        assert all(r.tol_used == verify.TOL_EQ21 for r in reports)


def test_mutation_dropped_direct_term_detected():
    from tests_helpers import free_space_term

    def gutted_e(sign, sep):
        k = kernel_e(sign, sep)
        return KernelMatrix(k.m - free_space_term(sep, sign), k.kind)

    reports = check_kernel_cancellation(_sample_seps()[:2], [],
                                        kernel_e_fn=gutted_e)
    assert any(not r.passed for r in reports)


def test_mutation_dropped_j2_detected():
    def no_j2_d(sign, sep, tol):
        base = kernel_d(sign, Separation(sep.u, sep.v, 0.0), tol).m
        mean = 0.5 * (base[0, 0] + base[1, 1])
        mutated = base.copy()
        mutated[0, 0] = mean
        mutated[1, 1] = mean
        c, s = math.cos(sep.phi), math.sin(sep.phi)
        rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        return KernelMatrix(rz @ mutated @ rz.T, "D_PLUS")

    seps = [s for s in random_separations(6, seed=11) if s.v > 0.3][:2]
    reports = check_kernel_cancellation(seps, [], kernel_d_fn=no_j2_d)
    assert any(not r.passed for r in reports)


# ---------------------------------------------------------------------------
# aggregate runs
# ---------------------------------------------------------------------------

# every positional argument of each check, then a stray Tolerance or a
# panel-split budget
_POSITIONAL = [
    (check_bessel_hyperbolic, (1.0, 1.0)),
    (check_kernel_cancellation, ([Separation(0.5, 0.5)], [0.5])),
    (check_mode_sum, ([ModeSumArgs(0.5, 1.0, 0)], 10)),
    (check_lipschitz, (1.0, 1.0)),
    (check_green, (0.5, 1.0, 1.0)),
    (check_axial_and_aniso, ([0.7], [1.0, 2.0], math.pi)),
]


@pytest.mark.parametrize("check, args", _POSITIONAL,
                         ids=[c.__name__ for c, _ in _POSITIONAL])
def test_checks_take_no_tolerance(check, args):
    with pytest.raises(TypeError):
        check(*args, Tolerance(10.0, 10.0))
    with pytest.raises(TypeError):
        check(*args, max_subdivisions=1)


def _pinned(r):
    """The TOL_* constant that check id (and ANISO38 form) pins."""
    if r.check_id == "ANISO38":
        return (verify.TOL_CONTINUUM if r.params["form"].startswith("continuum")
                else verify.TOL_DECAY)
    return {"EQ22": verify.TOL_EQ22, "EQ29_PLUS": verify.TOL_EQ22,
            "EQ29_MINUS": verify.TOL_DERIV, "EQ30": verify.TOL_DERIV,
            "EQ21": verify.TOL_EQ21, "SELF_CANCEL": verify.TOL_SELF,
            "EQ27": verify.TOL_MODESUM, "EQ33": verify.TOL_LIPSCHITZ,
            "EQ34": verify.TOL_LIPSCHITZ, "EQ36": verify.TOL_GREEN,
            "AXIAL20": verify.TOL_AXIAL}[r.check_id]


@pytest.mark.parametrize("budget", [1, 8])
def test_budget_never_moves_a_threshold(budget, monkeypatch):
    starve_verify(monkeypatch, budget)
    summary = run_suite("all")
    assert {r.check_id for r in summary.reports} == {
        "EQ22", "EQ29_PLUS", "EQ29_MINUS", "EQ30", "EQ21", "SELF_CANCEL",
        "EQ27", "EQ33", "EQ34", "EQ36", "AXIAL20", "ANISO38"}
    # the budget starves some quadratures: those rows fail, none passes
    # by a looser threshold
    assert not summary.all_pass
    for r in summary.reports:
        assert (r.tol_used.abs_tol, r.tol_used.rel_tol) == (
            _pinned(r).abs_tol, _pinned(r).rel_tol), r.check_id


_CHECKS = ("check_bessel_hyperbolic", "check_kernel_cancellation",
           "check_mode_sum", "check_lipschitz", "check_green",
           "check_axial_and_aniso", "random_separations")


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("bad", [-1, 1.5, "42"])
def test_run_suite_refuses_a_bad_seed_before_any_work(suite, bad,
                                                      monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work done for a refused seed")

    for name in _CHECKS:
        monkeypatch.setattr(verify, name, refuse)
    with pytest.raises(DomainError, match="seed"):
        run_suite(suite, seed=bad)


def test_run_suite_takes_numpy_integers():
    summary = run_suite("green", seed=np.int64(3))
    assert summary.seed == 3 and type(summary.seed) is int
    assert summary.all_pass


def test_run_suite_unknown_name():
    # a DomainError, which is a ValueError
    with pytest.raises(DomainError, match="unknown suite"):
        run_suite("everything")
    with pytest.raises(ValueError):
        run_suite("everything")


def test_run_suite_takes_no_budget():
    # the panel-split budget is the quadrature's own constant
    with pytest.raises(TypeError):
        run_suite("green", max_subdivisions=8)


def test_all_is_the_single_suites_in_order(full_summary):
    # the rows of "all" are those of each suite, in SUITE_NAMES order
    singles = [r for name in SUITE_NAMES[1:]
               for r in run_suite(name, seed=full_summary.seed).reports]
    assert len(singles) == len(full_summary.reports)
    for a, b in zip(full_summary.reports, singles):
        assert a == b


def test_run_suite_deterministic():
    a = run_suite("modesum")
    b = run_suite("modesum")
    assert [r.abs_err for r in a.reports] == [r.abs_err for r in b.reports]
    assert [r.rel_err for r in a.reports] == [r.rel_err for r in b.reports]


def test_random_separations_seeded():
    a = random_separations(5, seed=3)
    b = random_separations(5, seed=3)
    assert [(s.u, s.v, s.phi) for s in a] == [(s.u, s.v, s.phi) for s in b]
    assert all(0.05 <= s.u <= 1.95 and 0.05 <= s.v <= 3.0 for s in a)


def test_full_run_passes(full_summary):
    assert full_summary.all_pass
    assert len(full_summary.reports) > 200
    assert full_summary.seed == 42
