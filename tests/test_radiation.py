import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fpcavity import (AnisotropyResult, CavityFrame, DomainError, Separation,
                      Tolerance, anisotropy_delta, integrate_semi_infinite,
                      kernel_d, kernel_d_spectral, quadratic_self_term,
                      kernel_e, reflection_matrix, self_energy_matrix, xi)
from fpcavity import coulomb, radiation, specfun
from fpcavity.radiation import (_d_rows, _kernel_d_reference,
                                _laplace_bessel_x2, _nearest_pair_rows)
from fpcavity.specfun import _jv

TIGHT = Tolerance(1e-12, 1e-12, 4000)


@pytest.mark.parametrize("u", [0.5, 1.0, 1.4])
def test_axial_closed_form(u):
    mat = kernel_d("plus", Separation(u, 0.0), TIGHT).m
    expected = 2.0 * math.pi * xi(u, 0.0, TIGHT) * np.diag([-1.0, -1.0, 2.0])
    assert np.allclose(mat, expected, rtol=1e-9, atol=1e-11)


def test_minus_is_plus_times_reflection():
    sep = Separation(0.8, 1.2, 0.5)
    plus = kernel_d("plus", sep).m
    minus = kernel_d("minus", sep).m
    assert np.array_equal(minus, plus @ reflection_matrix())


def test_matrix_symmetric_in_base_frame():
    mat = kernel_d("plus", Separation(0.6, 1.5)).m
    assert np.array_equal(mat, mat.T)


def test_cancellation_against_coulomb_kernel():
    sep = Separation(0.5, 1.0)
    e_mat = kernel_e("plus", sep).m
    d_mat = kernel_d("plus", sep, TIGHT).m
    resid = np.abs(e_mat + d_mat / (2.0 * math.pi)).max()
    assert resid < 1e-7 * np.abs(e_mat).max()


def _cancellation_residual(sep):
    # |E+ + D+/(2 pi)| relative to max |E+|; kernel_e is the lattice route,
    # so the check does not lean on the quadrature it tests
    e_mat = kernel_e("plus", sep).m
    d_mat = kernel_d("plus", sep).m
    return np.abs(e_mat + d_mat / (2.0 * math.pi)).max() / np.abs(e_mat).max()


def test_cancellation_near_mirror_at_large_v():
    # a single-entry K15/G7 error estimate can agree by accident on a wide
    # oscillating panel; this separation once gave a D+ off by 2e-7 relative
    # at the default tolerance without raising
    assert _cancellation_residual(
        Separation(1.7225866720361558, 2.571918349886375)) < 1e-10


def test_cancellation_sweep_at_default_tolerance():
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        sep = Separation(rng.uniform(0.02, 1.98), rng.uniform(0.0, 3.0),
                         rng.uniform(0.0, 2.0 * math.pi))
        assert _cancellation_residual(sep) < 1e-10, sep


@pytest.mark.parametrize("u, v", [(1e-3, 1.0), (1e-6, 0.5), (1.99, 2.0),
                                  (0.05, 3.0)])
def test_cancellation_next_to_a_mirror(u, v):
    # the unsplit integrand decays like exp(-x min(u, 2-u)): it raised
    # ConvergenceError at the first three points and took about 90 ms at
    # the last
    assert _cancellation_residual(Separation(u, v, 0.7)) < 1e-10


def test_split_route_matches_reference_route():
    # at the default tolerance the reference itself is off by up to 1e-11
    # relative, so it runs at abs_tol 1e-12 here; in the oscillatory-tail
    # mode it converges at every separation, mirror-adjacent ones included
    ref_tol = Tolerance(1e-12, 1e-10)
    rng = np.random.default_rng(20261019)
    for _ in range(60):
        sep = Separation(rng.uniform(0.02, 1.98), rng.uniform(0.0, 3.0),
                         rng.uniform(0.0, 2.0 * math.pi))
        d = kernel_d("plus", sep).m
        ref = _kernel_d_reference("plus", sep, ref_tol).m
        assert np.abs(d - ref).max() < 1e-12 * np.abs(ref).max(), sep


@pytest.mark.parametrize("u", [1e-3, 1.999])
@pytest.mark.parametrize("v", [1.0, 3.0])
def test_reference_route_next_to_a_mirror(u, v):
    # the unsplit integrand decays like exp(-1e-3 x) here: the plain
    # adaptive pass raised ConvergenceError at all four points.  The bound
    # is the reference's floor at v = 3: its tail panels near x = 20 carry
    # rounding errors of about 1e-13 in double (1.2e-12 relative in D+,
    # whatever the Bessel source), and at abs_tol 1e-12 the small xz entry
    # at v = 1 asks for more than double precision holds
    sep = Separation(u, v, 0.4)
    d = kernel_d("plus", sep).m
    ref = _kernel_d_reference("plus", sep, Tolerance(1e-11, 1e-11)).m
    assert np.abs(d - ref).max() < 2e-12 * np.abs(d).max()


@pytest.mark.parametrize("route", [kernel_d, _kernel_d_reference])
@pytest.mark.parametrize("v", [1e-300, 5e-324])
def test_tiny_transverse_separation_matches_the_axis(route, v):
    # J0 + J2 comes from its series at tiny x v, not from the quotient
    # 2 J1(xv)/(xv), which drifts there or underflows to 0; at 5e-324 the
    # half-period pi/v overflows and the reference takes the plain pass
    axis = route("plus", Separation(0.7, 0.0)).m
    assert axis[0, 2] == 0.0 and axis[2, 0] == 0.0
    tiny = route("plus", Separation(0.7, v)).m
    assert np.abs(tiny - axis).max() <= 1e-15 * np.abs(axis).max()


def test_reference_route_never_touches_the_lattice(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("lattice code called from the integral route")

    for module, name in ((specfun, "_lattice_moments"), (specfun, "xi"),
                         (coulomb, "_lattice_moments"), (coulomb, "xi"),
                         (coulomb, "kernel_e"), (coulomb, "_e_plus_base")):
        monkeypatch.setattr(module, name, forbidden)
    # both separations span more than _TAIL_MIN_SPAN half-periods (about
    # 110 and 42000) and take the oscillatory tail, the second next to a
    # mirror
    levin = specfun._levin_u
    levin_calls = []

    def levin_u(*args):
        levin_calls.append(args)
        return levin(*args)

    monkeypatch.setattr(specfun, "_levin_u", levin_u)
    # the decay rate each quadrature is given: min(u, 2 - u) marks the
    # unsplit integrand, 2 + min(u, 2 - u) the split one of kernel_d
    decay_rates = []
    quad = radiation.integrate_semi_infinite

    def recording(integrand, decay_rate, *args, **kwargs):
        decay_rates.append(decay_rate)
        return quad(integrand, decay_rate, *args, **kwargs)

    monkeypatch.setattr(radiation, "integrate_semi_infinite", recording)
    for sep in (Separation(0.3, 3.0, 0.2), Separation(1e-3, 3.0, 0.2)):
        # kernel_d at the same separation and tolerance just before does
        # not stand in for the reference's own quadrature
        kernel_d("plus", sep)
        levin_calls.clear()
        decay_rates.clear()
        for sign in ("minus", "plus"):
            _kernel_d_reference(sign, sep)
        assert levin_calls, sep
        assert decay_rates == [min(sep.u, 2.0 - sep.u)], sep


@pytest.mark.parametrize("a, v", [(0.3, 0.0), (0.3, 3.0), (1.0, 1.0),
                                  (1.7, 3.0), (2.5, 0.5)])
def test_laplace_bessel_x2_closed_forms(a, v):
    closed = _laplace_bessel_x2(a, v)
    for order in (0, 1, 2):
        quad = integrate_semi_infinite(
            lambda x: x * x * np.exp(-x * a) * _jv(order, x * v), a, TIGHT)
        assert quad == pytest.approx(closed[order], rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("u, v", [(0.3, 0.0), (0.3, 1.2), (1.6, 3.0),
                                  (1.0, 0.7)])
def test_nearest_pair_rows_match_quadrature(u, v):
    # the pair e^{-xu} + e^{-x(2-u)} in the cosh weight and
    # e^{-x(2-u)} - e^{-xu} in the sinh weight, integrated directly
    def rows(x):
        near, far = np.exp(-x * u), np.exp(-x * (2.0 - u))
        return _d_rows(x, v, near + far, far - near)

    quad = integrate_semi_infinite(rows, min(u, 2.0 - u), TIGHT)
    closed = _nearest_pair_rows(u, v)
    assert np.abs(quad - closed).max() < 1e-12 * np.abs(closed).max()


# ---------------------------------------------------------------------------
# properties of both kernels
# ---------------------------------------------------------------------------

KERNELS = [kernel_e, kernel_d]
MIRROR_FLIP = np.diag([1.0, 1.0, -1.0])


def _rot_z(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=25, deadline=None)
@given(u=st.floats(1.0, 2.0 - 1e-4), v=st.floats(0.0, 3.0),
       phi=st.floats(0.0, 2.0 * math.pi),
       sign=st.sampled_from(["plus", "minus"]))
def test_mirror_map(kernel, u, v, phi, sign):
    # K(2-u, v) = K(u, v) with the xz/zx entries negated; 2 - u is exact
    # for u in [1, 2], so both sides see the same distances to the mirrors
    near = kernel(sign, Separation(2.0 - u, v, phi)).m
    far = kernel(sign, Separation(u, v, phi)).m
    flipped = MIRROR_FLIP @ far @ MIRROR_FLIP
    assert np.abs(near - flipped).max() <= 1e-12 * np.abs(far).max()


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=25, deadline=None)
@given(u=st.floats(0.05, 1.95), v=st.floats(0.0, 3.0),
       phi=st.floats(0.0, 2.0 * math.pi), turn=st.floats(-math.pi, math.pi))
def test_rotation_covariance(kernel, u, v, phi, turn):
    # turning the separation by an extra angle about the cavity axis
    # conjugates the kernel by that rotation
    base = kernel("plus", Separation(u, v, phi)).m
    turned = kernel("plus", Separation(u, v, phi + turn)).m
    rz = _rot_z(turn)
    assert np.abs(turned - rz @ base @ rz.T).max() <= 1e-12 * np.abs(base).max()


@settings(max_examples=40, deadline=None)
@given(d=st.floats(1e-4, 1.0), far_side=st.booleans(), v=st.floats(0.0, 3.0),
       phi=st.floats(0.0, 2.0 * math.pi))
def test_cancellation_property(d, far_side, v, phi):
    # u down to 1e-4 from either mirror
    u = 2.0 - d if far_side else d
    assert _cancellation_residual(Separation(u, v, phi)) < 1e-10


def test_domain_restrictions():
    with pytest.raises(DomainError):
        kernel_d("plus", Separation(0.0, 0.0))
    with pytest.raises(DomainError):
        kernel_d("plus", Separation(2.3, 1.0))
    with pytest.raises(DomainError):
        kernel_d("plus", Separation(-0.4, 1.0))
    with pytest.raises(DomainError):
        kernel_d("both", Separation(0.5, 1.0))


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("kernel", [kernel_e, kernel_d, _kernel_d_reference],
                         ids=["E", "D", "D_reference"])
@pytest.mark.parametrize("v", [1e150, 1e155, 1e200, 1e308])
def test_huge_v_gives_finite_entries_or_domain_error(v, kernel, sign):
    # v * v overflows from about 1.3e154; at 1e308 so does x v at the
    # quadrature's truncation point.  Every warning is an error here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m = kernel(sign, Separation(0.5, v)).m
        except DomainError:
            # the lattice side has no Bessel argument to overflow
            assert kernel is not kernel_e
            return
    assert np.all(np.isfinite(m))


@pytest.mark.parametrize("v", [30.0, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("u", [1e-3, 0.3, 1.0, 1.999])
def test_kernel_d_at_large_v(u, v):
    # J(xv) oscillates thousands of times before e^{-2x} damps the
    # remainder, so the quadrature takes its tail mode; the plain pass took
    # 100-135 ms at v = 1e3 and ran out of panel splits at v = 1e4
    sep = Separation(u, v, 0.4)
    d = kernel_d("plus", sep).m
    assert np.all(np.isfinite(d))
    assert np.abs(d + 2.0 * math.pi * kernel_e("plus", sep).m).max() < 1e-10


def test_huge_v_refusal_names_the_bessel_argument():
    with pytest.raises(DomainError, match="x v overflows"):
        kernel_d("plus", Separation(0.5, 1e308))
    # the same v is accepted where x v stays finite at every node
    assert np.all(np.isfinite(kernel_d("plus", Separation(0.5, 1e306)).m))


@pytest.mark.parametrize("a", [0.5, 1.5])
@pytest.mark.parametrize("v", [1e155, 1e200, 1e308])
def test_laplace_bessel_x2_finite_at_huge_v(a, v):
    # r = hypot(a, v): no v * v, so no inf * 0 once it would overflow; the
    # exact values are below the smallest double
    assert _laplace_bessel_x2(a, v) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# spectral representation
# ---------------------------------------------------------------------------

def test_spectral_offdiagonal_zero_on_axis():
    for eps in (0.1, 0.05):
        mat = kernel_d_spectral(Separation(0.7, 0.0), eps).m
        assert mat[0, 2] == 0.0 and mat[2, 0] == 0.0


def test_spectral_transverse_isotropy_on_axis():
    mat = kernel_d_spectral(Separation(0.7, 0.0), 0.05).m
    assert mat[0, 0] == pytest.approx(mat[1, 1], rel=1e-12)


def test_spectral_richardson_matches_production():
    sep = Separation(1.0, 0.5)
    ref = kernel_d("plus", sep).m
    vals = [kernel_d_spectral(sep, eps).m for eps in (0.05, 0.025, 0.0125)]
    extrap = (8.0 * vals[2] - 6.0 * vals[1] + vals[0]) / 3.0
    resid = np.abs(extrap - ref).max() / np.abs(ref).max()
    assert resid < 1e-3


def test_spectral_regulator_validation():
    with pytest.raises(DomainError):
        kernel_d_spectral(Separation(1.0, 0.5), 0.0)
    # from eps ~ 1e160 the squared grid nodes underflow, and the n = 0 term
    # divides the nodes by their squares: the entries were NaN
    for bad in (math.inf, math.nan, -math.inf, 1e160, 1e300):
        with pytest.raises(DomainError):
            kernel_d_spectral(Separation(1.0, 0.5), bad)
    assert np.isfinite(kernel_d_spectral(Separation(1.0, 0.5), 1e150).m).all()


@pytest.mark.parametrize("eps, v", [(1e-6, 1.0), (5e-324, 1.0),
                                    (0.003, 0.0), (0.5, 1e6), (0.5, 5000.0)])
def test_spectral_work_bound_refuses_before_building(eps, v, monkeypatch):
    # the grid and the Bessel tables are never built for a refused request:
    # eps = 1e-6 would otherwise ask for arrays of ~3e8 doubles each.  At
    # v = 5000, eps = 0.5 the nodes times axial terms alone are half the
    # bound; the three Bessel tables (175 terms per node) put it above
    def never(*args, **kwargs):
        raise AssertionError("grid built before the work bound was checked")

    monkeypatch.setattr(radiation, "_gl_grid", never)
    monkeypatch.setattr(radiation, "_bessel_j0_g", never)
    with pytest.raises(DomainError, match="work bound"):
        kernel_d_spectral(Separation(0.7, v), eps)


# ---------------------------------------------------------------------------
# single-dipole quadratic term
# ---------------------------------------------------------------------------

def test_quadratic_self_term_closed_form():
    mat = quadratic_self_term(0.25, TIGHT).m
    expected = 2.0 * math.pi * xi(0.5, 0.0, TIGHT) * np.diag([1.0, 1.0, 2.0])
    assert np.allclose(mat, expected, rtol=1e-9)


def test_quadratic_self_term_cancels_position_dependence():
    for z in (0.2, 0.5, 0.8):
        xi_part = xi(2.0 * z, 0.0, TIGHT) / (8.0 * math.pi) \
            * np.diag([-1.0, -1.0, -2.0])
        quad_part = quadratic_self_term(z, TIGHT).m / (16.0 * math.pi ** 2)
        resid = np.abs(xi_part + quad_part).max()
        assert resid < 1e-8 * np.abs(xi_part).max()


def test_self_energy_zeta_part_is_position_independent():
    # subtracting the xi part from the self-energy matrix must leave the
    # universal zeta(3)/4 piece, for any dipole position
    from fpcavity import apery_zeta3
    expected = apery_zeta3() / 4.0 * np.diag([1.0, 1.0, -2.0])
    for z in (0.2, 0.35, 0.5):
        full = self_energy_matrix(z).m
        zeta_part = full - xi(2.0 * z, 0.0, TIGHT) * np.diag([-1.0, -1.0, -2.0])
        assert np.allclose(zeta_part, expected, atol=1e-9)


def test_quadratic_self_term_mirror_symmetry():
    a = quadratic_self_term(0.3).m
    b = quadratic_self_term(0.7).m
    assert np.allclose(a, b, rtol=1e-9)


def test_quadratic_self_term_domain():
    for bad in (0.0, 1.0):
        with pytest.raises(DomainError):
            quadratic_self_term(bad)


# ---------------------------------------------------------------------------
# coincident-point anisotropy
# ---------------------------------------------------------------------------

def _delta_closed_form(radius: float) -> float:
    # analytic inner integrals: n = 0 gives -R^2/2; n != 0 gives
    # (n^2 - R^2 + 6 n^2 ln(R/|n|)) / 2
    total = -0.5 * radius * radius
    for n in range(1, int(math.floor(radius)) + 1):
        if n * n >= radius * radius:
            continue
        total += (n * n - radius * radius
                  + 6.0 * n * n * math.log(radius / n))
    return total


def _quadrature_reference(radius: float) -> tuple[float, float]:
    # delta and isotropic_scale / (pi^3 / L^2) by scipy's quad of each
    # per-n transverse integrand x (2n^2 -+ x^2)/(x^2 + n^2) on [0, X],
    # each to 1e-14 R^2 (the terms are at most about R^2, their sum R^3)
    delta = scale = 0.0
    abs_tol = 1e-14 * radius * radius
    for n in range(0, int(math.floor(radius)) + 1):
        x_top = math.sqrt(radius * radius - n * n)
        weight = 1.0 if n == 0 else 2.0
        n2 = float(n * n)
        for sign in (1.0, -1.0):
            value = integrate.quad(
                lambda x: x * (2.0 * n2 - sign * x * x) / (x * x + n2),
                0.0, x_top, epsabs=abs_tol, epsrel=1e-14)[0]
            if sign > 0:
                delta += weight * value
            else:
                scale += weight * value
    return delta, scale


ANISO_LENGTHS = (1.0, 1.5, 2.0, 3.7, 4.0, 8.0, 64.0)


@pytest.mark.parametrize("L", ANISO_LENGTHS)
def test_anisotropy_against_quadrature(L):
    # cutoff pi gives radius L: non-integer radii, and integer ones where
    # X = 0 at n = R
    res = anisotropy_delta(CavityFrame(L), math.pi)
    pref = math.pi ** 3 / L ** 2
    delta, scale = _quadrature_reference(L)
    assert abs(res.isotropic_scale - pref * scale) \
        <= 1e-13 * res.isotropic_scale
    assert abs(res.delta - pref * delta) <= 1e-13 * res.isotropic_scale


def test_anisotropy_against_closed_form():
    for L in ANISO_LENGTHS:
        res = anisotropy_delta(CavityFrame(L), math.pi)
        expected = math.pi ** 3 / L ** 2 * _delta_closed_form(L)
        assert abs(res.delta - expected) <= 1e-13 * res.isotropic_scale


def test_anisotropy_normalized_decay():
    normalized = []
    for L in (1.0, 2.0, 4.0, 8.0):
        res = anisotropy_delta(CavityFrame(L), math.pi)
        normalized.append(abs(res.delta) / res.isotropic_scale)
    assert all(b < a for a, b in zip(normalized, normalized[1:]))
    assert normalized[-1] < 1e-2 * normalized[0]


def test_anisotropy_requires_one_axial_mode():
    with pytest.raises(DomainError):
        anisotropy_delta(CavityFrame(0.5), math.pi)
    with pytest.raises(DomainError):
        anisotropy_delta(CavityFrame(1.0), -1.0)


def test_anisotropy_requires_finite_cutoff():
    with pytest.raises(DomainError):
        anisotropy_delta(CavityFrame(1.0), math.inf)


@pytest.mark.parametrize("length, cutoff", [(1e7, math.pi),
                                            (1e300, 1e300)])
def test_anisotropy_refuses_too_many_axial_modes(monkeypatch, length,
                                                 cutoff):
    # 1e7 axial modes, and a radius that overflows to inf, are refused
    # before any array is built or any quadrature runs
    def refuse(*args, **kwargs):
        raise AssertionError("work done for a refused cutoff")

    monkeypatch.setattr(radiation.np, "arange", refuse)
    monkeypatch.setattr(specfun, "_adaptive", refuse)
    with pytest.raises(DomainError):
        anisotropy_delta(CavityFrame(length), cutoff)


def test_anisotropy_accepts_the_mode_bound():
    res = anisotropy_delta(CavityFrame(radiation._MAX_AXIAL_MODES + 0.5),
                           math.pi)
    assert math.isfinite(res.delta) and res.isotropic_scale > 0


def test_anisotropy_result_fields():
    res = anisotropy_delta(CavityFrame(2.0), math.pi)
    assert isinstance(res, AnisotropyResult)
    assert res.cavity_length == 2.0
    assert res.cutoff == math.pi
