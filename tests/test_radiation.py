import math

import numpy as np
import pytest

from fpcavity import (AnisotropyResult, CavityFrame, DomainError, Separation,
                      Tolerance, anisotropy_delta, kernel_d,
                      kernel_d_spectral, quadratic_self_term, kernel_e,
                      reflection_matrix, self_energy_matrix, xi)

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
    e_mat = kernel_e("plus", sep, TIGHT).m
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


def test_domain_restrictions():
    with pytest.raises(DomainError):
        kernel_d("plus", Separation(0.0, 0.0))
    with pytest.raises(DomainError):
        kernel_d("plus", Separation(2.3, 1.0))
    with pytest.raises(DomainError):
        kernel_d("plus", Separation(-0.4, 1.0))
    with pytest.raises(DomainError):
        kernel_d("both", Separation(0.5, 1.0))


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


def test_anisotropy_against_closed_form():
    for L in (1.0, 2.0, 4.0):
        res = anisotropy_delta(CavityFrame(L), math.pi, TIGHT)
        radius = L  # cutoff * L / pi with cutoff = pi
        expected = math.pi ** 3 / L ** 2 * _delta_closed_form(radius)
        assert res.delta == pytest.approx(expected, rel=1e-10)
        assert res.isotropic_scale > 0


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


def test_anisotropy_result_fields():
    res = anisotropy_delta(CavityFrame(2.0), math.pi)
    assert isinstance(res, AnisotropyResult)
    assert res.cavity_length == 2.0
    assert res.cutoff == math.pi
