import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcavity import (CavityFrame, DipoleSpec, DomainError, Separation,
                      apery_zeta3, brute_force_coulomb, dipole_dipole_energy,
                      coulomb, kernel_e, reflection_matrix,
                      self_energy_matrix, specfun, xi)

FRAME = CavityFrame(1.0)


def free_space_kernel(sep: Separation) -> np.ndarray:
    """Single-term (no-image) dipole kernel at the separation, rotated."""
    rho = np.array([sep.v * math.cos(sep.phi), sep.v * math.sin(sep.phi),
                    sep.u])
    r2 = float(rho @ rho)
    rhat = rho / math.sqrt(r2)
    return (np.eye(3) - 3.0 * np.outer(rhat, rhat)) / r2 ** 1.5


def test_axial_specialization():
    sep = Separation(0.5, 0.0)
    mat = kernel_e("plus", sep).m
    expected = xi(0.5, 0.0) * np.diag([1.0, 1.0, -2.0])
    assert np.allclose(mat, expected, atol=1e-11, rtol=0)


def test_direct_term_is_free_space_kernel():
    # n = 0 term alone: diag(1, 1, -2)/u^3 on the axis
    sep = Separation(0.5, 0.0)
    direct = free_space_kernel(sep)
    assert np.allclose(direct, np.diag([8.0, 8.0, -16.0]), atol=1e-12)


def test_minus_is_plus_times_reflection():
    sep = Separation(0.7, 1.1, 0.9)
    plus = kernel_e("plus", sep).m
    minus = kernel_e("minus", sep).m
    assert np.array_equal(minus, plus @ reflection_matrix())


def test_rotation_covariance():
    phi = 1.234
    base = kernel_e("plus", Separation(0.6, 1.4, 0.0)).m
    rotated = kernel_e("plus", Separation(0.6, 1.4, phi)).m
    c, s = math.cos(phi), math.sin(phi)
    rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    assert np.allclose(rotated, rz @ base @ rz.T, atol=1e-13, rtol=0)


@settings(max_examples=25, deadline=None)
@given(u=st.floats(0.05, 1.95), v=st.floats(0.0, 3.0),
       phi=st.floats(0.0, 2.0 * math.pi), shift=st.sampled_from([-2, 2, 4]))
def test_two_periodicity_in_u(u, v, phi, shift):
    base = kernel_e("plus", Separation(u, v, phi)).m
    shifted = kernel_e("plus", Separation(u + shift, v, phi)).m
    assert np.abs(shifted - base).max() <= 1e-12 * np.abs(base).max()


def test_axial_isotropy():
    mat = kernel_e("plus", Separation(0.9, 0.0)).m
    assert mat[0, 0] == pytest.approx(mat[1, 1], rel=1e-14)
    assert mat[0, 2] == 0.0 and mat[2, 0] == 0.0


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("u", [0.3, 1.0, 1.7])
def test_axial_xz_entries_are_positive_zero(sign, u):
    # on the axis the xz/zx entries are +0.0, as kernel_d gives them, so
    # the CLI prints 0 and not -0 for both families
    mat = kernel_e(sign, Separation(u, 0.0)).m
    assert not np.signbit(mat[0, 2]) and not np.signbit(mat[2, 0])


def test_kernel_is_traceless_and_symmetric():
    mat = kernel_e("plus", Separation(0.8, 1.7, 0.3)).m
    assert abs(np.trace(mat)) < 1e-11
    assert np.allclose(mat, mat.T, atol=1e-15)


def test_non_finite_separation_raises():
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            Separation(bad, 1.0)
        with pytest.raises(DomainError):
            Separation(0.5, bad)
        with pytest.raises(DomainError):
            Separation(0.5, 1.0, bad)


def test_coincident_points_raise():
    with pytest.raises(DomainError):
        kernel_e("plus", Separation(0.0, 0.0))
    with pytest.raises(DomainError):
        kernel_e("plus", Separation(2.0, 0.0))
    with pytest.raises(DomainError):
        kernel_e("sideways", Separation(0.5, 0.5))


def test_self_energy_value_at_center():
    mat = self_energy_matrix(0.5).m
    z3 = apery_zeta3()
    expected = (z3 / 4.0) * np.diag([1.0, 1.0, -2.0]) \
        + 1.75 * z3 * np.diag([-1.0, -1.0, -2.0])
    assert np.allclose(mat, expected, atol=1e-9)


def test_self_energy_first_term_traceless():
    assert (apery_zeta3() / 4.0) * (1 + 1 - 2) == 0.0


def test_self_energy_mirror_symmetry():
    a = self_energy_matrix(0.3).m
    b = self_energy_matrix(0.7).m
    assert np.allclose(a, b, rtol=1e-12)


def test_self_energy_domain():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(DomainError):
            self_energy_matrix(bad)


def _axial_pair():
    return [
        DipoleSpec((0.0, 0.0, 0.25), (0.0, 0.0, 1.0)),
        DipoleSpec((0.0, 0.0, 0.75), (0.0, 0.0, 1.0)),
    ]


@pytest.mark.parametrize("dipoles, n_images", [
    (_axial_pair()[:1], 10), (_axial_pair(), -1)],
    ids=["one dipole", "negative n_images"])
def test_brute_force_refuses_one_dipole_and_negative_n_images(dipoles,
                                                               n_images):
    with pytest.raises(DomainError):
        brute_force_coulomb(dipoles, FRAME, n_images=n_images)


@pytest.mark.parametrize("n_images", [2.5, 3.0, np.float64(3.0), "3"])
def test_brute_force_refuses_n_images_that_is_not_an_integer(n_images):
    # 2.5 raised a TypeError from range
    with pytest.raises(DomainError, match="must be an integer"):
        brute_force_coulomb(_axial_pair(), FRAME, n_images=n_images)


def test_brute_force_refuses_n_images_above_its_bound(monkeypatch):
    # the sum holds every image in memory: the bound is checked with a
    # small stand-in, and sits at or above the callers' largest, 10^4
    assert coulomb._MAX_IMAGES >= 10 ** 4
    monkeypatch.setattr(coulomb, "_MAX_IMAGES", 5)
    assert math.isfinite(brute_force_coulomb(_axial_pair(), FRAME,
                                             n_images=np.int64(5)))
    for n_images in (6, 10 ** 400):
        with pytest.raises(DomainError, match=r"in \[0, 5\]"):
            brute_force_coulomb(_axial_pair(), FRAME, n_images=n_images)


def test_energy_matches_brute_force_axial_pair():
    energy = dipole_dipole_energy(_axial_pair(), FRAME)
    oracle = brute_force_coulomb(_axial_pair(), FRAME, n_images=10 ** 4)
    assert energy == pytest.approx(oracle, rel=1e-6)


def test_energy_zero_for_zero_moments():
    dipoles = [
        DipoleSpec((0.0, 0.0, 0.25), (0.0, 0.0, 0.0)),
        DipoleSpec((0.3, 0.0, 0.65), (0.0, 0.0, 0.0)),
    ]
    assert dipole_dipole_energy(dipoles, FRAME) == 0.0


def test_energy_swap_invariance():
    d = [
        DipoleSpec((0.1, -0.2, 0.3), (0.4, 0.5, 0.6)),
        DipoleSpec((-0.3, 0.1, 0.62), (-0.2, 0.8, 0.1)),
    ]
    assert dipole_dipole_energy(d, FRAME) == \
        pytest.approx(dipole_dipole_energy(d[::-1], FRAME), rel=1e-12)


def test_brute_force_no_images_is_free_space():
    d = [
        DipoleSpec((0.0, 0.0, 0.4), (1.0, 0.0, 0.0)),
        DipoleSpec((0.5, 0.0, 0.6), (0.0, 1.0, 0.0)),
    ]
    val = brute_force_coulomb(d, FRAME, n_images=0)
    dr = d[0].pos() - d[1].pos()
    r = np.linalg.norm(dr)
    rhat = dr / r
    m1, m2 = d[0].mom(), d[1].mom()
    free = (m1 @ m2 - 3 * (m1 @ rhat) * (m2 @ rhat)) / (4 * math.pi * r ** 3)
    assert val == pytest.approx(free, rel=1e-14)


def test_brute_force_quadratic_convergence():
    d = _axial_pair()
    ref = brute_force_coulomb(d, FRAME, n_images=10 ** 4)
    err_small = abs(brute_force_coulomb(d, FRAME, n_images=100) - ref)
    err_large = abs(brute_force_coulomb(d, FRAME, n_images=1000) - ref)
    # tail drops like 1/n^2: two orders in n give ~four orders in error
    assert err_large < err_small / 20.0


def random_configuration(rng, n_dipoles):
    dipoles = []
    for _ in range(n_dipoles):
        pos = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
               rng.uniform(0.15, 0.85))
        mom = tuple(rng.uniform(-1.0, 1.0, size=3))
        dipoles.append(DipoleSpec(pos, mom))
    return dipoles


def test_energy_matches_brute_force_random_configs():
    rng = np.random.default_rng(2024)
    for n_dipoles in (2, 3, 2):
        d = random_configuration(rng, n_dipoles)
        energy = dipole_dipole_energy(d, FRAME)
        oracle = brute_force_coulomb(d, FRAME, n_images=10 ** 4)
        assert energy == pytest.approx(oracle, rel=1e-6)


def test_energy_rescales_with_cavity_length():
    # in reduced coordinates the energy carries the inverse cube of L
    d1 = _axial_pair()
    L = 2.5
    d2 = [DipoleSpec((p.pos()[0] * L, p.pos()[1] * L, p.pos()[2] * L),
                     tuple(p.mom())) for p in d1]
    e1 = dipole_dipole_energy(d1, CavityFrame(1.0))
    e2 = dipole_dipole_energy(d2, CavityFrame(L))
    assert e2 == pytest.approx(e1 / L ** 3, rel=1e-10)


def test_coincident_dipoles_refused_by_both_routes():
    # unguarded, the brute-force sum divided 0 by 0 in the direct term
    d = _axial_pair()[0]
    with pytest.raises(DomainError, match="coincident dipoles"):
        dipole_dipole_energy([d, d], FRAME)
    with pytest.raises(DomainError, match="coincident dipoles"):
        brute_force_coulomb([d, d, _axial_pair()[1]], FRAME, n_images=10)


# separations whose nearest image lies within 1e-100 (u reduced mod 2)
NEAR_COINCIDENT = [Separation(1e-160, 0.0), Separation(0.0, 1e-160),
                   Separation(-1e-160, 0.0), Separation(4.0, 1e-101),
                   Separation(0.0, math.nextafter(1e-100, 0.0))]


@pytest.mark.parametrize("sep", NEAR_COINCIDENT)
def test_near_coincident_points_raise(sep):
    # nearer than the floor r^-3 overflows: xi was inf and E+ had nan
    # entries, now both refuse
    with pytest.raises(DomainError, match="nearest image"):
        xi(sep.u, sep.v)
    for sign in ("plus", "minus"):
        with pytest.raises(DomainError, match="nearest image"):
            kernel_e(sign, sep)


@pytest.mark.parametrize("sep", [Separation(1e-100, 0.0),
                                 Separation(0.0, 1e-100),
                                 Separation(2.0, 1e-100, 0.7)])
def test_kernel_e_is_finite_at_the_image_distance_floor(sep):
    assert math.isfinite(xi(sep.u, sep.v))
    for sign in ("plus", "minus"):
        assert np.isfinite(kernel_e(sign, sep).m).all()


def test_near_coincident_dipoles_refused_by_both_routes():
    # 1e-160 apart: the energy was nan and the brute-force sum -inf
    d = DipoleSpec((0.0, 0.0, 0.5), (0.0, 0.0, 1.0))
    near = DipoleSpec((1e-160, 0.0, 0.5), (1.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="nearest image"):
        self_energy_matrix(1e-160)
    with pytest.raises(DomainError, match="nearest image"):
        dipole_dipole_energy([d, near], FRAME)
    with pytest.raises(DomainError, match="coincident dipoles"):
        brute_force_coulomb([d, near], FRAME, n_images=3)
    # and all are finite just past the floor
    assert np.isfinite(self_energy_matrix(5e-101).m).all()
    apart = DipoleSpec((2e-100, 0.0, 0.5), (1.0, 0.0, 0.0))
    assert math.isfinite(dipole_dipole_energy([d, apart], FRAME))
    assert math.isfinite(brute_force_coulomb([d, apart], FRAME, n_images=3))


def test_energy_preconditions():
    with pytest.raises(DomainError):
        dipole_dipole_energy([_axial_pair()[0]], FRAME)
    outside = [DipoleSpec((0, 0, 1.5), (0, 0, 1.0)), _axial_pair()[0]]
    with pytest.raises(DomainError):
        dipole_dipole_energy(outside, FRAME)


def _both_energies(dipoles, frame):
    return (dipole_dipole_energy(dipoles, frame),
            brute_force_coulomb(dipoles, frame, n_images=5))


@pytest.mark.parametrize("dipoles, frame", [
    # 1e-90 L apart at L = 1e-40: about 1e389
    ([DipoleSpec((0.0, 0.0, 0.5e-40), (0.0, 0.0, 1.0)),
      DipoleSpec((1e-130, 0.0, 0.5e-40), (0.0, 0.0, 1.0))],
     CavityFrame(1e-40)),
    # moments of 1e200 at L = 1: about 1e400
    ([DipoleSpec((0.0, 0.0, 0.25), (0.0, 0.0, 1e200)),
      DipoleSpec((0.0, 0.0, 0.75), (0.0, 0.0, 1e200))], FRAME),
], ids=["small-L", "large-moments"])
def test_energy_beyond_the_doubles_is_refused(dipoles, frame):
    # the energy was inf, or numpy overflowed on the way (a RuntimeWarning)
    with pytest.raises(DomainError, match="overflows"):
        dipole_dipole_energy(dipoles, frame)
    with pytest.raises(DomainError, match="overflows"):
        brute_force_coulomb(dipoles, frame, n_images=5)


def test_energy_exact_under_power_of_two_scaling():
    # positions scaled by 2^-365 and moments by 2^-600 scale the energy by
    # exactly 2^(3 * 365 - 1200): the products of the moments underflowed
    # and both routes gave 0, or nan
    dipoles = [DipoleSpec((0.0, 0.0, 0.25), (0.0, 0.0, 1.0)),
               DipoleSpec((0.1, 0.2, 0.75), (0.3, 0.0, 1.0))]
    L = 2.0 ** -365
    scaled = [DipoleSpec(tuple(x * L for x in d.position),
                         tuple(math.ldexp(m, -600) for m in d.moment))
              for d in dipoles]
    want = [math.ldexp(e, -105) for e in _both_energies(dipoles, FRAME)]
    assert want[0] != 0.0
    assert list(_both_energies(scaled, CavityFrame(L))) == want


def test_energy_finite_for_moments_of_opposite_scale():
    # 2^1000 times the first moment and 2^-1000 times the second leave the
    # energy as it is; the kernel times 2^1000 overflowed in the matmul
    near = [DipoleSpec((0.0, 0.0, 0.5), (0.0, 0.0, 1.0)),
            DipoleSpec((1e-3, 0.0, 0.5), (0.0, 0.0, 1.0))]
    apart = [DipoleSpec(near[0].position, (0.0, 0.0, 2.0 ** 1000)),
             DipoleSpec(near[1].position, (0.0, 0.0, 2.0 ** -1000))]
    assert _both_energies(apart, FRAME) == _both_energies(near, FRAME)


def test_transverse_length_beyond_the_doubles_is_refused():
    # each coordinate of the offset is a double, its length 2.1e308 is not:
    # np.hypot warned of the overflow in dipole_dipole_energy, and the
    # per-image products did in brute_force_coulomb
    dipoles = [DipoleSpec((1.5e308, 1.5e308, 0.5), (1.0, 0.0, 1.0)),
               DipoleSpec((0.0, 0.0, 0.5), (1.0, 0.0, 1.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            dipole_dipole_energy(dipoles, FRAME)
        with pytest.raises(DomainError, match="overflows"):
            brute_force_coulomb(dipoles, FRAME, n_images=5)


@pytest.mark.parametrize("offset", [1e103, 1e150, 1e200, 1e307])
def test_huge_transverse_offset_gives_a_value_without_warning(offset):
    # r^3 overflowed in brute_force_coulomb from about 5.6e102 L, and the
    # lattice sum's tail terms in numpy scalars did in dipole_dipole_energy
    # from about 1e103, each with a RuntimeWarning
    dipoles = [DipoleSpec((offset, offset, 0.5), (1.0, 0.0, 1.0)),
               DipoleSpec((0.0, 0.0, 0.25), (1.0, 0.0, 1.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energies = _both_energies(dipoles, FRAME)
    assert all(map(math.isfinite, energies))


def test_transverse_separation_over_L_beyond_the_doubles_is_refused():
    # the offset 2e308 overflowed in numpy's subtraction (a RuntimeWarning)
    dipoles = [DipoleSpec((1e308, 0.0, 0.5), (0.0, 0.0, 1.0)),
               DipoleSpec((-1e308, 0.0, 0.5), (0.0, 0.0, 1.0))]
    with pytest.raises(DomainError, match="finite"):
        dipole_dipole_energy(dipoles, FRAME)
    with pytest.raises(DomainError, match="overflows"):
        brute_force_coulomb(dipoles, FRAME, n_images=5)


def test_lattice_route_never_touches_the_bessel_functions_or_quadrature(
        monkeypatch):
    # every quadrature pass calls _gauss_kronrod and every Bessel call
    # _split, each looked up in specfun at the call
    def forbidden(*args, **kwargs):
        raise AssertionError("integral route called from the lattice route")

    for name in ("_gauss_kronrod", "_split"):
        monkeypatch.setattr(specfun, name, forbidden)
    for u, v, phi in ((0.5, 1.0, 0.0), (1e-3, 0.25, 0.3), (1.7, 30.0, 2.0),
                      (0.3, 0.0, 0.0), (1.0, 1e4, 0.0)):
        assert math.isfinite(xi(u, v))
        for sign in ("plus", "minus"):
            assert np.isfinite(kernel_e(sign, Separation(u, v, phi)).m).all()
    assert np.isfinite(self_energy_matrix(0.3).m).all()
    dipoles = [DipoleSpec((0.0, 0.0, 0.25), (0.0, 0.0, 1.0)),
               DipoleSpec((0.1, 0.2, 0.75), (0.3, 0.0, 1.0))]
    assert math.isfinite(dipole_dipole_energy(dipoles, FRAME))
    assert math.isfinite(brute_force_coulomb(dipoles, FRAME, n_images=3))


@pytest.mark.parametrize("length, z, offset, n_images", [
    (sys.float_info.max, (0.9, 0.3), 0.0, 3),
    (1e308, (0.3, 0.6), 0.1, 50),
])
def test_energy_at_a_huge_length_without_warning(length, z, offset, n_images):
    # z_A + z_B overflowed in dipole_dipole_energy ("overflow in scalar
    # add"), and the image positions and distances did in
    # brute_force_coulomb ("overflow in subtract", "invalid value in
    # divide")
    dipoles = [DipoleSpec((0.0, 0.0, z[0] * length), (0.0, 0.0, 1.0)),
               DipoleSpec((offset * length, 0.0, z[1] * length),
                          (1.0, 0.0, 1.0))]
    frame = CavityFrame(length)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(dipole_dipole_energy(dipoles, frame))
        assert math.isfinite(brute_force_coulomb(dipoles, frame, n_images))


def test_energy_at_a_huge_length_is_that_at_length_one_scaled():
    # positions, L and moments times 2^1023 scale the energy by exactly
    # 2^(2 * 1023 - 3 * 1023): the positions and L are scaled back by a
    # power of two together, which leaves every separation over L as it is
    unit = [DipoleSpec((0.0, 0.0, 0.9), (0.0, 0.0, 1.0)),
            DipoleSpec((0.1, 0.2, 0.3), (1.0, 0.0, 1.0))]
    big = [DipoleSpec(tuple(math.ldexp(x, 1023) for x in d.position),
                      tuple(math.ldexp(m, 1023) for m in d.moment))
           for d in unit]
    for energy in (dipole_dipole_energy,
                   lambda ds, frame: brute_force_coulomb(ds, frame, 3)):
        want = math.ldexp(energy(unit, FRAME), -1023)
        assert want != 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert energy(big, CavityFrame(2.0 ** 1023)) == want
