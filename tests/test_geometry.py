import math

import numpy as np
import pytest

from fpcavity import (CavityFrame, DipoleSpec, DomainError, WaveVector,
                      dispersion, image_positions, mode_fn, reflection_matrix)

FRAME = CavityFrame(1.0)


def _sample_wavevectors():
    return [
        WaveVector(1, (0.7, -0.3)),
        WaveVector(2, (1.5, 0.0)),
        WaveVector(3, (0.0, 2.2)),
        WaveVector(5, (0.4, 0.9)),
    ]


def test_te_vanishes_on_mirror():
    k = WaveVector(2, (1.0, 0.5))
    val = mode_fn("TE", k, (0.3, -0.2, 0.0), FRAME)
    assert np.all(val == 0)


def test_tm_axial_value_at_origin():
    # transverse wave vector along x: at the mirror only the axial component
    # survives, with magnitude k_perp / k
    k = WaveVector(1, (2.0, 0.0))
    val = mode_fn("TM", k, (0.0, 0.0, 0.0), FRAME)
    expected = 2.0 / dispersion(k, FRAME)
    assert val[0] == 0 and val[1] == 0
    assert val[2] == pytest.approx(expected, rel=1e-15)


def test_te_requires_axial_index():
    with pytest.raises(DomainError):
        mode_fn("TE", WaveVector(0, (1.0, 0.0)), (0, 0, 0.5), FRAME)


def test_unknown_mode_kind():
    with pytest.raises(DomainError):
        mode_fn("TEM", WaveVector(1, (1.0, 0.0)), (0, 0, 0.5), FRAME)


@pytest.mark.parametrize("z", [-0.1, 1.1])
def test_mode_fn_refuses_a_position_outside_the_cavity(z):
    with pytest.raises(DomainError, match="outside the cavity"):
        mode_fn("TE", WaveVector(1, (1.0, 0.0)), (0.0, 0.0, z), FRAME)


def test_no_tm_mode_at_zero_wave_vector():
    with pytest.raises(DomainError, match="zero wave vector"):
        mode_fn("TM", WaveVector(0, (0.0, 0.0)), (0.0, 0.0, 0.5), FRAME)


@pytest.mark.parametrize("kind", ["TE", "TM"])
def test_tangential_components_vanish_at_mirrors(kind):
    for k in _sample_wavevectors():
        for z in (0.0, FRAME.length_L):
            val = mode_fn(kind, k, (0.13, 0.27, z), FRAME)
            assert abs(val[0]) < 1e-12
            assert abs(val[1]) < 1e-12


@pytest.mark.parametrize("kind", ["TE", "TM"])
def test_transversality_by_plane_wave_decomposition(kind):
    # write the mode as A+ e^{i k_n z} + A- e^{-i k_n z} (times the
    # transverse phase), solve for the amplitudes from two z samples, and
    # check each is orthogonal to its wave vector
    r_perp = (0.31, -0.17)
    for k in _sample_wavevectors():
        kn = k.n * math.pi / FRAME.length_L
        z1, z2 = 0.23, 0.61
        f1 = mode_fn(kind, k, (*r_perp, z1), FRAME)
        f2 = mode_fn(kind, k, (*r_perp, z2), FRAME)
        phase = np.exp(1j * (k.k_perp[0] * r_perp[0] + k.k_perp[1] * r_perp[1]))
        m = np.array([[np.exp(1j * kn * z1), np.exp(-1j * kn * z1)],
                      [np.exp(1j * kn * z2), np.exp(-1j * kn * z2)]])
        amps = np.linalg.solve(m, np.stack([f1, f2]) / phase)
        scale = np.abs(amps).max() * dispersion(k, FRAME)
        for sign, amp in zip((1.0, -1.0), amps):
            kvec = np.array([k.k_perp[0], k.k_perp[1], sign * kn])
            assert abs(kvec @ amp) < 1e-12 * max(scale, 1.0)


def test_degenerate_transverse_polarizations():
    # at k_perp = 0 the two mode kinds give the two orthogonal sinusoidal
    # polarizations fixed by the x-axis convention
    k = WaveVector(1, (0.0, 0.0))
    te = mode_fn("TE", k, (0.0, 0.0, 0.5), FRAME)
    tm = mode_fn("TM", k, (0.0, 0.0, 0.5), FRAME)
    assert abs(te @ tm.conj()) < 1e-15
    assert te[2] == 0 and tm[2] == 0


def test_dispersion_values():
    assert dispersion(WaveVector(0, (1.0, 0.0)), FRAME) == 1.0
    assert dispersion(WaveVector(1, (0.0, 0.0)), CavityFrame(math.pi)) == \
        pytest.approx(1.0, rel=1e-15)
    assert dispersion(WaveVector(3, (4.0, 0.0)), FRAME) == \
        pytest.approx(math.sqrt(9 * math.pi ** 2 + 16), rel=1e-15)


def test_reflection_matrix():
    r = reflection_matrix()
    assert np.array_equal(r @ np.array([1.0, 2.0, 3.0]),
                          np.array([-1.0, -2.0, 3.0]))
    assert np.array_equal(r @ r, np.eye(3))
    assert np.linalg.det(r) == pytest.approx(1.0)


def test_image_positions_basic():
    images = image_positions(0.3, FRAME, range(0, 1))
    assert len(images) == 2
    assert images[0][0] == pytest.approx(0.3)
    assert np.array_equal(images[0][1], np.eye(3))
    assert images[1][0] == pytest.approx(-0.3)
    assert np.array_equal(images[1][1], reflection_matrix())


def test_image_positions_three_cells():
    images = image_positions(0.3, FRAME, range(-1, 2))
    zs = sorted(z for z, _ in images)
    assert zs == pytest.approx([-2.3, -1.7, -0.3, 0.3, 1.7, 2.3])


def test_image_orientations_alternate_along_axis():
    images = image_positions(0.4, FRAME, range(-2, 3))
    ordered = sorted(images, key=lambda t: t[0])
    kinds = [bool(np.array_equal(o, np.eye(3))) for _, o in ordered]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


def _image_set(z_dip, n_range):
    return {(round(zz, 12), bool(np.array_equal(o, np.eye(3))))
            for zz, o in image_positions(z_dip, FRAME, n_range)}


def test_image_lattice_self_map_under_mirror_reflection():
    # point reflection through the right mirror plane (x -> 2L - x) maps the
    # image lattice onto itself with identity and R swapped
    direct = _image_set(0.28, range(-3, 5))
    mapped = {(round(2.0 - zz, 12), not ident) for zz, ident in direct}
    assert direct == mapped


def test_image_lattices_of_mirror_positions_related_by_shift():
    # the image set of L - z is the image set of z translated by L with
    # orientations swapped; compare on a position window where both
    # truncations are complete
    z = 0.28
    a = _image_set(z, range(-10, 11))
    b = _image_set(1.0 - z, range(-10, 11))
    shifted = {(round(zz + 1.0, 12), not ident) for zz, ident in a}
    win = lambda s: {(p, o) for p, o in s if abs(p) <= 15.0}
    assert win(shifted) == win(b)


def test_image_positions_domain():
    with pytest.raises(DomainError):
        image_positions(0.0, FRAME, range(0, 1))
    with pytest.raises(DomainError):
        image_positions(1.5, FRAME, range(0, 1))


@pytest.mark.parametrize("index", [0.5, 1.0, math.nan, np.float64(1.0),
                                   "1"])
def test_image_positions_refuses_an_index_that_is_not_an_integer(index):
    # 0.5 gave an image at 2 (0.5) L + z, and nan an error that blamed an
    # overflow
    with pytest.raises(DomainError, match="must be integers"):
        image_positions(0.3, FRAME, [0, index])


def test_image_positions_takes_numpy_integers():
    images = image_positions(0.3, FRAME, np.arange(-1, 2))
    assert [z for z, _ in images] == [
        z for z, _ in image_positions(0.3, FRAME, range(-1, 2))]
    assert all(type(z) is float for z, _ in images)


def test_frame_and_wavevector_validation():
    with pytest.raises(DomainError):
        CavityFrame(0.0)
    with pytest.raises(DomainError):
        WaveVector(-1, (0.0, 0.0))


@pytest.mark.parametrize("n, k_perp", [
    (1.5, (0.0, 0.0)), (2.0, (1.0, 0.0)), ("1", (0.0, 0.0)),
    (1, (math.inf, 0.0)), (1, (0.0, math.nan)), (1, (1.0,)),
])
def test_wavevector_refuses_non_integer_index_and_non_finite_k_perp(n, k_perp):
    # unguarded, these gave nan or inf from dispersion and mode_fn
    with pytest.raises(DomainError):
        WaveVector(n, k_perp)


def test_wavevector_takes_numpy_integers():
    k = WaveVector(np.int64(2), (1.0, 0.5))
    assert dispersion(k, FRAME) == dispersion(WaveVector(2, (1.0, 0.5)), FRAME)
    assert np.array_equal(mode_fn("TM", k, (0.1, 0.2, 0.3), FRAME),
                          mode_fn("TM", WaveVector(2, (1.0, 0.5)),
                                  (0.1, 0.2, 0.3), FRAME))


@pytest.mark.parametrize("kind", ["TE", "TM"])
@pytest.mark.parametrize("r", [(math.nan, 0.0, 0.5), (0.0, math.inf, 0.5),
                               (0.1, 0.2)])
def test_mode_fn_refuses_a_non_finite_position(kind, r):
    with pytest.raises(DomainError):
        mode_fn(kind, WaveVector(1, (1.0, 0.0)), r, FRAME)


@pytest.mark.parametrize("position, moment", [
    ((math.nan, 0.0, 0.5), (0.0, 0.0, 1.0)),
    ((0.0, 0.0, 0.5), (0.0, math.inf, 1.0)),
    ((0.0, 0.5), (0.0, 0.0, 1.0)),
])
def test_dipole_spec_refuses_non_finite_values(position, moment):
    with pytest.raises(DomainError):
        DipoleSpec(position, moment)


def test_frame_requires_finite_length():
    with pytest.raises(DomainError):
        CavityFrame(math.inf)


def test_dipole_spec_helpers():
    d = DipoleSpec((0.1, 0.2, 0.3), (0.0, 0.0, 1.0))
    assert d.pos().shape == (3,)
    assert d.mom()[2] == 1.0


def test_dispersion_finite_wherever_omega_is():
    # k_n^2 + |k_perp|^2 overflowed at |k_perp| = 1e200, where omega is not
    # near the largest double
    assert dispersion(WaveVector(1, (1e200, 0.0)), FRAME) == 1e200
    assert dispersion(WaveVector(0, (3e307, 4e307)), FRAME) == \
        pytest.approx(5e307, rel=1e-15)
    for k, frame in [(WaveVector(1, (1.5e308, 1.5e308)), FRAME),
                     (WaveVector(1, (0.0, 0.0)), CavityFrame(1e-308)),
                     (WaveVector(10 ** 400, (0.0, 0.0)), FRAME)]:
        with pytest.raises(DomainError):
            dispersion(k, frame)


@pytest.mark.parametrize("kind", ["TE", "TM"])
def test_mode_fn_refuses_an_overflowing_phase(kind):
    # k_perp . r = 1e309 gave [nan+nanj, ...]
    with pytest.raises(DomainError):
        mode_fn(kind, WaveVector(1, (1e308, 0.0)), (10.0, 0.0, 0.5), FRAME)


def test_te_direction_survives_an_overflowing_k_perp():
    # |k_perp| overflows, k_perp . r does not: the polarization is still the
    # unit vector k_perp_hat x z_hat
    val = mode_fn("TE", WaveVector(1, (1.5e308, 1.5e308)), (1e-300, 0.0, 0.5),
                  FRAME)
    assert np.all(np.isfinite(val))
    assert abs(val[0]) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert val[1] == -val[0]
