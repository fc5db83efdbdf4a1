"""Instantaneous-Coulomb interaction kernels of the mirror cavity.

The electrostatic interaction of dipoles between perfect mirrors is the
free-space point-dipole kernel summed over the two-sided image lattice.
Two dimensionless 3x3 kernels carry all of it: E+ (separation-dependent
part, n = 0 term being the direct interaction) and E- = E+ . R (the
mirror-reflected image series).  Physical prefactors 1/(8 pi eps0) and the
1/L^3 length scaling are applied only in the energy assembly, keeping the
kernels identity-check friendly.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .errors import DomainError
from .geometry import (_MIN_IMAGE_DISTANCE, CavityFrame, DipoleSpec,
                       KernelMatrix, Separation, _frame_kernel,
                       _kernel_from_base, image_positions)
from .lattice import _lattice_moments, apery_zeta3, xi

__all__ = [
    "kernel_e",
    "self_energy_matrix",
    "dipole_dipole_energy",
    "brute_force_coulomb",
]

E_PLUS = "E_PLUS"
E_MINUS = "E_MINUS"
SELF = "SELF"

# the largest n_images of brute_force_coulomb, ten times the 10^4 its
# callers take: there two dipoles took 1.4 s and 160 MB more peak RSS, about
# 1.6 KB an image index (2-core x86 Xeon box)
_MAX_IMAGES = 100_000


def _e_plus_base(u: float, v: float) -> np.ndarray:
    """E+ entries in the frame where the transverse separation lies along x.

    Lattice sum over n of the free-space dipole kernel (1 - 3 rhat rhat)/rho^3
    at rho_n = (v, 0, a = 2n + u), written through the lattice moments: with
    a^2 = rho^2 - v^2, sum (1 - 3 a^2/rho^2)/rho^3 = -2 S3 + 3 v^2 S5.
    """
    s3, v2s5, vt5 = _lattice_moments(u, v)
    xx = s3 - 3.0 * v2s5
    zz = 3.0 * v2s5 - 2.0 * s3
    # + 0.0 turns the -0.0 on the axis (vt5 = +0.0 at v = 0) into the +0.0
    # kernel_d gives there, and leaves every other value as it is
    xz = -3.0 * vt5 + 0.0
    return _frame_kernel(xx, s3, zz, xz)


def _check_e_domain(sep: Separation):
    if sep.is_coincident():
        raise DomainError("kernel_e is singular at coincident source points")


def kernel_e(sign: str, sep: Separation) -> KernelMatrix:
    """Coulomb dipole-dipole kernel E+ (or E- = E+ . R) at a separation.

    Evaluated in the frame with the transverse separation along x, then
    conjugated by the rotation about z through sep.phi.  Coincident source
    points (v = 0 and u an even integer) are a domain error, and so is any
    separation whose nearest image lies within 1e-100, where the entries
    would overflow.  The lattice sum has a fixed accuracy of about 1e-13
    relative.  Asking for the other sign at the same separation right
    after reuses the last lattice sum.
    """
    return _kernel_from_base(_e_plus_base, (E_PLUS, E_MINUS), _check_e_domain,
                             sign, sep)


def self_energy_matrix(z_over_L: float) -> KernelMatrix:
    """Image-lattice self-interaction matrix of a dipole at z/L.

    (zeta(3)/4) diag(1, 1, -2) + xi(2z/L, 0) diag(-1, -1, -2) in L = 1
    units; the physical prefactor 1/(8 pi eps0 L^3) belongs to the energy
    assembly.  Diverges as the dipole reaches a mirror; nearer than 5e-101 L
    is a domain error.
    """
    if not (0.0 < z_over_L < 1.0):
        raise DomainError("dipole must lie strictly between the mirrors")
    z3 = apery_zeta3()
    m = (z3 / 4.0) * np.diag([1.0, 1.0, -2.0]) \
        + xi(2.0 * z_over_L, 0.0) * np.diag([-1.0, -1.0, -2.0])
    return KernelMatrix(m, SELF)


def _transverse_offset(ra: np.ndarray, rb: np.ndarray,
                       L: float) -> tuple[float, float]:
    """The transverse offset (dx, dy) of ra from rb, in Python floats, which
    overflow to inf without a warning.  DomainError where its length over
    L is not a finite double: the one guard, before any per-image array,
    that keeps np.hypot and the image sums from overflowing with a
    RuntimeWarning."""
    dx, dy = float(ra[0]) - float(rb[0]), float(ra[1]) - float(rb[1])
    if not math.hypot(dx, dy) / L < math.inf:
        raise DomainError("the transverse separation over L overflows: it "
                          "is not a finite double")
    return dx, dy


def _within_range(dipoles: Sequence[DipoleSpec], frame: CavityFrame,
                  reach: int):
    """dipoles and frame as they are where reach L is a finite double, else
    with every position and L scaled by 2^-b, b the bit length of reach,
    so that no sum or difference of positions up to reach L overflows.  A
    power of two scales exactly but for subnormal coordinates, so every
    quantity in units of L keeps its value."""
    L = frame.length_L
    if reach * L < math.inf:
        return dipoles, frame
    b = reach.bit_length()
    return ([DipoleSpec(tuple(math.ldexp(x, -b) for x in d.position),
                        d.moment) for d in dipoles],
            CavityFrame(math.ldexp(L, -b)))


def _pair_separations(da: DipoleSpec, db: DipoleSpec, frame: CavityFrame):
    """Separations entering the (A, B) pair energy: direct and image-series."""
    L = frame.length_L
    ra, rb = da.pos(), db.pos()
    dx, dy = _transverse_offset(ra, rb, L)
    # np.hypot, not math.hypot, whose last bit differs at some points
    v = float(np.hypot(dx, dy)) / L
    phi = math.atan2(dy, dx) if v > 0 else 0.0
    sep_plus = Separation((ra[2] - rb[2]) / L, v, phi)
    sep_minus = Separation((ra[2] + rb[2]) / L, v, phi)
    return sep_plus, sep_minus


def _scaled_moment(d: DipoleSpec) -> tuple[np.ndarray, int]:
    """The moment as (m, e) with moment = m 2**e and every |entry| of m
    below 1: scaled by a power of two, which is exact."""
    mom = d.mom()
    e = math.frexp(float(np.abs(mom).max()))[1]
    return np.ldexp(mom, -e), e


def _energy(terms, L: float, denom: float) -> float:
    """The sum of t 2**e over the (t, e) of terms, over denom L^3, in Python
    floats.

    The terms are scaled by 2**-top, top the exponent of the largest, before
    they are summed, and L is split the same way, so nothing overflows on
    the way: the energy is finite wherever it is a double, and beyond, a
    DomainError.
    """
    top = max((e + math.frexp(t)[1] for t, e in terms if t), default=0)
    total = 0.0
    for t, e in terms:
        total += math.ldexp(t, e - top)
    # every scaled term is below 1 and denom >= 1, mant >= 1/2: only the
    # last step can overflow
    mant, exp = math.frexp(L)
    try:
        return math.ldexp(total / (denom * mant ** 3), top - 3 * exp)
    except OverflowError:
        raise DomainError("the energy overflows the doubles at "
                          f"L = {L!r}") from None


def dipole_dipole_energy(dipoles: Sequence[DipoleSpec],
                         frame: CavityFrame) -> float:
    """Total Coulomb dipole-dipole energy of the configuration (eps0 = 1).

    (1 / 8 pi L^3) sum over ordered pairs A != B of
    d_A . [E+(direct separation) + E-(z_A + z_B axial, same transverse)] . d_B,
    with the kernels at the lattice sum's fixed accuracy and their domain.
    Assembled in units of L with each moment scaled by a power of two, and
    where z_A + z_B would overflow (L above half the largest double) with
    the positions and L scaled by a power of two together, so the result
    is finite wherever the energy is a double; beyond, a DomainError.
    """
    if len(dipoles) < 2:
        raise DomainError("need at least two dipoles")
    L = frame.length_L
    for d in dipoles:
        if not (0.0 < d.pos()[2] < L):
            raise DomainError("dipole outside the cavity")
    moments = [_scaled_moment(d) for d in dipoles]
    # z_A + z_B reaches 2 L
    dipoles, frame = _within_range(dipoles, frame, 2)
    terms = []
    for i, (da, (ma, ea)) in enumerate(zip(dipoles, moments)):
        for j, (db, (mb, eb)) in enumerate(zip(dipoles, moments)):
            if i == j:
                continue
            sp, sm = _pair_separations(da, db, frame)
            if sp.is_coincident():
                raise DomainError("coincident dipoles")
            k = kernel_e("plus", sp).m + kernel_e("minus", sm).m
            terms.append((float(ma @ k @ mb), ea + eb))
    return _energy(terms, L, 8.0 * math.pi)


def brute_force_coulomb(dipoles: Sequence[DipoleSpec], frame: CavityFrame,
                        n_images: int) -> float:
    """Independent image-lattice oracle for dipole_dipole_energy.

    For each ordered pair (A, B) sums the free-space pair energy of d_A with
    every image of d_B over |n| <= n_images, at half weight so the ordered
    double count reproduces the 1/(8 pi) pair convention.  Deterministic
    finite sum; the truncation error decays as 1/n_images^2.  Coincident
    dipoles, or an image within 1e-100 L, are a domain error, as there, and
    so are a transverse separation over L and an energy beyond the doubles:
    the sum runs in units of L with each moment scaled by a power of two,
    and where an image position or distance, up to (2 n_images + 2) L,
    would overflow, with the positions and L scaled by a power of two
    together.  n_images is an integer from 0 to _MAX_IMAGES = 10^5: the
    sum holds every image in memory, about 160 MB for two dipoles at the
    bound.
    """
    if len(dipoles) < 2:
        raise DomainError("need at least two dipoles")
    try:
        n_images = operator.index(n_images)
    except TypeError:
        raise DomainError(
            f"n_images must be an integer, got {n_images!r}") from None
    if not 0 <= n_images <= _MAX_IMAGES:
        raise DomainError(
            f"n_images must be in [0, {_MAX_IMAGES}], got {n_images}")
    length = frame.length_L
    # the distance of a dipole from an image reaches (2 n_images + 2) L
    dipoles, frame = _within_range(dipoles, frame, 2 * n_images + 2)
    L = frame.length_L
    n_range = range(-n_images, n_images + 1)
    # per dipole: its position, its image axial positions and scaled
    # moments, and the moments' exponent
    images = []
    for d in dipoles:
        m, e = _scaled_moment(d)
        lattice = image_positions(d.pos()[2], frame, n_range)
        images.append((d.pos(), np.array([z for z, _ in lattice]),
                       np.stack([o for _, o in lattice]) @ m, e))
    terms = []
    for i, da in enumerate(dipoles):
        ra, (ma, ea) = da.pos(), _scaled_moment(da)
        for j, (rb, z_img, m_img, eb) in enumerate(images):
            if i == j:
                continue
            # in units of L; the transverse offset is that of every image.
            # An offset of 1 L or more is scaled by 2^-k below 1 (exactly),
            # so that neither r^3 nor the projections overflow, and the
            # energy terms carry the factor 2^-3k in their exponent
            dx, dy = _transverse_offset(ra, rb, L)
            k = max(0, math.frexp(max(abs(dx), abs(dy)) / L)[1])
            dr = np.empty((len(z_img), 3))
            dr[:, 0] = math.ldexp(dx / L, -k)
            dr[:, 1] = math.ldexp(dy / L, -k)
            dr[:, 2] = np.ldexp((ra[2] - z_img) / L, -k)
            # free-space pair energy (1/4pi) [d1.d2 - 3 (d1.rhat)(d2.rhat)]/r^3
            r2 = np.einsum("ij,ij->i", dr, dr)
            if not math.ldexp(math.sqrt(r2.min()), k) >= _MIN_IMAGE_DISTANCE:
                raise DomainError("coincident dipoles: an image within "
                                  f"{_MIN_IMAGE_DISTANCE:g} L")
            proj = (dr @ ma) * np.einsum("ij,ij->i", m_img, dr)
            pair = (m_img @ ma - 3.0 * proj / r2) \
                / (4.0 * math.pi * r2 * np.sqrt(r2))
            terms.append((0.5 * float(pair.sum()), ea + eb - 3 * k))
    return _energy(terms, length, 1.0)
