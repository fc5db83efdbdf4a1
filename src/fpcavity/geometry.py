"""Cavity geometry: mode functions, dispersion, reflection, image lattice.

The cavity is bounded by perfect plane mirrors at z = 0 and z = L with its
axis along z.  Transverse-electric (TE) and transverse-magnetic (TM) mode
functions are returned unnormalized (bare spatial profiles); every quantity
consumed downstream is independent of the mode normalization.

Both kernel families, the Coulomb kernels of coulomb and the
displacement-field kernels of radiation, share what is defined here: the
separation and kernel types, the plus and minus kernels laid out in
closed form from one memoized base of four entries, and the
image-distance floor.  So neither imports the other.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._memo import recall
from .errors import DomainError, as_float

__all__ = [
    "CavityFrame",
    "WaveVector",
    "DipoleSpec",
    "mode_fn",
    "dispersion",
    "reflection_matrix",
    "image_positions",
    "Separation",
    "KernelMatrix",
]


@dataclass(frozen=True)
class CavityFrame:
    """Planar cavity of length L with mirrors at z = 0 and z = L."""

    length_L: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "length_L", as_float(self.length_L))
        if not 0.0 < self.length_L < math.inf:
            raise DomainError("cavity length must be positive and finite")


@dataclass(frozen=True)
class WaveVector:
    """Mode label: axial index n (k_n = n pi / L) and transverse wave vector."""

    n: int
    k_perp: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (hasattr(self.n, "__index__") and operator.index(self.n) >= 0
                and _finite_vector(self.k_perp, 2)):
            raise DomainError("the axial index must be an integer >= 0 and "
                              f"k_perp two finite numbers, got {self!r}")


@dataclass(frozen=True)
class DipoleSpec:
    """Point dipole at a position strictly inside the cavity."""

    position: tuple[float, float, float]
    moment: tuple[float, float, float]

    def __post_init__(self):
        if not all(_finite_vector(a, 3) for a in (self.position, self.moment)):
            raise DomainError("position and moment must be three finite "
                              f"numbers each, got {self!r}")

    def pos(self) -> np.ndarray:
        return np.asarray(self.position, dtype=float)

    def mom(self) -> np.ndarray:
        return np.asarray(self.moment, dtype=float)


def _finite_vector(values, size: int) -> bool:
    """Whether values is a vector of size finite numbers (an int beyond the
    doubles is not one)."""
    try:
        a = np.asarray(values, dtype=float)
    except OverflowError:
        return False
    return a.shape == (size,) and bool(np.isfinite(a).all())


def _axial_k(k: WaveVector, frame: CavityFrame) -> float:
    """k_n = n pi / L, refused with a DomainError where it overflows."""
    try:
        kn = operator.index(k.n) * math.pi / frame.length_L
    except OverflowError:  # n beyond the doubles
        kn = math.inf
    if kn == math.inf:
        raise DomainError(f"k_n = n pi / L overflows for {k!r} and {frame!r}")
    return kn


def _k_parts(k: WaveVector, frame: CavityFrame):
    kp = np.asarray(k.k_perp, dtype=float)
    kp_mag = math.hypot(kp[0], kp[1])
    if kp_mag == math.inf:
        # |k_perp| overflows, its direction does not
        kp_hat = kp / np.abs(kp).max()
        kp_hat /= math.hypot(kp_hat[0], kp_hat[1])
    elif kp_mag > 0.0:
        kp_hat = kp / kp_mag
    else:
        # polarization direction is arbitrary at k_perp = 0; fix it along x
        kp_hat = np.array([1.0, 0.0])
    return kp, kp_mag, kp_hat, _axial_k(k, frame)


def dispersion(k: WaveVector, frame: CavityFrame = CavityFrame()) -> float:
    """Mode frequency omega = sqrt(k_n^2 + |k_perp|^2) with c = 1.

    Formed with math.hypot, so it is finite wherever omega is a finite
    double; where omega itself overflows, a DomainError.
    """
    kp = np.asarray(k.k_perp, dtype=float)
    omega = math.hypot(_axial_k(k, frame), kp[0], kp[1])
    if omega == math.inf:
        raise DomainError(f"omega overflows for {k!r} and {frame!r}")
    return omega


def mode_fn(kind: str, k: WaveVector, r, frame: CavityFrame = CavityFrame()) -> np.ndarray:
    """Bare cavity mode function at position r, as a complex 3-vector.

    TE:  (k_perp_hat x z_hat) sin(k_n z) e^{i k_perp . r_perp}
    TM:  (1/k) (k_perp cos(k_n z) z_hat - i k_n sin(k_n z) k_perp_hat)
         e^{i k_perp . r_perp}

    Both satisfy the perfect-mirror boundary conditions (vanishing tangential
    components at z = 0 and z = L) and are divergence-free.  There is no TE
    mode with n = 0.  A k_perp . r_perp or a k_n that overflows, and for TM
    an overflowing omega, are refused with a DomainError.
    """
    if not _finite_vector(r, 3):
        raise DomainError(f"position must be three finite numbers, got {r!r}")
    r = np.asarray(r, dtype=float)
    z = r[2]
    if not (0.0 <= z <= frame.length_L):
        raise DomainError("position outside the cavity")
    kp, kp_mag, kp_hat, kn = _k_parts(k, frame)
    # in Python floats, which overflow to inf without a warning
    k_dot_r = float(kp[0]) * float(r[0]) + float(kp[1]) * float(r[1])
    if not math.isfinite(k_dot_r):
        raise DomainError(f"k_perp . r overflows for {k!r} at {r!r}")
    phase = np.exp(1j * k_dot_r)
    if kind == "TE":
        if k.n == 0:
            raise DomainError("no TE mode exists with axial index 0")
        pol = np.array([kp_hat[1], -kp_hat[0], 0.0])  # k_perp_hat x z_hat
        return pol * math.sin(kn * z) * phase
    if kind == "TM":
        mod = dispersion(k, frame)
        if mod == 0.0:
            raise DomainError("zero wave vector has no TM mode")
        axial = np.array([0.0, 0.0, 1.0]) * (kp_mag * math.cos(kn * z))
        trans = np.array([kp_hat[0], kp_hat[1], 0.0]) * (kn * math.sin(kn * z))
        return (axial - 1j * trans) / mod * phase
    raise DomainError(f"mode kind must be 'TE' or 'TM', got {kind!r}")


def reflection_matrix() -> np.ndarray:
    """Mirror reflection operator diag(-1, -1, 1)."""
    return np.diag([-1.0, -1.0, 1.0])


def image_positions(z_dip: float, frame: CavityFrame, n_range) -> list[tuple[float, np.ndarray]]:
    """Image lattice of a dipole at axial position z_dip.

    For each n in n_range, emits (2nL + z_dip, identity) followed by
    (2nL - z_dip, R): an unreflected copy and a mirror-reflected copy.  The
    (n = 0, identity) entry is the physical dipole itself.  Orientations
    alternate between identity and R along the axis.  An index that is not
    an integer (numpy integers are integers), and a range whose positions
    would overflow, 2 max|n| L + z_dip beyond the doubles, are a
    DomainError.
    """
    L = frame.length_L
    if not (0.0 < z_dip < L):
        raise DomainError("dipole must lie strictly between the mirrors")
    try:
        n_range = [operator.index(n) for n in n_range]
    except TypeError:
        raise DomainError("image indices must be integers") from None
    try:
        reach = (2.0 * float(max(map(abs, n_range), default=0)) * L
                 + float(z_dip))
    except OverflowError:
        reach = math.inf
    if not reach < math.inf:
        raise DomainError(
            f"image positions 2 n L +- z_dip overflow: 2 max|n| L + z_dip "
            f"lies beyond the doubles at L = {L!r}")
    ident = np.eye(3)
    refl = reflection_matrix()
    out: list[tuple[float, np.ndarray]] = []
    for n in n_range:
        out.append((2 * n * L + z_dip, ident))
        out.append((2 * n * L - z_dip, refl))
    return out


@dataclass(frozen=True)
class Separation:
    """Dimensionless two-dipole separation.

    u = rho_z / L (axial), v = rho_perp / L >= 0 (transverse magnitude),
    phi = azimuth of the transverse separation in the x-y plane.
    """

    u: float
    v: float
    phi: float = 0.0

    def __post_init__(self):
        for name in ("u", "v", "phi"):
            object.__setattr__(self, name, as_float(getattr(self, name)))
        if not all(map(math.isfinite, (self.u, self.v, self.phi))):
            raise DomainError("separation u, v and phi must be finite")
        if self.v < 0:
            raise DomainError("transverse separation v must be non-negative")

    def is_coincident(self) -> bool:
        return self.v == 0.0 and self.u % 2.0 == 0.0


@dataclass
class KernelMatrix:
    """A real 3x3 interaction kernel in L = 1 reduced units."""

    m: np.ndarray
    kind: str


def _kernel_matrix(base, phi: float, sign: str) -> np.ndarray:
    """The kernel of base = (xx, yy, zz, xz), the entries of
    B = [[xx, 0, xz], [0, yy, 0], [xz, 0, zz]] in the frame with the
    transverse separation along x: R_z(phi) B R_z(phi)^T for the plus sign,
    times R = diag(-1, -1, 1) for the minus sign.

    Written entry by entry in closed form, with one product for both
    off-diagonal xy entries, so the plus kernel is exactly symmetric and the
    minus kernel is the plus kernel with columns 0 and 1 negated, as
    -x + 0.0.  Every zero entry is +0.0, so the CLI prints no -0.  At
    phi = 0 (either zero) the frame entries are written as they are.
    """
    xx, yy, zz, xz = base
    if phi == 0.0:
        a, b, d, e, f = xx, 0.0, yy, xz, 0.0
    else:
        c, s = math.cos(phi), math.sin(phi)
        cc, ss = c * c, s * s
        a = cc * xx + ss * yy
        # + 0.0: on the axis xx - yy and xz are zero, and a negative c or s
        # would make them -0.0
        b = c * s * (xx - yy) + 0.0
        d = ss * xx + cc * yy
        e, f = c * xz + 0.0, s * xz + 0.0
    if sign == "minus":
        return np.array((-a + 0.0, -b + 0.0, e, -b + 0.0, -d + 0.0, f,
                         -e + 0.0, -f + 0.0, zz)).reshape(3, 3)
    return np.array((a, b, e, b, d, f, e, f, zz)).reshape(3, 3)


def _kernel_from_base(base, kinds: tuple[str, str], check_domain, sign: str,
                      sep: Separation, *args) -> KernelMatrix:
    """The plus or minus kernel (kinds[0] or kinds[1]) from
    base(sep.u, sep.v, *args), the four entries (xx, yy, zz, xz) of the
    plus kernel in the frame with the transverse separation along x,
    laid out by _kernel_matrix at sep.phi.

    The base comes through the memo of base's last result, so the next
    call of base at the same separation, of either sign, reuses it.
    """
    if sign not in ("plus", "minus"):
        raise DomainError(f"sign must be 'plus' or 'minus', got {sign!r}")
    check_domain(sep)
    m = _kernel_matrix(recall(base, sep.u, sep.v, *args), sep.phi, sign)
    return KernelMatrix(m, kinds[sign == "minus"])

# The nearest image distance (in units of L) below which the lattice sums
# and both kernels are refused: their largest entry, about 4 pi / r^3 (D+
# zz on the axis), overflows below r = 4.2e-103, and is 1.3e301 at 1e-100.
_MIN_IMAGE_DISTANCE = 1e-100


def _check_image_distance(u: float, v: float):
    """DomainError when the nearest image of a separation with u in [0, 2],
    hypot(min(u, 2 - u), v) away, is nearer than _MIN_IMAGE_DISTANCE."""
    if not math.hypot(min(u, 2.0 - u), v) >= _MIN_IMAGE_DISTANCE:
        raise DomainError(
            f"the nearest image lies within {_MIN_IMAGE_DISTANCE:g} of the "
            "source point, where the kernels overflow")
