"""Collective spin-boson (Dicke) model: exact diagonalization and mean field.

H = omega_a S_z + omega_c a'a + (y/sqrt(N)) (a + a') S_x on the symmetric
(collective-spin) sector, product basis |m> x |n_phot> with a Fock cutoff.
The model has a parity symmetry exp[i pi (a'a + S_z + N/2)]; the Hamiltonian
is block-diagonal in it, and the ground-state solver treats the two parity
blocks separately so reported parities are exact labels even when the
superradiant doublet is degenerate to machine precision.

Each block, with its states ordered by photon number, is banded with a
half-bandwidth of about N/2.  The solver builds it in band storage straight
from the matrix elements, takes its two lowest eigenvalues from a banded
eigensolver and the ground vector by inverse iteration; no dense matrix is
formed.  Its guard bounds the eigensolver's work, block size squared times
half-bandwidth, before anything is built.  `build_hamiltonian` scatters the
same elements into the dense matrix for tests and inspection; its guard
bounds the dimension, since the dense matrix is what costs memory.

Whether the Fock cutoff holds the ground state is read off the ground
vector itself: its probability weight on the top fifth of the photon
numbers must be negligible.

The zero-temperature mean-field transition sits at y_c = sqrt(omega_c
omega_a): below it the ground state is the trivial product state; above it
a symmetry-breaking boson amplitude appears, given in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, eig_banded

from .errors import ConvergenceError, DomainError

__all__ = [
    "DickeParams",
    "GroundStateResult",
    "MeanFieldResult",
    "ScanRow",
    "build_hamiltonian",
    "ground_state",
    "mean_field",
    "spectrum_scan",
]

# dense Hamiltonians of build_hamiltonian: a memory bound
MAX_DIMENSION = 20000
# block size squared times half-bandwidth, the scaling of eig_banded's band
# reduction: 3e-9 to 1.2e-8 s per unit measured on a 2-core x86 box, so up
# to about 5 s per solve at the bound
MAX_SOLVER_WORK = 400_000_000
_MAX_INVERSE_ITERATIONS = 50
# the ground vector's probability weight on photon numbers n >= 0.8 cutoff
# above which the cutoff counts as not converged
_CUTOFF_TAIL = 1e-8


@dataclass(frozen=True)
class DickeParams:
    """Model parameters: splittings, coupling, atom number, Fock cutoff."""

    omega_a: float = 1.0
    omega_c: float = 1.0
    y: float = 0.0
    n_atoms: int = 8
    fock_cutoff: int = 60

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.omega_a, self.omega_c,
                                              self.y)):
            raise DomainError("omega_a, omega_c and y must be finite")
        if not (self.omega_a > 0 and self.omega_c > 0):
            raise DomainError("frequencies must be positive")
        if self.y < 0:
            raise DomainError("coupling must be non-negative")
        if self.n_atoms < 1 or self.fock_cutoff < 1:
            raise DomainError("n_atoms and fock_cutoff must be positive")

    @property
    def dimension(self) -> int:
        return (self.n_atoms + 1) * (self.fock_cutoff + 1)


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    photon_number: float
    sz_expect: float
    parity: float
    cutoff_converged: bool


@dataclass(frozen=True)
class MeanFieldResult:
    y_c: float
    order_parameter_sq_per_atom: float
    energy_per_atom: float


@dataclass(frozen=True)
class ScanRow:
    y: float
    energy: float
    photon_number: float
    gap: float
    parity: float


def _check_dimension(p: DickeParams) -> None:
    if p.dimension > MAX_DIMENSION:
        raise DomainError(
            f"Hilbert-space dimension {p.dimension} exceeds the solver "
            f"guard {MAX_DIMENSION}")


def _check_solver_work(p: DickeParams) -> None:
    # the larger parity block, and its half-bandwidth in photon-major order:
    # N/2 + 1 for even N, (N + 3)/2 for odd N >= 3, 1 (tridiagonal) at N = 1
    block = (p.dimension + 1) // 2
    half_bandwidth = 1 if p.n_atoms == 1 else (p.n_atoms + 3) // 2
    if block * block * half_bandwidth > MAX_SOLVER_WORK:
        raise DomainError(
            f"parity blocks of {block} states with half-bandwidth "
            f"{half_bandwidth} exceed the solver's work bound "
            f"{MAX_SOLVER_WORK} (block size squared times half-bandwidth)")


def _elements(p: DickeParams):
    """The nonzero matrix elements of H on |m, n>, the one definition of H.

    m is the spin index 0..N (S_z = m - N/2) and n the photon number
    0..cutoff.  Returns (m, n, value) arrays of the diagonal, over the
    states in photon-major order n (N + 1) + m, and (m1, n1, m2, n2, value)
    arrays of the couplings, each unordered pair of states once:
    S_x (a + a') links |m, n> to |m + 1, n +- 1>.
    """
    s = 0.5 * p.n_atoms
    n, m = np.divmod(np.arange(p.dimension), p.n_atoms + 1)
    diag = p.omega_a * (m - s) + p.omega_c * n
    mz = np.arange(p.n_atoms, dtype=float) - s
    # <m+1| S_x |m> = sqrt(s(s+1) - mz(mz+1)) / 2, <j+1| a' |j> = sqrt(j+1)
    sx = 0.5 * np.sqrt(s * (s + 1) - mz * (mz + 1))
    k, j = np.divmod(np.arange(p.n_atoms * p.fock_cutoff), p.fock_cutoff)
    c = (p.y / math.sqrt(p.n_atoms)) * (sx[k] * np.sqrt(j + 1.0))
    # |k, j> - |k+1, j+1> and |k, j+1> - |k+1, j>, both of strength c
    couplings = (np.concatenate([k, k]), np.concatenate([j, j + 1]),
                 np.concatenate([k + 1, k + 1]), np.concatenate([j + 1, j]),
                 np.concatenate([c, c]))
    return (m, n, diag), couplings


def build_hamiltonian(p: DickeParams) -> np.ndarray:
    """Dense real symmetric Hamiltonian in the |m> x |n_phot> product basis,
    index m (cutoff + 1) + n."""
    _check_dimension(p)
    (m, n, diag), (m1, n1, m2, n2, c) = _elements(p)
    dim_b = p.fock_cutoff + 1
    h = np.zeros((p.dimension, p.dimension))
    i = m * dim_b + n
    h[i, i] = diag
    i1, i2 = m1 * dim_b + n1, m2 * dim_b + n2
    h[i1, i2] = c
    h[i2, i1] = c
    return h


def parity_diagonal(p: DickeParams) -> np.ndarray:
    """Diagonal of exp[i pi (a'a + S_z + N/2)]: signs (-1)^(m_index + n)."""
    m_idx = np.arange(p.n_atoms + 1)
    n_idx = np.arange(p.fock_cutoff + 1)
    return ((-1.0) ** (m_idx[:, None] + n_idx[None, :])).ravel()


@dataclass(frozen=True)
class _Block:
    """One parity block in lower band storage, ab[d, i] = H[i + d, i], with
    the spin index and photon number of each of its states."""

    ab: np.ndarray
    m: np.ndarray
    n: np.ndarray
    lowest: np.ndarray  # the two lowest eigenvalues, ascending
    # largest absolute row sum, an upper bound on the spectral norm and the
    # scale of the eigensolver's rounding
    norm: float


def _solve_blocks(p: DickeParams) -> list[_Block]:
    """The even and the odd parity block, with their two lowest eigenvalues.

    A block lists its states photon-major, by n (N + 1) + m.  H then links
    only neighbouring photon numbers, so each block is banded with a
    half-bandwidth of about N/2, whatever the cutoff.
    """
    _check_solver_work(p)
    (m, n, diag), (m1, n1, m2, n2, c) = _elements(p)
    dim_s = p.n_atoms + 1
    parity = (m + n) % 2
    # position of each state in its block, by photon-major index
    pos = np.empty(p.dimension, dtype=int)
    for b in (0, 1):
        pos[parity == b] = np.arange(np.count_nonzero(parity == b))
    i1, i2 = pos[n1 * dim_s + m1], pos[n2 * dim_s + m2]
    # a coupling changes m + n by 0 or 2, so it stays inside its block
    link_parity = (m1 + n1) % 2
    blocks = []
    for b in (0, 1):
        on, link = parity == b, link_parity == b
        lo = np.minimum(i1[link], i2[link])
        width = np.abs(i1[link] - i2[link])
        ab = np.zeros((int(width.max()) + 1, np.count_nonzero(on)))
        ab[0] = diag[on]
        ab[width, lo] = c[link]
        # every block holds at least two states: N >= 1 and cutoff >= 1
        lowest = eig_banded(ab, lower=True, eigvals_only=True, select="i",
                            select_range=(0, 1), check_finite=False)
        norm = float(_band_matvec(np.abs(ab), np.ones(ab.shape[1])).max())
        blocks.append(_Block(ab=ab, m=m[on], n=n[on], lowest=lowest,
                             norm=norm))
    return blocks


def _band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = ab[0] * x
    for d in range(1, ab.shape[0]):
        y[d:] += ab[d, :-d] * x[:-d]
        y[:-d] += ab[d, :-d] * x[d:]
    return y


def _ground_vector(block: _Block) -> np.ndarray:
    """Unit eigenvector of the block's lowest eigenvalue E0, by inverse
    iteration on H - (E0 - 1e-10 |H|) until |H x - E0 x| <= 1e-12 |H|.

    Both bounds scale with H, so the result does too.  The first start is
    the basis state of the lowest diagonal entry, which makes the result
    exact when H is diagonal.  A ground state more than about 1400 photons
    away from it overlaps it by less than the smallest double, which the
    solves cannot recover; the uniform vector is the second start.
    """
    e0 = float(block.lowest[0])
    scale = block.norm
    shifted = block.ab.copy()
    shifted[0] -= e0 - 1e-10 * scale
    factor = cholesky_banded(shifted, lower=True, check_finite=False)
    dim = block.ab.shape[1]
    basis_state = np.zeros(dim)
    basis_state[np.argmin(block.ab[0])] = 1.0
    residual = math.inf
    for x in (basis_state, np.ones(dim)):
        for _ in range(_MAX_INVERSE_ITERATIONS):
            x = cho_solve_banded((factor, True), x, check_finite=False)
            # over the largest entry first: the entries are about 1/|H|,
            # and the norm squares them, which underflows for a large |H|
            x /= np.abs(x).max()
            x /= np.linalg.norm(x)
            residual = float(np.linalg.norm(
                (_band_matvec(block.ab, x) - e0 * x) / scale))
            if residual <= 1e-12:
                return x
    raise ConvergenceError(
        f"inverse iteration missed its residual bound from both starts, "
        f"{_MAX_INVERSE_ITERATIONS} steps each", best_estimate=e0,
        achieved_error=residual * scale)


def _ground_observables(p: DickeParams):
    even, odd = _solve_blocks(p)
    e_even, e_odd = float(even.lowest[0]), float(odd.lowest[0])
    # Block minima closer than the eigensolver's rounding, a few eps |H|,
    # are a tie, and a tie goes to even parity: deep in the superradiant
    # phase the doublet is degenerate below machine precision.
    tie = 8 * np.finfo(float).eps * max(even.norm, odd.norm)
    if e_odd < e_even - tie:
        parity, block, energy = -1.0, odd, e_odd
    else:
        parity, block, energy = 1.0, even, e_even
    prob = _ground_vector(block) ** 2
    photon = float(prob @ block.n)
    sz = float(prob @ (block.m - 0.5 * p.n_atoms))
    tail = float(prob[block.n >= 0.8 * p.fock_cutoff].sum())
    all_w = np.sort(np.concatenate([even.lowest, odd.lowest]))
    gap = float(all_w[1] - all_w[0])
    return energy, photon, sz, parity, gap, tail


def ground_state(p: DickeParams) -> GroundStateResult:
    """Ground-state energy and observables, with a cutoff-convergence flag.

    One parity-block solve.  The flag is True when the ground vector puts
    a probability of at most 1e-8 on photon numbers n >= 0.8 fock_cutoff.
    Over 315 cases (N up to 32, cutoffs 5 to 80, y in [0, 3], omega_a /
    omega_c from 1/4 to 4) every flagged mean photon number agrees with a
    solve at twice the cutoff to within max(1e-8, 1e-4 * value), and every
    cutoff that misses that agreement leaves a weight of at least 2e-5 on
    those photon numbers.
    """
    energy, photon, sz, parity, _, tail = _ground_observables(p)
    return GroundStateResult(energy=energy, photon_number=photon,
                             sz_expect=sz, parity=parity,
                             cutoff_converged=tail <= _CUTOFF_TAIL)


def _classical_energy_per_atom(a_amp: float, theta: float, p: DickeParams) -> float:
    # trial product state: boson coherent amplitude alpha = a_amp * sqrt(N),
    # spin coherent state at polar angle theta (theta = 0 the ground spin)
    return (p.omega_c * a_amp * a_amp
            - 0.5 * p.omega_a * math.cos(theta)
            + p.y * a_amp * math.sin(theta))


def mean_field(p: DickeParams) -> MeanFieldResult:
    """Zero-temperature mean-field solution, in closed form.

    y_c = sqrt(omega_a omega_c).  At or below y_c the normal branch is
    returned (zero order parameter, energy -omega_a/2 per atom).  Above it
    the classical product-state energy is least at cos(theta) = y_c^2/y^2,
    with alpha^2/N = y^2 (1 - cos^2 theta) / (4 omega_c^2) reported as the
    order parameter and E/N = -(omega_a/4) (y^2/y_c^2 + y_c^2/y^2).
    """
    y_c = math.sqrt(p.omega_a * p.omega_c)
    if p.y <= y_c:
        return MeanFieldResult(y_c=y_c, order_parameter_sq_per_atom=0.0,
                               energy_per_atom=-0.5 * p.omega_a)
    y2 = p.y * p.y
    cos_theta = p.omega_a * p.omega_c / y2
    order = y2 * (1.0 - cos_theta * cos_theta) / (4.0 * p.omega_c ** 2)
    energy = -0.25 * p.omega_a * (y2 / (p.omega_a * p.omega_c) + cos_theta)
    if not (math.isfinite(order) and math.isfinite(energy)):
        raise DomainError(f"the mean-field solution overflows at y = {p.y}")
    return MeanFieldResult(y_c=y_c, order_parameter_sq_per_atom=order,
                           energy_per_atom=energy)


def spectrum_scan(p: DickeParams, y_grid: Sequence[float]) -> list[ScanRow]:
    """Ground-state observables and first gap along a coupling grid."""
    if len(y_grid) == 0:
        raise DomainError("y_grid must be non-empty")
    rows = []
    for y in y_grid:
        if y < 0:
            raise DomainError("couplings must be non-negative")
        py = DickeParams(p.omega_a, p.omega_c, float(y), p.n_atoms,
                         p.fock_cutoff)
        energy, photon, _, parity, gap, _ = _ground_observables(py)
        rows.append(ScanRow(y=float(y), energy=energy, photon_number=photon,
                            gap=gap, parity=parity))
    return rows
