"""Collective spin-boson (Dicke) model: exact diagonalization and mean field.

H = omega_a S_z + omega_c a'a + (y/sqrt(N)) (a + a') S_x on the symmetric
(collective-spin) sector, product basis |m> x |n_phot> with a Fock cutoff.
The model has a parity symmetry exp[i pi (a'a + S_z + N/2)]; the Hamiltonian
is block-diagonal in it, and the ground-state solver diagonalizes the two
parity blocks separately so reported parities are exact labels even when the
superradiant doublet is degenerate to machine precision.

The zero-temperature mean-field transition sits at y_c = sqrt(omega_c
omega_a): below it the ground state is the trivial product state; above it
a symmetry-breaking boson amplitude appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

from .errors import DomainError

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

MAX_DIMENSION = 20000


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


def _spin_ops(n_atoms: int):
    s = 0.5 * n_atoms
    mz = np.arange(n_atoms + 1, dtype=float) - s
    sz = np.diag(mz)
    raise_elem = np.sqrt(s * (s + 1) - mz[:-1] * (mz[:-1] + 1))
    sp = np.zeros((n_atoms + 1, n_atoms + 1))
    sp[np.arange(1, n_atoms + 1), np.arange(n_atoms)] = raise_elem
    sx = 0.5 * (sp + sp.T)
    return sz, sx


def _boson_ops(cutoff: int):
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
    nph = np.diag(np.arange(cutoff + 1, dtype=float))
    return a, nph


def build_hamiltonian(p: DickeParams) -> np.ndarray:
    """Dense real symmetric Hamiltonian in the |m> x |n_phot> product basis."""
    if p.dimension > MAX_DIMENSION:
        raise DomainError(
            f"Hilbert-space dimension {p.dimension} exceeds the dense-solver "
            f"guard {MAX_DIMENSION}")
    sz, sx = _spin_ops(p.n_atoms)
    a, nph = _boson_ops(p.fock_cutoff)
    eye_s = np.eye(p.n_atoms + 1)
    eye_b = np.eye(p.fock_cutoff + 1)
    return (p.omega_a * np.kron(sz, eye_b)
            + p.omega_c * np.kron(eye_s, nph)
            + (p.y / math.sqrt(p.n_atoms)) * np.kron(sx, a + a.T))


def parity_diagonal(p: DickeParams) -> np.ndarray:
    """Diagonal of exp[i pi (a'a + S_z + N/2)]: signs (-1)^(m_index + n)."""
    m_idx = np.arange(p.n_atoms + 1)
    n_idx = np.arange(p.fock_cutoff + 1)
    return ((-1.0) ** (m_idx[:, None] + n_idx[None, :])).ravel()


def _solve_blocks(p: DickeParams):
    """Eigen-decompose the two parity blocks; returns per-block (w, v, idx)."""
    h = build_hamiltonian(p)
    signs = parity_diagonal(p)
    out = []
    for s in (1.0, -1.0):
        idx = np.flatnonzero(signs == s)
        w, v = np.linalg.eigh(h[np.ix_(idx, idx)])
        out.append((w, v, idx))
    return out


def _ground_observables(p: DickeParams):
    blocks = _solve_blocks(p)
    # strictly lower energy wins; exact ties resolve to even parity
    if blocks[0][0][0] <= blocks[1][0][0]:
        parity = 1.0
        w, v, idx = blocks[0]
    else:
        parity = -1.0
        w, v, idx = blocks[1]
    energy = float(w[0])
    vec = v[:, 0]
    dim_b = p.fock_cutoff + 1
    n_of_state = (idx % dim_b).astype(float)
    m_of_state = (idx // dim_b).astype(float) - 0.5 * p.n_atoms
    prob = vec * vec
    photon = float(prob @ n_of_state)
    sz = float(prob @ m_of_state)
    all_w = np.sort(np.concatenate([blocks[0][0], blocks[1][0]]))
    gap = float(all_w[1] - all_w[0])
    return energy, photon, sz, parity, gap


def ground_state(p: DickeParams) -> GroundStateResult:
    """Ground-state energy and observables, with a cutoff-convergence flag.

    The flag re-solves at ceil(1.25 * fock_cutoff) and requires the mean
    photon number to move by at most max(1e-8, 1e-4 * value).
    """
    energy, photon, sz, parity, _ = _ground_observables(p)
    bigger = DickeParams(p.omega_a, p.omega_c, p.y, p.n_atoms,
                         int(math.ceil(1.25 * p.fock_cutoff)))
    _, photon_big, _, _, _ = _ground_observables(bigger)
    converged = abs(photon_big - photon) <= max(1e-8, 1e-4 * abs(photon_big))
    return GroundStateResult(energy=energy, photon_number=photon,
                             sz_expect=sz, parity=parity,
                             cutoff_converged=converged)


def _classical_energy_per_atom(a_amp: float, theta: float, p: DickeParams) -> float:
    # trial product state: boson coherent amplitude alpha = a_amp * sqrt(N),
    # spin coherent state at polar angle theta (theta = 0 the ground spin)
    return (p.omega_c * a_amp * a_amp
            - 0.5 * p.omega_a * math.cos(theta)
            + p.y * a_amp * math.sin(theta))


def mean_field(p: DickeParams) -> MeanFieldResult:
    """Zero-temperature mean-field solution.

    y_c = sqrt(omega_a omega_c).  At or below y_c the normal branch is
    returned exactly (zero order parameter, energy -omega_a/2 per atom);
    above it the classical product-state energy is minimized numerically
    over the boson amplitude and the spin angle, and alpha^2/N at the
    minimum is reported as the order parameter.
    """
    y_c = math.sqrt(p.omega_a * p.omega_c)
    if p.y <= y_c:
        return MeanFieldResult(y_c=y_c, order_parameter_sq_per_atom=0.0,
                               energy_per_atom=-0.5 * p.omega_a)
    fun = lambda x: _classical_energy_per_atom(x[0], x[1], p)
    # the broken minimum sits near the decoupled-spin guess below
    guess_theta = math.acos(min(1.0, (y_c / p.y) ** 2))
    guess_a = -0.5 * p.y * math.sin(guess_theta) / p.omega_c
    best = None
    for x0 in ((guess_a, guess_theta), (-guess_a, -guess_theta), (0.3, 0.5)):
        res = optimize.minimize(fun, x0, method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-14,
                                         "maxiter": 4000})
        if best is None or res.fun < best.fun:
            best = res
    if best.fun > -0.5 * p.omega_a:  # never worse than the normal branch
        return MeanFieldResult(y_c=y_c, order_parameter_sq_per_atom=0.0,
                               energy_per_atom=-0.5 * p.omega_a)
    a_opt = float(best.x[0])
    return MeanFieldResult(y_c=y_c,
                           order_parameter_sq_per_atom=a_opt * a_opt,
                           energy_per_atom=float(best.fun))


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
        energy, photon, _, parity, gap = _ground_observables(py)
        rows.append(ScanRow(y=float(y), energy=energy, photon_number=photon,
                            gap=gap, parity=parity))
    return rows
