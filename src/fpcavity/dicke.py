"""Collective spin-boson (Dicke) model: exact diagonalization and mean field.

H = omega_a S_z + omega_c a'a + (y/sqrt(N)) (a + a') S_x on the symmetric
(collective-spin) sector, product basis |m> x |n_phot> with a Fock cutoff.
The model has a parity symmetry exp[i pi (a'a + S_z + N/2)]; the Hamiltonian
is block-diagonal in it, and the ground-state solver treats the two parity
blocks separately so reported parities are exact labels even when the
superradiant doublet is degenerate to machine precision.

H's elements are defined once, in one table per photon-major state
i = n (N + 1) + m (_elements), and one rule places them in both blocks
(_parity_bands): each pair of states {2j, 2j + 1} holds one state of each
block, its column j; which of the two a block takes stays the same along a
run of pairs, all of them for even N and one photon row for odd N, where
the choice alternates from row to row; so a link up by D from state i lies
on sub-diagonal (D + i mod 2) // 2, and each block is banded with a
half-bandwidth of about N/2.  The solver writes the bands at each coupling
as strided copies of the table, and keeps no layout per model; no dense
matrix is formed.
Bisection with banded Cholesky factorizations finds a shift certified below
the block's lowest eigenvalue, and a Lanczos iteration on the inverse of the
shifted block, one banded solve with that one factor per step, spans its
lowest eigenvectors.  Rayleigh-Ritz of H on that basis, whose projection
grows by one row per step, is checked at every basis size from the fifth
vector on.  The outputs read three levels: the lowest of each block, L0
and K0, and min(L1, K0), where L is the block with the lower minimum and
K the other.  So both blocks stop once their lowest pair is within a
residual of 1e-12 |H|, mostly after 5 to 8 steps, and only L goes on, on
the same basis, until its second pair is within that residual too or its
second level certainly lies above K0.  Before anything is built, the
solver's guard bounds the flops of its worst case, the bisection's
factorizations and 45 Lanczos steps with a check at each, to
MAX_SOLVER_WORK, and the Lanczos basis to 6e6 doubles; solves near the
bound, such as N = 199 at cutoff 99 or N = 64 at cutoff 1400, take
0.08-0.14 s per coupling on a 2-core x86 box.  A model whose matrix
elements or |H| would overflow is refused first.  `build_hamiltonian`
writes the dense matrix for tests and inspection from the same table, not
from the bands; it refuses the same overflowing models, and its other
guard bounds the dimension, since the dense matrix is what costs memory.

Whether the Fock cutoff holds the ground state is read off the ground
vector itself: its probability weight on the top fifth of the photon
numbers must be negligible.

The solver's BLAS and LAPACK routines (dsbmv, dpbtrf, dpbtrs, dsyevr)
are reached through scipy.linalg's blas and lapack modules, imported on the
first solve, not on import; the mean field and build_hamiltonian run
without them.

The zero-temperature mean-field transition sits at y_c = sqrt(omega_c
omega_a): below it the ground state is the trivial product state; above it
a symmetry-breaking boson amplitude appears, given in closed form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._memo import recall
from .errors import ConvergenceError, DomainError, as_float

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
# Lanczos steps per parity block.  Over 3000 random parameter sets (N up to
# 64, cutoffs 1 to 120, y up to 5 y_c, omega_a / omega_c from e^-6 to e^6)
# the lowest pair took at most 24 steps, and over 1500 of them and 30 near
# the solver's bounds the second pair, converged in full, at most 27.  At
# 45 steps the guard's count of the worst case (_check_solver_work) is
# below the earlier solver's count at 60 steps for every block shape.  The
# basis and H times it hold at most 2 x 45 vectors, under 1 MB at 859
# states.
_MAX_LANCZOS_STEPS = 45
# floating-point operations of one parity-block solve (see
# _check_solver_work).  Solves near the bound took 0.08-0.14 s per coupling
# (y in {0.5, 1.5, 3}) on a 2-core x86 box: N = 199 at cutoff 99 (blocks
# of 10000 states, half-bandwidth 101, 1.73e9) and N = 64 at cutoff 1400.
# Their worst case, 45 steps that miss the residual bound, took 0.38 and
# 0.27 s.
MAX_SOLVER_WORK = 2_000_000_000
# doubles of the Lanczos basis and H times it, 2 x 45 per block state
# (48 MB).  It binds below N ~ 45, at blocks of 66666 states: N = 1 at
# cutoff 66000 took 0.036-0.045 s, N = 16 at 7800 0.065-0.11 s and N = 32
# at 4000 0.08-0.11 s
_MAX_BASIS_DOUBLES = 6_000_000
# Rayleigh-Ritz checks of the Lanczos basis, each a small dense eigensolve
# and one Ritz pair's residual: at every size from 5 vectors on, where
# most lowest pairs have converged (5 to 8 steps)
_CHECKS_FROM = 5
# each eigenpair (E, x) returned meets |H x - E x| <= _RESIDUAL |H|
_RESIDUAL = 1e-12
# the shift's bisection stops at a bracket on E0 this wide, and the shift
# used sits this far below the bracket's certified lower end; both in
# units of |H|.  A looser bracket saves factorizations but leaves the shift
# farther below E0, and Lanczos takes more steps: one warm solve (median
# over y in [0.1, 2.7], 2-core x86 box) at N = 8, cutoff 60 and N = 16,
# cutoff 100 took 0.67 and 1.58 ms at 1e-2 (20 banded solves per N = 8
# solve), 0.42 and 1.13 ms at 1e-3 (12) and 0.40 and 1.11 ms at 1e-4 (10),
# which would move every output's last digits for that 5 %.
_SHIFT_BRACKET = 1e-3
_SHIFT_MARGIN = 1e-10
# banded Cholesky factorizations per block: the bisection's, which halve a
# bracket of at most 2 |H| until it is below _SHIFT_BRACKET |H|, and the
# one at the shift
_FACTORIZATIONS = math.ceil(math.log2(2.0 / _SHIFT_BRACKET)) + 1
# the ground vector's probability weight on photon numbers n >= 0.8 cutoff
# above which the cutoff counts as not converged
_CUTOFF_TAIL = 1e-8

# scipy.linalg.blas and scipy.linalg.lapack, once the first solve
# (_Lanczos) has imported them.  Importing scipy.linalg after numpy takes
# 0.10-0.15 s (python -X importtime, 2-core x86 box), which the mean field
# and build_hamiltonian never need.
_blas = None
_lapack = None
# the draw that the Lanczos start vectors are prefixes of (_start), as long
# as the largest block solved: at most 66666 states (_MAX_BASIS_DOUBLES)
_starts = np.empty(0)


@dataclass(frozen=True)
class DickeParams:
    """Model parameters: splittings, coupling, atom number, Fock cutoff."""

    omega_a: float = 1.0
    omega_c: float = 1.0
    y: float = 0.0
    n_atoms: int = 8
    fock_cutoff: int = 60

    def __post_init__(self):
        for name in ("omega_a", "omega_c", "y"):
            object.__setattr__(self, name, as_float(getattr(self, name)))
        if not all(math.isfinite(x) for x in (self.omega_a, self.omega_c,
                                              self.y)):
            raise DomainError("omega_a, omega_c and y must be finite")
        if not (self.omega_a > 0 and self.omega_c > 0):
            raise DomainError("frequencies must be positive")
        if self.y < 0:
            raise DomainError("coupling must be non-negative")
        try:
            # an int or a numpy integer, kept as an int, whose products do
            # not wrap: N + 1 spin and cutoff + 1 photon states
            sizes = (operator.index(self.n_atoms),
                     operator.index(self.fock_cutoff))
        except TypeError:
            raise DomainError("n_atoms and fock_cutoff must be integers "
                              f"(got {self.n_atoms!r}, {self.fock_cutoff!r})"
                              ) from None
        if min(sizes) < 1:
            raise DomainError("n_atoms and fock_cutoff must be positive")
        object.__setattr__(self, "n_atoms", sizes[0])
        object.__setattr__(self, "fock_cutoff", sizes[1])

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
    """Refuse, before anything is built, a solve whose flops exceed
    MAX_SOLVER_WORK or whose Lanczos basis exceeds _MAX_BASIS_DOUBLES.

    Per parity block of n states and half-bandwidth k, a solve (_Lanczos)
    makes up to _FACTORIZATIONS banded Cholesky factorizations of n k^2
    flops, and up to _MAX_LANCZOS_STEPS = S steps of one banded solve and
    one banded product, 8 n k flops together.  Over all steps, the
    reorthogonalization takes 4 n S (S - 1) flops, the rows of the
    projected matrix n S (S + 1), and the Rayleigh-Ritz checks, one Ritz
    pair's residual at each size and a second one's at one size, at most
    2 n S (S + 1) + 4 n S: 7 n S^2 + 3 n S in all, the small dense
    eigensolves aside.
    """
    # the larger parity block
    block = (p.dimension + 1) // 2
    half_bandwidth = _half_bandwidth(p.n_atoms)
    steps = _MAX_LANCZOS_STEPS
    work = block * (_FACTORIZATIONS * half_bandwidth ** 2
                    + 8 * steps * half_bandwidth + 7 * steps ** 2
                    + 3 * steps)
    if work > MAX_SOLVER_WORK or 2 * steps * block > _MAX_BASIS_DOUBLES:
        raise DomainError(
            f"parity blocks of {block} states with half-bandwidth "
            f"{half_bandwidth} exceed the solver's bounds: {work:.3g} flops "
            f"(at most {MAX_SOLVER_WORK:.3g}) and {2 * steps * block} "
            f"doubles of Lanczos basis (at most {_MAX_BASIS_DOUBLES})")


def _check_range(p: DickeParams) -> None:
    """Refuse a model whose matrix elements would overflow, or twice its
    largest absolute row sum |H|, which bounds every gap the solver forms.

    Scalars only: the diagonal elements omega_a S_z + omega_c n are at
    most omega_a N/2 + omega_c cutoff in size, the coupling elements
    (y/sqrt(N)) <m+1|S_x|m> sqrt(n) at most (y/sqrt(N)) (N + 1)/4
    sqrt(cutoff), and each row holds at most four couplings.
    """
    diagonal = 0.5 * p.omega_a * p.n_atoms + p.omega_c * p.fock_cutoff
    coupling = (p.y / math.sqrt(p.n_atoms) * (0.25 * (p.n_atoms + 1))
                * math.sqrt(p.fock_cutoff))
    if not 2.0 * (diagonal + 4.0 * coupling) < math.inf:
        element = ("diagonal elements omega_a S_z + omega_c n"
                   if diagonal >= 4.0 * coupling else
                   "coupling elements (y/sqrt(N)) S_x (a + a')")
        raise DomainError(
            f"the {element} of H overflow the solver's range: the diagonal "
            f"reaches {diagonal:.3g} and a coupling {coupling:.3g}, and the "
            f"solver needs twice |H|, at most the diagonal plus four "
            f"couplings, to be finite")


def _half_bandwidth(size: int) -> int:
    return 1 if size == 1 else (size + 3) // 2


def _runs(p: DickeParams) -> int:
    # the runs of _parity_bands: all the pairs for even N, a row for odd N
    return 1 if p.n_atoms % 2 == 0 else p.fock_cutoff + 1


def _elements(p: DickeParams) -> tuple[np.ndarray, np.ndarray]:
    """H at p.y by photon-major state i = n (N + 1) + m, photon number n
    and spin index m (S_z = m - s, s = N/2): diag[n, m] = omega_a (m - s)
    + omega_c n, and links[i + 1] and links[i], the links of state i with
    i + N + 2 and with i + N.  Both links |m, n> - |m + 1, n + 1> and
    |m + 1, n> - |m, n + 1> are (y/sqrt(N)) <m+1|S_x|m> sqrt(n + 1), at
    links[n (N + 1) + m + 1]; where m = N or n = cutoff that is 0."""
    size, cutoff = p.n_atoms, p.fock_cutoff
    s = 0.5 * size
    spins = np.arange(size + 1.0) - s  # mz of each m
    photons = np.arange(cutoff + 1.0)
    diag = p.omega_a * spins + p.omega_c * photons[:, None]
    mz = spins[:-1]
    sx = 0.5 * np.sqrt(s * (s + 1) - mz * (mz + 1))
    links = np.zeros(p.dimension + 1)
    coupling = links[1:].reshape(cutoff + 1, size + 1)[:cutoff, :size]
    np.multiply(sx, np.sqrt(photons[1:, None]), out=coupling)
    coupling *= p.y / math.sqrt(size)
    return diag, links


def _parity_bands(p: DickeParams) -> tuple[np.ndarray, np.ndarray]:
    """The lower bands, ab[d, j] = H[j + d, j] in Fortran order, of the
    even and the odd parity block of H at p.y, placed from _elements by one
    rule, which keeps the half-bandwidth near N/2 at any cutoff:
    - pair j of photon-major states, {2j, 2j + 1}, holds column j of each;
    - run k of pairs (_runs) gives block q its state 2j + (k + q) mod 2;
    - so a link up by D from state i lies on sub-diagonal (D + i mod 2) // 2.
    Both bands have _half_bandwidth(N) sub-diagonals; at odd N >= 3 and
    cutoff 1 the even block's last one is 0."""
    diag, links = _elements(p)
    runs, width = _runs(p), _half_bandwidth(p.n_atoms)
    diag, up_n, up_n2 = (diag.reshape(runs, -1), links[:-1].reshape(runs, -1),
                         links[1:].reshape(runs, -1))
    bands = []
    for q in (0, 1):
        band = np.zeros((width + 1, (p.dimension + 1 - q) // 2), order="F")
        grid = band.reshape(width + 1, runs, -1)  # ab[d, j] by run
        for k in range(min(runs, 2)):
            r = (k + q) % 2
            d = (p.n_atoms + r) // 2
            grid[0, k::2] = diag[k::2, r::2]
            # at N = 1 no link lies on sub-diagonal 0 or 2
            if d > 0:
                grid[d, k::2] = up_n[k::2, r::2]
            if d < width:
                grid[d + 1, k::2] = up_n2[k::2, r::2]
        bands.append(band)
    return tuple(bands)


def _block_states(p: DickeParams, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The spin index m and the photon number n of each state of parity
    block q (0 even, 1 odd), in the order of its band (_parity_bands)."""
    runs = _runs(p)
    states = np.arange(p.dimension).reshape(runs, -1)
    i = np.empty((p.dimension + 1 - q) // 2, dtype=states.dtype)
    for k in range(min(runs, 2)):  # as in _parity_bands
        i.reshape(runs, -1)[k::2] = states[k::2, (k + q) % 2::2]
    n, m = np.divmod(i, p.n_atoms + 1)
    return m, n


def build_hamiltonian(p: DickeParams) -> np.ndarray:
    """Dense real symmetric Hamiltonian in the |m> x |n_phot> product basis,
    index m (cutoff + 1) + n, written from H's elements (_elements)."""
    _check_dimension(p)
    _check_range(p)
    diag, links = _elements(p)
    dim, size = p.dimension, p.n_atoms
    # index m (cutoff + 1) + n of each photon-major state n (N + 1) + m
    i = np.arange(dim).reshape(size + 1, -1).T.ravel()
    h = np.zeros((dim, dim))
    h[i, i] = diag.ravel()
    for d, link in ((size, links[:-1]), (size + 2, links[1:])):
        h[i[d:], i[:dim - d]] = h[i[:dim - d], i[d:]] = link[:dim - d]
    return h


def _start(size: int) -> np.ndarray:
    """The Lanczos start vector of a block of `size` states: the first
    `size` numbers of one pseudo-random draw, which is drawn again, longer,
    when a larger block comes.  default_rng(0).standard_normal(k) is the
    prefix of length k of any longer such draw."""
    global _starts
    starts = _starts
    if len(starts) < size:
        starts = np.random.default_rng(0).standard_normal(size)
        starts.flags.writeable = False
        _starts = starts
    return starts[:size]


def _solve_blocks(p: DickeParams) -> list[_Lanczos]:
    """The runs of the even and the odd parity block at p.y, with the
    levels that the outputs read and the ground vectors.

    Both blocks run until their lowest pair converges.  Then only the block
    with the lower minimum, L, goes on, on the same basis, until its second
    pair converges too or its second level L1 certainly lies above the
    other block's minimum K0.  The outputs read L0, K0 and min(L1, K0); the
    other block's second level is never below K0.
    """
    _check_range(p)
    _check_solver_work(p)
    # every block holds at least two states: N >= 1 and cutoff >= 1
    runs = [_Lanczos(band, _start(band.shape[1]))
            for band in _parity_bands(p)]
    for run in runs:
        run.converge(0)
    low, other = sorted(runs, key=lambda run: run.levels[0])
    low.converge(1, ceiling=other.levels[0])
    return runs


def _band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _blas.dsbmv(ab.shape[0] - 1, 1.0, ab, x, lower=1)


class _Lanczos:
    """Shift-invert Lanczos on one parity block, by one banded Cholesky
    factor of H - sigma, that converges its lowest levels one at a time:
    each converge() goes on from the basis the last one left.  The band ab
    is in Fortran order, and start is the block's start vector.

    It runs on H scaled by the power of two just above |H|, which is exact
    and keeps every iterate in range whatever the scale of H.  `levels`
    holds the lowest levels found, ascending, and `ground` the unit vector
    of the first; each of their pairs (E, x) met |H x - E x| <= 1e-12 |H|.
    `norm` is |H|, the largest absolute row sum, an upper bound on the
    spectral norm and the scale of the solve's rounding.
    """

    def __init__(self, ab: np.ndarray, start: np.ndarray):
        global _blas, _lapack
        if _lapack is None:
            from scipy.linalg import blas, lapack
            _blas, _lapack = blas, lapack
        dim = ab.shape[1]
        abs_rows = _band_matvec(np.abs(ab), np.ones(dim))
        self.norm = float(abs_rows.max())
        if (abs_rows - np.abs(ab[0])).max() <= _RESIDUAL * self.norm:
            # every state's couplings sum to within the residual bound (at
            # y = 0 they are 0): each basis vector meets it with its diagonal
            # entry, and the sorted diagonal is within it of the levels
            order = np.argsort(ab[0], kind="stable")[:2]
            self.levels = [float(e) for e in ab[0][order]]
            self.ground = np.zeros(dim)
            self.ground[order[0]] = 1.0
            return
        self.levels, self.ground = [], None
        self.exponent = math.frexp(self.norm)[1]
        self.h = np.ldexp(ab, -self.exponent)
        self.bound = _RESIDUAL * math.ldexp(self.norm, -self.exponent)
        self.factor = _shifted_factor(self.h,
                                      np.ldexp(abs_rows, -self.exponent))
        steps = min(dim, _MAX_LANCZOS_STEPS)
        # the Lanczos vectors as rows, H times each, and the lower triangle
        # of H projected on them, one row per vector
        self.basis = np.empty((steps, dim))
        self.h_basis = np.empty((steps, dim))
        self.projected = np.zeros((steps, steps))
        self.size = 0
        # the two lowest Ritz values on the basis and the coefficients of
        # their vectors, as rows, or None between checks
        self.ritz = None
        # The Krylov space starts one solve away from a fixed pseudo-random
        # vector, which overlaps every eigenvector.  From the vector itself,
        # whose ground component is not small, the first steps would have to
        # cancel the huge 1/(E0 - sigma) part of the solves, and with sigma
        # close to E0 that costs the second Ritz vector its last digits.
        self._append(_solve(self.factor, start))

    def converge(self, pair: int, ceiling: float = math.inf) -> None:
        """Grow the basis until Ritz pair `pair` (0 the lowest) meets the
        residual bound, and add its level to `levels`; or until its Ritz
        value less its residual norm lies above `ceiling`, which adds
        nothing.  Past the step cap raise ConvergenceError instead.

        A Ritz value theta_j is at least the level E_j (Courant-Fischer),
        and some level lies within the residual norm r_j of it.  Reading
        that level as E_j, so E_j >= theta_j - r_j, trusts the Krylov space
        not to have missed E_j, as reporting theta_j for E_j does.
        """
        while len(self.levels) <= pair:
            if self.ritz is not None:
                energy, vector, residual = self._ritz_pair(pair)
                if residual <= self.bound:
                    self.levels.append(math.ldexp(energy, self.exponent))
                    if pair == 0:
                        self.ground = vector
                    return
                if math.ldexp(energy - residual, self.exponent) > ceiling:
                    return
            if self.size == len(self.basis):
                raise ConvergenceError(
                    f"shift-invert Lanczos missed the residual bound "
                    f"|Hx - Ex| <= {_RESIDUAL} |H| in {self.size} steps",
                    best_estimate=math.ldexp(energy, self.exponent),
                    achieved_error=math.ldexp(residual, self.exponent))
            w = _solve(self.factor, self.basis[self.size - 1])
            # full reorthogonalization: classical Gram-Schmidt, twice
            for _ in range(2):
                w -= self.basis[:self.size].T @ (self.basis[:self.size] @ w)
            self._append(w)

    def _append(self, w: np.ndarray) -> None:
        """Add the unit vector along w to the basis, with the Rayleigh-Ritz
        check when the basis reaches a size that the schedule checks."""
        k = self.size
        self.basis[k] = w / math.sqrt(w @ w)
        self.h_basis[k] = _band_matvec(self.h, self.basis[k])
        self.projected[k, :k + 1] = self.h_basis[:k + 1] @ self.basis[k]
        self.size = k + 1
        self.ritz = None
        if self.size >= _CHECKS_FROM or self.size == len(self.basis):
            # H itself, not the shifted inverse, is projected, so the Ritz
            # values carry a rounding of a few eps |H| however close the
            # shift is to E0
            energies, s, _, _, info = _lapack.dsyevr(
                self.projected[:self.size, :self.size], range="I", lower=1,
                il=1, iu=2)
            if info != 0:
                raise ConvergenceError(f"the Rayleigh-Ritz eigensolve failed "
                                       f"(LAPACK dsyevr info {info})")
            self.ritz = energies[:2], s[:, :2].T

    def _ritz_pair(self, pair: int):
        """Ritz pair `pair` of the last check: its value, unit vector and
        residual norm |H x - E x|."""
        energies, coefficients = self.ritz
        vector = coefficients[pair] @ self.basis[:self.size]
        residual = (coefficients[pair] @ self.h_basis[:self.size]
                    - energies[pair] * vector)
        return (float(energies[pair]), vector,
                math.sqrt(residual @ residual))


def _shifted_factor(h: np.ndarray, abs_rows: np.ndarray) -> np.ndarray:
    """The lower banded Cholesky factor of H - sigma, sigma below the lowest
    eigenvalue E0; abs_rows holds the absolute row sums of H.

    Bisection between two bounds on E0, the Gershgorin lower bound and the
    smallest diagonal entry: a factorization that succeeds certifies its
    shift below E0.  It stops once the bracket is narrower than
    _SHIFT_BRACKET |H|.  The accepted shift backs off from the highest
    certified one by 1e-10 |H|, so rounding in that certificate cannot
    leave it at or above E0.
    """
    norm = float(abs_rows.max())
    lo = float((h[0] + np.abs(h[0]) - abs_rows).min())
    hi = float(h[0].min())
    shifted = h.copy(order="F")
    while hi - lo > _SHIFT_BRACKET * norm:
        mid = 0.5 * (lo + hi)
        shifted[0] = h[0] - mid
        if _lapack.dpbtrf(shifted, lower=1)[1] == 0:
            lo = mid
        else:
            hi = mid
    sigma = lo - _SHIFT_MARGIN * norm
    shifted[0] = h[0] - sigma
    factor, info = _lapack.dpbtrf(shifted, lower=1)
    if info != 0:
        raise ConvergenceError(
            f"H - sigma did not factor at sigma = {sigma!r}, below the "
            f"certified shift {lo!r}", best_estimate=hi,
            achieved_error=hi - sigma)
    return factor


def _solve(factor: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _lapack.dpbtrs(factor, x, lower=1)[0]


def _ground_observables(p: DickeParams):
    even, odd = blocks = _solve_blocks(p)
    # Block minima closer than the rounding of their Rayleigh-Ritz values,
    # a few eps |H| from the banded products and the small dense
    # eigensolve, are a tie, and a tie goes to even parity: deep in the
    # superradiant phase the doublet is degenerate below machine precision.
    tie = 8 * np.finfo(float).eps * max(even.norm, odd.norm)
    q = int(odd.levels[0] < even.levels[0] - tie)
    m, n = _block_states(p, q)
    prob = blocks[q].ground ** 2
    photon = float(prob @ n)
    sz = float(prob @ (m - 0.5 * p.n_atoms))
    tail = float(prob[n >= 0.8 * p.fock_cutoff].sum())
    # min(L1, K0) - L0, L the block with the lower minimum and K the other:
    # K1 >= K0, and L1 is not among L's levels only when it lies above K0
    low, other = sorted(blocks, key=lambda b: b.levels[0])
    gap = min(low.levels[1:] + other.levels[:1]) - low.levels[0]
    return blocks[q].levels[0], photon, sz, (1.0, -1.0)[q], gap, tail


def ground_state(p: DickeParams) -> GroundStateResult:
    """Ground-state energy and observables, with a cutoff-convergence flag.

    One parity-block solve, or none right after spectrum_scan ended at a
    coupling with equal parameters: the memo keeps the last solve.  The flag is
    True when the ground vector puts a probability of at most 1e-8 on
    photon numbers n >= 0.8 fock_cutoff.
    Over 315 cases (N up to 32, cutoffs 5 to 80, y in [0, 3], omega_a /
    omega_c from 1/4 to 4) every flagged mean photon number agrees with a
    solve at twice the cutoff to within max(1e-8, 1e-4 * value), and every
    cutoff that misses that agreement leaves a weight of at least 2e-5 on
    those photon numbers.

    Accuracy is absolute, in units of |H|: each eigenpair is held to a
    residual of 1e-12 |H|, and |H| is about omega_a N/2 + omega_c cutoff.
    So where omega_c >> omega_a the outputs lose digits, although the
    ground state then holds almost no photons: at N = 8, cutoff 60, y = 1,
    omega_a = 1 and omega_c = 1e15 the energy is -4.0859 (exactly about
    -4) and sz_expect -3.676 (exactly -4).
    """
    energy, photon, sz, parity, _, tail = recall(_ground_observables, p)
    return GroundStateResult(energy=energy, photon_number=photon,
                             sz_expect=sz, parity=parity,
                             cutoff_converged=tail <= _CUTOFF_TAIL)


def mean_field(p: DickeParams) -> MeanFieldResult:
    """Zero-temperature mean-field solution, in closed form.

    y_c = sqrt(omega_a omega_c).  At or below y_c the normal branch is
    returned (zero order parameter, energy -omega_a/2 per atom).  Above it
    the classical product-state energy is least at cos(theta) = y_c^2/y^2,
    with alpha^2/N = y^2 (1 - cos^2 theta) / (4 omega_c^2) reported as the
    order parameter and E/N = -(omega_a/4) (y^2/y_c^2 + y_c^2/y^2).

    Each product and quotient is formed on the significands of the
    frequencies and the coupling, with their powers of two kept apart
    (math.frexp), so no intermediate underflows or overflows: wherever the
    formulas above, in that order of operations, keep every intermediate a
    normal float, the result has their bits, and elsewhere it has the same
    few roundings.  Only an order parameter or energy beyond the float
    range is refused.
    """
    ma, ea = math.frexp(p.omega_a)
    mc, ec = math.frexp(p.omega_c)
    # omega_a omega_c = prod 2^e_prod
    prod, e_prod = ma * mc, ea + ec
    odd = e_prod % 2
    y_c = math.ldexp(math.sqrt(math.ldexp(prod, odd)), (e_prod - odd) // 2)
    if p.y <= y_c:
        return MeanFieldResult(y_c=y_c, order_parameter_sq_per_atom=0.0,
                               energy_per_atom=-0.5 * p.omega_a)
    # y^2 = y2 2^(2 ey)
    my, ey = math.frexp(p.y)
    y2 = my * my
    # in (0, 1]: y > y_c, so y^2 > omega_a omega_c
    cos_theta = math.ldexp(prod / y2, e_prod - 2 * ey)
    # y^2 / (omega_a omega_c) = ratio 2^e_ratio, at least 1; past 2^1000
    # cos theta is below its rounding
    ratio, e_ratio = y2 / prod, 2 * ey - e_prod
    if e_ratio < 1000:
        ratio, e_ratio = math.frexp(math.ldexp(ratio, e_ratio) + cos_theta)
    try:
        order = math.ldexp(y2 * (1.0 - cos_theta * cos_theta)
                           / (4.0 * (mc * mc)), 2 * (ey - ec))
        energy = math.ldexp(-0.25 * ma * ratio, ea + e_ratio)
    except OverflowError:
        raise DomainError(
            f"the mean-field solution overflows at y = {p.y}") from None
    return MeanFieldResult(y_c=y_c, order_parameter_sq_per_atom=order,
                           energy_per_atom=energy)


def spectrum_scan(p: DickeParams, y_grid: Sequence[float]) -> list[ScanRow]:
    """Ground-state observables and first gap along a coupling grid.

    Each coupling writes the parity blocks' bands afresh (_parity_bands), at
    the cost of a few array passes over the blocks' states.  A coupling
    whose parameters equal those of the last solve, such as a ground_state
    call just before, reuses it, and ground_state at the last coupling's
    parameters right after is free.  Each row has ground_state's accuracy,
    1e-12 |H| with |H| about omega_a N/2 + omega_c cutoff, so the rows lose
    digits where omega_c >> omega_a (see ground_state).
    """
    if len(y_grid) == 0:
        raise DomainError("y_grid must be non-empty")
    rows = []
    for y in y_grid:
        if y < 0:
            raise DomainError("couplings must be non-negative")
        q = replace(p, y=y)
        energy, photon, _, parity, gap, _ = recall(_ground_observables, q)
        rows.append(ScanRow(y=q.y, energy=energy, photon_number=photon,
                            gap=gap, parity=parity))
    return rows
