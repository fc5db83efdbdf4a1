"""Collective spin-boson (Dicke) model: exact diagonalization and mean field.

H = omega_a S_z + omega_c a'a + (y/sqrt(N)) (a + a') S_x on the symmetric
(collective-spin) sector, product basis |m> x |n_phot> with a Fock cutoff.
The model has a parity symmetry exp[i pi (a'a + S_z + N/2)]; the Hamiltonian
is block-diagonal in it, and the ground-state solver treats the two parity
blocks separately so reported parities are exact labels even when the
superradiant doublet is degenerate to machine precision.

H's elements are defined once, by photon-major state i = n (N + 1) + m, in
the parts that do not depend on the frequencies or the coupling (_elements):
S_z, the photon number n and the unit links <m+1|S_x|m> sqrt(n + 1).  One
rule places them in both blocks, once per shape (N, cutoff), in read-only
tables (_shape_tables): each pair of states {2j, 2j + 1} holds one state of
each block, its column j; which of the two a block takes stays the same
along a run of pairs, all of them for even N and one photon row for odd N,
where the choice alternates from row to row; so a link up by D from state i
lies on sub-diagonal (D + i mod 2) // 2, and each block is banded with a
half-bandwidth of about N/2.  At each coupling the solver writes each band
in two array passes, omega_a S_z + omega_c n and the unit links times
y/sqrt(N) (_parity_bands); no dense matrix is formed.
Banded Cholesky factorizations find a shift certified below the block's
lowest eigenvalue E0, and a Lanczos iteration on the inverse of the shifted
block, one banded solve with that one factor per step, spans its lowest
eigenvectors.  The even block's search for the shift starts at the spin
floor, the lowest eigenvalue of omega_a S_z - (y^2/(N omega_c)) S_x^2:
completing the square in the photon mode shows H to be at least that
operator, the elimination that gives y_c, and each block is a compression
of H, so the floor lies below each block's E0, mostly within 2e-3 |H| of
the lower one's (_spin_floor).  Above cutoff 2 the odd block's starts at the
even block's certified lower end plus the lower polariton of the normal
phase, the gap between the two ground levels below y_c (_lower_polariton).
From there a probe or two and a halving or two bracket E0
(_shifted_factor): at N = 8, cutoff 60 and N = 16, cutoff 100 a solve of
both blocks makes 4.4 and 3.9 factorizations over 9 couplings in
[0.05, 2.9], 4 in the superradiant phase, where a bisection from the
Gershgorin bound made 11.8 and 11.2 and the search from the spin floor in
both blocks 5.6 and 4.6.  Rayleigh-Ritz
of H on the Lanczos basis, whose projection grows by one row per step, is
checked at every basis size from the fifth vector on.  The outputs read
three levels: the lowest of each block, L0 and K0, and min(L1, K0), where L
is the block with the lower minimum and K the other.  So both blocks stop
once their lowest pair is within a residual of 1e-12 |H|, mostly after 5 to
8 steps, and only L goes on, on the same basis, until its second pair is
within that residual too or its second level certainly lies above K0.
Before anything is built, the solver's guard bounds the flops of its worst
case, the shift search's factorizations and 45 Lanczos steps with a check
at each, to MAX_SOLVER_WORK, and the Lanczos basis to 6e6 doubles; solves
near the bound, such as N = 199 at cutoff 99 or N = 64 at cutoff 1400, take
0.08-0.14 s per coupling on a 2-core x86 box.  A model whose matrix
elements or |H| would overflow is refused first.  `build_hamiltonian`
writes the dense matrix for tests and inspection from the same unit links,
not from the bands; it refuses the same overflowing models, and its other
guard bounds the dimension, since the dense matrix is what costs memory.

Whether the Fock cutoff holds the ground state is read off the ground
vector itself: its probability weight on the top fifth of the photon
numbers must be negligible.

The solver's BLAS and LAPACK routines (dsbmv, dpbtrf, dpbtrs, dsyevr,
dstebz) are reached through scipy.linalg's blas and lapack modules, imported
on the first solve, not on import; the mean field and build_hamiltonian run
without them.

The zero-temperature mean-field transition sits at y_c = sqrt(omega_c
omega_a): below it the ground state is the trivial product state; above it
a symmetry-breaking boson amplitude appears, given in closed form.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

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
# of 10000 states, half-bandwidth 101, 1.93e9) and N = 64 at cutoff 1400.
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
# the shift's search stops at a bracket on E0 this wide, and the shift
# used sits this far below the bracket's certified lower end; both in
# units of |H|.  A looser bracket saves factorizations but leaves the shift
# farther below E0, and Lanczos takes more steps: with the bisection from
# the Gershgorin bound, one warm solve (median over y in [0.1, 2.7], 2-core
# x86 box) at N = 8, cutoff 60 and N = 16, cutoff 100 took 0.67 and 1.58 ms
# at 1e-2 (20 banded solves per N = 8 solve), 0.42 and 1.13 ms at 1e-3 (12)
# and 0.40 and 1.11 ms at 1e-4 (10).  The searches from the spin floor and,
# in the odd block, from the even block's lower end plus the lower
# polariton, both mostly within 2e-3 |H| below E0, make 4.4 and 3.9
# factorizations per solve at 1e-3 over 9 couplings in [0.05, 2.9], against
# 11.8 and 11.2 by that bisection, and 2 per block in the superradiant
# phase (_shifted_factor).
_SHIFT_BRACKET = 1e-3
_SHIFT_MARGIN = 1e-10
# banded Cholesky factorizations per block, at most (_shifted_factor): the
# halvings of a bracket of at most 2 |H| down to _SHIFT_BRACKET |H|, the
# one at the shift, and two more, either the two probes from the start
# that lead to such a bracket, or a failed probe and a failed
# factorization at the shift before the search runs again from the
# Gershgorin bound
_FACTORIZATIONS = math.ceil(math.log2(2.0 / _SHIFT_BRACKET)) + 3
# Fock cutoffs up to which the odd block's search starts at the spin floor,
# as the even block's does.  With at most two photons, truncation lifts the
# odd block's E0 far above the even one's plus the lower polariton: 9 to 96
# brackets at N = 8, cutoff 1, where two probes up from there cost 1 or 2
# factorizations more than the search from the floor, which lay below the
# Gershgorin bound and so bisected from that bound.
_FEW_PHOTONS = 2
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
    makes up to _FACTORIZATIONS = 14 banded Cholesky factorizations of
    n k^2 flops.  The search for the shift (_shifted_factor) mostly makes
    1 to 4, 2.2 on average at N = 8, cutoff 60 and 1.9 at N = 16, cutoff
    100; its worst case, after two probes from its start or a start above
    E0, is two more than the 12 of a bisection from the Gershgorin bound.
    The spin floor, one bisection of two tridiagonals of about N/2
    states, takes O(N) flops and is left aside.  A solve makes up to
    _MAX_LANCZOS_STEPS = S steps of one banded solve and one banded
    product, 8 n k flops together.  Over all steps, the
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


def _reach(p: DickeParams) -> tuple[float, float]:
    """Bounds on the size of H's elements, from scalars only: the diagonal
    elements omega_a S_z + omega_c n are at most omega_a N/2 + omega_c
    cutoff in size, and the coupling elements (y/sqrt(N)) <m+1|S_x|m>
    sqrt(n) at most (y/sqrt(N)) (N + 1)/4 sqrt(cutoff).  Each row holds at
    most four couplings, so |H| is at most the first plus four times the
    second."""
    diagonal = 0.5 * p.omega_a * p.n_atoms + p.omega_c * p.fock_cutoff
    coupling = (p.y / math.sqrt(p.n_atoms) * (0.25 * (p.n_atoms + 1))
                * math.sqrt(p.fock_cutoff))
    return diagonal, coupling


def _check_range(p: DickeParams) -> None:
    """Refuse a model whose matrix elements would overflow, or twice its
    largest absolute row sum |H|, which bounds every gap the solver forms
    (_reach)."""
    diagonal, coupling = _reach(p)
    if not 2.0 * (diagonal + 4.0 * coupling) < math.inf:
        if diagonal >= 4.0 * coupling:
            element = (f"diagonal elements omega_a S_z + omega_c n, up to "
                       f"omega_a N/2 + omega_c cutoff with omega_a = "
                       f"{p.omega_a:.3g}, omega_c = {p.omega_c:.3g}")
        else:
            element = (f"coupling elements (y/sqrt(N)) S_x (a + a'), up to "
                       f"(y/sqrt(N)) (N + 1)/4 sqrt(cutoff) with y = "
                       f"{p.y:.3g}")
        raise DomainError(
            f"the {element}, N = {p.n_atoms} and cutoff = {p.fock_cutoff}, "
            f"overflow the solver's range: it needs twice |H|, at most the "
            f"diagonal plus four couplings, to be finite")


def _spin_floor(p: DickeParams) -> tuple[float, int]:
    """(f, e) such that f 2^e is at most the lowest eigenvalue of each
    parity block at p.y, up to rounding; f is -inf where no floor is kept.

    Completing the square in the photon mode, with g = y/sqrt(N omega_c)
    and b = a + (g/sqrt(omega_c)) S_x,
        H = omega_a S_z + omega_c b'b - g^2 S_x^2 >= omega_a S_z - g^2 S_x^2
    on every vector of finitely many photons: the elimination that gives
    y_c = sqrt(omega_a omega_c).  Each parity block at any Fock cutoff is
    H compressed to such vectors, so its lowest eigenvalue is at least
    that spin operator's, the floor.  S_x^2 links m only to m and m +- 2,
    so the operator is two tridiagonals, of the even and the odd m, which
    one bisection (LAPACK dstebz) takes as one with a zero link between
    them: O(N) work.

    It is formed in units of 2^e, e the exponent of the diagonal's reach
    (_reach), which the blocks' scaled units (_Lanczos) differ from by a
    power of two, with g formed before it is squared.  A g^2 that
    underflows or overflows there is dropped, and so is one whose floor
    lies below -|H| (g^2 s^2 above _reach's bound on |H|, s = N/2, since
    the floor is at most -g^2 s^2), where the Gershgorin bound is higher.
    A model whose g^2 passes has couplings of at most 5 times the diagonal's
    reach, so the spin operator's elements stay below 200 in those units;
    where that bound overflows them, the floor is dropped too.
    """
    diagonal, coupling = _reach(p)
    e = math.frexp(diagonal)[1]
    mantissa, exponent = math.frexp(
        p.y / math.sqrt(p.n_atoms) / math.sqrt(p.omega_c))
    s = 0.5 * p.n_atoms
    try:
        g2 = math.ldexp(mantissa * mantissa, 2 * exponent - e)
        reach = math.ldexp(diagonal + 4.0 * coupling, -e)
    except OverflowError:
        return -math.inf, e
    if not 0.0 < g2 * s * s <= reach:
        return -math.inf, e
    spins, squares, links = _spin_floor_terms(p.n_atoms)
    # the lowest eigenvalue (range 2, by index, il = iu = 1) to LAPACK's
    # default absolute tolerance (0.0)
    _, w, _, _, info = _lapack.dstebz(
        math.ldexp(p.omega_a, -e) * spins - g2 * squares, -g2 * links,
        2, 0.0, 0.0, 1, 1, 0.0, b"E")
    return (float(w[0]) if info == 0 else -math.inf), e


@functools.lru_cache(maxsize=16)
def _spin_floor_terms(size: int) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
    """The parts of _spin_floor's tridiagonal that depend on N alone, built
    once per N and read-only, over the even m and then the odd m: S_z, the
    diagonal of S_x^2 and its links <m+2|S_x^2|m>, 0 between the two
    chains."""
    spins, sx = _spin_ladder(size)
    # <m|S_x^2|m> = sx[m - 1]^2 + sx[m]^2, <m+2|S_x^2|m> = sx[m] sx[m + 1]
    squares = np.zeros(size + 2)
    squares[1:-1] = sx * sx
    diag = squares[1:] + squares[:-1]
    links = sx[1:] * sx[:-1]
    terms = (np.concatenate([spins[0::2], spins[1::2]]),
             np.concatenate([diag[0::2], diag[1::2]]),
             np.concatenate([links[0::2], [0.0], links[1::2]]))
    for term in terms:
        term.flags.writeable = False
    return terms


def _lower_polariton(p: DickeParams) -> float:
    """The lower polariton of the normal phase, eps with
        eps^2 = [omega_a^2 + omega_c^2
                 - sqrt((omega_c^2 - omega_a^2)^2 + 4 y^2 omega_a omega_c)] / 2,
    the gap from the even to the odd ground level below y_c = sqrt(omega_a
    omega_c) at large N and cutoff (Emary and Brandes, Phys. Rev. E 67,
    066203 (2003)), and 0 at and above y_c.  It is formed as
    omega_a omega_c (y_c^2 - y^2) / eps_+^2, eps_+ the upper polariton, on
    the frequencies over the larger one, which cancels nothing but
    y_c^2 - y^2 and overflows nowhere."""
    scale = max(p.omega_a, p.omega_c)
    a, c, t = p.omega_a / scale, p.omega_c / scale, p.y / scale
    below = a * c - t * t
    if not below > 0.0:
        return 0.0
    root = math.sqrt((c * c - a * a) ** 2 + 4.0 * t * t * a * c)
    return scale * math.sqrt(2.0 * a * c * below / (a * a + c * c + root))


def _spin_ladder(size: int) -> tuple[np.ndarray, np.ndarray]:
    """S_z = m - s of each spin index m, s = size/2, and <m+1|S_x|m> for
    m < size."""
    s = 0.5 * size
    spins = np.arange(size + 1.0) - s
    mz = spins[:-1]
    return spins, 0.5 * np.sqrt(s * (s + 1) - mz * (mz + 1))


def _half_bandwidth(size: int) -> int:
    return 1 if size == 1 else (size + 3) // 2


def _runs(size: int, cutoff: int) -> int:
    # the runs of _shape_tables: all the pairs for even N, a row for odd N
    return 1 if size % 2 == 0 else cutoff + 1


def _elements(size: int, cutoff: int) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
    """The parts of H that do not depend on the model's frequencies or
    coupling, by photon-major state i = n (N + 1) + m, photon number n and
    spin index m: S_z = m - s (s = N/2) by m, the photon numbers n, and
    units[i + 1] and units[i], the unit links of state i with i + N + 2
    and with i + N.  Both links |m, n> - |m + 1, n + 1> and |m + 1, n> -
    |m, n + 1> are <m+1|S_x|m> sqrt(n + 1) in units of y/sqrt(N), at
    units[n (N + 1) + m + 1]; where m = N or n = cutoff that is 0.  H's
    diagonal is omega_a S_z + omega_c n."""
    spins, sx = _spin_ladder(size)
    photons = np.arange(cutoff + 1.0)
    units = np.zeros((cutoff + 1) * (size + 1) + 1)
    np.multiply(sx, np.sqrt(photons[1:, None]),
                out=units[1:].reshape(cutoff + 1, size + 1)[:cutoff, :size])
    return spins, photons, units


class _BlockTables(NamedTuple):
    """One parity block's share of _elements, in the order of its band:
    S_z and the photon number of each state, whether that number lies in
    the top fifth (n >= 0.8 cutoff), and the unit links as a band in
    Fortran order, units[d, j] = H[j + d, j] in units of y/sqrt(N) below
    the diagonal and 0 on it."""

    spins: np.ndarray
    photons: np.ndarray
    tail: np.ndarray
    units: np.ndarray


@functools.lru_cache(maxsize=2)
def _shape_tables(size: int, cutoff: int) -> tuple[_BlockTables,
                                                   _BlockTables]:
    """The tables of the even and the odd parity block of the model with N
    atoms and that Fock cutoff, built once per shape and read-only, placed
    by one rule that keeps the half-bandwidth near N/2 at any cutoff:
    - pair j of photon-major states, {2j, 2j + 1}, holds column j of each;
    - run k of pairs (_runs) gives block q its state 2j + (k + q) mod 2;
    - so a link up by D from state i lies on sub-diagonal (D + i mod 2) // 2.
    Both have _half_bandwidth(N) sub-diagonals; at odd N >= 3 and cutoff 1
    the even block's last one is 0.

    The unit links take a double per band row and state, the rest 17
    bytes a state.  Of the shapes the solver's guard admits
    (_check_solver_work), N = 54 at cutoff 2055 holds the most, 14.1 MB a
    block (56540 states, half-bandwidth 28); N = 199 at cutoff 99 holds
    8.3 MB a block.  The cache keeps two shapes, those that a benchmark of
    two sizes alternates between, so at most 57 MB.
    """
    spins, photons, units = _elements(size, cutoff)
    runs, width = _runs(size, cutoff), _half_bandwidth(size)
    dim = (size + 1) * (cutoff + 1)
    index = np.arange(dim).reshape(runs, -1)
    blocks = []
    for q in (0, 1):
        states = np.empty((dim + 1 - q) // 2, dtype=index.dtype)
        for k in range(min(runs, 2)):
            states.reshape(runs, -1)[k::2] = index[k::2, (k + q) % 2::2]
        n, m = np.divmod(states, size + 1)
        # sub-diagonals 0 to width + 1: the links up by N and by N + 2 of
        # state i lie on (N + i mod 2) // 2 and the next one; only at N = 1
        # do any lie on 0 or width + 1, the zero links of m = N
        band = np.zeros((width + 2, len(states)))
        column = np.arange(len(states))
        d = (size + states % 2) // 2
        band[d, column] = units[states]
        band[d + 1, column] = units[states + 1]
        tables = _BlockTables(spins[m], photons[n], n >= 0.8 * cutoff,
                              np.asfortranarray(band[:-1]))
        for table in tables:
            table.flags.writeable = False
        blocks.append(tables)
    return tuple(blocks)


def _parity_bands(p: DickeParams) -> tuple[np.ndarray, np.ndarray]:
    """The lower bands, ab[d, j] = H[j + d, j] in Fortran order, of the
    even and the odd parity block of H at p.y, from their tables
    (_shape_tables): the unit links times y/sqrt(N), in one pass over the
    whole band, and omega_a S_z + omega_c n on the diagonal."""
    coupling = p.y / math.sqrt(p.n_atoms)
    bands = []
    for block in _shape_tables(p.n_atoms, p.fock_cutoff):
        band = np.multiply(block.units, coupling, order="F")
        np.add(p.omega_a * block.spins, p.omega_c * block.photons,
               out=band[0])
        bands.append(band)
    return tuple(bands)


def build_hamiltonian(p: DickeParams) -> np.ndarray:
    """Dense real symmetric Hamiltonian in the |m> x |n_phot> product basis,
    index m (cutoff + 1) + n, written from H's elements (_elements)."""
    _check_dimension(p)
    _check_range(p)
    spins, photons, units = _elements(p.n_atoms, p.fock_cutoff)
    links = units * (p.y / math.sqrt(p.n_atoms))
    dim, size = p.dimension, p.n_atoms
    # index m (cutoff + 1) + n of each photon-major state n (N + 1) + m
    i = np.arange(dim).reshape(size + 1, -1).T.ravel()
    h = np.zeros((dim, dim))
    h[i, i] = (p.omega_a * spins + p.omega_c * photons[:, None]).ravel()
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

    The even block's shift is searched first, from the spin floor.  The
    odd block's search starts at the even block's certified lower end plus
    the lower polariton, which is 0 from y_c on, where the two ground
    levels meet; at the smallest cutoffs (_FEW_PHOTONS), or where the even
    block needed no shift, it starts at the spin floor too.
    """
    global _blas, _lapack
    _check_range(p)
    _check_solver_work(p)
    if _lapack is None:
        from scipy.linalg import blas, lapack
        _blas, _lapack = blas, lapack
    even_band, odd_band = _parity_bands(p)
    guess = _spin_floor(p)
    # every block holds at least two states: N >= 1 and cutoff >= 1
    even = _Lanczos(even_band, _start(even_band.shape[1]), guess)
    if even.lower is not None and p.fock_cutoff > _FEW_PHOTONS:
        lo, e = even.lower
        guess = lo + math.ldexp(_lower_polariton(p), -e), e
    runs = [even, _Lanczos(odd_band, _start(odd_band.shape[1]), guess)]
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
    is in Fortran order, start is the block's start vector, and guess,
    (f, e) for f 2^e, the level where the search for the shift starts
    (_shifted_factor).

    It runs on H scaled by the power of two just above |H|, which is exact
    and keeps every iterate in range whatever the scale of H.  `levels`
    holds the lowest levels found, ascending, and `ground` the unit vector
    of the first; each of their pairs (E, x) met |H x - E x| <= 1e-12 |H|.
    `norm` is |H|, the largest absolute row sum, an upper bound on the
    spectral norm and the scale of the solve's rounding.  `lower`, (lo, e)
    for lo 2^e, is the search's certified lower end, at most E0, or None
    where the levels are the sorted diagonal and no shift was needed.
    """

    def __init__(self, ab: np.ndarray, start: np.ndarray,
                 guess: tuple[float, int]):
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
            self.lower = None
            return
        self.levels, self.ground = [], None
        self.exponent = math.frexp(self.norm)[1]
        self.h = np.ldexp(ab, -self.exponent)
        self.bound = _RESIDUAL * math.ldexp(self.norm, -self.exponent)
        self.factor, lo = _shifted_factor(
            self.h, np.ldexp(abs_rows, -self.exponent),
            math.ldexp(guess[0], guess[1] - self.exponent))
        self.lower = lo, self.exponent
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


def _shifted_factor(h: np.ndarray, abs_rows: np.ndarray,
                    guess: float) -> tuple[np.ndarray, float]:
    """The lower banded Cholesky factor of H - sigma, sigma below the lowest
    eigenvalue E0, and lo, the certified lower end of the search, sigma
    plus 1e-10 |H|; abs_rows holds the absolute row sums of H, and guess is
    a level mostly just below E0, which rounding or a wrong prediction may
    leave above it: the spin floor (_spin_floor) or, in the odd block, the
    even block's lo plus the lower polariton (_solve_blocks).

    A factorization that succeeds certifies its shift below E0, one that
    fails its shift above E0, and the smallest diagonal entry is above E0
    too.  The search keeps a bracket [lo, lo + width] on E0 and halves it,
    probing lo + width/2, until it is at most _SHIFT_BRACKET |H| wide.
    Where the guess less 1e-10 |H| lies between the Gershgorin lower bound
    and the smallest diagonal entry, it starts there: E0 is mostly within
    2 _SHIFT_BRACKET |H| above it, so it first probes upward, by
    _SHIFT_BRACKET |H| and then twice that, and a failed probe gives a
    bracket of that probe's step, after two successes one up to the
    smallest diagonal entry.  Otherwise it starts from the Gershgorin
    bound.  The accepted shift backs off from lo by 1e-10 |H|, so rounding
    in its certificate cannot leave it at or above E0.  Where no probe from
    the guess succeeded and the factorization at that shift fails, the
    guess lay above E0, and the search runs again from the Gershgorin
    bound, below the failed shift.
    """
    norm = float(abs_rows.max())
    bracket, margin = _SHIFT_BRACKET * norm, _SHIFT_MARGIN * norm
    gershgorin = float((h[0] + np.abs(h[0]) - abs_rows).min())
    top = float(h[0].min())
    shifted = h.copy(order="F")

    def factored(shift: float):
        shifted[0] = h[0] - shift
        return _lapack.dpbtrf(shifted, lower=1)

    def certifies(shift: float) -> bool:
        # a shift at or above the smallest diagonal entry is not probed
        return shift < top and factored(shift)[1] == 0

    def halve(lo: float, width: float) -> float:
        while width > bracket:
            width *= 0.5
            if certifies(lo + width):
                lo += width
        return lo

    start = guess - margin
    if gershgorin < start < top:
        lo, step = start, bracket
        for _ in range(2):
            if not certifies(lo + step):
                break
            lo, step = lo + step, 2.0 * step
        else:
            step = top - lo
        lo = halve(lo, step)
    else:
        lo = halve(gershgorin, top - gershgorin)
    sigma = lo - margin
    factor, info = factored(sigma)
    if info != 0 and lo == start:
        lo = halve(gershgorin, sigma - gershgorin)
        sigma = lo - margin
        factor, info = factored(sigma)
    if info != 0:
        raise ConvergenceError(
            f"H - sigma did not factor at sigma = {sigma!r}, below the "
            f"certified shift {lo!r}", best_estimate=top,
            achieved_error=top - sigma)
    return factor, lo


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
    tables = _shape_tables(p.n_atoms, p.fock_cutoff)[q]
    prob = blocks[q].ground ** 2
    photon = float(prob @ tables.photons)
    sz = float(prob @ tables.spins)
    tail = float(prob[tables.tail].sum())
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
    ground state then holds almost no photons: at N = 8, cutoff 60, y = 1
    and omega_a = 1 the energy is -4.000000112 at omega_c = 1e9 and
    -3.99995499 at 1e11, against about -4.00000000025 and -4.0000000000025
    exactly; over y in {0.5, 1, 3} the largest loss, 5.3e-4, is at 1e12
    and y = 3.  From omega_c = 1e12 on at y <= 1, and 1e13 at y = 3, the
    couplings fall below 1e-12 |H| and the levels are the sorted diagonal:
    at 1e15 the energy and sz_expect are -4.0.
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

    Each coupling writes the parity blocks' bands afresh (_parity_bands), in
    two array passes over tables built once per (N, cutoff).  A coupling
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
