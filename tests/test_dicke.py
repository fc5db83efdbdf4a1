import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import blas, lapack

from fpcavity import (ConvergenceError, DickeParams, DomainError,
                      build_hamiltonian, ground_state, mean_field,
                      spectrum_scan)
from fpcavity import _memo, dicke
from fpcavity.cli import dispatch
from tests_helpers import parity_diagonal


def loop_built_hamiltonian(p: DickeParams) -> np.ndarray:
    """Independent construction by explicit basis-state loops."""
    s = 0.5 * p.n_atoms
    dim_b = p.fock_cutoff + 1
    dim = (p.n_atoms + 1) * dim_b
    h = np.zeros((dim, dim))
    g = p.y / math.sqrt(p.n_atoms)
    for mi in range(p.n_atoms + 1):
        m = mi - s
        for n in range(dim_b):
            i = mi * dim_b + n
            h[i, i] = p.omega_a * m + p.omega_c * n
            # S_x (a + a') couples m +- 1 with n +- 1
            for dm, amp_s in ((1, 0.5 * math.sqrt(s * (s + 1) - m * (m + 1))),
                              (-1, 0.5 * math.sqrt(s * (s + 1) - m * (m - 1)))):
                mj = mi + dm
                if not 0 <= mj <= p.n_atoms:
                    continue
                if n + 1 < dim_b:
                    j = mj * dim_b + (n + 1)
                    h[j, i] += g * amp_s * math.sqrt(n + 1)
                if n - 1 >= 0:
                    j = mj * dim_b + (n - 1)
                    h[j, i] += g * amp_s * math.sqrt(n)
    return h


def test_decoupled_limit_is_diagonal():
    p = DickeParams(omega_a=1.3, omega_c=0.7, y=0.0, n_atoms=3, fock_cutoff=4)
    h = build_hamiltonian(p)
    assert np.array_equal(h, np.diag(np.diag(h)))
    s = 1.5
    expected00 = 1.3 * (-s) + 0.7 * 0
    assert h[0, 0] == pytest.approx(expected00)


def test_hamiltonian_exactly_symmetric():
    p = DickeParams(y=0.8, n_atoms=4, fock_cutoff=12)
    h = build_hamiltonian(p)
    assert np.abs(h - h.T).max() == 0.0


def test_ground_energy_against_loop_oracle():
    p = DickeParams(omega_a=1.0, omega_c=1.0, y=0.5, n_atoms=2,
                    fock_cutoff=20)
    h_oracle = loop_built_hamiltonian(p)
    e_oracle = np.linalg.eigvalsh(h_oracle)[0]
    assert ground_state(p).energy == pytest.approx(e_oracle, abs=1e-10)
    assert np.abs(build_hamiltonian(p) - h_oracle).max() < 1e-12


def test_decoupled_ground_state():
    p = DickeParams(omega_a=1.0, omega_c=1.0, y=0.0, n_atoms=6,
                    fock_cutoff=10)
    gs = ground_state(p)
    assert gs.energy == pytest.approx(-3.0)
    assert gs.photon_number == pytest.approx(0.0, abs=1e-14)
    assert gs.sz_expect == pytest.approx(-3.0)
    assert gs.parity == 1.0


def test_parity_commutator_exactly_zero():
    p = DickeParams(y=1.7, n_atoms=4, fock_cutoff=15)
    h = build_hamiltonian(p)
    pi_diag = parity_diagonal(p)
    comm = h * pi_diag[None, :] - pi_diag[:, None] * h
    assert np.abs(comm).max() == 0.0


def test_parity_is_exact_label():
    gs = ground_state(DickeParams(y=2.0, n_atoms=8, fock_cutoff=60))
    assert gs.parity in (1.0, -1.0)


def test_superradiant_photon_number():
    gs = ground_state(DickeParams(y=2.0, n_atoms=8, fock_cutoff=60))
    assert 0.70 <= gs.photon_number / 8 <= 1.00
    assert gs.cutoff_converged


def test_cutoff_convergence_flag_trips():
    gs = ground_state(DickeParams(y=2.0, n_atoms=8, fock_cutoff=3))
    assert not gs.cutoff_converged


def test_cutoff_flag_never_falsely_true():
    # every case flagged converged matches a solve at twice the cutoff
    rng = np.random.default_rng(7)
    flags = []
    for omega_a, omega_c in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0)):
        for n_atoms in (1, 3, 8):
            for cutoff in (5, 12, 25, 40):
                for y in rng.uniform(0.0, 3.0, 2):
                    p = DickeParams(omega_a, omega_c, float(y), n_atoms,
                                    cutoff)
                    gs = ground_state(p)
                    flags.append(gs.cutoff_converged)
                    if not gs.cutoff_converged:
                        continue
                    _, ref, _, _, _, _ = dicke._ground_observables(
                        DickeParams(omega_a, omega_c, float(y), n_atoms,
                                    2 * cutoff))
                    assert (abs(gs.photon_number - ref)
                            <= max(1e-8, 1e-4 * ref)), p
    # both outcomes occur, so the grid tests the flag
    assert 10 <= sum(flags) <= len(flags) - 10


def test_cutoff_flag_reads_the_photon_tail():
    # weight on n >= 0.8 cutoff, against the ground vector of the dense
    # matrix (non-degenerate here: gap 0.036), whose index is m (cutoff + 1) + n;
    # at cutoff 10, 0.8 cutoff is itself a photon number, n = 8, whose
    # weight is 4/5 of the tail
    for cutoff, first, weights in ((12, 10, (1e-5, 1e-4)),
                                   (10, 8, (1e-4, 1e-3))):
        p = DickeParams(y=1.5, n_atoms=4, fock_cutoff=cutoff)
        _, vectors = np.linalg.eigh(build_hamiltonian(p))
        photons = np.tile(np.arange(cutoff + 1), 5)
        expected = float((vectors[:, 0] ** 2)[photons >= first].sum())
        assert weights[0] < expected < weights[1]
        assert dicke._ground_observables(p)[-1] == pytest.approx(
            expected, rel=1e-8)
    # about 0.13 when the cutoff truncates, below 3e-9 at the CLI default
    # size, and exactly 0 at y = 0
    tail = dicke._ground_observables(
        DickeParams(y=2.0, n_atoms=8, fock_cutoff=3))[-1]
    assert 0.1 < tail < 0.2
    for y in (0.5, 1.0, 2.0, 3.0):
        tail = dicke._ground_observables(
            DickeParams(y=y, n_atoms=8, fock_cutoff=60))[-1]
        assert tail < 3e-9
    assert dicke._ground_observables(DickeParams(y=0.0))[-1] == 0.0


def test_ground_state_solves_once(monkeypatch):
    calls = []
    solve = dicke._solve_blocks

    def counted(p):
        calls.append(p)
        return solve(p)
    monkeypatch.setattr(dicke, "_solve_blocks", counted)
    p = DickeParams(y=2.0, n_atoms=8, fock_cutoff=60)
    assert ground_state(p).cutoff_converged
    assert calls == [p]


def _check_scaling(lam):
    base = DickeParams(omega_a=1.0, omega_c=0.8, y=1.3, n_atoms=4,
                       fock_cutoff=30)
    scaled = DickeParams(omega_a=lam, omega_c=0.8 * lam, y=1.3 * lam,
                         n_atoms=4, fock_cutoff=30)
    g1, g2 = ground_state(base), ground_state(scaled)
    assert g2.energy == pytest.approx(lam * g1.energy, rel=1e-12)
    assert g2.photon_number == pytest.approx(g1.photon_number, rel=1e-9)
    assert g2.sz_expect == pytest.approx(g1.sz_expect, rel=1e-9)


def test_scaling_symmetry():
    _check_scaling(2.7)


@pytest.mark.parametrize("lam", [1e-200, 1e-9, 1e9, 1e200])
def test_scaling_symmetry_at_extreme_scales(lam):
    # the solver's shift and residual bound scale with H, and its iterates
    # neither underflow nor overflow
    _check_scaling(lam)


def test_dimension_guard():
    with pytest.raises(DomainError):
        build_hamiltonian(DickeParams(n_atoms=200, fock_cutoff=200))
    with pytest.raises(DomainError):
        ground_state(DickeParams(n_atoms=200, fock_cutoff=200))


def _refused_before_building(p, monkeypatch, match):
    def never(*args, **kwargs):
        raise AssertionError("the solve started")
    monkeypatch.setattr(dicke, "_parity_bands", never)
    monkeypatch.setattr(lapack, "dpbtrf", never)
    with pytest.raises(DomainError, match=match):
        ground_state(p)
    with pytest.raises(DomainError, match=match):
        spectrum_scan(p, [1.0])


@pytest.mark.parametrize("n_atoms, cutoff", [
    (399, 49),   # dimension 20000, half-bandwidth 201: 5.7e9 flops
    (999, 19),   # dimension 20000, half-bandwidth 501: 3.2e10 flops
])
def test_solver_guard_bounds_work_not_dimension(n_atoms, cutoff,
                                                monkeypatch):
    p = DickeParams(y=1.0, n_atoms=n_atoms, fock_cutoff=cutoff)
    assert p.dimension <= dicke.MAX_DIMENSION
    _refused_before_building(p, monkeypatch, "flops")


def test_solver_guard_bounds_the_lanczos_basis(monkeypatch):
    # tridiagonal blocks of 70001 states: 1.0e9 flops, within the work
    # bound, but 2 x 45 basis vectors of 70001 doubles
    p = DickeParams(y=1.0, n_atoms=1, fock_cutoff=70000)
    _refused_before_building(p, monkeypatch, "Lanczos basis")


@pytest.mark.parametrize("n_atoms, cutoff", [
    (8, 60), (16, 100),                  # CLI default, bench large size
    (32, 120), (64, 30), (40, 150), (16, 160),
    (1, 4000), (1, 9999),                # tridiagonal blocks
    # refused by the earlier bound, block size squared times
    # half-bandwidth; each solves in 0.1-0.45 s per coupling
    (100, 150), (199, 99), (64, 1000),
    # near the bound: 0.04-0.14 s per coupling
    (64, 1400), (1, 66000), (32, 4000), (16, 7800),
])
def test_solver_guard_admits_used_sizes(n_atoms, cutoff):
    dicke._check_solver_work(DickeParams(n_atoms=n_atoms, fock_cutoff=cutoff))


def test_ground_state_at_n100_cutoff150():
    # a size the guard admits since it bounds the solver's own flops: the
    # exact energy lies below the mean-field (product-state) energy and
    # within 1e-3 of it
    p = DickeParams(y=1.5, n_atoms=100, fock_cutoff=150)
    result = ground_state(p)
    bound = p.n_atoms * mean_field(p).energy_per_atom
    assert result.cutoff_converged
    assert bound * (1.0 + 1e-3) < result.energy < bound


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 7, 8, 16, 33])
def test_solver_guard_half_bandwidth_is_exact(n_atoms, monkeypatch):
    # the guard's half-bandwidth formula against the bands the solver writes
    bands = dicke._parity_bands(DickeParams(n_atoms=n_atoms, fock_cutoff=9))
    widths = {band.shape[0] - 1 for band in bands}
    monkeypatch.setattr(dicke, "MAX_SOLVER_WORK", 0)
    with pytest.raises(DomainError, match=f"half-bandwidth {max(widths)} "):
        dicke._check_solver_work(DickeParams(n_atoms=n_atoms, fock_cutoff=9))


# ---------------------------------------------------------------------------
# parity bands, written per coupling
# ---------------------------------------------------------------------------

def _reference_hamiltonian(p: DickeParams) -> np.ndarray:
    """H as h[n, m, n', m'], from the matrix elements as _parity_bands
    documents them: omega_a (m - s) + omega_c n on the diagonal and
    (y/sqrt(N)) (sx[m] sqrt(n + 1)) on |m, n> - |m + 1, n + 1> and
    |m, n + 1> - |m + 1, n>, each by those products in that order."""
    size, cutoff = p.n_atoms, p.fock_cutoff
    s = 0.5 * size
    h = np.zeros((cutoff + 1, size + 1, cutoff + 1, size + 1))
    for n in range(cutoff + 1):
        for m in range(size + 1):
            h[n, m, n, m] = p.omega_a * (m - s) + p.omega_c * float(n)
    for m in range(size):
        mz = m - s
        sx = 0.5 * math.sqrt(s * (s + 1) - mz * (mz + 1))
        for n in range(cutoff):
            c = (p.y / math.sqrt(size)) * (sx * math.sqrt(n + 1.0))
            for a, b in (((n, m), (n + 1, m + 1)), ((n + 1, m), (n, m + 1))):
                h[a + b] = h[b + a] = c
    return h


def _block_states(p: DickeParams, q: int) -> np.ndarray:
    """The photon-major index n (N + 1) + m of each state of parity block
    q, in the order of its band, from the S_z and n tables."""
    tables = dicke._shape_tables(p.n_atoms, p.fock_cutoff)[q]
    m = tables.spins + 0.5 * p.n_atoms
    return (tables.photons * (p.n_atoms + 1) + m).astype(int)


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 7, 8, 16, 33])
def test_bands_are_the_parity_blocks_bit_for_bit(n_atoms):
    # each band against its parity block of the elementwise H, states in
    # photon-major order, and build_hamiltonian (written from the element
    # table, not the bands) against the same H; at odd N >= 3 and cutoff 1
    # the even block's last sub-diagonal is all 0
    rng = np.random.default_rng(n_atoms)
    for cutoff in (1, 2, 9):
        omega_a, omega_c, y = (float(x) for x in rng.uniform(0.1, 3.0, 3))
        p = DickeParams(omega_a, omega_c, y, n_atoms, cutoff)
        h = _reference_hamiltonian(p)
        dim = p.dimension
        # (m + n) mod 2 of the states n (N + 1) + m
        parity = (np.add.outer(np.arange(cutoff + 1),
                               np.arange(n_atoms + 1)) % 2).ravel()
        bands = dicke._parity_bands(p)
        for q, band in enumerate(bands):
            states = np.flatnonzero(parity == q)
            block = h.reshape(dim, dim)[np.ix_(states, states)]
            assert band.flags.f_contiguous
            assert band.shape[1] == len(block)
            # the band holds every element of the block below the diagonal
            assert not np.tril(block, -band.shape[0]).any()
            for d, row in enumerate(band):
                want = np.zeros(len(block))
                want[:len(block) - d] = np.diag(block, -d)
                assert row.tobytes() == want.tobytes(), (cutoff, q, d)
            assert np.array_equal(_block_states(p, q), states)
        assert {band.shape[0] - 1 for band in bands} == {
            1 if n_atoms == 1 else (n_atoms + 3) // 2}
        # build_hamiltonian's index is m (cutoff + 1) + n
        dense = h.transpose(1, 0, 3, 2).reshape(dim, dim)
        assert build_hamiltonian(p).tobytes() == dense.tobytes()


def _bands_placed_by_runs(p: DickeParams) -> tuple[np.ndarray, np.ndarray]:
    """The bands as the solver placed them before its tables were kept per
    shape: H's elements at p.y in one photon-major table, copied into each
    block by runs of pairs, one strided copy per run parity and row."""
    size, cutoff, dim = p.n_atoms, p.fock_cutoff, p.dimension
    s = 0.5 * size
    spins = np.arange(size + 1.0) - s
    mz = spins[:-1]
    sx = 0.5 * np.sqrt(s * (s + 1) - mz * (mz + 1))
    photons = np.arange(cutoff + 1.0)
    diag = p.omega_a * spins + p.omega_c * photons[:, None]
    links = np.zeros(dim + 1)
    coupling = links[1:].reshape(cutoff + 1, size + 1)[:cutoff, :size]
    np.multiply(sx, np.sqrt(photons[1:, None]), out=coupling)
    coupling *= p.y / math.sqrt(size)
    runs = 1 if size % 2 == 0 else cutoff + 1
    width = 1 if size == 1 else (size + 3) // 2
    diag, up_n, up_n2 = (diag.reshape(runs, -1), links[:-1].reshape(runs, -1),
                         links[1:].reshape(runs, -1))
    bands = []
    for q in (0, 1):
        band = np.zeros((width + 1, (dim + 1 - q) // 2), order="F")
        grid = band.reshape(width + 1, runs, -1)
        for k in range(min(runs, 2)):
            r = (k + q) % 2
            d = (size + r) // 2
            grid[0, k::2] = diag[k::2, r::2]
            if d > 0:
                grid[d, k::2] = up_n[k::2, r::2]
            if d < width:
                grid[d + 1, k::2] = up_n2[k::2, r::2]
        bands.append(band)
    return tuple(bands)


@pytest.mark.parametrize("n_atoms", [*range(1, 20), 33, 64])
def test_bands_from_the_shape_tables_are_the_placed_bands(n_atoms):
    # the same operations on the same elements: byte for byte, in Fortran
    # order, at random frequencies and couplings
    rng = np.random.default_rng(46 + n_atoms)
    for cutoff in (1, 2, 3, 9, 60, 61):
        omega_a, omega_c, y = (float(x) for x in rng.uniform(0.01, 5.0, 3))
        p = DickeParams(omega_a, omega_c, y, n_atoms, cutoff)
        for band, want in zip(dicke._parity_bands(p),
                              _bands_placed_by_runs(p), strict=True):
            assert band.flags.f_contiguous
            assert band.shape == want.shape, (cutoff, band.shape)
            assert band.tobytes(order="F") == want.tobytes(order="F"), cutoff


def test_shape_tables_are_read_only():
    for block in dicke._shape_tables(7, 9):
        assert len(block.units) == dicke._half_bandwidth(7) + 1
        assert not block.units[0].any()
        for table in block:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1


def test_scan_builds_the_shape_tables_once(monkeypatch):
    monkeypatch.setattr(_memo, "_entries", {})
    dicke._shape_tables.cache_clear()
    spectrum_scan(DickeParams(n_atoms=8, fock_cutoff=60),
                  [0.25 * i for i in range(13)])
    info = dicke._shape_tables.cache_info()
    # each coupling reads them for its bands and its ground block's
    # observables
    assert (info.misses, info.hits) == (1, 2 * 13 - 1)


def test_scan_writes_the_bands_once_per_coupling(monkeypatch):
    writes = []
    bands = dicke._parity_bands

    def counted(p):
        writes.append(p)
        return bands(p)
    monkeypatch.setattr(dicke, "_parity_bands", counted)
    p = DickeParams(n_atoms=8, fock_cutoff=60)
    grid = [0.25 * i for i in range(13)]
    spectrum_scan(p, grid)
    assert writes == [replace(p, y=y) for y in grid]


def test_ground_state_at_a_new_coupling_matches_a_fresh_solve():
    p = DickeParams(n_atoms=8, fock_cutoff=60)
    spectrum_scan(p, [0.5, 1.0])
    got = ground_state(DickeParams(y=1.7, n_atoms=8, fock_cutoff=60))
    _memo._entries.clear()
    want = ground_state(DickeParams(y=1.7, n_atoms=8, fock_cutoff=60))
    assert repr(got) == repr(want)


def _fresh_start_draw():
    """An empty start draw for the rest of the test, as in a new process."""
    dicke._starts = np.empty(0)


@pytest.mark.parametrize("change", [
    {"n_atoms": 9}, {"fock_cutoff": 61}, {"omega_a": 1.25},
    {"omega_c": 0.75}])
def test_another_model_matches_a_fresh_solve(change, monkeypatch):
    # a larger model first, so the start draw the other model takes its
    # start vectors from is longer than its blocks
    monkeypatch.setattr(dicke, "_starts", dicke._starts)
    p = DickeParams(y=1.0, n_atoms=8, fock_cutoff=60)
    ground_state(replace(p, n_atoms=16, fock_cutoff=100))
    ground_state(p)
    other = replace(p, **change)
    got = ground_state(other)
    _memo._entries.clear()
    _fresh_start_draw()
    assert repr(got) == repr(ground_state(other))
    # drawn afresh, as long as the other model's larger block
    assert len(dicke._starts) == (other.dimension + 1) // 2


def test_start_draw_is_read_only_and_a_prefix_of_longer_draws(monkeypatch):
    monkeypatch.setattr(dicke, "_starts", dicke._starts)
    _fresh_start_draw()
    short = dicke._start(40).copy()
    long = dicke._start(1000)
    assert len(dicke._starts) == 1000
    assert np.array_equal(long[:40], short)
    assert np.array_equal(dicke._start(40), short)
    with pytest.raises(ValueError, match="read-only"):
        dicke._start(5)[0] = 1.0
    # numpy's draws of standard normals come one after the other, so a
    # shorter draw is a prefix of a longer one
    for size in (1, 2, 3, 275, 859, 2000):
        assert np.array_equal(
            np.random.default_rng(0).standard_normal(size),
            np.random.default_rng(0).standard_normal(5000)[:size])


class _Recording:
    """A stand-in for scipy's blas or lapack module that records the bands
    the banded routines are given and the factors dpbtrf returns."""

    def __init__(self, module, seen: list):
        self._module, self._seen = module, seen

    def __getattr__(self, name):
        routine = getattr(self._module, name)
        if name not in ("dsbmv", "dpbtrf", "dpbtrs"):
            return routine

        def call(*args, **kwargs):
            out = routine(*args, **kwargs)
            returned = out[:1] if name == "dpbtrf" else ()
            for array in args + returned:
                if isinstance(array, np.ndarray) and array.ndim == 2:
                    self._seen.append((name, array))
            return out
        return call


class _Failing:
    """scipy's lapack with one routine made to return info 1: dsyevr after
    its eigensolve, and dpbtrf without factoring, so that no shift is
    certified and the final factorization fails too."""

    def __init__(self, failing: str):
        self._failing = failing

    def __getattr__(self, name):
        routine = getattr(lapack, name)
        if name != self._failing:
            return routine
        if name == "dpbtrf":
            return lambda ab, lower: (ab, 1)
        return lambda *args, **kwargs: (*routine(*args, **kwargs)[:-1], 1)


@pytest.mark.parametrize("routine, message", [
    ("dsyevr", "Rayleigh-Ritz eigensolve failed"),
    ("dpbtrf", "did not factor")])
def test_a_failed_lapack_call_is_a_convergence_error(routine, message,
                                                      monkeypatch, capsys):
    # a LAPACK info != 0 ends the solve with a ConvergenceError, which the
    # command line turns into exit 2
    monkeypatch.setattr(dicke, "_blas", blas)
    monkeypatch.setattr(dicke, "_lapack", _Failing(routine))
    _memo._entries.clear()
    with pytest.raises(ConvergenceError, match=message):
        ground_state(DickeParams(y=1.0, n_atoms=2, fock_cutoff=4))
    assert dispatch(["dicke", "ground", "--y", "1", "--n-atoms", "2",
                     "--cutoff", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_solver_passes_fortran_bands_and_draws_one_start_per_block(
        monkeypatch):
    # f2py copies a C-ordered band on every call; and the start vectors are
    # prefixes of one draw, drawn again only for a block longer than any
    # before, not once per model or per coupling
    monkeypatch.setattr(dicke, "_starts", dicke._starts)
    _fresh_start_draw()
    ground_state(DickeParams(y=1.0, n_atoms=2, fock_cutoff=4))
    seen, draws = [], []
    monkeypatch.setattr(dicke, "_blas", _Recording(dicke._blas, seen))
    monkeypatch.setattr(dicke, "_lapack", _Recording(dicke._lapack, seen))
    rng = np.random.default_rng

    def counted(*args):
        draws.append(args)
        return rng(*args)
    monkeypatch.setattr(np.random, "default_rng", counted)
    _memo._entries.clear()
    p = DickeParams(n_atoms=8, fock_cutoff=60)
    couplings = [0.5, 1.0, 1.5, 2.0, 3.0]
    rows = spectrum_scan(p, couplings)
    # one draw, for the even block, the larger one: 275 of the 549 states
    assert len(draws) == 1
    assert np.array_equal(dicke._starts, rng(0).standard_normal(275))
    assert {name for name, _ in seen} == {"dsbmv", "dpbtrf", "dpbtrs"}
    assert all(array.flags.f_contiguous for _, array in seen)
    assert all(band.flags.f_contiguous for band in dicke._parity_bands(p))
    # the same rows as solves of one coupling each, after a larger model
    # has drawn a longer start
    spectrum_scan(DickeParams(n_atoms=16, fock_cutoff=100), [1.0])
    assert len(draws) == 2
    for y, row in zip(couplings, rows):
        _memo._entries.clear()
        assert repr(spectrum_scan(p, [y])[0]) == repr(row)
    assert len(draws) == 2


# ---------------------------------------------------------------------------
# banded parity-block solver
# ---------------------------------------------------------------------------

def _dense_block_levels(p: DickeParams) -> np.ndarray:
    """The two lowest eigenvalues of each dense parity block, sorted."""
    h = build_hamiltonian(p)
    signs = parity_diagonal(p)
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(h[np.ix_(signs == s, signs == s)])[:2]
        for s in (1.0, -1.0)]))


@pytest.mark.parametrize("omega_a, omega_c, n_atoms, cutoff, y", [
    (omega_a, omega_c, n_atoms, cutoff, y)
    for omega_a, omega_c, n_atoms, cutoff in (
        (0.7, 1.3, 8, 40),
        (1.0, 1.0, 1, 1),     # two states per parity block
        (1.0, 1.0, 4, 20),
        (2.0, 0.5, 3, 30),
        (4.0, 1.0, 8, 40),    # omega_a / omega_c of 4 and 1/4
        (0.25, 1.0, 8, 40))
    # at y = 1e-6 the levels above each block's ground state come in
    # clusters split by about 1e-6
    for y in (0.0, 1e-6, 0.5, 1.0, 2.0, 3.0)
] + [
    (1.0, 1.0, 1, 400, 3.0),   # tridiagonal blocks of 401 states
    (1.0, 1.0, 16, 100, 1.0),  # the benchmark's large size
    (1.0, 1.0, 16, 100, 3.0),
    # couplings not 0 but summing to below 1e-12 |H| in every row, where
    # the levels are the sorted diagonal: Lanczos broke down on them, with
    # a ConvergenceError or a 0/0 normalizing its next vector
    (1.0, 1.0, 3, 1, 1e-25),
    (1.0, 1.0, 2, 2, 1e-20),
    (0.3, 0.3, 1, 2, 1e-30),
    (7.336147744545355e+81, 7.7283351297321e-98, 1, 4, 3.83304643550492e-21),
])
def test_solver_against_dense_parity_blocks(omega_a, omega_c, n_atoms,
                                            cutoff, y):
    p = DickeParams(omega_a, omega_c, y, n_atoms, cutoff)
    w = _dense_block_levels(p)
    energy, _, _, _, gap, _ = dicke._ground_observables(p)
    tol = 1e-12 * max(1.0, abs(w[0]))
    assert abs(energy - w[0]) <= tol
    assert abs(gap - (w[1] - w[0])) <= tol


@pytest.mark.parametrize("y, n_atoms, cutoff", [
    (0.5, 8, 60), (3.0, 8, 60), (3.0, 1, 400), (1e-6, 4, 20)])
def test_shift_within_rounding_of_ground_energy(y, n_atoms, cutoff,
                                                monkeypatch):
    # The solver's bisection stops well below E0; here the shift is the
    # largest one at or below the dense E0 that still factors, within a
    # few rounding steps of E0, so H - sigma is singular to working
    # precision.  Both levels must still match the dense ones.
    hugs = []

    def hugging_factor(h, abs_rows, guess):
        rows = [np.diag(h[0])]
        for d in range(1, h.shape[0]):
            rows += [np.diag(h[d, :-d], -d), np.diag(h[d, :-d], d)]
        e0 = np.linalg.eigvalsh(sum(rows))[0]
        step = np.finfo(float).eps * abs_rows.max()
        for k in range(100):
            shifted = h.copy()
            shifted[0] -= e0 - k * step
            factor, info = lapack.dpbtrf(shifted, lower=1)
            if info == 0:
                hugs.append(k)
                return factor, e0 - k * step
        raise AssertionError("no shift within 100 rounding steps factors")
    monkeypatch.setattr(dicke, "_shifted_factor", hugging_factor)
    p = DickeParams(1.0, 1.0, y, n_atoms, cutoff)
    w = _dense_block_levels(p)
    energy, _, _, _, gap, _ = dicke._ground_observables(p)
    assert len(hugs) == 2
    tol = 1e-12 * max(1.0, abs(w[0]))
    assert abs(energy - w[0]) <= tol
    assert abs(gap - (w[1] - w[0])) <= tol


def _floor_models(count: int, seed: int):
    """N 1-24, cutoff 1-40, omega_a / omega_c from e^-6 to e^6 and y from 0
    to 5 y_c."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ratio = math.exp(rng.uniform(-6.0, 6.0))
        omega_a, omega_c = math.sqrt(ratio), 1.0 / math.sqrt(ratio)
        n_atoms, cutoff = int(rng.integers(1, 25)), int(rng.integers(1, 41))
        y = float(rng.uniform(0.0, 5.0)) * math.sqrt(omega_a * omega_c)
        yield DickeParams(omega_a, omega_c, y, n_atoms, cutoff)


def test_spin_floor_is_below_every_block_at_every_scale():
    # omega_a S_z - (y^2/(N omega_c)) S_x^2 bounds H from below, and so each
    # parity block, a compression of H; the solver's levels stay those of
    # the dense blocks.  Scaled by 1e-200, y^2 alone would underflow and
    # the floor would land above E0; scaled by 1e200 it would overflow
    kept = {scale: 0 for scale in (1.0, 1e-200, 1e200)}
    # the floor's bisection is scipy's, which the first solve imports
    ground_state(DickeParams(y=1.0, n_atoms=2, fock_cutoff=4))
    for p in _floor_models(60, seed=45):
        h = build_hamiltonian(p)
        signs = parity_diagonal(p)
        blocks = [h[np.ix_(signs == sign, signs == sign)]
                  for sign in (1.0, -1.0)]
        levels = [np.linalg.eigvalsh(block)[:2] for block in blocks]
        norm = max(np.abs(block).sum(axis=1).max() for block in blocks)
        for scale in kept:
            q = DickeParams(scale * p.omega_a, scale * p.omega_c,
                            scale * p.y, p.n_atoms, p.fock_cutoff)
            floor = math.ldexp(*dicke._spin_floor(q))
            kept[scale] += floor > -math.inf
            if floor == -math.inf:
                # dropped only where it lies below -g^2 s^2 < -|H|, under
                # the Gershgorin bound
                g2 = p.y ** 2 / (p.n_atoms * p.omega_c)
                assert g2 * (p.n_atoms / 2) ** 2 > norm, (p, scale)
            # up to the rounding of the two eigensolves
            for w in levels:
                assert floor <= scale * (w[0] + 8 * np.finfo(float).eps
                                         * norm), (p, scale)
            for w, block in zip(levels, dicke._solve_blocks(q)):
                tol = 1e-12 * scale * max(1.0, abs(w[0]))
                assert abs(block.levels[0] - scale * w[0]) <= tol, (p, scale)
            w = np.sort(np.concatenate(levels))
            energy, _, _, _, gap, _ = dicke._ground_observables(q)
            tol = 1e-12 * scale * max(1.0, abs(w[0]))
            assert abs(energy - scale * w[0]) <= tol, (p, scale)
            assert abs(gap - scale * (w[1] - w[0])) <= tol, (p, scale)
    assert min(kept.values()) >= 40, kept


@pytest.mark.parametrize("omega_a, omega_c, y, n_atoms, cutoff", [
    (5e-324, 5e-324, 1e154, 3, 1),  # _reach's bound overflows in its units
    (1.0, 1e-300, 1e300, 8, 60),     # g overflows
    (1e300, 1e300, 1e-300, 8, 60),   # g^2 underflows
])
def test_spin_floor_out_of_range_is_dropped(omega_a, omega_c, y, n_atoms,
                                            cutoff):
    p = DickeParams(omega_a, omega_c, y, n_atoms, cutoff)
    ground_state(DickeParams(y=1.0, n_atoms=2, fock_cutoff=4))
    assert dicke._spin_floor(p)[0] == -math.inf
    _memo._entries.clear()
    assert math.isfinite(ground_state(p).energy)


class _CountedFactorizations:
    """scipy's lapack with dpbtrf counted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        routine = getattr(lapack, name)
        if name != "dpbtrf":
            return routine

        def counted(*args, **kwargs):
            self.calls += 1
            return routine(*args, **kwargs)
        return counted


SPY_COUPLINGS = (0.33, 1.0, 1.54, 1.98, 2.75)


def _solve_factorizations(monkeypatch, models) -> list[int]:
    """dpbtrf calls of one solve of both blocks of each model, with the
    counted lapack left in place."""
    ground_state(DickeParams(y=1.0, n_atoms=2, fock_cutoff=4))
    lapack_counted = _CountedFactorizations()
    monkeypatch.setattr(dicke, "_lapack", lapack_counted)
    calls = []
    for p in models:
        before = lapack_counted.calls
        dicke._solve_blocks(p)
        calls.append(lapack_counted.calls - before)
    return calls


def _factorizations(monkeypatch, sizes):
    """dpbtrf calls of one-coupling solves, over sizes x SPY_COUPLINGS."""
    return sum(_solve_factorizations(monkeypatch, [
        DickeParams(y=y, n_atoms=n_atoms, fock_cutoff=cutoff)
        for n_atoms, cutoff in sizes for y in SPY_COUPLINGS]))


def test_spin_floor_saves_factorizations(monkeypatch):
    # the bisection from the Gershgorin bound made 123 factorizations here
    # (64 at N = 8, 59 at N = 16), the search from the spin floor in both
    # blocks 55; with the odd block's search from the even block, 50
    calls = _factorizations(monkeypatch, [(8, 60), (16, 100)])
    assert calls <= 50


@pytest.mark.parametrize("cutoff, counts, before", [
    # the search from the spin floor in both blocks made the second list
    (1, [15, 18, 19], [15, 18, 19]),
    (5, [10, 18, 13], [13, 18, 23])])
def test_small_cutoffs_take_no_more_factorizations(cutoff, counts, before,
                                                   monkeypatch):
    # at cutoff 1 truncation lifts the odd level far above the even one plus
    # the lower polariton, and the odd block starts at the spin floor
    got = _solve_factorizations(monkeypatch, [
        DickeParams(y=y, n_atoms=8, fock_cutoff=cutoff)
        for y in (0.5, 1.0, 2.0)])
    assert got == counts
    assert all(g <= b for g, b in zip(got, before))


@pytest.mark.parametrize("n_atoms, cutoff, mean", [
    (8, 60, 5.6), (16, 100, 4.6)])
def test_odd_block_starts_from_the_even_block(n_atoms, cutoff, mean,
                                              monkeypatch):
    # below the spin floor's 5.6 and 4.6 per solve over these 9 couplings
    calls = _solve_factorizations(monkeypatch, [
        DickeParams(y=float(y), n_atoms=n_atoms, fock_cutoff=cutoff)
        for y in np.linspace(0.05, 2.9, 9)])
    assert sum(calls) / len(calls) < mean - 0.5


@pytest.mark.parametrize("omega_a, omega_c", [
    (1.0, 1.0), (0.3, 2.0), (2.0, 0.3), (1e-150, 1e150), (1e300, 1e-300),
    (1e-300, 1e-300), (1.7e308, 1.7e308)])
def test_lower_polariton(omega_a, omega_c):
    # eps^2 = [wa^2 + wc^2 - sqrt((wc^2 - wa^2)^2 + 4 y^2 wa wc)] / 2 below
    # y_c, at most min(wa, wc), 0 from y_c on, and never an overflow
    y_c = math.sqrt(omega_a) * math.sqrt(omega_c)
    for ratio in (0.0, 0.3, 0.9, 0.999, 1.0, 1.5, 1e300):
        p = DickeParams(omega_a, omega_c, min(ratio * y_c, 1.7e308))
        eps = dicke._lower_polariton(p)
        assert 0.0 <= eps <= min(omega_a, omega_c) * (1 + 1e-15), ratio
        if ratio > 1.0:
            assert eps == 0.0
        elif ratio == 1.0:
            # y_c to within its rounding: eps^2 ~ y_c^2 - y^2 of a few ulps
            assert eps <= 1e-7 * min(omega_a, omega_c)
        elif omega_a == 0.3:
            wa, wc, y = omega_a, omega_c, p.y
            want = math.sqrt(0.5 * (wa * wa + wc * wc - math.sqrt(
                (wc * wc - wa * wa) ** 2 + 4 * y * y * wa * wc)))
            assert eps == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert dicke._lower_polariton(DickeParams(omega_a, omega_c, 0.0)) == (
        pytest.approx(min(omega_a, omega_c), rel=1e-15))


@pytest.mark.parametrize("n_atoms, cutoff", [(8, 60), (16, 100)])
def test_a_floor_above_the_ground_energy_falls_back(n_atoms, cutoff,
                                                    monkeypatch):
    # a floor 1e-3 |H| above both blocks' E0 certifies nothing: the search
    # runs again from the Gershgorin bound, within _FACTORIZATIONS per
    # block, and the levels are the dense ones
    normal = _factorizations(monkeypatch, [(n_atoms, cutoff)])
    floors = {}
    for y in SPY_COUPLINGS:
        p = DickeParams(y=y, n_atoms=n_atoms, fock_cutoff=cutoff)
        h = build_hamiltonian(p)
        signs = parity_diagonal(p)
        e0 = max(np.linalg.eigvalsh(h[np.ix_(signs == s, signs == s)])[0]
                 for s in (1.0, -1.0))
        norm = np.abs(h).sum(axis=1).max()
        floors[y] = (e0 + 1e-3 * norm, 0)
    monkeypatch.setattr(dicke, "_spin_floor", lambda p: floors[p.y])
    per_block = []
    shifted_factor = dicke._shifted_factor

    def counted(*args):
        before = dicke._lapack.calls
        factor = shifted_factor(*args)
        per_block.append(dicke._lapack.calls - before)
        return factor
    monkeypatch.setattr(dicke, "_shifted_factor", counted)
    for y in SPY_COUPLINGS:
        p = DickeParams(y=y, n_atoms=n_atoms, fock_cutoff=cutoff)
        w = _dense_block_levels(p)
        energy, _, _, _, gap, _ = dicke._ground_observables(p)
        tol = 1e-12 * max(1.0, abs(w[0]))
        assert abs(energy - w[0]) <= tol
        assert abs(gap - (w[1] - w[0])) <= tol
    assert len(per_block) == 2 * len(SPY_COUPLINGS)
    assert max(per_block) <= dicke._FACTORIZATIONS
    assert sum(per_block) > normal


def test_starved_lanczos_raises_not_returns(monkeypatch):
    # four Lanczos vectors are far from the residual bound at this size;
    # the solver must say so rather than return its best Ritz values
    monkeypatch.setattr(dicke, "_MAX_LANCZOS_STEPS", 4)
    p = DickeParams(y=2.0, n_atoms=8, fock_cutoff=60)
    with pytest.raises(ConvergenceError) as err:
        ground_state(p)
    # |H| is above 60 here, so this residual misses the bound 1e-12 |H|
    assert err.value.achieved_error > 1e-12 * 60
    with pytest.raises(ConvergenceError):
        spectrum_scan(p, [2.0])
    with pytest.raises(ConvergenceError):
        dicke._solve_blocks(p)


def _dense_parity_blocks(p: DickeParams, h: np.ndarray):
    """Per parity sign: the eigenvalues of the dense block of p's H, h, the
    photon number of its ground vector, and an upper bound on the error of
    that photon number for a ground vector whose residual meets 1e-12 |H|:
    4 cutoff r / (E1 - E0) (Davis-Kahan), r the bound."""
    signs = parity_diagonal(p)
    photons = np.tile(np.arange(p.fock_cutoff + 1), p.n_atoms + 1)
    blocks = {}
    for sign in (1.0, -1.0):
        on = signs == sign
        block = h[np.ix_(on, on)]
        w, v = np.linalg.eigh(block)
        residual = 1e-12 * np.abs(block).sum(axis=1).max()
        blocks[sign] = (w, float(v[:, 0] ** 2 @ photons[on]),
                        4 * p.fock_cutoff * residual / (w[1] - w[0]))
    return blocks


def _oracle_models(count: int, seed: int):
    """N 1-12, cutoff 1-40, omega_a / omega_c from e^-3 to e^3 and y from 0
    to 5 y_c, the first two at y = 0 and 1e-6."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        ratio = math.exp(rng.uniform(-3.0, 3.0))
        omega_a, omega_c = math.sqrt(ratio), 1.0 / math.sqrt(ratio)
        n_atoms, cutoff = int(rng.integers(1, 13)), int(rng.integers(1, 41))
        y_c = math.sqrt(omega_a * omega_c)
        y = (0.0, 1e-6)[i] if i < 2 else float(rng.uniform(0.0, 5.0)) * y_c
        yield DickeParams(omega_a, omega_c, y, n_atoms, cutoff)


def test_solver_against_a_dense_oracle_sweep():
    # energy, gap, parity and photon number of 100 seeded models against
    # dense eigensolves of both parity blocks, and the residual of each
    # block's ground vector against the dense block
    for p in _oracle_models(100, seed=31):
        h = build_hamiltonian(p)
        for q, block in enumerate(dicke._solve_blocks(p)):
            n, m = np.divmod(_block_states(p, q), p.n_atoms + 1)
            states = m * (p.fock_cutoff + 1) + n
            x = block.ground
            residual = h[np.ix_(states, states)] @ x - block.levels[0] * x
            assert np.linalg.norm(residual) <= 1.01e-12 * block.norm, p
        dense = _dense_parity_blocks(p, h)
        even, odd = dense[1.0][0], dense[-1.0][0]
        levels = np.sort(np.concatenate([even[:2], odd[:2]]))
        energy, photon, _, parity, gap, _ = dicke._ground_observables(p)
        tol = 1e-12 * max(1.0, abs(levels[0]))
        assert abs(energy - levels[0]) <= tol, p
        assert abs(gap - (levels[1] - levels[0])) <= tol, p
        # a doublet split by less than the rounding of either solve may
        # come out in either block
        if abs(even[0] - odd[0]) > tol:
            assert parity == (1.0 if even[0] < odd[0] else -1.0), p
        _, want, photon_tol = dense[parity]
        assert abs(photon - want) <= photon_tol, p


def _band(h: np.ndarray, half_bandwidth: int) -> np.ndarray:
    """The lower band, in Fortran order, of a symmetric banded block."""
    band = np.zeros((half_bandwidth + 1, len(h)), order="F")
    for d in range(half_bandwidth + 1):
        band[d, :len(h) - d] = np.diag(h, -d)
    return band


@pytest.mark.parametrize("lower_block", ["even", "odd"])
@pytest.mark.parametrize("margin", [1.0, 4e-8])
def test_second_level_of_the_lower_block_below_the_other_minimum(
        lower_block, margin, monkeypatch):
    # Dicke blocks never take this branch: here the block with the lower
    # minimum, L, has its second level L1 a margin below the other block's
    # minimum K0, so the gap is L1 - L0 and L's second pair must converge
    # in full, also when K0 lies within 1e-9 |H| of L1
    rng = np.random.default_rng(5)
    blocks = []
    for _ in range(2):
        h = np.diag(np.arange(40.0))
        for d in (1, 2):
            off = 0.2 * rng.standard_normal(40 - d)
            h += np.diag(off, -d) + np.diag(off, d)
        blocks.append(h)
    low, other = (np.linalg.eigvalsh(h) for h in blocks)
    blocks[1] += (low[1] + margin - other[0]) * np.eye(40)
    if lower_block == "odd":
        blocks.reverse()
    bands = tuple(_band(h, 2) for h in blocks)
    monkeypatch.setattr(dicke, "_parity_bands", lambda p: bands)
    p = DickeParams(y=1.0, n_atoms=1, fock_cutoff=39)
    solved = dicke._solve_blocks(p)
    assert [len(block.levels) for block in solved] == (
        [2, 1] if lower_block == "even" else [1, 2])
    energy, _, _, parity, gap, _ = dicke._ground_observables(p)
    tol = 1e-12 * max(np.abs(h).sum(axis=1).max() for h in blocks)
    assert parity == (1.0 if lower_block == "even" else -1.0)
    assert energy == pytest.approx(low[0], abs=tol)
    assert gap == pytest.approx(low[1] - low[0], abs=tol)


def test_solver_never_builds_dense_hamiltonian(monkeypatch):
    def dense(p):
        raise AssertionError("dense Hamiltonian built")
    monkeypatch.setattr(dicke, "build_hamiltonian", dense)
    assert ground_state(DickeParams(y=1.5, n_atoms=4, fock_cutoff=20)).energy < 0


@pytest.mark.parametrize("omega_a, omega_c, n_atoms, cutoff", [
    (1.0, 1.0, 8, 60), (1.0, 1.0, 16, 100), (2.0, 0.5, 3, 7), (0.7, 1.3, 1, 1)])
def test_zero_coupling_exact(omega_a, omega_c, n_atoms, cutoff):
    p = DickeParams(omega_a, omega_c, 0.0, n_atoms, cutoff)
    gs = ground_state(p)
    row = spectrum_scan(p, [0.0])[0]
    assert gs.energy == row.energy == -0.5 * n_atoms * omega_a
    assert gs.photon_number == row.photon_number == 0.0
    assert gs.sz_expect == -0.5 * n_atoms


@pytest.mark.parametrize("y, n_atoms, cutoff", [
    # about 100 photons: the vacuum state overlaps the ground state by
    # about 1e-22
    (5.0, 16, 160),
    # about 3600 photons: that overlap underflows
    (120.0, 1, 4000),
])
def test_ground_vector_far_from_vacuum_hellmann_feynman(y, n_atoms, cutoff):
    # <a'a> = dE/d omega_c and <S_z> = dE/d omega_a check the vector
    # against eigenvalues alone
    def e0(omega_a, omega_c):
        even, odd = dicke._solve_blocks(
            DickeParams(omega_a, omega_c, y, n_atoms, cutoff))
        return min(even.levels[0], odd.levels[0])

    _, photon, sz, _, _, _ = dicke._ground_observables(
        DickeParams(1.0, 1.0, y, n_atoms, cutoff))
    h = 1e-5
    assert photon == pytest.approx((e0(1.0, 1 + h) - e0(1.0, 1 - h)) / (2 * h),
                                   rel=1e-8)
    assert sz == pytest.approx((e0(1 + h, 1.0) - e0(1 - h, 1.0)) / (2 * h),
                               abs=1e-6)


def test_degenerate_doublet_resolves_to_even_parity():
    # at N = 8, y = 3 the two block minima agree to about 1e-14, below the
    # rounding of either eigensolve; the tie goes to even parity
    p = DickeParams(y=3.0, n_atoms=8, fock_cutoff=60)
    assert ground_state(p).parity == 1.0
    row = spectrum_scan(p, [3.0])[0]
    assert row.parity == 1.0
    assert 0.0 <= row.gap < 1e-12


def test_gap_at_critical_coupling_closes_like_n_to_minus_one_third():
    # Vidal & Dusuel, EPL 74, 817 (2006): the gap at y_c scales as N^(-1/3)
    gaps = [spectrum_scan(DickeParams(y=1.0, n_atoms=n, fock_cutoff=30),
                          [1.0])[0].gap for n in (32, 64)]
    slope = math.log(gaps[1] / gaps[0]) / math.log(2.0)
    assert -0.36 <= slope <= -0.28


def test_energy_per_atom_approaches_mean_field_like_one_over_n():
    diffs = []
    for n, cutoff in ((4, 40), (8, 60), (16, 80), (32, 120)):
        p = DickeParams(y=2.0, n_atoms=n, fock_cutoff=cutoff)
        e0 = spectrum_scan(p, [2.0])[0].energy
        diffs.append(e0 / n - mean_field(p).energy_per_atom)
    assert all(d < 0 for d in diffs)
    ratios = [a / b for a, b in zip(diffs, diffs[1:])]
    assert all(1.8 <= r <= 2.4 for r in ratios)


def test_params_validation():
    with pytest.raises(DomainError):
        DickeParams(omega_a=-1.0)
    with pytest.raises(DomainError):
        DickeParams(y=-0.1)
    with pytest.raises(DomainError):
        DickeParams(fock_cutoff=0)


@pytest.mark.parametrize("field", ["omega_a", "omega_c", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_params_reject_non_finite(field, bad):
    with pytest.raises(DomainError):
        DickeParams(**{field: bad})


@pytest.mark.parametrize("sizes", [
    {"n_atoms": 2.5}, {"fock_cutoff": 4.5}, {"n_atoms": 8.0},
    {"fock_cutoff": "4"}, {"n_atoms": None}])
def test_params_reject_non_integral_sizes(sizes):
    # a size that is not an integer has no basis: refused on construction,
    # not an IndexError inside the solve
    with pytest.raises(DomainError, match="integers"):
        DickeParams(y=1.0, **{"n_atoms": 2, "fock_cutoff": 4, **sizes})


def test_params_take_numpy_integer_sizes():
    p = DickeParams(y=1.0, n_atoms=np.int64(2), fock_cutoff=np.int32(4))
    _memo._entries.clear()
    got = ground_state(p)
    _memo._entries.clear()
    assert repr(got) == repr(ground_state(
        DickeParams(y=1.0, n_atoms=2, fock_cutoff=4)))


# ---------------------------------------------------------------------------
# mean field
# ---------------------------------------------------------------------------

def test_mean_field_normal_branch():
    res = mean_field(DickeParams(y=1.0))
    assert res.y_c == 1.0
    assert res.order_parameter_sq_per_atom == 0.0
    assert res.energy_per_atom == -0.5


def test_mean_field_superradiant_branch_oracle():
    # independent oracle: dense grid scan of the classical energy surface
    p = DickeParams(y=2.0)
    amps = np.linspace(-2.0, 2.0, 1601)
    thetas = np.linspace(-math.pi, math.pi, 1601)
    grid_a, grid_t = np.meshgrid(amps, thetas, indexing="ij")
    energy = (grid_a ** 2 - 0.5 * np.cos(grid_t)
              + 2.0 * grid_a * np.sin(grid_t))
    i, j = np.unravel_index(np.argmin(energy), energy.shape)
    res = mean_field(p)
    assert res.order_parameter_sq_per_atom == pytest.approx(
        amps[i] ** 2, abs=5e-3)
    assert res.order_parameter_sq_per_atom == pytest.approx(15.0 / 16.0,
                                                            abs=1e-8)
    assert res.energy_per_atom == pytest.approx(-17.0 / 16.0, abs=1e-10)


def _classical_energy_per_atom(a_amp: float, theta: float,
                               p: DickeParams) -> float:
    # trial product state: boson coherent amplitude alpha = a_amp * sqrt(N),
    # spin coherent state at polar angle theta (theta = 0 the ground spin)
    return (p.omega_c * a_amp * a_amp
            - 0.5 * p.omega_a * math.cos(theta)
            + p.y * a_amp * math.sin(theta))


def test_mean_field_parity_degenerate_minima():
    # the classical surface is invariant under flipping both the boson
    # amplitude and the spin azimuth
    p = DickeParams(y=1.8)
    a_star = math.sqrt(mean_field(p).order_parameter_sq_per_atom)
    theta_star = math.acos((1.0 / 1.8) ** 2)
    e1 = _classical_energy_per_atom(-a_star, theta_star, p)
    e2 = _classical_energy_per_atom(a_star, -theta_star, p)
    assert e1 == pytest.approx(e2, rel=1e-14)


def test_mean_field_closed_form_exact():
    res = mean_field(DickeParams(y=2.0))
    assert res.order_parameter_sq_per_atom == 0.9375
    assert res.energy_per_atom == -1.0625


def test_mean_field_overflow_is_domain_error(capsys):
    with pytest.raises(DomainError):
        mean_field(DickeParams(y=1e200))
    assert dispatch(["dicke", "meanfield", "--y", "1e200"]) == 2


def _exact_mean_field(omega_a: float, omega_c: float, y: float):
    """The order parameter and the energy per atom above y_c, in exact
    rational arithmetic: (y^2 - y_c^4/y^2) / (4 omega_c^2) and
    -(omega_a/4) (y^2/y_c^2 + y_c^2/y^2), y_c^2 = omega_a omega_c."""
    a, c, y2 = Fraction(omega_a), Fraction(omega_c), Fraction(y) ** 2
    return ((y2 - (a * c) ** 2 / y2) / (4 * c * c),
            -a / 4 * (y2 / (a * c) + a * c / y2))


@pytest.mark.parametrize("omega_a, omega_c, y", [
    (1e-170, 1e-170, 1e-160),  # y_c^2 and y^2 underflow
    (1e-320, 1.0, 1.0),        # y^2 / y_c^2 overflows, omega_a times it not
    (1e10, 1e-160, 1e-60),     # omega_c^2 underflows
    (1e-300, 1e300, 1e5),      # the order parameter underflows in full
    (5e-324, 1.0, 1e-100),
    (1.0, 1.0, 1e154),         # order parameter and energy near the top
])
def test_mean_field_finite_wherever_the_exact_result_is(omega_a, omega_c, y):
    res = mean_field(DickeParams(omega_a, omega_c, y))
    order, energy = _exact_mean_field(omega_a, omega_c, y)
    assert math.sqrt(omega_a) * math.sqrt(omega_c) < y
    assert res.y_c == pytest.approx(math.sqrt(omega_a) * math.sqrt(omega_c),
                                    rel=4e-16)
    assert res.order_parameter_sq_per_atom == pytest.approx(float(order),
                                                            rel=1e-15)
    assert res.energy_per_atom == pytest.approx(float(energy), rel=1e-15)


@pytest.mark.parametrize("omega_a, omega_c, y", [
    (1.0, 1e-320, 1.0), (1e-200, 1e-200, 1e200), (5e-324, 5e-324, 1.0),
    (1e-300, 1e-300, 1e10)])
def test_mean_field_refuses_only_an_overflowing_result(omega_a, omega_c, y):
    order, energy = _exact_mean_field(omega_a, omega_c, y)
    assert max(order, -energy) > 2 ** 1024
    with pytest.raises(DomainError, match="overflows"):
        mean_field(DickeParams(omega_a, omega_c, y))


def test_mean_field_against_exact_arithmetic_sweep():
    # frequencies and couplings over the whole float range, against exact
    # rationals: finite within a few roundings, or refused where the exact
    # result overflows
    rng = np.random.default_rng(34)
    finite = refused = 0
    for _ in range(400):
        omega_a, omega_c = 10.0 ** rng.uniform(-320, 300, 2)
        y = float(math.sqrt(omega_a) * math.sqrt(omega_c)
                  * 10.0 ** rng.uniform(0.001, 300))
        if not 0.0 < y < math.inf:
            continue
        order, energy = _exact_mean_field(omega_a, omega_c, y)
        if max(order, -energy) > 2 ** 1025:
            with pytest.raises(DomainError):
                mean_field(DickeParams(omega_a, omega_c, y))
            refused += 1
        elif max(order, -energy) < 2 ** 1023:
            res = mean_field(DickeParams(omega_a, omega_c, y))
            for got, want in ((res.order_parameter_sq_per_atom, order),
                              (res.energy_per_atom, energy)):
                assert got == pytest.approx(float(want), rel=1e-15,
                                            abs=1e-323)
            finite += 1
    assert finite > 100 and refused > 100


def test_mean_field_in_range_has_the_bits_of_the_plain_formulas():
    # where no intermediate leaves the normal range, the significand-and-
    # exponent form rounds exactly as the formulas of the docstring do
    rng = np.random.default_rng(35)
    for _ in range(2000):
        omega_a, omega_c = (float(x) for x in np.exp(rng.uniform(-30, 30, 2)))
        y = math.sqrt(omega_a * omega_c) * float(np.exp(rng.uniform(-2, 8)))
        res = mean_field(DickeParams(omega_a, omega_c, y))
        y_c = math.sqrt(omega_a * omega_c)
        if y <= y_c:
            want = (y_c, 0.0, -0.5 * omega_a)
        else:
            y2 = y * y
            cos_theta = omega_a * omega_c / y2
            want = (y_c,
                    y2 * (1.0 - cos_theta * cos_theta)
                    / (4.0 * (omega_c * omega_c)),
                    -0.25 * omega_a * (y2 / (omega_a * omega_c) + cos_theta))
        assert (res.y_c, res.order_parameter_sq_per_atom,
                res.energy_per_atom) == want


def test_cli_mean_field_at_extreme_frequencies(capsys):
    assert dispatch(["dicke", "meanfield", "--omega-a", "5e-324",
                     "--omega-c", "5e-324", "--y", "1"]) == 2
    assert "overflows" in capsys.readouterr().err
    assert dispatch(["dicke", "meanfield", "--omega-a", "1e-170",
                     "--omega-c", "1e-170", "--y", "1e-160", "--format",
                     "csv"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert [float(x) for x in row] == [1e-160, 1e-170, 2.5e19, -2.5e-151]


@pytest.mark.parametrize("p, element", [
    (DickeParams(omega_c=1.7e308), "diagonal"),
    (DickeParams(omega_a=1.7e308), "diagonal"),
    (DickeParams(omega_c=1e307, fock_cutoff=60), "diagonal"),
    # finite elements, but twice |H|, which bounds the gap, overflows
    (DickeParams(omega_c=1.7e306, fock_cutoff=60), "diagonal"),
    (DickeParams(y=1e308), "coupling"),
    (DickeParams(omega_c=1.7e308, n_atoms=2, fock_cutoff=4), "diagonal"),
])
def test_solver_refuses_overflowing_elements(p, element, monkeypatch):
    # refused before anything is built, naming the element that overflows,
    # by the solver and by the dense build_hamiltonian alike; RuntimeWarnings
    # are errors in this suite
    def never(*args, **kwargs):
        raise AssertionError("the solve started")
    monkeypatch.setattr(dicke, "_parity_bands", never)
    for call in (lambda: ground_state(p),
                 lambda: spectrum_scan(replace(p, y=0.0), [p.y]),
                 lambda: build_hamiltonian(p)):
        with pytest.raises(DomainError, match=f"the {element} elements"):
            call()
    if element == "diagonal":
        # the mean field does not need the matrix elements
        assert math.isfinite(mean_field(p).energy_per_atom)


def test_cli_refuses_an_overflowing_coupling(capsys):
    assert dispatch(["dicke", "ground", "--y", "1e308"]) == 2
    err = capsys.readouterr().err
    assert "coupling elements" in err and "Lanczos" not in err


def test_cli_names_the_overflowing_factors(capsys):
    # omega_a N/2 + omega_c cutoff is inf here: the message gives its
    # factors, and no inf or nan
    assert dispatch(["dicke", "ground", "--omega-a", "1e308", "--omega-c",
                     "1e308", "--y", "1"]) == 2
    err = capsys.readouterr().err.lower()
    assert "omega_a = 1e+308" in err and "cutoff = 60" in err
    assert "inf" not in err and "nan" not in err


@pytest.mark.parametrize("p", [
    DickeParams(omega_c=1e306), DickeParams(y=3e306),
    DickeParams(omega_a=1e307, y=1e306)])
def test_solver_inside_its_range_stays_finite(p):
    # within a factor of two of the guard: |H| and every gap stay finite
    g = ground_state(p)
    row = spectrum_scan(p, [p.y])[0]
    assert all(math.isfinite(x) for x in (g.energy, g.photon_number,
                                          g.sz_expect, row.gap))
    assert row.gap >= 0.0


def test_import_leaves_out_scipy_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dicke.__file__)))
    code = "import sys, fpcavity; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "False"


def test_mean_field_asymmetric_frequencies():
    res = mean_field(DickeParams(omega_a=2.0, omega_c=0.5, y=0.9))
    assert res.y_c == pytest.approx(1.0)
    assert res.order_parameter_sq_per_atom == 0.0
    above = mean_field(DickeParams(omega_a=2.0, omega_c=0.5, y=1.2))
    assert above.order_parameter_sq_per_atom > 0.0
    assert above.energy_per_atom < -1.0  # below the normal branch


def test_variational_bound():
    for y in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        p = DickeParams(y=y, n_atoms=8, fock_cutoff=60)
        assert ground_state(p).energy <= 8 * mean_field(p).energy_per_atom + 1e-12


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_scan_single_row():
    rows = spectrum_scan(DickeParams(n_atoms=4, fock_cutoff=20), [0.0])
    assert len(rows) == 1
    assert rows[0].photon_number == pytest.approx(0.0, abs=1e-14)


def test_scan_monotone_photon_number():
    p = DickeParams(n_atoms=8, fock_cutoff=60)
    rows = spectrum_scan(p, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    photons = [r.photon_number for r in rows]
    assert all(b >= a for a, b in zip(photons, photons[1:]))


def test_gap_softening():
    p = DickeParams(n_atoms=8, fock_cutoff=60)
    rows = spectrum_scan(p, [0.2, 2.0])
    assert rows[1].gap < rows[0].gap


def test_scan_validation():
    p = DickeParams(n_atoms=2, fock_cutoff=5)
    with pytest.raises(DomainError):
        spectrum_scan(p, [])
    with pytest.raises(DomainError):
        spectrum_scan(p, [-0.5])
