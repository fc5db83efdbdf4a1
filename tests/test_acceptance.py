"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The identity criteria
read the shared aggregate verification run (fixed seed 42, acceptance
grids); the model criteria and the mutation checks compute their own.
"""

import math

import numpy as np
import pytest

from fpcavity import (CavityFrame, DickeParams, DipoleSpec, KernelMatrix,
                      Separation, brute_force_coulomb, build_hamiltonian,
                      dipole_dipole_energy, direct_mode_sum, ground_state,
                      kernel_d, kernel_e, mean_field, spectrum_scan,
                      ModeSumArgs)
from fpcavity.verify import check_kernel_cancellation, random_separations
from tests_helpers import free_space_term, parity_diagonal


def _criterion(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _by_id(summary, check_id):
    return [r for r in summary.reports if r.check_id == check_id]


def test_criterion_01_vector_identity(full_summary):
    reports = _by_id(full_summary, "EQ22")
    ok = len(reports) == 50 and all(r.passed for r in reports)
    worst = max(r.rel_err for r in reports)
    _criterion(1, ok and worst < 1e-8,
               f"cosh-ratio J1 integral vs v*xi on 10x5 grid, "
               f"worst rel {worst:.2e} < 1e-8")


def test_criterion_02_derivative_identities(full_summary):
    reports = (_by_id(full_summary, "EQ29_PLUS")
               + _by_id(full_summary, "EQ29_MINUS")
               + _by_id(full_summary, "EQ30"))
    ok = len(reports) == 150 and all(r.passed for r in reports)
    # points passing on the absolute branch are exact-zero symmetry points
    binding = [r.rel_err for r in reports if r.abs_err > 1e-8]
    worst = max(binding, default=0.0)
    _criterion(2, ok and worst < 1e-6,
               f"J0+-J2 and sinh-ratio derivative identities on the grid, "
               f"worst rel {worst:.2e} < 1e-6")


def test_criterion_03_kernel_cancellation(full_summary):
    reports = _by_id(full_summary, "EQ21")
    ok = len(reports) == 20 and all(r.passed for r in reports)
    worst = max(r.rel_err for r in reports)
    _criterion(3, ok and worst < 1e-7,
               f"E+ vs -(1/2pi) D+ at 20 seeded separations, "
               f"worst normalized residual {worst:.2e} < 1e-7")


def test_criterion_04_self_energy_cancellation(full_summary):
    reports = _by_id(full_summary, "SELF_CANCEL")
    ok = len(reports) == 9 and all(r.passed for r in reports)
    worst = max(r.rel_err for r in reports)
    _criterion(4, ok and worst < 1e-8,
               f"position-dependent self-energy cancellation over nine "
               f"positions, worst rel {worst:.2e} < 1e-8")


def test_criterion_05_mode_sum(full_summary):
    reports = _by_id(full_summary, "EQ27")
    ok = len(reports) == 18 and all(r.passed for r in reports)
    # odd symmetric sums at alpha = 0 must vanish identically
    for beta in (0.3, 1.0, 3.0):
        ok = ok and direct_mode_sum(ModeSumArgs(0.0, beta, 1), 1000) == 0j
    worst = max(r.rel_err for r in reports if r.abs_err > 1e-10)
    _criterion(5, ok, f"closed form vs direct sum (n_max 1e6) on the "
                      f"alpha/beta/m grid, worst rel {worst:.2e} < 1e-5; "
                      f"odd alpha=0 sums exactly zero")


def test_criterion_06_laplace_bessel(full_summary):
    reports = _by_id(full_summary, "EQ33") + _by_id(full_summary, "EQ34")
    ok = len(reports) == 12 and all(r.passed for r in reports)
    worst = max(r.abs_err for r in reports)
    _criterion(6, ok and worst < 1e-9,
               f"Laplace-Bessel closed forms on {{1,2}}x{{0,1,3}}, "
               f"worst abs {worst:.2e} < 1e-9")


def test_criterion_07_green_identity(full_summary):
    reports = _by_id(full_summary, "EQ36")
    ok = len(reports) == 3 and all(r.passed for r in reports)
    worst = max(r.abs_err for r in reports)
    _criterion(7, ok and worst < 1e-6,
               f"two-plane Green identity on three triples, "
               f"worst abs {worst:.2e} < 1e-6")


def test_criterion_08_axial_invariance(full_summary):
    reports = _by_id(full_summary, "AXIAL20")
    ok = len(reports) == 4 and all(r.passed for r in reports)
    worst = max(r.abs_err for r in reports)
    _criterion(8, ok and worst < 1e-12,
               f"off-diagonal D entries on the axis, worst {worst:.2e} "
               f"< 1e-12")


def test_criterion_09_coulomb_oracle():
    rng = np.random.default_rng(9091)
    frame = CavityFrame(1.0)
    worst = 0.0
    for n_dipoles in (2, 3, 2):
        dipoles = []
        for _ in range(n_dipoles):
            pos = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                   rng.uniform(0.15, 0.85))
            mom = tuple(rng.uniform(-1.0, 1.0, size=3))
            dipoles.append(DipoleSpec(pos, mom))
        kernel_route = dipole_dipole_energy(dipoles, frame)
        oracle = brute_force_coulomb(dipoles, frame, n_images=10 ** 4)
        worst = max(worst, abs(kernel_route - oracle) / abs(oracle))
    _criterion(9, worst < 1e-6,
               f"kernel energy vs image-lattice oracle (1e4 images) on three "
               f"seeded configurations, worst rel {worst:.2e} < 1e-6")


def test_criterion_10_anisotropy(full_summary):
    reports = _by_id(full_summary, "ANISO38")
    continuum = [r for r in reports
                 if r.params.get("form") == "continuum_angular_integral"][0]
    decay = [r for r in reports if r.params.get("form") == "decay"][0]
    norm = decay.params["normalized"]
    monotone = all(b < a for a, b in zip(norm, norm[1:]))
    small = norm[-1] < 1e-2 * norm[0]
    ok = continuum.abs_err < 1e-12 and monotone and small and decay.passed
    _criterion(10, ok,
               f"normalized anisotropy strictly decreasing over L=1..8 "
               f"(final/first {norm[-1] / norm[0]:.2e} < 1e-2), continuum "
               f"integral {continuum.abs_err:.1e} < 1e-12; fitted slope "
               f"{decay.params['loglog_slope']:.2f}")


def test_criterion_11_dicke_criticality():
    p_low = DickeParams(omega_a=1.0, omega_c=1.0, y=0.5, n_atoms=8,
                        fock_cutoff=60)
    p_high = DickeParams(omega_a=1.0, omega_c=1.0, y=2.0, n_atoms=8,
                         fock_cutoff=60)
    gs_low = ground_state(p_low)
    gs_high = ground_state(p_high)
    below_ok = gs_low.photon_number / 8 < 0.05
    mf = mean_field(p_high)
    band_ok = 0.70 <= gs_high.photon_number / 8 <= 1.00
    mf_ok = abs(mf.order_parameter_sq_per_atom - 15.0 / 16.0) < 1e-6

    y_grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    rows = spectrum_scan(p_high, y_grid)
    bound_ok = all(
        row.energy <= 8 * mean_field(
            DickeParams(1.0, 1.0, row.y, 8, 60)).energy_per_atom + 1e-12
        for row in rows)
    photons = [r.photon_number for r in rows]
    monotone_ok = all(b >= a for a, b in zip(photons, photons[1:]))

    h = build_hamiltonian(p_high)
    pi_diag = parity_diagonal(p_high)
    comm = np.abs(h * pi_diag[None, :] - pi_diag[:, None] * h).max()
    parity_ok = comm == 0.0

    ok = below_ok and band_ok and mf_ok and bound_ok and monotone_ok \
        and parity_ok
    _criterion(11, ok,
               f"criticality at y_c=1: photon/N {gs_low.photon_number / 8:.4f}"
               f" < 0.05 at y=0.5, {gs_high.photon_number / 8:.4f} in "
               f"[0.70, 1.00] at y=2 (mean field 15/16), variational bound "
               f"and monotone photons on the grid, parity commutator "
               f"{comm:.1f} exactly 0")


def test_criterion_12_mutation_sensitivity():
    seps = [s for s in random_separations(8, seed=1205) if s.v > 0.3][:3]
    assert len(seps) >= 2
    z_grid = [0.3, 0.6]

    def flipped_d(sign, sep, tol):
        k = kernel_d(sign, sep, tol)
        return KernelMatrix(-k.m, k.kind)

    def gutted_e(sign, sep):
        k = kernel_e(sign, sep)
        return KernelMatrix(k.m - free_space_term(sep, sign), k.kind)

    def no_j2_d(sign, sep, tol):
        base = kernel_d(sign, Separation(sep.u, sep.v, 0.0), tol).m
        mean = 0.5 * (base[0, 0] + base[1, 1])
        mutated = base.copy()
        mutated[0, 0] = mean
        mutated[1, 1] = mean
        c, s = math.cos(sep.phi), math.sin(sep.phi)
        rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return KernelMatrix(rz @ mutated @ rz.T, "D_PLUS")

    failures = []
    for name, kwargs in [
        ("sign flip", {"kernel_d_fn": flipped_d}),
        ("dropped direct image term", {"kernel_e_fn": gutted_e}),
        ("dropped J2 term", {"kernel_d_fn": no_j2_d}),
    ]:
        reports = check_kernel_cancellation(seps, z_grid, **kwargs)
        n_failed = sum(not r.passed for r in reports)
        failures.append((name, n_failed))
    ok = all(n > 0 for _, n in failures)
    detail = ", ".join(f"{name}: {n} checks fail" for name, n in failures)
    _criterion(12, ok, f"corrupted kernels are detected ({detail})")
