"""Interaction kernels of a perfect planar mirror cavity.

Image-dipole Coulomb kernels, displacement-field quadratic kernels, the
special functions underneath them, a verification suite that confirms the
exact cancellation of instantaneous interactions, and a collective
spin-boson (Dicke) criticality toolbox.
"""

from .errors import ConvergenceError, DomainError
from .specfun import Tolerance, bessel_j, integrate_semi_infinite
from .lattice import xi, apery_zeta3
from .modesum import ModeSumArgs, hyperbolic_mode_sum, direct_mode_sum
from .geometry import (CavityFrame, WaveVector, DipoleSpec, mode_fn,
                       dispersion, reflection_matrix, image_positions,
                       Separation, KernelMatrix)
from .coulomb import (kernel_e, self_energy_matrix, dipole_dipole_energy,
                      brute_force_coulomb)
from .radiation import (AnisotropyResult, kernel_d, kernel_d_spectral,
                        quadratic_self_term, anisotropy_delta)
from .dicke import (DickeParams, GroundStateResult, MeanFieldResult, ScanRow,
                    build_hamiltonian, ground_state, mean_field,
                    spectrum_scan)
from .verify import (IdentityReport, VerificationSummary,
                     check_bessel_hyperbolic, check_kernel_cancellation,
                     check_mode_sum, check_lipschitz, check_green,
                     check_axial_and_aniso, run_suite)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DomainError",
    "Tolerance", "ModeSumArgs", "bessel_j", "xi", "apery_zeta3",
    "integrate_semi_infinite", "hyperbolic_mode_sum", "direct_mode_sum",
    "CavityFrame", "WaveVector", "DipoleSpec", "mode_fn", "dispersion",
    "reflection_matrix", "image_positions",
    "Separation", "KernelMatrix", "kernel_e", "self_energy_matrix",
    "dipole_dipole_energy", "brute_force_coulomb",
    "AnisotropyResult", "kernel_d", "kernel_d_spectral",
    "quadratic_self_term", "anisotropy_delta",
    "DickeParams", "GroundStateResult", "MeanFieldResult", "ScanRow",
    "build_hamiltonian", "ground_state", "mean_field", "spectrum_scan",
    "IdentityReport", "VerificationSummary",
    "check_bessel_hyperbolic", "check_kernel_cancellation",
    "check_mode_sum", "check_lipschitz", "check_green",
    "check_axial_and_aniso", "run_suite",
]
