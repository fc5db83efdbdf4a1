"""Which scipy subpackages each entry point loads.

scipy.linalg (the Dicke solver's BLAS and LAPACK) costs about 0.3 s to
import and only the Dicke solver needs it, so it is not imported with
fpcavity; scipy.special, as costly, is needed by no part of the library:
the Bessel functions are the package's own.  Every check runs in a fresh
interpreter, since the test process has loaded both.
"""

import os
import subprocess
import sys

import pytest

import fpcavity

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fpcavity.__file__)))


def _run(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC)).stdout


def _loaded_after(calls: str) -> list[str]:
    """The subpackages among scipy.special and scipy.linalg in sys.modules
    after importing fpcavity as fp and running calls."""
    code = (f"import math, sys\nimport fpcavity as fp\n{calls}\n"
            "print(*[m for m in ('scipy.special', 'scipy.linalg') "
            "if m in sys.modules])")
    return _run(code).split()


@pytest.mark.parametrize("calls, loaded", [
    ("", []),
    ("import fpcavity.cli", []),
    ("fp.xi(0.5, 1.0)\n"
     "fp.kernel_e('plus', fp.Separation(0.5, 1.0))\n"
     "fp.direct_mode_sum(fp.ModeSumArgs(0.5, 1.0, 0), 8)\n"
     "fp.anisotropy_delta(fp.CavityFrame(1.0), math.pi)", []),
    ("fp.kernel_d('plus', fp.Separation(0.5, 1.0))", []),
    ("fp.kernel_d_spectral(fp.Separation(0.5, 1.0), 0.1)\n"
     "fp.bessel_j(2, 30.0)", []),
    ("fp.run_suite('all')", []),
    ("fp.ground_state(fp.DickeParams(y=0.5, n_atoms=2, fock_cutoff=4))",
     ["scipy.linalg"]),
])
def test_each_entry_point_loads_only_what_it_uses(calls, loaded):
    assert _loaded_after(calls) == loaded


def test_routine_patched_on_lapack_before_the_first_solve_is_called():
    # the solver reaches its routines through scipy.linalg.lapack on every
    # call, so a routine patched there before the first solve is the one
    # called
    code = """
import scipy.linalg.lapack as lapack
import fpcavity as fp
dpbtrf = lapack.dpbtrf
calls = []
def recording(*args, **kwargs):
    calls.append(1)
    return dpbtrf(*args, **kwargs)
lapack.dpbtrf = recording
fp.ground_state(fp.DickeParams(y=0.5, n_atoms=2, fock_cutoff=4))
print(len(calls) > 0)
"""
    assert _run(code).split() == ["True"]
