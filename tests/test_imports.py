"""Which modules each part of the package imports.

The two routes of EQ21 share no code: the lattice route (lattice, and
coulomb built on it) imports neither the Bessel functions and quadrature
(specfun) nor the displacement-field kernels built on them (radiation),
and the other way round.  The import graph is read from the sources.

scipy.linalg (the Dicke solver's BLAS and LAPACK) costs about 0.3 s to
import and only the Dicke solver needs it, so it is not imported with
fpcavity; scipy.special, as costly, is needed by no part of the library:
the Bessel functions are the package's own.  Every check of what an entry
point loads runs in a fresh interpreter, since the test process has
loaded both.
"""

import ast
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
    ("fp.kernel_d_spectral(fp.Separation(0.5, 1.0))\n"
     "fp.bessel_j(2, 30.0)", []),
    ("fp.run_suite('all')", []),
    ("fp.ground_state(fp.DickeParams(y=0.5, n_atoms=2, fock_cutoff=4))",
     ["scipy.linalg"]),
    # the Dicke mean field is a closed form
    ("fp.mean_field(fp.DickeParams(y=2.0))", []),
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


PACKAGE = os.path.join(SRC, "fpcavity")
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE)
                 if name.endswith(".py"))
LATTICE_ROUTE = {"lattice", "coulomb"}
INTEGRAL_ROUTE = {"specfun", "radiation"}


def _package_imports(module: str) -> set[str]:
    """The package modules that module imports anywhere in its source, at
    module level or inside a function; a name taken from the package
    itself counts as importing __init__."""
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".")[1:] for alias in node.names
                       if alias.name.split(".")[0] == "fpcavity"]
            found.update(t[0] if t else "__init__" for t in targets)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "fpcavity":
                    continue
                parts = parts[1:]
            else:
                assert node.level == 1, (module, node.lineno)
                parts = node.module.split(".") if node.module else []
            if parts:
                found.add(parts[0])
            else:  # from . import name: a module, or a name of __init__
                found.update(alias.name if alias.name in MODULES
                             else "__init__" for alias in node.names)
    return found


def _reach() -> dict[str, set[str]]:
    """Each module with every package module it imports, directly or
    through others, itself included."""
    direct = {m: _package_imports(m) for m in MODULES}
    reach = {}
    for module in MODULES:
        seen, todo = {module}, [module]
        while todo:
            for m in direct[todo.pop()] - seen:
                seen.add(m)
                todo.append(m)
        reach[module] = seen
    return reach


def test_the_two_routes_share_no_import():
    reach = _reach()
    assert LATTICE_ROUTE | INTEGRAL_ROUTE | {"modesum"} <= set(MODULES)
    for module in LATTICE_ROUTE:
        assert not reach[module] & INTEGRAL_ROUTE, module
    for module in INTEGRAL_ROUTE:
        assert not reach[module] & LATTICE_ROUTE, module
    assert not reach["modesum"] & (LATTICE_ROUTE | INTEGRAL_ROUTE)
    both = {m for m in MODULES
            if reach[m] & LATTICE_ROUTE and reach[m] & INTEGRAL_ROUTE}
    assert both == {"verify", "cli", "__main__", "__init__"}
