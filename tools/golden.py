"""Write tests/golden/, the committed outputs of the fpcavity command line.

    PYTHONPATH=src python tools/golden.py

Each output is the bytes that `fpcavity <argv>` writes to stdout, made
through fpcavity.cli.dispatch in this process: the verification suite as
JSON at seed 42 and each single suite as CSV at seed 7, `xi` as a bare
value, JSON and CSV, the `kernel` outputs that CI prints and both families'
JSON, `dicke scan`, with its default arguments, as CI's CSV and at N = 7
and N = 1, and `dicke ground` and `dicke meanfield` in both formats: every
command in every format.  MANIFEST.json holds the
argv of every file and the fingerprint of the environment that wrote
them: the numpy and scipy versions, platform.machine() and numpy's enabled
CPU features.  OpenBLAS picks its ddot and dgemm kernels by CPU, and the
lattice moments, the Gauss-Kronrod sums and the Dicke solver all go
through them, so the last bits of a float are only reproducible where the
fingerprint is the same.

tests/test_golden.py regenerates every output with this module and
compares it with the committed file.  A change that moves an output
rewrites the files with this script and names the rows that moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform

import numpy as np
import scipy

from fpcavity import cli
from fpcavity.verify import SUITE_NAMES

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "golden")
MANIFEST = "MANIFEST.json"

# file name -> argv; every one exits 0
CASES = {"verify_all_seed42.json":
         ("verify", "all", "--seed", "42", "--format", "json")}
CASES.update({f"verify_{suite}_seed7.csv":
              ("verify", suite, "--seed", "7", "--format", "csv")
              for suite in SUITE_NAMES if suite != "all"})
CASES["xi_u1_v0.txt"] = ("xi", "--u", "1", "--v", "0")
CASES.update({f"xi_u1_v0.{fmt}": ("xi", "--u", "1", "--v", "0", "--format", fmt)
              for fmt in ("json", "csv")})
_KERNELS = (("E", "plus", "0.5", "1"), ("D", "plus", "0.5", "1"),
            ("D", "plus", "1e-3", "1e-300"), ("D", "plus", "0.5", "1e4"),
            ("D", "plus", "0.02", "30"), ("D", "plus", "0.3", "0"),
            ("D", "minus", "0.3", "0"), ("E", "plus", "0.3", "0"),
            ("E", "minus", "0.3", "0"), ("E", "plus", "0.5", "1e200"),
            ("D", "plus", "0.5", "1e200"))
CASES.update({f"kernel_{family}_{sign}_u{u}_v{v}.csv":
              ("kernel", "--family", family, "--sign", sign, "--u", u,
               "--v", v, "--format", "csv")
              for family, sign, u, v in _KERNELS})
CASES.update({f"kernel_{family}_plus_u0.5_v1.json":
              ("kernel", "--family", family, "--u", "0.5", "--v", "1",
               "--format", "json") for family in ("E", "D")})
CASES["dicke_scan.json"] = ("dicke", "scan")
CASES["dicke_scan_ci.csv"] = ("dicke", "scan", "--y-min", "0", "--y-max",
                              "3", "--steps", "13", "--format", "csv")
# odd N, where each photon row splits between the blocks, and N = 1, where
# the blocks are tridiagonal
CASES["dicke_scan_n7_cutoff40.json"] = ("dicke", "scan", "--n-atoms", "7",
                                        "--cutoff", "40")
CASES["dicke_scan_n1_cutoff30.json"] = ("dicke", "scan", "--n-atoms", "1",
                                        "--cutoff", "30")
CASES.update({f"dicke_{target}_y2.{fmt}":
              ("dicke", target, "--y", "2", "--format", fmt)
              for target in ("ground", "meanfield") for fmt in ("json", "csv")})


def _umath():
    """numpy's compiled core, which lists the CPU features it uses."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath


def fingerprint() -> dict:
    """What decides the last bits of the outputs besides the code."""
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "cpu_features": " ".join(sorted(
                k for k, on in _umath().__cpu_features__.items() if on))}


def dispatched_targets() -> list:
    """The CPU targets beyond its baseline that numpy dispatches to here,
    each of which NPY_DISABLE_CPU_FEATURES can switch off."""
    umath = _umath()
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]


def render(argv) -> bytes:
    """The bytes `fpcavity argv` writes to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.dispatch(list(argv))
    if status != 0:
        raise RuntimeError(f"fpcavity {' '.join(argv)} exited {status}")
    return out.getvalue().encode()


def main() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in CASES.items():
        with open(os.path.join(GOLDEN, name), "wb") as fh:
            fh.write(render(argv))
    manifest = {"fingerprint": fingerprint(),
                "outputs": {name: list(argv) for name, argv in CASES.items()}}
    with open(os.path.join(GOLDEN, MANIFEST), "w") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()
