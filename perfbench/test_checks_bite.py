"""The benchmark's correctness checks catch corrupted outputs.

    python3 -m pytest perfbench/test_checks_bite.py

Each test computes genuine outputs of one op of a workload, shows that the
checks accept them, then corrupts them slightly and shows that the checks
reject the result.
"""

import copy
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fpcavity as fp  # noqa: E402
import fpcavity.verify  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _run(spec):
    return workloads.build_op(fp, workloads.api_table(fp), spec)()


def _problems(workload, spec, out):
    return checks.check_run(workload, [spec], [out], SEED)


@pytest.fixture(scope="module")
def bessel():
    spec = {"kind": "bessel", "u": 0.7, "v": 1.0}
    return spec, _run(spec)


@pytest.fixture(scope="module")
def eq21():
    spec = {"kind": "eq21", "u": 0.6, "v": 1.3, "phi": 0.4}
    return spec, _run(spec)


@pytest.fixture(scope="module")
def kernels():
    spec = dict(workloads.make_specs("kernels", SEED)[0])
    # every op of a one-op run is in the seeded reference subset
    assert 0 in checks.kernel_reference_indices(1, SEED)
    return spec, _run(spec)


@pytest.fixture(scope="module")
def dicke():
    specs = {}
    for y in (0.0, 1.7):
        spec = {"kind": "dicke", "y": y, "n_atoms": 8, "cutoff": 60}
        specs[y] = (spec, _run(spec))
    return specs


def test_genuine_outputs_pass(bessel, eq21, kernels, dicke):
    assert _problems("verify", *bessel) == []
    assert _problems("verify", *eq21) == []
    assert _problems("kernels", *kernels) == []
    for spec, out in dicke.values():
        assert _problems("dicke", spec, out) == []


def test_verify_catches_shifted_xi(bessel, monkeypatch):
    spec, _ = bessel
    xi = fpcavity.verify.xi
    monkeypatch.setattr(fpcavity.verify, "xi",
                        lambda u, v, tol=None: xi(u, v, tol) + 1e-9)
    problems = _problems("verify", spec, _run(spec))
    assert any("EQ22: lattice side" in p for p in problems), problems


def test_verify_catches_scaled_e_plus(eq21):
    spec, out = eq21
    bad = copy.deepcopy(out)
    bad[0]["lhs"] = (np.asarray(bad[0]["lhs"]) * (1 + 1e-6)).tolist()
    problems = _problems("verify", spec, bad)
    assert any("recomputed" in p for p in problems), problems
    # the same scaling with abs_err made consistent still trips the
    # comparison with the mpmath E+
    bad[0]["abs_err"] = checks._errors("EQ21", bad[0]["lhs"], bad[0]["rhs"])[0]
    problems = _problems("verify", spec, bad)
    assert any("EQ21: lattice side" in p for p in problems), problems


def test_verify_catches_loosened_threshold(bessel):
    spec, out = bessel
    bad = copy.deepcopy(out)
    bad[2]["tol_used"] = [1e-6, 1e-4]
    problems = _problems("verify", spec, bad)
    assert any("not the pinned" in p for p in problems), problems


def test_verify_catches_failed_report(bessel):
    spec, out = bessel
    bad = copy.deepcopy(out)
    bad[0]["rhs"] = bad[0]["rhs"] + 1e-6
    problems = _problems("verify", spec, bad)
    assert any("above" in p for p in problems), problems


@pytest.mark.parametrize("key", ["e_plus", "d_plus"])
def test_kernels_catch_scaled_kernel(kernels, key):
    spec, out = kernels
    bad = dict(out, **{key: [x * (1 + 1e-6) for x in out[key]]})
    problems = _problems("kernels", spec, bad)
    assert any("E+ + D+/(2 pi)" in p for p in problems), problems
    reference = "image sum" if key == "e_plus" else "scipy quad"
    assert any(reference in p for p in problems), problems


@pytest.mark.parametrize("key", ["e_minus", "d_minus"])
def test_kernels_catch_wrong_mirror(kernels, key):
    spec, out = kernels
    bad = dict(out, **{key: [x + 1e-6 for x in out[key]]})
    assert _problems("kernels", spec, bad)


@pytest.mark.parametrize("field", ["energy", "gap"])
def test_dicke_catches_shifted_scan(dicke, field):
    spec, out = dicke[1.7]
    bad = copy.deepcopy(out)
    bad["scan"][field] += 1e-6
    problems = _problems("dicke", spec, bad)
    assert any(f"scan {field}" in p for p in problems), problems


def test_dicke_catches_ground_state_mismatch(dicke):
    spec, out = dicke[1.7]
    bad = copy.deepcopy(out)
    bad["ground"]["energy"] += 1e-9
    assert any("ground_state energy" in p
               for p in _problems("dicke", spec, bad))


def test_dicke_catches_inexact_zero_coupling(dicke):
    spec, out = dicke[0.0]
    bad = copy.deepcopy(out)
    bad["ground"]["photon_number"] = 1e-15
    assert any("at y = 0" in p for p in _problems("dicke", spec, bad))


def test_dicke_catches_wrong_mean_field(dicke):
    spec, out = dicke[1.7]
    bad = copy.deepcopy(out)
    bad["mean_field"]["y_c"] = math.nextafter(1.0, 2.0)
    bad["mean_field"]["energy"] += 1e-6
    problems = _problems("dicke", spec, bad)
    assert any("y_c" in p for p in problems), problems
    assert any("mean-field energy" in p for p in problems), problems
