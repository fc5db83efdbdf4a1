"""Every committed output of the command line, regenerated and compared.

tests/golden/ holds what tools/golden.py wrote through cli.dispatch: the
verification suite, `xi`, `kernel` on and off the axis, and `dicke scan`,
`ground` and `meanfield`.  Where the environment's fingerprint (numpy and
scipy versions, machine, numpy's enabled CPU features) is the one
MANIFEST.json records, every output must match its file byte for byte.
Elsewhere OpenBLAS may take other kernels, and the text and structure must
still match exactly (keys, ids, flags, row and column counts, integers),
while each float must match within max(8 ulps of itself, a bound per
file):

  verify   2^-40, 32 ulps of 162, the largest side any row compares: an
           abs_err is the rounding of those sides, and a rel_err, that
           abs_err over the row's scale, moves by 2^-40 over the scale,
           which the golden row gives as abs_err / rel_err;
  xi and kernel   8 ulps of the largest |value| in the file;
  dicke    the solver's residual, 1e-12 |H|, with |H| the bound of the
           default model at the scan's largest coupling, which is above
           those of the N = 7 and N = 1 scans.

The second comparison also runs in every environment whose numpy can
switch off CPU targets it dispatches to: a subprocess regenerates every
output with them off, so that numpy takes other kernels, and each must
match its file as an output from another machine would.

A change that moves an output rewrites the files with tools/golden.py and
names the rows that moved.
"""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "golden", os.path.join(ROOT, "tools", "golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

with open(os.path.join(golden.GOLDEN, golden.MANIFEST)) as _fh:
    MANIFEST = json.load(_fh)
SAME_ENVIRONMENT = golden.fingerprint() == MANIFEST["fingerprint"]

_VERIFY_ABS = 2.0 ** -40
# omega_a N/2 + omega_c cutoff + 4 couplings (y/sqrt(N)) (N + 1)/4
# sqrt(cutoff) at N = 8, cutoff 60 and y = 3: the solver's |H| bound
_DICKE_ABS = 1e-12 * (4.0 + 60.0 + 4.0 * 3.0 / math.sqrt(8.0) * 2.25
                      * math.sqrt(60.0))


def _parse(name: str, text: str):
    """The output as nested lists and dicts of str, bool, int, float."""
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".txt"):
        return float(text)
    header, *rows = csv.reader(io.StringIO(text))
    return [dict(zip(header, map(_cell, row), strict=True)) for row in rows]


def _cell(c: str):
    if c.startswith("{"):
        return json.loads(c)
    try:
        return float(c)
    except ValueError:
        return c


def _floats(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from _floats(item)
    elif isinstance(doc, float):
        yield doc


def _key_bound(row: dict, key: str, bound: float) -> float:
    """The bound of row[key]: bound, but for the rel_err of a verify row
    with a positive finite abs_err and rel_err, bound over the row's scale
    abs_err / rel_err."""
    errors = row.get("abs_err"), row.get("rel_err")
    if key == "rel_err" and all(isinstance(e, float) and 0.0 < e < math.inf
                                for e in errors):
        return bound * errors[1] / errors[0]
    return bound


def _assert_close(want, got, bound: float, where: str = ""):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_close(want[key], got[key], _key_bound(want, key, bound),
                          f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (w, g) in enumerate(zip(want, got)):
            _assert_close(w, g, bound, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= max(bound, 8.0 * math.ulp(want)), \
            (where, want, got)
    else:
        assert got == want, where


def test_manifest_lists_every_case_and_file():
    assert MANIFEST["outputs"] == {name: list(argv)
                                   for name, argv in golden.CASES.items()}
    assert sorted(os.listdir(golden.GOLDEN)) == sorted(
        [golden.MANIFEST, *golden.CASES])


def _golden_bytes(name: str) -> bytes:
    with open(os.path.join(golden.GOLDEN, name), "rb") as fh:
        return fh.read()


def _assert_matches_from_elsewhere(name: str, got: bytes):
    """got, an output made in another environment, against the golden file:
    the same text and structure, so every verdict (pass, all_pass) and
    integer, and each float within the file's bound."""
    want_doc = _parse(name, _golden_bytes(name).decode())
    if name.startswith("verify"):
        bound = _VERIFY_ABS
    elif name.startswith("dicke"):
        bound = _DICKE_ABS
    else:
        bound = 8.0 * math.ulp(max(map(abs, _floats(want_doc)), default=0.0))
    _assert_close(want_doc, _parse(name, got.decode()), bound)


@pytest.mark.parametrize("name", sorted(MANIFEST["outputs"]))
def test_output_matches_its_golden_file(name):
    got = golden.render(MANIFEST["outputs"][name])
    if SAME_ENVIRONMENT:
        assert got == _golden_bytes(name)
    else:
        _assert_matches_from_elsewhere(name, got)


# prints the fingerprint and every output, made as tools/golden.py makes them
_RENDER_ALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import golden
print(json.dumps({"fingerprint": golden.fingerprint(),
                  "outputs": {name: golden.render(argv).decode()
                              for name, argv in golden.CASES.items()}}))
"""


def test_outputs_with_numpy_dispatch_switched_off():
    targets = golden.dispatched_targets()
    if not targets:
        pytest.skip("numpy dispatches to no CPU target beyond its baseline")
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _RENDER_ALL,
         os.path.join(ROOT, "tools")],
        env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    assert doc["fingerprint"] != golden.fingerprint()
    assert list(doc["outputs"]) == list(golden.CASES)
    for name, text in doc["outputs"].items():
        _assert_matches_from_elsewhere(name, text.encode())


@pytest.mark.parametrize("argv, name", [
    (["xi", "--u", "1", "--v", "0"], "xi_u1_v0.txt"),
    (["dicke", "ground", "--y", "2"], "dicke_ground_y2.json")])
def test_python_dash_m_fpcavity_prints_the_golden_output(argv, name):
    # the package's entry point, in a fresh interpreter, as the installed
    # console script runs it
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-m", "fpcavity", *argv], env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == b""
    if SAME_ENVIRONMENT:
        assert run.stdout == _golden_bytes(name)
    else:
        _assert_matches_from_elsewhere(name, run.stdout)
