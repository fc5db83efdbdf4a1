import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcavity import Separation, Tolerance, kernel_e, xi
from fpcavity.cli import dispatch, emit_report, parse_report
from fpcavity.verify import IdentityReport


def test_xi_prints_bare_value(capsys):
    code = dispatch(["xi", "--u", "1", "--v", "0"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(xi(1.0, 0.0), rel=1e-15)


def test_xi_json_object(capsys):
    code = dispatch(["xi", "--u", "0.5", "--v", "1.0", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["u"] == 0.5 and doc["v"] == 1.0
    assert doc["value"] == pytest.approx(xi(0.5, 1.0), rel=1e-12)


def test_xi_domain_error_exit_code(capsys):
    code = dispatch(["xi", "--u", "0", "--v", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_kernel_json_matches_library(capsys):
    code = dispatch(["kernel", "--family", "E", "--sign", "plus",
                     "--u", "0.5", "--v", "1.0", "--phi", "0.3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    ref = kernel_e("plus", Separation(0.5, 1.0, 0.3)).m
    assert np.allclose(np.array(doc["matrix"]), ref, rtol=0, atol=0)


def test_kernel_domain_error_exit_2(capsys):
    code = dispatch(["kernel", "--family", "D", "--sign", "plus",
                     "--u", "0", "--v", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_kernel_non_finite_input_exit_2(capsys):
    code = dispatch(["kernel", "--family", "E", "--u", "nan", "--v", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


@pytest.mark.parametrize("argv", [
    ["kernel", "--family", "D", "--u", "0.5", "--v", "1",
     "--tol-abs", "inf", "--tol-rel", "inf"],
    ["kernel", "--family", "D", "--u", "0.5", "--v", "1", "--spectral",
     "--eps", "inf"],
    ["dicke", "ground", "--y", "nan"],
    ["dicke", "meanfield", "--y", "inf"],
])
def test_non_finite_parameters_exit_2(argv, capsys):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


@pytest.mark.parametrize("argv", [
    ["xi", "--u", "0.5", "--v", "1", "--tol-abs", "1e-8"],
    ["dicke", "scan", "--tol-rel", "1e-8"],
    ["dicke", "ground", "--y", "2", "--max-subdivisions", "10"],
    ["verify", "green", "--tol-abs", "0.5"],
    ["verify", "green", "--tol-rel", "0.5"],
])
def test_tolerance_flags_only_where_used(argv, capsys):
    # xi is a fixed-accuracy lattice sum and dicke diagonalizes exactly:
    # neither takes the quadrature tolerance flags; verify's pass thresholds
    # and quadrature accuracies are pinned per check, so it takes only
    # --max-subdivisions
    assert dispatch(argv) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "cancellation", "--seed", "-1"],
    ["verify", "modesum", "--max-subdivisions", "0"],
    ["verify", "lipschitz", "--max-subdivisions", "-5"],
])
def test_verify_bad_seed_or_budget_exit_2(argv, capsys):
    # refused before any check runs, even by a suite without quadratures
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


def test_kernel_spectral_flag_restrictions(capsys):
    code = dispatch(["kernel", "--family", "E", "--spectral",
                     "--u", "0.5", "--v", "1.0"])
    assert code == 2
    code = dispatch(["kernel", "--family", "D", "--sign", "minus",
                     "--spectral", "--u", "0.5", "--v", "1.0"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--family", "E", "--tol-abs", "1e-3"],
    ["--family", "E", "--tol-rel", "1e-3"],
    ["--family", "E", "--max-subdivisions", "10"],
    ["--family", "E", "--eps", "7"],
    ["--family", "D", "--eps", "0.1"],
    ["--family", "D", "--sign", "minus", "--eps", "0.05"],
    ["--family", "D", "--spectral", "--tol-rel", "1e-3"],
    ["--family", "D", "--spectral", "--max-subdivisions", "1"],
])
def test_kernel_refuses_flags_it_would_ignore(argv, capsys):
    # the E family is a fixed-accuracy lattice sum, only the spectral route
    # reads the regulator, and of the tolerance it reads only abs_tol
    assert dispatch(["kernel", "--u", "0.5", "--v", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


@pytest.mark.parametrize("implicit, explicit", [
    (["--family", "D"], ["--family", "D", "--tol-abs", "1e-10",
                         "--tol-rel", "1e-10", "--max-subdivisions", "4000"]),
    (["--family", "D", "--spectral"],
     ["--family", "D", "--spectral", "--eps", "0.05"]),
])
def test_kernel_omitted_flags_take_their_documented_values(implicit,
                                                          explicit, capsys):
    outputs = []
    for argv in (implicit, explicit):
        assert dispatch(["kernel", "--u", "1.0", "--v", "0.5", "--format",
                         "csv", *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_kernel_spectral_route_reads_tol_abs(capsys):
    # --tol-abs sets the reach log(1/abs_tol)/eps of the spectral grid, so
    # every value moves the output; at abs_tol >= 1 there is no grid
    outputs = []
    for tol in ("1e-3", "1e-9"):
        assert dispatch(["kernel", "--family", "D", "--spectral", "--u",
                         "0.5", "--v", "1", "--eps", "0.1", "--tol-abs", tol,
                         "--format", "csv"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]
    for tol in ("1", "3.5"):
        assert dispatch(["kernel", "--family", "D", "--spectral", "--u",
                         "0.5", "--v", "1", "--tol-abs", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "abs_tol < 1" in captured.err


def test_kernel_spectral_route_runs(capsys):
    code = dispatch(["kernel", "--family", "D", "--u", "1.0", "--v", "0.5",
                     "--spectral", "--eps", "0.1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["matrix"]) == 3


def test_unknown_flag_exit_2(capsys):
    assert dispatch(["xi", "--nope", "3"]) == 2


def test_missing_subcommand_exit_2(capsys):
    assert dispatch([]) == 2


@pytest.mark.parametrize("argv", [
    ["--help"], ["xi", "--help"], ["kernel", "--help"], ["verify", "--help"],
    ["dicke", "--help"],
])
def test_help_screens(argv, capsys):
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    assert "usage" in out.lower()


def test_verify_modesum_json(capsys):
    code = dispatch(["verify", "modesum", "--seed", "7"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["suite"] == "modesum"
    assert doc["seed"] == 7
    assert doc["all_pass"] is True
    assert len(doc["checks"]) == 18
    for check in doc["checks"]:
        assert set(check) >= {"id", "params", "abs_err", "rel_err", "pass",
                              "tol_abs", "tol_rel"}


def test_verify_all_example(tmp_path):
    # the canonical full run: JSON report, exit 0
    out = tmp_path / "report.json"
    code = dispatch(["verify", "all", "--seed", "42", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_bytes())
    assert doc["suite"] == "all"
    assert doc["seed"] == 42
    assert doc["all_pass"] is True
    assert len(doc["checks"]) > 200


def test_verify_output_bytes_reproducible(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    argv = ["verify", "lipschitz", "--seed", "42", "--format", "json"]
    assert dispatch(argv + ["--output", str(p1)]) == 0
    assert dispatch(argv + ["--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert dispatch(["verify", "green", "--format", "csv",
                     "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,params,abs_err,rel_err,pass,tol_abs,tol_rel"
    assert len(lines) == 4  # header + three triples


def test_dicke_meanfield(capsys):
    code = dispatch(["dicke", "meanfield", "--y", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["y_c"] == pytest.approx(1.0)
    assert doc["order_parameter_sq_per_atom"] == pytest.approx(15 / 16,
                                                               abs=1e-8)


def test_dicke_ground_requires_y(capsys):
    assert dispatch(["dicke", "ground"]) == 2


def test_dicke_ground_json(capsys):
    code = dispatch(["dicke", "ground", "--y", "0", "--n-atoms", "4",
                     "--cutoff", "10"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["photon_number"] == pytest.approx(0.0, abs=1e-14)
    assert doc["parity"] == 1.0


def test_dicke_scan_csv(capsys):
    code = dispatch(["dicke", "scan", "--y-min", "0", "--y-max", "1",
                     "--steps", "3", "--n-atoms", "2", "--cutoff", "8",
                     "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "y,energy,photon_number,gap,parity"
    assert len(lines) == 4


def test_dicke_scan_reproducible(tmp_path):
    argv = ["dicke", "scan", "--y-min", "0", "--y-max", "2", "--steps", "4",
            "--n-atoms", "2", "--cutoff", "10", "--format", "csv"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert dispatch(argv + ["--output", str(p1)]) == 0
    assert dispatch(argv + ["--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("argv", [
    ["dicke", "meanfield", "--y", "2", "--n-atoms", "500", "--cutoff", "9000"],
    ["dicke", "meanfield", "--y", "2", "--y-min", "1"],
    ["dicke", "scan", "--y", "7"],
    ["dicke", "ground", "--y", "2", "--steps", "0"],
])
def test_dicke_flags_only_where_used(argv, capsys):
    # meanfield is closed form in omega_a, omega_c and y; scan sweeps its own
    # grid; ground solves at one coupling: each rejects the others' flags
    assert dispatch(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["dicke", "ground", "--y", "1.3", "--n", "4", "--cut", "3"],
    ["verify", "green", "--max", "1", "--form", "csv"],
    ["dicke", "scan", "--y", "7"],
])
def test_flags_have_one_spelling(argv, capsys):
    # a prefix of a long flag is not that flag
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


# closed form at y = 2, omega_a = omega_c = 1: every value is exact
_MEANFIELD_Y2 = {
    "json": (b'{\n  "y": 2.0,\n  "y_c": 1.0,\n'
             b'  "order_parameter_sq_per_atom": 0.9375,\n'
             b'  "energy_per_atom": -1.0625\n}\n'),
    "csv": (b"y,y_c,order_parameter_sq_per_atom,energy_per_atom\n"
            b"2,1,0.9375,-1.0625\n"),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_dicke_meanfield_bytes(fmt, tmp_path, capsys):
    argv = ["dicke", "meanfield", "--y", "2", "--format", fmt]
    assert dispatch(argv) == 0
    assert capsys.readouterr().out.encode() == _MEANFIELD_Y2[fmt]
    out = tmp_path / f"mf.{fmt}"
    assert dispatch(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == _MEANFIELD_Y2[fmt]


def test_dicke_ground_csv_header_and_flag(capsys):
    assert dispatch(["dicke", "ground", "--y", "2", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "y,energy,photon_number,sz_expect,parity,cutoff_converged"
    assert row.split(",")[-1] == "true"


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _sample_reports():
    return [
        IdentityReport(check_id="EQ22", params={"u": 0.1, "v": 4.0},
                       lhs=0.1, rhs=0.1 + 1e-11, abs_err=1e-11,
                       rel_err=1e-10 / 3.0, passed=True,
                       tol_used=Tolerance(1e-10, 1e-8)),
        IdentityReport(check_id="EQ21", params={"u": 0.3, "v": 1.0,
                                                "phi": 2.0},
                       lhs=None, rhs=None, abs_err=math.pi, rel_err=0.25,
                       passed=False, tol_used=Tolerance(1e-12, 1e-7)),
    ]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_round_trip_bit_exact(fmt):
    reports = _sample_reports()
    data = emit_report(reports, fmt, suite="adhoc", seed=1)
    back = parse_report(data, fmt)
    assert len(back) == len(reports)
    for a, b in zip(reports, back):
        assert a.check_id == b.check_id
        assert a.passed == b.passed
        assert a.abs_err == b.abs_err
        assert a.rel_err == b.rel_err
        assert a.tol_used.abs_tol == b.tol_used.abs_tol
        assert a.tol_used.rel_tol == b.tol_used.rel_tol


def test_emit_empty_reports_valid_json():
    doc = json.loads(emit_report([], "json", suite="all", seed=42))
    assert doc["checks"] == []
    assert doc["all_pass"] is True


def test_emit_mixed_pass_fail():
    doc = json.loads(emit_report(_sample_reports(), "json"))
    assert doc["all_pass"] is False


def test_csv_seventeen_significant_digits():
    data = emit_report(_sample_reports(), "csv").decode()
    assert format(math.pi, ".17g") in data


@settings(max_examples=40, deadline=None)
@given(abs_err=st.floats(0, 1e6, allow_nan=False),
       rel_err=st.floats(0, 1e6, allow_nan=False),
       tol_abs=st.floats(1e-300, 1.0), tol_rel=st.floats(1e-300, 1.0),
       passed=st.booleans(), fmt=st.sampled_from(["json", "csv"]))
def test_round_trip_property(abs_err, rel_err, tol_abs, tol_rel, passed, fmt):
    rep = IdentityReport(check_id="EQ27", params={"alpha": 0.5},
                         lhs=None, rhs=None, abs_err=abs_err,
                         rel_err=rel_err, passed=passed,
                         tol_used=Tolerance(tol_abs, tol_rel))
    back = parse_report(emit_report([rep], fmt), fmt)[0]
    assert back.abs_err == abs_err and back.rel_err == rel_err
    assert back.passed == passed
    assert back.tol_used.abs_tol == tol_abs
    assert back.tol_used.rel_tol == tol_rel


def _strict_json(data: str):
    # json.loads accepts the non-standard Infinity/NaN tokens unless told
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(data, parse_constant=reject)


def test_failed_checks_emit_strict_json(capsys):
    # one panel split is too few for about half the Laplace-Bessel checks:
    # those rows fail with a ConvergenceError and an infinite error
    assert dispatch(["verify", "lipschitz", "--max-subdivisions", "1"]) == 1
    doc = _strict_json(capsys.readouterr().out)
    failed = [c for c in doc["checks"] if not c["pass"]]
    assert failed and all(c["abs_err"] is None and c["rel_err"] is None
                          for c in failed)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_infinite_errors_round_trip(fmt):
    rep = IdentityReport(check_id="EQ33", params={"u": 1.0, "v": 0.0},
                         lhs=None, rhs=None, abs_err=math.inf,
                         rel_err=math.inf, passed=False,
                         tol_used=Tolerance(1e-9, 1e-13))
    data = emit_report([rep], fmt)
    if fmt == "json":
        _strict_json(data.decode())
    back = parse_report(data, fmt)[0]
    assert back.abs_err == math.inf and back.rel_err == math.inf
