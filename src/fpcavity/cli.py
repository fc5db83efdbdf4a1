"""Command-line surface: kernels, lattice sums, verification, Dicke sweeps.

Four subcommands (`xi`, `kernel`, `verify`, `dicke`) emit CSV or JSON with
fixed schemas.  Runs are reproducible: identical argv (and seed) produce
byte-identical output.  Exit codes: 0 success / all checks pass, 1 at least
one verification failure, 2 argument or domain error.

The --tol-abs/--tol-rel flags of `kernel` set the accuracy of the D
family's quadratures, 1e-10 each when omitted.  The E family, a
fixed-accuracy lattice sum, and the spectral route (--spectral, D plus
only), whose one quadrature runs at the default accuracy, refuse both: a
flag is never ignored.
`verify` takes only --seed (an integer >= 0, 42 when omitted) besides
--format and --output, and hands it to run_suite: every check's quadrature
accuracy and pass threshold are pinned per check.  `xi` (a fixed-accuracy
lattice sum) and `dicke` (exact diagonalization) take no tolerance flags.

Each `dicke` target takes only the flags it reads, besides --format and
--output: `ground` --omega-a, --omega-c, --y (required), --n-atoms and
--cutoff; `scan` --omega-a, --omega-c, --y-min, --y-max, --steps, --n-atoms
and --cutoff; `meanfield` --omega-a, --omega-c and --y (required).  Their
records are the fields of the result dataclasses, led by the coupling for
`ground` and `meanfield`.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .coulomb import kernel_e
from .dicke import DickeParams, ground_state, mean_field, spectrum_scan
from .errors import ConvergenceError, DomainError
from .geometry import Separation
from .lattice import xi
from .radiation import kernel_d, kernel_d_spectral
from .specfun import DEFAULT_TOL, Tolerance
from .verify import SUITE_NAMES, VerificationSummary, run_suite

__all__ = ["dispatch", "emit_report", "main"]

# the seed of `verify` without --seed, run_suite's own default
_DEFAULT_SEED = inspect.signature(run_suite).parameters["seed"].default

_CSV_COLUMNS = ("id", "params", "abs_err", "rel_err", "pass",
                "tol_abs", "tol_rel")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _finite_or_null(x: float):
    # strict JSON has no Infinity/NaN: a failed check's inf error is null
    return x if math.isfinite(x) else None


def emit_report(summary: VerificationSummary, fmt: str) -> bytes:
    """Serialize the reports of a verification run.

    JSON: {"suite", "seed", "all_pass", "warnings", "checks": [{"id",
    "params", "abs_err", "rel_err", "pass", "tol_abs", "tol_rel"}]}, the
    first three as the summary has them, strict JSON: a non-finite abs_err
    or rel_err (a check that failed to compute) is null; "warnings" is
    always the empty list, kept for the schema.  CSV: one row per check
    with the same columns (params JSON-encoded), header row first,
    17-significant-digit decimals.
    """
    reports = summary.reports
    if fmt == "json":
        doc = {
            "suite": summary.suite,
            "seed": summary.seed,
            "all_pass": summary.all_pass,
            "warnings": [],
            "checks": [
                {
                    "id": r.check_id,
                    "params": r.params,
                    "abs_err": _finite_or_null(r.abs_err),
                    "rel_err": _finite_or_null(r.rel_err),
                    "pass": r.passed,
                    "tol_abs": r.tol_used.abs_tol,
                    "tol_rel": r.tol_used.rel_tol,
                }
                for r in reports
            ],
        }
        return _json_bytes(doc)
    if fmt == "csv":
        return _csv_bytes(_CSV_COLUMNS, [
            (r.check_id, json.dumps(r.params, sort_keys=True, allow_nan=False),
             r.abs_err, r.rel_err, r.passed, r.tol_used.abs_tol,
             r.tol_used.rel_tol) for r in reports])
    raise DomainError(f"unknown format {fmt!r}")


def _write(ns, data: bytes):
    if ns.output:
        with open(ns.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode()


def _cell(c) -> str:
    if isinstance(c, bool):
        return "true" if c else "false"
    return c if isinstance(c, str) else _g17(c)


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(c) for c in row])
    return buf.getvalue().encode()


def _emit(ns, doc) -> None:
    """Write one record (a dict) or a list of records in ns.format.

    JSON writes doc as it is; CSV writes the keys as the header row and one
    row per record.  A format of None (xi with --output only) means JSON.
    """
    if ns.format == "csv":
        records = doc if isinstance(doc, list) else [doc]
        data = _csv_bytes(records[0].keys(), [r.values() for r in records])
    else:
        data = _json_bytes(doc)
    _write(ns, data)


def _cmd_xi(ns) -> int:
    value = xi(ns.u, ns.v)
    if ns.format is None and ns.output is None:
        # bare value on stdout for interactive use
        sys.stdout.write(_g17(value) + "\n")
        return 0
    _emit(ns, {"u": ns.u, "v": ns.v, "value": value})
    return 0


def _cmd_kernel(ns) -> int:
    sep = Separation(u=ns.u, v=ns.v, phi=ns.phi)
    # the Tolerance fields given on the command line; the others keep
    # their defaults
    given = {field: value for field, value in (
        ("abs_tol", ns.tol_abs), ("rel_tol", ns.tol_rel)) if value is not None}
    if ns.spectral and (ns.family, ns.sign) != ("D", "plus"):
        raise DomainError("the spectral route evaluates D plus only")
    if given and (ns.family == "E" or ns.spectral):
        raise DomainError("--tol-abs and --tol-rel apply to the D family "
                          "without --spectral only")
    if ns.family == "E":
        mat = kernel_e(ns.sign, sep).m
    elif ns.spectral:
        mat = kernel_d_spectral(sep).m
    else:
        mat = kernel_d(ns.sign, sep, Tolerance(**given)).m
    if ns.format == "json":
        data = _json_bytes({"family": ns.family, "sign": ns.sign,
                            "u": ns.u, "v": ns.v, "phi": ns.phi,
                            "matrix": mat.tolist()})
    else:
        data = _csv_bytes(("x", "y", "z"), [tuple(row) for row in mat])
    _write(ns, data)
    return 0


def _cmd_verify(ns) -> int:
    summary = run_suite(ns.target, ns.seed)
    _write(ns, emit_report(summary, ns.format))
    return 0 if summary.all_pass else 1


def _cmd_dicke_ground(ns) -> int:
    res = ground_state(DickeParams(ns.omega_a, ns.omega_c, ns.y,
                                   ns.n_atoms, ns.cutoff))
    _emit(ns, {"y": ns.y, **asdict(res)})
    return 0


def _cmd_dicke_meanfield(ns) -> int:
    res = mean_field(DickeParams(ns.omega_a, ns.omega_c, ns.y))
    _emit(ns, {"y": ns.y, **asdict(res)})
    return 0


def _cmd_dicke_scan(ns) -> int:
    if ns.steps < 1:
        raise DomainError("--steps must be >= 1")
    params = DickeParams(ns.omega_a, ns.omega_c, n_atoms=ns.n_atoms,
                         fock_cutoff=ns.cutoff)
    y_grid = np.linspace(ns.y_min, ns.y_max, ns.steps)
    rows = spectrum_scan(params, [float(y) for y in y_grid])
    _emit(ns, [asdict(r) for r in rows])
    return 0


def _add_common(p, bare_value=False):
    if bare_value:
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="structured output format (bare value if omitted)")
    else:
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format")
    p.add_argument("--output", default=None,
                   help="output file path (stdout if omitted)")


def _build_parser() -> argparse.ArgumentParser:
    fmt_cls = argparse.ArgumentDefaultsHelpFormatter
    # allow_abbrev=False everywhere: each flag has exactly one spelling
    parser = argparse.ArgumentParser(
        prog="fpcavity", allow_abbrev=False,
        description="Mirror-cavity interaction kernels, their identity "
                    "verification suite, and Dicke-model sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_xi = sub.add_parser("xi", help="evaluate the inverse-cube lattice sum",
                          formatter_class=fmt_cls, allow_abbrev=False)
    p_xi.add_argument("--u", type=float, required=True,
                      help="axial argument (2-periodic)")
    p_xi.add_argument("--v", type=float, required=True,
                      help="transverse argument, >= 0")
    _add_common(p_xi, bare_value=True)
    p_xi.set_defaults(func=_cmd_xi)

    p_k = sub.add_parser("kernel", help="evaluate an interaction kernel",
                         formatter_class=fmt_cls, allow_abbrev=False)
    p_k.add_argument("--family", choices=("E", "D"), required=True,
                     help="E: Coulomb image kernel; D: quadratic "
                          "displacement-field kernel")
    p_k.add_argument("--sign", choices=("plus", "minus"), default="plus",
                     help="kernel variant")
    p_k.add_argument("--u", type=float, required=True,
                     help="axial separation over L")
    p_k.add_argument("--v", type=float, required=True,
                     help="transverse separation over L")
    p_k.add_argument("--phi", type=float, default=0.0,
                     help="azimuth of the transverse separation")
    p_k.add_argument("--spectral", action="store_true",
                     help="use the spectral route, summed over the axial "
                          "modes (D plus only)")
    p_k.add_argument("--tol-abs", type=float, default=None,
                     help=f"absolute accuracy of the D-family quadratures, "
                          f"{DEFAULT_TOL.abs_tol:g} if omitted")
    p_k.add_argument("--tol-rel", type=float, default=None,
                     help=f"relative accuracy of the D-family quadratures, "
                          f"{DEFAULT_TOL.rel_tol:g} if omitted")
    _add_common(p_k)
    p_k.set_defaults(func=_cmd_kernel)

    p_v = sub.add_parser("verify", help="run the identity verification suite",
                         formatter_class=fmt_cls, allow_abbrev=False)
    p_v.add_argument("target", nargs="?", choices=SUITE_NAMES, default="all")
    _add_common(p_v)
    p_v.add_argument("--seed", type=int, default=_DEFAULT_SEED,
                     help="seed for randomized grids")
    p_v.set_defaults(func=_cmd_verify)

    p_d = sub.add_parser("dicke", help="collective spin-boson model tools",
                         formatter_class=fmt_cls, allow_abbrev=False)
    # each target takes only the flags it reads; shared ones via parents=
    shared = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    shared.add_argument("--omega-a", type=float, default=DickeParams.omega_a,
                        help="two-level splitting")
    shared.add_argument("--omega-c", type=float, default=DickeParams.omega_c,
                        help="mode frequency")
    _add_common(shared)
    coupling = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    coupling.add_argument("--y", type=float, required=True, help="coupling")
    size = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    size.add_argument("--n-atoms", type=int, default=DickeParams.n_atoms,
                      help="number of two-level systems")
    size.add_argument("--cutoff", type=int, default=DickeParams.fock_cutoff,
                      help="boson Fock-space cutoff")
    targets = p_d.add_subparsers(dest="target", required=True)

    p_g = targets.add_parser("ground", parents=[shared, coupling, size],
                             help="exact ground state at one coupling",
                             formatter_class=fmt_cls, allow_abbrev=False)
    p_g.set_defaults(func=_cmd_dicke_ground)

    p_s = targets.add_parser("scan", parents=[shared, size],
                             help="ground state and gap along a coupling grid",
                             formatter_class=fmt_cls, allow_abbrev=False)
    p_s.add_argument("--y-min", type=float, default=0.0,
                     help="scan grid start")
    p_s.add_argument("--y-max", type=float, default=3.0,
                     help="scan grid end")
    p_s.add_argument("--steps", type=int, default=13,
                     help="scan grid points")
    p_s.set_defaults(func=_cmd_dicke_scan)

    p_m = targets.add_parser("meanfield", parents=[shared, coupling],
                             help="closed-form zero-temperature mean field",
                             formatter_class=fmt_cls, allow_abbrev=False)
    p_m.set_defaults(func=_cmd_dicke_meanfield)
    return parser


def dispatch(argv) -> int:
    """Parse argv, run the requested computation, return the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return ns.func(ns)
    except (DomainError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
