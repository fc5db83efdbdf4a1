"""Correctness checks of the workloads' outputs, made apart from fpcavity.

Each workload's outputs are compared with values the benchmark computes
itself (mpmath lattice sums, a numpy image sum, scipy quadrature, numpy
eigenvalues of a Hamiltonian built here) and with properties the method
must have.  The thresholds are the benchmark's own constants: a report
whose pinned tolerance was loosened in fpcavity fails here.

Every check function returns a list of problems; an empty list means the
output is correct.  References are computed after the timed ops, outside
both the ops and set-up.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate, special

# Pass thresholds (abs, rel) of each verification report, as pinned in
# fpcavity.verify at the parent commit of this benchmark.
PINNED = {
    "EQ22": (1e-10, 1e-8),
    "EQ29_PLUS": (1e-10, 1e-8),
    "EQ29_MINUS": (1e-8, 1e-6),
    "EQ30": (1e-8, 1e-6),
    "EQ21": (1e-12, 1e-7),
    "SELF_CANCEL": (1e-12, 1e-8),
    "EQ27": (1e-10, 1e-5),
    "EQ33": (1e-9, 1e-13),
    "EQ34": (1e-9, 1e-13),
    "EQ36": (1e-6, 1e-13),
    "AXIAL20": (1e-12, 1e-15),
    "ANISO38_CONTINUUM": (1e-12, 1e-15),
    "ANISO38_DECAY": (1.0, 1e-15),
}

# Lattice sides against the mpmath sums, relative to max(1, |reference|):
# xi and E+ are summed to 1e-12 absolute; the derivative sides come from
# finite differences and are held to the derivative identities' own
# relative threshold.
LATTICE_REL = 1e-11
DERIV_REL = 1e-7

# kernels: the cancellation, the mirror relation, and the reference kernels
CANCEL_REL = 1e-7
MIRROR_REL = 1e-12
IMAGE_SUM_REL = 1e-9
QUAD_REL = 1e-10
KERNEL_REF_SUBSET = 5  # ops per pass checked against the references

# dicke: eigenvalues relative to max(1, |E0|)
DICKE_REL = 1e-9
MEAN_FIELD_ABS = 1e-9
ORDER_ABS = 1e-6

R_MIRROR = np.diag([-1.0, -1.0, 1.0])


# PINNED keys that name one form of a check id
_REPORT_ID = {"ANISO38_CONTINUUM": "ANISO38", "ANISO38_DECAY": "ANISO38"}


def _expected_reports(spec: dict) -> list[str]:
    """PINNED keys of the reports one op returns, in order."""
    kind = spec["kind"]
    if kind == "bessel":
        return ["EQ22", "EQ29_PLUS", "EQ29_MINUS", "EQ30"]
    if kind == "aniso":
        return (["AXIAL20"] * len(spec["axial_u"])
                + ["ANISO38_CONTINUUM", "ANISO38_DECAY"])
    return {"eq21": ["EQ21"], "self": ["SELF_CANCEL"], "modesum": ["EQ27"],
            "lipschitz": ["EQ33", "EQ34"], "green": ["EQ36"]}[kind]


def _rot(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _close(got, ref, rel: float) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.max(np.abs(got - ref))
                <= rel * max(1.0, float(np.max(np.abs(ref)))))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def xi_reference(u: float, v: float) -> tuple[float, float, float]:
    """xi(u, v), d/dv xi and d/du xi by mpmath.nsum over the image lattice.

    At v = 0 only xi is needed: [zeta(3, u/2) + zeta(3, 1 - u/2)] / 8.
    """
    if v == 0.0:
        return (float(special.zeta(3.0, u / 2.0)
                      + special.zeta(3.0, 1.0 - u / 2.0)) / 8.0, 0.0, math.nan)
    with mpmath.workdps(16):
        um, vm = mpmath.mpf(u), mpmath.mpf(v)

        def lattice(term):
            return mpmath.nsum(lambda n: term(2 * n + um),
                               [-mpmath.inf, mpmath.inf])

        s3 = lattice(lambda a: (a * a + vm * vm) ** mpmath.mpf(-1.5))
        s5 = lattice(lambda a: (a * a + vm * vm) ** mpmath.mpf(-2.5))
        s5a = lattice(lambda a: a * (a * a + vm * vm) ** mpmath.mpf(-2.5))
        return float(s3), float(-3 * vm * s5), float(-3 * s5a)


def e_plus_from_xi(u: float, v: float, phi: float, refs) -> np.ndarray:
    """E+ written through xi and its derivatives, rotated through phi."""
    x, dv, du = refs
    base = np.array([[x + v * dv, 0.0, v * du],
                     [0.0, x, 0.0],
                     [v * du, 0.0, -2.0 * x - v * dv]])
    rz = _rot(phi)
    return rz @ base @ rz.T


def _errors(check_id: str, lhs, rhs) -> tuple[float, float]:
    if check_id == "EQ27":  # [re, im] pairs, compared as complex numbers
        a, b = complex(*lhs), complex(*rhs)
        abs_err, denom = abs(a - b), max(abs(a), abs(b))
    else:
        la = np.asarray(lhs, dtype=float)
        ra = np.asarray(rhs, dtype=float)
        abs_err = float(np.max(np.abs(la - ra)))
        if check_id in ("EQ21", "SELF_CANCEL"):
            denom = float(np.max(np.abs(la)))
        else:
            denom = max(float(np.max(np.abs(la))), float(np.max(np.abs(ra))))
    if denom > 0:
        return abs_err, abs_err / denom
    return abs_err, (0.0 if abs_err == 0.0 else math.inf)


def _ids_match(spec: dict, reports: list[dict]) -> bool:
    return ([_REPORT_ID.get(key, key) for key in _expected_reports(spec)]
            == [r["check_id"] for r in reports])


def check_reports(spec: dict, reports: list[dict]) -> list[str]:
    """Each report: expected id, pinned tolerance, and errors recomputed
    from lhs and rhs within that tolerance."""
    problems = []
    expected = _expected_reports(spec)
    if not _ids_match(spec, reports):
        return [f"{spec['kind']}: report ids "
                f"{[r['check_id'] for r in reports]}, expected {expected}"]
    for key, r in zip(expected, reports):
        cid = r["check_id"]
        pinned = PINNED[key]
        if tuple(r["tol_used"]) != pinned:
            problems.append(f"{cid}: tolerance {r['tol_used']} is not the "
                            f"pinned {list(pinned)}")
        if r["lhs"] is None or r["rhs"] is None:
            problems.append(f"{cid}: no result ({r['abs_err']})")
            continue
        abs_err, rel_err = _errors(cid, r["lhs"], r["rhs"])
        if not math.isclose(abs_err, r["abs_err"], rel_tol=1e-9,
                            abs_tol=1e-300):
            problems.append(f"{cid}: reported abs_err {r['abs_err']!r}, "
                            f"recomputed {abs_err!r}")
        if not (abs_err <= pinned[0] or rel_err <= pinned[1]):
            problems.append(f"{cid}: |lhs - rhs| = {abs_err:.3e} "
                            f"(rel {rel_err:.3e}) above {pinned}")
        if not r["passed"]:
            problems.append(f"{cid}: report did not pass")
    return problems


def verify_reference(spec: dict):
    if spec["kind"] in ("bessel", "eq21"):
        return xi_reference(spec["u"], spec["v"])
    if spec["kind"] == "self":
        return xi_reference(2.0 * spec["z"], 0.0)
    return None


def check_lattice_side(spec: dict, reports: list[dict], refs) -> list[str]:
    """The lattice side of each report against the benchmark's own xi."""
    kind = spec["kind"]
    if refs is None or not _ids_match(spec, reports) or any(
            r["lhs"] is None or r["rhs"] is None for r in reports):
        return []
    x, dv, du = refs
    problems = []

    def expect(cid, got, want, rel):
        if not _close(got, want, rel):
            problems.append(f"{cid}: lattice side {got!r} differs from the "
                            f"mpmath reference {want!r}")

    if kind == "bessel":
        v = spec["v"]
        sides = dict(zip(("EQ22", "EQ29_PLUS", "EQ29_MINUS", "EQ30"),
                         (r["rhs"] for r in reports)))
        expect("EQ22", sides["EQ22"], v * x, LATTICE_REL)
        expect("EQ29_PLUS", sides["EQ29_PLUS"], 2.0 * x, LATTICE_REL)
        expect("EQ29_MINUS", sides["EQ29_MINUS"], 2.0 * x + 2.0 * v * dv,
               DERIV_REL)
        expect("EQ30", sides["EQ30"], v * du, DERIV_REL)
    elif kind == "eq21":
        want = e_plus_from_xi(spec["u"], spec["v"], spec["phi"], refs)
        expect("EQ21", np.reshape(reports[0]["lhs"], (3, 3)), want,
               LATTICE_REL)
    elif kind == "self":
        want = x / (8.0 * math.pi) * np.diag([-1.0, -1.0, -2.0])
        expect("SELF_CANCEL", np.reshape(reports[0]["lhs"], (3, 3)), want,
               LATTICE_REL)
    return problems


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def e_plus_image_sum(u: float, v: float, phi: float,
                     n_images: int = 100_000) -> np.ndarray:
    """E+ as the free-space dipole kernel (1 - 3 rhat rhat)/rho^3 summed
    over the images at (v cos phi, v sin phi, 2n + u), |n| <= n_images.

    Beyond n_images only the axial leading term diag(1, 1, -2)/|2n + u|^3
    matters; it is added as the midpoint integral of each side.
    """
    a = 2.0 * np.arange(-n_images, n_images + 1, dtype=float) + u
    r = np.stack([np.full_like(a, v * math.cos(phi)),
                  np.full_like(a, v * math.sin(phi)), a])
    rho2 = a * a + v * v
    inv3 = rho2 ** -1.5
    inv5 = rho2 ** -2.5
    m = np.eye(3) * float(np.sum(inv3)) - 3.0 * (r * inv5) @ r.T
    edge = 2.0 * n_images + 1.0
    tail = 0.25 * ((edge + u) ** -2 + (edge - u) ** -2)
    return m + tail * np.diag([1.0, 1.0, -2.0])


def d_plus_quadrature(u: float, v: float, phi: float) -> np.ndarray:
    """D+ by scipy.integrate.quad over panels, with scipy.special.jv."""
    w = abs(u - 1.0)
    sign = math.copysign(1.0, u - 1.0)
    rate = 1.0 - w

    def hyperbolic(x):
        # x^2 cosh(x(u-1))/sinh(x) and x^2 sinh(x(u-1))/sinh(x)
        lead = x * x * math.exp(-rate * x) / -math.expm1(-2.0 * x)
        flip = math.exp(-2.0 * w * x)
        return lead * (1.0 + flip), sign * lead * (1.0 - flip)

    def xx(x):
        return hyperbolic(x)[0] * (special.jv(2, x * v) - special.jv(0, x * v))

    def yy(x):
        return -hyperbolic(x)[0] * (special.jv(0, x * v)
                                    + special.jv(2, x * v))

    def zz(x):
        return hyperbolic(x)[0] * 2.0 * special.jv(0, x * v)

    def xz(x):
        return hyperbolic(x)[1] * -2.0 * special.jv(1, x * v)

    x_max = 40.0 / rate
    while x_max * x_max * math.exp(-rate * x_max) > 1e-14:
        x_max *= 1.2
    edges = np.linspace(0.0, x_max, int(math.ceil(x_max / 4.0)) + 1)

    def entry(f):
        return sum(integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-11,
                                  limit=200)[0]
                   for a, b in zip(edges[:-1], edges[1:]))

    xz_val = entry(xz)
    base = math.pi * np.array([[entry(xx), 0.0, xz_val],
                               [0.0, entry(yy), 0.0],
                               [xz_val, 0.0, entry(zz)]])
    rz = _rot(phi)
    return rz @ base @ rz.T


def check_kernels(spec: dict, out: dict, refs) -> list[str]:
    ep, em, dp, dm = (np.reshape(out[key], (3, 3)) for key in
                      ("e_plus", "e_minus", "d_plus", "d_minus"))
    scale = float(np.max(np.abs(ep)))
    problems = []
    residual = float(np.max(np.abs(ep + dp / (2.0 * math.pi))))
    if not residual <= CANCEL_REL * scale:
        problems.append(f"E+ + D+/(2 pi) = {residual:.3e}, relative "
                        f"{residual / scale:.3e} above {CANCEL_REL}")
    if not np.max(np.abs(em - ep @ R_MIRROR)) <= MIRROR_REL * scale:
        problems.append("E- differs from E+ . R")
    if not (np.max(np.abs(dm - dp @ R_MIRROR))
            <= MIRROR_REL * float(np.max(np.abs(dp)))):
        problems.append("D- differs from D+ . R")
    if refs is not None:
        e_ref, d_ref = refs
        if not (np.max(np.abs(ep - e_ref))
                <= IMAGE_SUM_REL * float(np.max(np.abs(e_ref)))):
            problems.append("E+ differs from the image sum")
        if not (np.max(np.abs(dp - d_ref))
                <= QUAD_REL * float(np.max(np.abs(d_ref)))):
            problems.append("D+ differs from scipy quad")
    return [f"kernels u={spec['u']:.4f} v={spec['v']:.4f}: {p}"
            for p in problems]


def kernel_reference_indices(n_ops: int, seed: int) -> set[int]:
    rng = np.random.default_rng([seed, 1])
    return set(int(i) for i in rng.choice(
        n_ops, min(KERNEL_REF_SUBSET, n_ops), replace=False))


# ---------------------------------------------------------------------------
# dicke
# ---------------------------------------------------------------------------

def dicke_reference(y: float, n_atoms: int,
                    cutoff: int) -> tuple[float, float]:
    """Ground energy and first gap from numpy.linalg.eigvalsh of the Dicke
    Hamiltonian (omega_a = omega_c = 1) built here, one parity block at a
    time.  Basis |m, n>, index (m + N/2) (cutoff + 1) + n."""
    s = 0.5 * n_atoms
    n_b = cutoff + 1
    dim = (n_atoms + 1) * n_b
    h = np.zeros((dim, dim))
    mi, n = np.divmod(np.arange(dim), n_b)
    h[np.arange(dim), np.arange(dim)] = (mi - s) + n
    g = y / math.sqrt(n_atoms)
    for k in range(n_atoms):  # <m+1| S_x |m>, m = k - s
        m = k - s
        sx = 0.5 * math.sqrt(s * (s + 1.0) - m * (m + 1.0))
        for j in range(cutoff):  # <j+1| a + a' |j> = sqrt(j + 1)
            c = g * sx * math.sqrt(j + 1.0)
            for p, q in (((k, j), (k + 1, j + 1)), ((k, j + 1), (k + 1, j))):
                i1, i2 = p[0] * n_b + p[1], q[0] * n_b + q[1]
                h[i1, i2] = h[i2, i1] = c
    parity = (mi + n) % 2
    w = np.sort(np.concatenate([
        np.linalg.eigvalsh(h[np.ix_(parity == b, parity == b)])
        for b in (0, 1)]))
    return float(w[0]), float(w[1] - w[0])


def check_dicke(spec: dict, out: dict, refs) -> list[str]:
    y, n_atoms = spec["y"], spec["n_atoms"]
    scan, ground, mf = out["scan"], out["ground"], out["mean_field"]
    e0, gap = refs
    tol = DICKE_REL * max(1.0, abs(e0))
    problems = []
    if not abs(scan["energy"] - e0) <= tol:
        problems.append(f"scan energy {scan['energy']!r} vs eigvalsh {e0!r}")
    if not abs(scan["gap"] - gap) <= tol:
        problems.append(f"scan gap {scan['gap']!r} vs eigvalsh {gap!r}")
    if not abs(ground["energy"] - scan["energy"]) <= 1e-12 * max(1.0, abs(e0)):
        problems.append(f"ground_state energy {ground['energy']!r} differs "
                        f"from spectrum_scan {scan['energy']!r}")
    if y == 0.0:
        for name, row in (("scan", scan), ("ground", ground)):
            if row["energy"] != -0.5 * n_atoms or row["photon_number"] != 0.0:
                problems.append(f"{name} at y = 0: energy {row['energy']!r}, "
                                f"photons {row['photon_number']!r}")
    if mf["y_c"] != 1.0:
        problems.append(f"mean_field y_c = {mf['y_c']!r}")
    # closed-form mean field with omega_a = omega_c = 1
    e_mf = -0.5 if y <= 1.0 else -0.25 * (y * y + 1.0 / (y * y))
    order = 0.0 if y <= 1.0 else 0.25 * (y * y - 1.0 / (y * y))
    if not abs(mf["energy"] - e_mf) <= MEAN_FIELD_ABS:
        problems.append(f"mean-field energy {mf['energy']!r} vs {e_mf!r}")
    if not abs(mf["order"] - order) <= ORDER_ABS:
        problems.append(f"mean-field order parameter {mf['order']!r} "
                        f"vs {order!r}")
    return [f"dicke y={y:.4f} N={n_atoms}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# all outputs of a run
# ---------------------------------------------------------------------------

def check_run(workload: str, specs: list, outputs: list,
              seed: int) -> list[str]:
    """Problems over every op output of a run; outputs cover whole passes
    of specs, and failed ops (outputs carrying "error") are skipped."""
    n = len(specs)
    if len(outputs) % n:
        return [f"{len(outputs)} outputs do not make whole passes of {n}"]
    ref_subset = (kernel_reference_indices(n, seed)
                  if workload == "kernels" else set())
    refs: dict[int, object] = {}

    def reference(i):
        if i not in refs:
            spec = specs[i]
            if workload == "verify":
                refs[i] = verify_reference(spec)
            elif workload == "kernels":
                sep = (spec["u"], spec["v"], spec["phi"])
                refs[i] = ((e_plus_image_sum(*sep), d_plus_quadrature(*sep))
                           if i in ref_subset else None)
            else:
                refs[i] = dicke_reference(spec["y"], spec["n_atoms"],
                                          spec["cutoff"])
        return refs[i]

    problems = []
    for k, out in enumerate(outputs):
        i = k % n
        if isinstance(out, dict) and "error" in out:
            continue
        spec = specs[i]
        if workload == "verify":
            found = (check_reports(spec, out)
                     + check_lattice_side(spec, out, reference(i)))
        elif workload == "kernels":
            found = check_kernels(spec, out, reference(i))
        else:
            found = check_dicke(spec, out, reference(i))
        problems.extend(found)
    return problems
