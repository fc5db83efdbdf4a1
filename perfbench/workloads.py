"""Inputs and operations of the three benchmark workloads.

Inputs are plain JSON-serialisable dicts ("op specs") made from the seed
alone; fpcavity only ever sees the numbers in them.  `build_op` turns one
spec into a zero-argument callable over a table of fpcavity functions, so
the traced run can hand in wrapped versions of the same functions.

Separations are stratified: u-stratum i of n is paired with a fixed
v-stratum, (u, v) is the centre of that cell, and the seed draws phi.  The
cost of kernel_d rises steeply near a mirror (u -> 0 or 2) and with v, and
it is not smooth: moving (u, v) by a fraction of a cell changes the
adaptive panel splits.  Drawn (u, v) therefore move the percentiles from
seed to seed (by up to 47 % for kernels/op_ms_p90 with draws from the
middle half of each cell).  phi rotates the kernels and leaves their cost
alone, so the outputs change with the seed while the cost mix of a pass
does not.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("verify", "kernels", "dicke")

# A run covers whole passes and at least this many ops, so that op_ms_p90
# has ten samples beyond it.
MIN_OPS = 100

# --- verify: the per-grid-point calls of run_suite("all") at the default
# VerifyConfig, kept here as constants so that the workload does not move
# when the library's defaults do.
BESSEL_U = tuple(round(0.1 + 0.2 * i, 1) for i in range(10))
BESSEL_V = (0.25, 0.5, 1.0, 2.0, 4.0)
N_EQ21 = 20
SELF_Z = tuple(round(0.1 * i, 1) for i in range(1, 10))
MODESUM_ALPHAS = (0.0, 0.5, math.pi)
MODESUM_BETAS = (0.3, 1.0, 3.0)
MODESUM_ORDERS = (0, 1)
MODESUM_N_MAX = 10 ** 6
LIPSCHITZ_U = (1.0, 2.0)
LIPSCHITZ_V = (0.0, 1.0, 3.0)
GREEN_TRIPLES = ((0.5, 1.0, 1.0), (0.3, 1.7, 0.5), (1.2, 0.8, 2.0))
AXIAL_U = (0.3, 0.7, 1.0, 1.5)
ANISO_LENGTHS = (1.0, 2.0, 4.0, 8.0)
ANISO_CUTOFF = math.pi
ANISO_DECAY_FACTOR = 1e-2

# --- kernels: one separation per op, in two clusters of op cost.  u stays
# 0.05 away from the mirrors: kernel_d fails to converge at u = 1e-3.  v
# stays below 1.5: from v ~ 2 near a mirror, kernel_d at the default
# tolerance is sometimes wrong by up to 3e-7 relative, which fails the
# cancellation check on some seeds.
# The bulk: separations in the middle of the cavity, where kernel_d costs
# less than kernel_e and the cost of an op varies little.  p50 falls among
# them.
KERNEL_BULK_U = (0.4, 1.6)
KERNEL_V = (0.05, 1.5)
N_KERNEL_BULK = 75
KERNELS_V_STEP = 32  # v-stratum of bulk u-stratum i is (32 i) mod 75
# Near a mirror the cost of kernel_d grows with v / d, d the distance to the
# mirror.  Separations at d in (0.05, 0.25) with v = 4 d cost about the
# same, about 1.5 times a bulk op, and hold p90.
MIRROR_D = (0.05, 0.25)
MIRROR_V_PER_D = 4.0
N_KERNEL_MIRROR = 25
# the EQ21 separations of verify span the u and v ranges of run_suite
EQ21_U = (0.05, 1.95)
EQ21_V = (0.05, 3.0)

# --- dicke: one coupling per op on [0, 3], across y_c = 1.  Six small ops
# (the CLI default size) for every large one, so that p50 falls among the
# small ops and p90 inside the cluster of large ones, each of which takes
# more than ten times as long as a small one.  A run of three passes, 105
# ops, takes about 38 s.
Y_MAX = 3.0
DICKE_SMALL = (8, 60)   # (n_atoms, fock_cutoff): parity blocks ~275 states
DICKE_LARGE = (16, 100)  # parity blocks ~860 states
N_DICKE_LARGE = 5
SMALL_PER_LARGE = 6


def _middle_half(rng, lo: float, hi: float, cell: int, n: int) -> float:
    width = (hi - lo) / n
    return lo + width * (cell + 0.25 + 0.5 * rng.random())


def strided_pairing(n: int, step: int) -> list[int]:
    """v-stratum (step * i) mod n for u-stratum i: spreads every u over the
    whole v range."""
    if math.gcd(n, step) != 1:
        raise ValueError("step must be coprime to n")
    return [(step * i) % n for i in range(n)]


def mirror_pairing(n: int) -> list[int]:
    """Small v-strata for the u-strata nearest a mirror, large v-strata for
    the central ones.  kernel_d grows with v and with nearness to a mirror,
    so this pairing gives ops of about equal cost."""
    return [2 * min(i, n - 1 - i) + (2 * i >= n) for i in range(n)]


def spread_evenly(groups: list[list[dict]]) -> list[dict]:
    """The items of all groups, each group spread evenly over the result and
    kept in its own order.

    The speed of this host drifts by tens of percent over seconds; when the
    ops that hold a percentile run back to back, that percentile measures
    the host over a few seconds only.  Spread out, it sees the whole pass,
    like pass_s does.
    """
    keyed = [((k + 0.5) / len(group), j, item)
             for j, group in enumerate(groups) for k, item in enumerate(group)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


def interleave_kinds(specs: list[dict]) -> list[dict]:
    """spread_evenly over the ops of each kind, kinds in order of first
    appearance."""
    groups: dict[str, list[dict]] = {}
    for spec in specs:
        groups.setdefault(spec["kind"], []).append(spec)
    return spread_evenly(list(groups.values()))


def stratified_separations(rng, pairing: list[int], u_range: tuple,
                           v_range: tuple) -> list[dict]:
    """One separation per u-stratum i, at the centre of its cell in
    v-stratum pairing[i]; phi is uniform on [0, 2 pi)."""
    n = len(pairing)
    (u_lo, u_hi), (v_lo, v_hi) = u_range, v_range
    return [{"u": u_lo + (u_hi - u_lo) * (i + 0.5) / n,
             "v": v_lo + (v_hi - v_lo) * (j + 0.5) / n,
             "phi": 2.0 * math.pi * rng.random()}
            for i, j in enumerate(pairing)]


def mirror_separations(rng, n: int) -> list[dict]:
    """n separations near the mirrors, alternately at u = d and u = 2 - d,
    with d at the cell centres of MIRROR_D and v = MIRROR_V_PER_D d; phi is
    uniform on [0, 2 pi)."""
    lo, hi = MIRROR_D
    seps = []
    for k in range(n):
        d = lo + (hi - lo) * (k + 0.5) / n
        seps.append({"u": d if k % 2 == 0 else 2.0 - d,
                     "v": MIRROR_V_PER_D * d,
                     "phi": 2.0 * math.pi * rng.random()})
    return seps


def make_specs(workload: str, seed: int) -> list[dict]:
    """The op list of one pass, in execution order."""
    rng = np.random.default_rng(seed)
    if workload == "verify":
        specs = [{"kind": "bessel", "u": u, "v": v}
                 for u in BESSEL_U for v in BESSEL_V]
        # the EQ21 ops share one cost cluster, which holds the median
        specs += [dict(kind="eq21", **s) for s in stratified_separations(
            rng, mirror_pairing(N_EQ21), EQ21_U, EQ21_V)]
        specs += [{"kind": "self", "z": z} for z in SELF_Z]
        specs += [{"kind": "modesum", "alpha": a, "beta": b, "m": m,
                   "n_max": MODESUM_N_MAX}
                  for a in MODESUM_ALPHAS for b in MODESUM_BETAS
                  for m in MODESUM_ORDERS]
        specs += [{"kind": "lipschitz", "u": u, "v": v}
                  for u in LIPSCHITZ_U for v in LIPSCHITZ_V]
        specs += [{"kind": "green", "u": u, "u_prime": up, "v": v}
                  for u, up, v in GREEN_TRIPLES]
        specs.append({"kind": "aniso", "axial_u": list(AXIAL_U),
                      "lengths": list(ANISO_LENGTHS), "cutoff": ANISO_CUTOFF,
                      "decay_factor": ANISO_DECAY_FACTOR})
        return interleave_kinds(specs)
    if workload == "kernels":
        bulk = stratified_separations(
            rng, strided_pairing(N_KERNEL_BULK, KERNELS_V_STEP),
            KERNEL_BULK_U, KERNEL_V)
        near = mirror_separations(rng, N_KERNEL_MIRROR)
        return [dict(kind="kernels", **sep)
                for sep in spread_evenly([bulk, near])]
    if workload == "dicke":
        n_small = SMALL_PER_LARGE * N_DICKE_LARGE

        def couplings(n):
            # cell 0 is pinned to y = 0, where the exact answer is known
            return [0.0] + [_middle_half(rng, 0.0, Y_MAX, i, n)
                            for i in range(1, n)]

        small = couplings(n_small)
        large = couplings(N_DICKE_LARGE)
        specs = []
        for k in range(N_DICKE_LARGE):
            for y in small[SMALL_PER_LARGE * k:SMALL_PER_LARGE * (k + 1)]:
                specs.append({"kind": "dicke", "y": y,
                              "n_atoms": DICKE_SMALL[0],
                              "cutoff": DICKE_SMALL[1]})
            specs.append({"kind": "dicke", "y": large[k],
                          "n_atoms": DICKE_LARGE[0],
                          "cutoff": DICKE_LARGE[1]})
        return specs
    raise ValueError(f"unknown workload {workload!r}")


def passes_needed(ops_per_pass: int) -> int:
    """Fewest whole passes that time at least MIN_OPS ops."""
    return -(-MIN_OPS // ops_per_pass)


# ---------------------------------------------------------------------------
# ops over a function table
# ---------------------------------------------------------------------------

def api_table(fp) -> dict:
    """The public fpcavity functions the workloads call directly."""
    names = ("check_bessel_hyperbolic", "check_kernel_cancellation",
             "check_mode_sum", "check_lipschitz", "check_green",
             "check_axial_and_aniso", "kernel_e", "kernel_d",
             "spectrum_scan", "ground_state", "mean_field")
    return {name: getattr(fp, name) for name in names}


def _report_dict(r) -> dict:
    return {"check_id": r.check_id, "lhs": r.lhs, "rhs": r.rhs,
            "abs_err": r.abs_err, "rel_err": r.rel_err, "passed": r.passed,
            "tol_used": [r.tol_used.abs_tol, r.tol_used.rel_tol]}


def _reports(rs) -> list[dict]:
    return [_report_dict(r) for r in (rs if isinstance(rs, list) else [rs])]


def _flat(km) -> list[float]:
    return [float(x) for x in np.asarray(km.m, dtype=float).ravel()]


def build_op(fp, fns: dict, spec: dict):
    """A zero-argument callable for one spec, returning a JSON-able result.

    fns maps the names of api_table to the callables to use; the outputs
    are converted to plain lists inside the op, which is part of its time.
    """
    kind = spec["kind"]
    if kind == "bessel":
        return lambda: _reports(fns["check_bessel_hyperbolic"](
            spec["u"], spec["v"]))
    if kind == "eq21":
        sep = fp.Separation(spec["u"], spec["v"], spec["phi"])
        return lambda: _reports(fns["check_kernel_cancellation"](
            [sep], [], kernel_e_fn=fns["kernel_e"],
            kernel_d_fn=fns["kernel_d"]))
    if kind == "self":
        return lambda: _reports(fns["check_kernel_cancellation"](
            [], [spec["z"]], kernel_e_fn=fns["kernel_e"],
            kernel_d_fn=fns["kernel_d"]))
    if kind == "modesum":
        args = fp.ModeSumArgs(spec["alpha"], spec["beta"], spec["m"])
        return lambda: _reports(fns["check_mode_sum"]([args], spec["n_max"]))
    if kind == "lipschitz":
        return lambda: _reports(fns["check_lipschitz"](spec["u"], spec["v"]))
    if kind == "green":
        return lambda: _reports(fns["check_green"](
            spec["u"], spec["u_prime"], spec["v"]))
    if kind == "aniso":
        return lambda: _reports(fns["check_axial_and_aniso"](
            spec["axial_u"], spec["lengths"], spec["cutoff"],
            decay_factor=spec["decay_factor"]))
    if kind == "kernels":
        sep = fp.Separation(spec["u"], spec["v"], spec["phi"])

        def kernels_op():
            return {"e_plus": _flat(fns["kernel_e"]("plus", sep)),
                    "e_minus": _flat(fns["kernel_e"]("minus", sep)),
                    "d_plus": _flat(fns["kernel_d"]("plus", sep)),
                    "d_minus": _flat(fns["kernel_d"]("minus", sep))}
        return kernels_op
    if kind == "dicke":
        p = fp.DickeParams(y=spec["y"], n_atoms=spec["n_atoms"],
                           fock_cutoff=spec["cutoff"])

        def dicke_op():
            row = fns["spectrum_scan"](p, [spec["y"]])[0]
            g = fns["ground_state"](p)
            mf = fns["mean_field"](p)
            return {"scan": {"energy": row.energy, "gap": row.gap,
                             "photon_number": row.photon_number},
                    "ground": {"energy": g.energy,
                               "photon_number": g.photon_number},
                    "mean_field": {"y_c": mf.y_c,
                                   "order": mf.order_parameter_sq_per_atom,
                                   "energy": mf.energy_per_atom}}
        return dicke_op
    raise ValueError(f"unknown op kind {kind!r}")


def warm_up(fp, workload: str) -> None:
    """One small untimed call into each layer the workload uses."""
    if workload == "verify":
        fp.xi(0.5, 0.5)
        fp.integrate_semi_infinite(lambda x: np.exp(-x), 1.0)
        fp.direct_mode_sum(fp.ModeSumArgs(0.5, 1.0, 0), 8)
        fp.anisotropy_delta(fp.CavityFrame(1.0), math.pi)
        fp.check_green(0.5, 1.0, 1.0)
    if workload in ("verify", "kernels"):
        fp.kernel_e("plus", fp.Separation(1.0, 1.0))
        fp.kernel_d("plus", fp.Separation(1.0, 1.0))
    if workload == "dicke":
        p = fp.DickeParams(y=0.5, n_atoms=2, fock_cutoff=4)
        fp.spectrum_scan(p, [0.5])
        fp.ground_state(p)
        fp.mean_field(fp.DickeParams(y=2.0))
