"""Benchmark of fpcavity: verify, kernels and dicke workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; fpcavity is taken from its src/.  Each
run starts fresh processes: one load process that covers whole passes of
the workload's op list for at least --seconds and at least
workloads.MIN_OPS ops, and set-up probes before and after it (the median
of their start-up times is setup_s).  Every time is scaled to one fixed
host speed by a reference piece of work timed next to it.  The outputs
are then checked (checks.py) and the last line printed is the JSON
result.  With --trace 1 the load process runs every op untraced and
traced, the result holds the per-layer metrics, and the spans go to
.perfbench_out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import workloads
from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# The host's speed drifts by tens of percent within seconds and from run to
# run (README.md, "Steadiness").  Every time is therefore reported at one
# fixed host speed: scaled by REF_WORK_S over the time the host took, next
# to it, for a fixed piece of reference work (worker.reference_work).
# REF_WORK_S is about what that work takes on the machine of README.md, so
# the scaled times read about as wall-clock times there.  The reference
# work runs before every op and after the last, and an op is scaled by the
# mean of the two samples next to it: wider windows were no steadier.
REF_WORK_S = 0.023
# set-up probes before and after the load process: the host's speed drifts,
# so the samples are spread over the run
SETUP_PROBES_EACH_SIDE = 2
WORKER_TIMEOUT_S = 170
# One BLAS thread: the load is one single-threaded process on a 2-core box.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PERFBENCH_SRC=SRC, **THREAD_ENV)


def _worker(*args: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), *args]


def setup_probe(workload: str) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until fpcavity is imported
    and the workload's first calls are made, and the seconds the probe then
    takes for the reference work."""
    t0 = time.perf_counter()
    with subprocess.Popen(_worker("probe", workload), env=_child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with {proc.returncode}")
    return elapsed, float(rest)


def load(mode: str, workload: str, seconds: int, specs: list) -> dict:
    proc = subprocess.run(_worker(mode, workload, str(seconds)),
                          input=json.dumps(specs), env=_child_env(),
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"load process failed with {proc.returncode}")
    return json.loads(proc.stdout)


def host_scaled(times: list[float], ref: list[float]) -> list[float]:
    """Op times at the reference host speed.  ref[i] was taken just before
    op i and ref[i + 1] just after it."""
    return [t * 2.0 * REF_WORK_S / (ref[i] + ref[i + 1])
            for i, t in enumerate(times)]


def end_to_end(setup_s: list[float], times: list[float], res: dict) -> dict:
    ms = [t * 1e3 for t in times]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "pass_s": (sum(times) / res["passes"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fpcavity", "__init__.py")):
        print(f"no fpcavity sources under {SRC}", file=sys.stderr)
        return 2

    specs = workloads.make_specs(args.workload, args.seed)
    if args.trace:
        res = load("traced", args.workload, args.seconds, specs)
        metrics = {name: (res["per_layer"][name], unit)
                   for name, unit in PER_LAYER}
    else:
        probes = [setup_probe(args.workload)
                  for _ in range(SETUP_PROBES_EACH_SIDE)]
        res = load("timed", args.workload, args.seconds, specs)
        probes += [setup_probe(args.workload)
                   for _ in range(SETUP_PROBES_EACH_SIDE)]
        res["probes"] = probes
        metrics = end_to_end(
            [t * REF_WORK_S / ref for t, ref in probes],
            host_scaled(res["times"], res["ref"]), res)
        wall = end_to_end([t for t, _ in probes], res["times"], res)
        print("wall clock:", ", ".join(f"{name} {value:.4g} {unit}" for
                                       name, (value, unit) in wall.items()))
        ops_ms = statistics.median(res["ref"]) * 1e3
        probes_ms = statistics.median(r for _, r in probes) * 1e3
        print(f"reference work: median {ops_ms:.2f} ms next to the ops, "
              f"{probes_ms:.2f} ms in the set-up probes")

    problems = checks.check_run(args.workload, specs, res["outputs"],
                                args.seed)
    for p in problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w") as f:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": res["spans"]}, f)
        print("absent layers:", ", ".join(res["absent"]) or "none")
        print(f"tracing overhead: traced pass {res['traced_pass_s']:.3f} s, "
              f"untraced pass {res['plain_pass_s']:.3f} s")
    print("environment:", json.dumps(res["env"], sort_keys=True))
    result = {"correct": not problems, "attempted": len(res["outputs"]),
              "failed": res["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if not args.trace:
        with open(os.path.join(OUT, f"raw-{tag}.json"), "w") as f:
            json.dump({k: res[k] for k in ("times", "ref", "probes",
                                           "passes")}, f)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(result, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
