"""The load process of one benchmark run; started fresh by run.py.

    python3 perfbench/worker.py probe WORKLOAD
        import fpcavity, make the workload's untimed first calls, print
        "ready" (one set-up sample), then the median seconds of five runs
        of the reference work, and exit.
    python3 perfbench/worker.py timed WORKLOAD SECONDS    < specs.json
    python3 perfbench/worker.py traced WORKLOAD SECONDS   < specs.json
        run whole passes over the op list and print one JSON document.

fpcavity is imported from the checkout's src/ (run.py puts it on
PYTHONPATH); the op specs arrive on stdin.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import resource
import statistics
import sys
import time

_T0 = time.perf_counter()
import fpcavity as fp  # noqa: E402
_IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402

_FAILURES = (fp.ConvergenceError, fp.DomainError)


def _time_op(op, outputs: list) -> tuple[float, int]:
    """Run one op; append its output and return (seconds, 1 if it failed)."""
    t0 = time.perf_counter()
    try:
        out, failed = op(), 0
    except _FAILURES as exc:
        out, failed = {"error": f"{type(exc).__name__}: {exc}"}, 1
    elapsed = time.perf_counter() - t0
    outputs.append(out)
    return elapsed, failed


_REF_DATA = None
_REF_PAGES_BYTES = 8 << 20


def reference_work() -> float:
    """Seconds taken by one fixed piece of work that does not use fpcavity.

    It is made of the kinds of work the ops do: Python-level arithmetic,
    numpy arithmetic on small arrays, Bessel functions of array arguments
    and a dense symmetric eigenproblem, about a tenth each, and, for the
    other half, fresh pages faulted in and streamed through, as by the
    large arrays of the lattice sums.  Timed next to the ops, it measures
    the speed of the host at that moment.  The small arrays stay below
    malloc's mmap threshold and the pages are mapped and unmapped here, so
    what the ops allocated before does not change its cost.
    """
    global _REF_DATA
    from scipy import special
    if _REF_DATA is None:
        g = np.random.default_rng(0).standard_normal((160, 160))
        _REF_DATA = (np.arange(1.0, 10_001.0), np.linspace(0.05, 20.0, 2000),
                     g + g.T)
    n, x, m = _REF_DATA
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(15000):
        acc += math.exp(-1e-3 * i) * (i & 7)
    for _ in range(60):
        acc += float(np.sum(1.0 / (n * n * n)))
    acc += float(special.jv(1, x).sum())
    acc += float(np.linalg.eigvalsh(m)[0])
    with mmap.mmap(-1, _REF_PAGES_BYTES) as buf:
        a = np.frombuffer(buf, dtype=np.float64)
        a[:] = 1.0
        for _ in range(2):
            np.multiply(a, 1.0, out=a)
            acc += float(a.sum())
        del a
    return time.perf_counter() - t0


def _environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count()}


def timed(workload: str, seconds: float, specs: list) -> dict:
    fns = workloads.api_table(fp)
    ops = [workloads.build_op(fp, fns, s) for s in specs]
    workloads.warm_up(fp, workload)
    reference_work()
    min_passes = workloads.passes_needed(len(ops))
    times, ref, outputs, failed, passes = [], [], [], 0, 0
    start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - start < seconds:
        for op in ops:
            ref.append(reference_work())
            dt, bad = _time_op(op, outputs)
            times.append(dt)
            failed += bad
        passes += 1
    ref.append(reference_work())
    return {"times": times, "ref": ref, "outputs": outputs, "failed": failed,
            "passes": passes,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": _environment()}


def traced(workload: str, seconds: float, specs: list) -> dict:
    """Run every op twice per round, untraced and traced, back to back.

    Pairing the two runs of an op puts them in the same state of the host,
    whose speed drifts; alternating which one runs first cancels the
    advantage of the second run's warm caches.  The difference of the
    traced and untraced totals per round is the tracing overhead.
    """
    fns = workloads.api_table(fp)
    tracer = Tracer()
    pairs = [(workloads.build_op(fp, fns, s),
              workloads.build_op(fp, tracer.api(fns), s)) for s in specs]
    workloads.warm_up(fp, workload)
    plain_s = traced_s = 0.0
    plain_outputs, traced_outputs, failed, rounds = [], [], 0, 0
    start = time.perf_counter()
    while rounds < 1 or time.perf_counter() - start < seconds:
        for k, (plain_op, traced_op) in enumerate(pairs):
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if not with_trace:
                    dt, bad = _time_op(plain_op, plain_outputs)
                    plain_s += dt
                else:
                    tracer.install()
                    try:
                        dt, bad = _time_op(traced_op, traced_outputs)
                    finally:
                        tracer.uninstall()
                    traced_s += dt
                failed += bad
        rounds += 1
    plain_pass_s, traced_pass_s = plain_s / rounds, traced_s / rounds
    return {"outputs": plain_outputs + traced_outputs, "failed": failed,
            "plain_pass_s": plain_pass_s, "traced_pass_s": traced_pass_s,
            "per_layer": per_layer_metrics(tracer, rounds, _IMPORT_S,
                                           traced_pass_s - plain_pass_s),
            "absent": tracer.absent_layers(),
            "spans": tracer.spans, "env": _environment()}


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    src = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(fp.__file__).startswith(src + os.sep):
        print(f"fpcavity imported from {fp.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if mode == "probe":
        workloads.warm_up(fp, workload)
        print("ready", flush=True)
        reference_work()
        print(statistics.median(reference_work() for _ in range(5)))
        return 0
    specs = json.load(sys.stdin)
    run = timed if mode == "timed" else traced
    json.dump(run(workload, float(argv[2]), specs), sys.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
