"""Spans around the calls into fpcavity's layers, recorded from outside.

The tracer reaches a call in one of two ways: it rebinds a public name in
the module that looks it up at call time (`Tracer.install`), or it hands a
wrapped callable to the workload's own call sites and through public
parameters such as `kernel_e_fn` (`Tracer.wrap`).  Spans are
[name, start, end, parent] and stay in memory until the run writes them
out.  A rebinding target that no longer exists is recorded as absent.
"""

from __future__ import annotations

import importlib
import math
import resource
import time
from collections import defaultdict

# (module, name, span name) of the names rebound where fpcavity looks them up
REBIND = (
    ("fpcavity.verify", "xi", "specfun.xi"),
    ("fpcavity.verify", "integrate_semi_infinite",
     "specfun.integrate_semi_infinite"),
    ("fpcavity.radiation", "integrate_semi_infinite",
     "specfun.integrate_semi_infinite"),
    ("fpcavity.verify", "direct_mode_sum", "specfun.direct_mode_sum"),
    ("fpcavity.verify", "kernel_d", "radiation.kernel_d"),
    ("fpcavity.verify", "anisotropy_delta", "radiation.anisotropy_delta"),
    ("fpcavity.dicke", "build_hamiltonian", "dicke.build_hamiltonian"),
)

# span names of the functions the workloads call themselves
API_SPANS = {
    "kernel_e": "coulomb.kernel_e",
    "kernel_d": "radiation.kernel_d",
    "spectrum_scan": "dicke.spectrum_scan",
    "ground_state": "dicke.ground_state",
    "mean_field": "dicke.mean_field",
}
CHECK_SPAN = "verify.checks"

PER_LAYER = (
    ("fpcavity.import_s", "s"),
    ("specfun.xi.calls", "count"),
    ("specfun.xi.s", "s"),
    ("specfun.integrate_semi_infinite.calls", "count"),
    ("specfun.integrate_semi_infinite.nodes", "count"),
    ("specfun.integrate_semi_infinite.integrand_s", "s"),
    ("specfun.integrate_semi_infinite.self_s", "s"),
    ("specfun.direct_mode_sum.s", "s"),
    ("coulomb.kernel_e.calls", "count"),
    ("coulomb.kernel_e.s", "s"),
    ("coulomb.kernel_e.minor_faults", "count"),
    ("radiation.kernel_d.calls", "count"),
    ("radiation.kernel_d.self_s", "s"),
    ("radiation.anisotropy_delta.s", "s"),
    ("verify.checks.calls", "count"),
    ("verify.checks.self_s", "s"),
    ("dicke.build_hamiltonian.calls", "count"),
    ("dicke.build_hamiltonian.s", "s"),
    ("dicke.solve.s", "s"),
    ("dicke.block_dim.max", "count"),
    ("dicke.mean_field.s", "s"),
    ("trace.overhead_s", "s"),
)

# layers whose metrics come from each rebinding target
_LAYER_OF_TARGET = {
    "specfun.xi": ("specfun.xi",),
    "specfun.integrate_semi_infinite": ("specfun.integrate_semi_infinite",),
    "specfun.direct_mode_sum": ("specfun.direct_mode_sum",),
    "radiation.anisotropy_delta": ("radiation.anisotropy_delta",),
    "dicke.build_hamiltonian": ("dicke.build_hamiltonian", "dicke.block_dim"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._child_s: list[float] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._child_s.append(0.0)
        self._stack.append(idx)
        return idx

    def _leave(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[1], span[2] = t0, t1
        if span[3] >= 0:
            self._child_s[span[3]] += t1 - t0

    def wrap(self, name: str, fn):
        """fn, recording a span per call; a few layers add counters."""
        clock = time.perf_counter
        if name == "coulomb.kernel_e":
            def body(*args, **kwargs):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.counters["coulomb.kernel_e.minor_faults"] += (
                        resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                        - before)
        elif name == "specfun.integrate_semi_infinite":
            def body(integrand, *args, **kwargs):
                return fn(self._integrand(integrand), *args, **kwargs)
        elif name == "dicke.build_hamiltonian":
            def body(p, *args, **kwargs):
                # the larger parity block, from the parameters alone
                block = math.ceil((p.n_atoms + 1) * (p.fock_cutoff + 1) / 2)
                self.counters["dicke.block_dim.max"] = max(
                    self.counters["dicke.block_dim.max"], block)
                return fn(p, *args, **kwargs)
        else:
            body = fn

        def traced(*args, **kwargs):
            idx = self._enter(name)
            t0 = clock()
            try:
                return body(*args, **kwargs)
            finally:
                self._leave(idx, t0, clock())
        return traced

    def _integrand(self, f):
        clock = time.perf_counter

        def counted(x):
            t0 = clock()
            y = f(x)
            dt = clock() - t0
            self.counters["specfun.integrate_semi_infinite.integrand_s"] += dt
            self.counters["specfun.integrate_semi_infinite.nodes"] += len(x)
            if self._stack:
                self._child_s[self._stack[-1]] += dt
            return y
        return counted

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every REBIND target; record the missing ones as absent."""
        for module_name, attr, span in REBIND:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                key = f"{module_name}.{attr}"
                if key not in self.absent:
                    self.absent.append(key)
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def api(self, fns: dict) -> dict:
        """Wrapped copies of the workload's own function table."""
        out = {}
        for name, fn in fns.items():
            span = API_SPANS.get(name, CHECK_SPAN)
            out[name] = self.wrap(span, fn)
        return out

    # -- summary -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, t0, t1, _), child in zip(self.spans, self._child_s):
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child
        return out

    def absent_layers(self) -> list[str]:
        """Layer names whose metrics could not be measured."""
        layers = []
        for module_name, attr, span in REBIND:
            if f"{module_name}.{attr}" in self.absent:
                layers.extend(_LAYER_OF_TARGET.get(span, ()))
        return sorted(set(layers))


def per_layer_metrics(tracer: Tracer, passes: int, import_s: float,
                      overhead_s: float) -> dict[str, float]:
    """The per-pass layer metrics of a traced run."""
    t = tracer.totals()
    c = tracer.counters

    def per_pass(x):
        return x / passes

    isi = t["specfun.integrate_semi_infinite"]
    values = {
        "fpcavity.import_s": import_s,
        "specfun.xi.calls": per_pass(t["specfun.xi"]["calls"]),
        "specfun.xi.s": per_pass(t["specfun.xi"]["s"]),
        "specfun.integrate_semi_infinite.calls": per_pass(isi["calls"]),
        "specfun.integrate_semi_infinite.nodes": per_pass(
            c["specfun.integrate_semi_infinite.nodes"]),
        "specfun.integrate_semi_infinite.integrand_s": per_pass(
            c["specfun.integrate_semi_infinite.integrand_s"]),
        "specfun.integrate_semi_infinite.self_s": per_pass(isi["self_s"]),
        "specfun.direct_mode_sum.s": per_pass(
            t["specfun.direct_mode_sum"]["s"]),
        "coulomb.kernel_e.calls": per_pass(t["coulomb.kernel_e"]["calls"]),
        "coulomb.kernel_e.s": per_pass(t["coulomb.kernel_e"]["s"]),
        "coulomb.kernel_e.minor_faults": per_pass(
            c["coulomb.kernel_e.minor_faults"]),
        "radiation.kernel_d.calls": per_pass(
            t["radiation.kernel_d"]["calls"]),
        "radiation.kernel_d.self_s": per_pass(
            t["radiation.kernel_d"]["self_s"]),
        "radiation.anisotropy_delta.s": per_pass(
            t["radiation.anisotropy_delta"]["s"]),
        "verify.checks.calls": per_pass(t[CHECK_SPAN]["calls"]),
        "verify.checks.self_s": per_pass(t[CHECK_SPAN]["self_s"]),
        "dicke.build_hamiltonian.calls": per_pass(
            t["dicke.build_hamiltonian"]["calls"]),
        "dicke.build_hamiltonian.s": per_pass(
            t["dicke.build_hamiltonian"]["s"]),
        "dicke.solve.s": per_pass(t["dicke.ground_state"]["self_s"]
                                  + t["dicke.spectrum_scan"]["self_s"]),
        "dicke.block_dim.max": c["dicke.block_dim.max"],
        "dicke.mean_field.s": per_pass(t["dicke.mean_field"]["s"]),
        "trace.overhead_s": overhead_s,
    }
    assert set(values) == {name for name, _ in PER_LAYER}
    return values
