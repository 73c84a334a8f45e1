"""Outside-in tracing of perspec's layers.

Spans are recorded around calls into each layer's public functions by
swapping the module attribute the caller looks the function up by; nothing
inside ``src/perspec`` is changed.  Spans live in memory (``Tracer.spans``)
and are written out by the caller when the run ends.  The tracer also
times itself: ``Tracer.overhead_s`` is the time its wrappers spend outside
the calls they wrap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass, field

import numpy as np

# (span name, module whose attribute is swapped, attribute).  The modules
# that import a function by name need their own entry: cli imports
# scan_and_refine, assemble_kernel, singular_values and dyadic_bound_audit;
# schatten imports solution_pairs; shooting imports integrate_quasi_system.
WRAPPED = (
    ("cli.run_subcommand", "perspec.cli", "run_subcommand"),
    ("eigensolve.scan_and_refine", "perspec.cli", "scan_and_refine"),
    ("eigensolve.dispersion", "perspec.eigensolve", "dispersion"),
    ("shooting.integrate", "perspec.shooting", "integrate_quasi_system"),
    ("green.assemble_kernel", "perspec.green", "assemble_kernel"),
    ("green.assemble_kernel", "perspec.cli", "assemble_kernel"),
    ("green.solution_pairs", "perspec.green", "solution_pairs"),
    ("green.solution_pairs", "perspec.schatten", "solution_pairs"),
    ("green.apply_resolvent", "perspec.green", "apply_resolvent"),
    ("schatten.singular_values", "perspec.cli", "singular_values"),
    ("schatten.dyadic_bound_audit", "perspec.cli", "dyadic_bound_audit"),
)

# highest percentile first; the tail reported is the first that leaves at
# least TAIL_MIN_BEYOND samples above it
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

MIB = 2.0 ** 20


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1                 # index into Tracer.spans, -1 for a root
    op: str = ""                     # operation the span belongs to
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# Span details from a call's bound arguments and its result (None when it raised).

def _scan_info(args, result) -> dict:
    if result is None:
        return {}
    return {"roots": int(len(result.positive())), "skipped": len(result.skipped)}


def _dispersion_info(args, result) -> dict:
    return {"lam": float(np.real(args["lam"]))}


def _shot_info(args, result) -> dict:
    info = {"forced": int(len(args["forced"]))}
    if result is not None:
        info["steps"] = int(result[6])
    return info


def _kernel_info(args, result) -> dict:
    return {} if result is None else {"n": int(result.nodes.size)}


_INFO = {
    "eigensolve.scan_and_refine": _scan_info,
    "eigensolve.dispersion": _dispersion_info,
    "shooting.integrate": _shot_info,
    "green.assemble_kernel": _kernel_info,
}


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            bound = sig.bind(*args, **kwargs).arguments if info is not None else None
            idx = len(self.spans)
            span = Span(name, time.perf_counter(),
                        parent=self._stack[-1] if self._stack else -1, op=self.op)
            self.spans.append(span)
            self._stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if info is not None:
                    span.info = info(bound, result)
                self.overhead_s += time.perf_counter() - entered - span.duration

        return traced

    def __enter__(self):
        for name, modname, attr in WRAPPED:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo, hi = max(spans[k].start, reach), min(spans[k].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _percentile(sorted_vals, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def layer_metrics(spans: list[Span], details: dict) -> dict:
    """Per-layer numbers of one traced pass; layers the pass never entered read 0.

    ``details`` carries what only the workload itself knows: the recovery
    error of each resolvent operation.
    """
    selfs = self_times(spans)

    def of(name):
        return [(i, s) for i, s in enumerate(spans) if s.name == name]

    def parent_name(s):
        return spans[s.parent].name if s.parent >= 0 else ""

    shots = of("shooting.integrate")
    steps = sum(s.info.get("steps", 0) for _, s in shots)
    shot_ms = sorted(1e3 * s.duration for _, s in shots)
    tail_pct = next((p for p in TAIL_PERCENTILES
                     if len(shot_ms) * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND),
                    TAIL_PERCENTILES[-1])

    scan_s = refine_s = 0.0
    scan_calls = refine_calls = roots = skipped = 0
    for i, scan in of("eigensolve.scan_and_refine"):
        calls = [s for s in spans if s.parent == i and s.name == "eigensolve.dispersion"]
        # the scan walks its grid upwards; the first call whose lam does not
        # increase starts the refinement (bisection, then the residual check)
        grid = next((k for k in range(1, len(calls))
                     if calls[k].info["lam"] <= calls[k - 1].info["lam"]), len(calls))
        scan_calls += len(calls[:grid])
        refine_calls += len(calls[grid:])
        scan_s += sum(s.duration for s in calls[:grid])
        refine_s += sum(s.duration for s in calls[grid:])
        roots += scan.info.get("roots", 0)
        skipped += scan.info.get("skipped", 0)

    kernels = of("green.assemble_kernel")
    n_max = max((s.info.get("n", 0) for _, s in kernels), default=0)
    last_n = {s.op: s.info.get("n", 0) for _, s in kernels}    # last rung of each operation
    pairs = of("green.solution_pairs")
    recovery = details.get("recovery_err", [])

    def total(name):
        return sum(s.duration for _, s in of(name))

    def self_total(name):
        return sum(selfs[i] for i, _ in of(name))

    return {
        "cli.self_s": (self_total("cli.run_subcommand"), "s"),
        "shooting.shots": (len(shots), "count"),
        "shooting.steps": (steps, "count"),
        "shooting.rhs_evals": (6 * steps + len(shots), "count"),
        "shooting.forced_nodes": (sum(s.info.get("forced", 0) for _, s in shots), "count"),
        "shooting.self_s": (self_total("shooting.integrate"), "s"),
        "shooting.us_per_step": (1e6 * total("shooting.integrate") / steps if steps else 0.0,
                                 "us"),
        "shooting.shot_ms_p50": (_percentile(shot_ms, 50.0) if shot_ms else 0.0, "ms"),
        "shooting.shot_ms_tail": (_percentile(shot_ms, tail_pct) if shot_ms else 0.0, "ms"),
        "shooting.shot_tail_pct": (tail_pct, "percentile"),
        "eigensolve.scan_calls": (scan_calls, "count"),
        "eigensolve.refine_calls": (refine_calls, "count"),
        "eigensolve.roots": (roots, "count"),
        "eigensolve.calls_per_root": (refine_calls / roots if roots else 0.0, "ratio"),
        "eigensolve.scan_s": (scan_s, "s"),
        "eigensolve.refine_s": (refine_s, "s"),
        "eigensolve.skipped": (skipped, "count"),
        "green.pairs_s": (sum(s.duration for _, s in pairs
                              if parent_name(s) == "green.assemble_kernel"), "s"),
        "green.dense_s": (self_total("green.assemble_kernel"), "s"),
        "green.apply_s": (total("green.apply_resolvent"), "s"),
        "green.rungs": (len(kernels), "count"),
        "green.final_n": (float(np.mean(list(last_n.values()))) if last_n else 0.0, "nodes"),
        "green.recovery_err": (max(recovery) if recovery else 0.0, "ratio"),
        "green.kernel_mb": (3 * n_max ** 2 * 16 / MIB, "MB"),
        "schatten.svd_s": (total("schatten.singular_values"), "s"),
        "schatten.dyadic_s": (total("schatten.dyadic_bound_audit"), "s"),
        "schatten.dyadic_pairs_s": (sum(s.duration for _, s in pairs
                                        if parent_name(s) == "schatten.dyadic_bound_audit"),
                                    "s"),
    }
