"""One pass of a workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD INPUTS_JSON TRACE RESULT_JSON

Reads the inputs ``run.py`` generated, runs one pass (traced when TRACE is
1) and writes the pass record to RESULT_JSON: wall time, peak resident
memory, operations attempted and failed, and, when traced, the per-layer
numbers and the spans.  Imports happen before the clock starts; their cost
is what ``setup_s`` measures.  ``run.py`` takes out the time the pass was
frozen and rescales the rest to ``solve_s``.
"""

import contextlib
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import run


def main(argv) -> int:
    workload, inputs_path, trace, result_path = argv
    problem = run.load_program()
    if problem:
        print(f"perfbench worker: {problem}", file=sys.stderr)
        return run.EXIT_NO_PROGRAM
    from tracing import Tracer, layer_metrics
    from workloads import PASSES

    inputs = json.loads(Path(inputs_path).read_text())
    traced = trace == "1"
    tracer = Tracer()                  # records only while installed
    t0 = time.perf_counter()
    with tracer if traced else contextlib.nullcontext():
        result = PASSES[workload](inputs, run.OUT, tracer)
    t1 = time.perf_counter()
    wall = t1 - t0
    record = {"t0": t0, "t1": t1, "wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "attempted": result.attempted, "failed": result.failed,
              "failures": result.failures, "details": result.details}
    if traced:
        record["layers"] = layer_metrics(tracer.spans, result.details)
        record["layers"]["trace.overhead_frac"] = (tracer.overhead_s / wall, "ratio")
        record["spans"] = [asdict(s) for s in tracer.spans]
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
