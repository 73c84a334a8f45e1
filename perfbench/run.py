"""perspec benchmark: time to a stated accuracy on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 36 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run.  A human-readable report comes first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run
(seed, generated inputs, environment, pass times, failures) and, when
traced, the spans are written under ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import rescale, running_time, wait_sampling, window

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
WORKER = Path(__file__).resolve().parent / "worker.py"

WORKLOADS = ("spectrum", "resolvent", "schatten")
SETUP_PROBES = 5
ACCURACY_KEYS = ("eig_err", "eig_residual", "recovery_err")
# a run must end within 180 s; children are cut off before that
RUN_LIMIT_S = 170
EXIT_NO_PROGRAM = 2
EXIT_CHILD_FAILED = 3


class ChildFailed(RuntimeError):
    """A set-up probe or pass worker crashed or overran its time limit."""


@dataclass
class Child:
    stdout: str
    launched: float                  # perf_counter times, shared by all processes
    ended: float
    samples: list                    # yardstick times taken while the child did not run
    frozen: list                     # (start, end) intervals the child was frozen

    def rescaled(self, t0: float, t1: float) -> float:
        """The child's running time within [t0, t1] at the reference speed."""
        return rescale(running_time(t0, t1, self.frozen), self.samples)


def _child(script: Path, *args: str, until: float, sample: bool) -> Child:
    """Run one of the benchmark's scripts in a fresh interpreter and wait for it.

    With ``sample``, the yardstick is timed before, during (``speed.py``) and
    after the child.  The child is killed if it is still running at
    ``until`` (perf_counter time).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = OUT / f"{script.stem}.stdout", OUT / f"{script.stem}.stderr"
    samples = window() if sample else None
    with open(out_path, "w") as out, open(err_path, "w") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(script), *args], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        try:
            frozen = wait_sampling(proc, until, samples)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{script.name} still running at the {RUN_LIMIT_S} s run limit"
                              ) from exc
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        ended = time.perf_counter()
    if proc.returncode != 0:
        raise ChildFailed(f"{script.name} exit {proc.returncode}: "
                          f"{err_path.read_text().strip()[-2000:]}")
    if sample:
        samples += window()
    return Child(out_path.read_text(), launched, ended, samples or [], frozen)


def measure_setup(until: float, sample: bool) -> list[dict]:
    """Fresh processes that import perspec, build the model and its integrating factor.

    ``wall_s`` is the time from launching the process to its exit, which is
    what every CLI call pays, frozen intervals left out; with ``sample``,
    ``setup_s`` is that time at the reference speed.  The other fields are
    raw phase times the probe measured itself; a freeze can fall into them
    unless ``sample`` is off, as it is for the traced run's
    ``singular.factor_s``.
    """
    runs = []
    for _ in range(SETUP_PROBES):
        child = _child(PROBE, until=until, sample=sample)
        runs.append({"wall_s": running_time(child.launched, child.ended, child.frozen),
                     "setup_s": child.rescaled(child.launched, child.ended) if sample else None,
                     **json.loads(child.stdout.strip().splitlines()[-1])})
    return runs


def _openblas_threads():
    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    import perspec
    return {"perspec_backend": perspec.BACKEND, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "openblas_threads": _openblas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def run_passes(workload: str, inputs_path: Path, deadline: float, until: float,
               traced: bool = False) -> list[dict]:
    """Repeat the workload's pass while another one is expected to end by the deadline.

    Each pass runs in a fresh process, as a CLI call would, so no pass
    inherits caches or allocator state from another.  At least one pass
    always runs.  The expected length of a pass includes starting its
    process.  An untraced pass is timed with the yardstick; its ``solve_s``
    is the pass's running time at the reference speed.  Traced passes are
    not frozen, so their spans hold only the program's time.
    """
    result_path = OUT / f"pass-{workload}.json"
    passes, walls = [], []
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        t0 = time.perf_counter()
        child = _child(WORKER, workload, str(inputs_path), str(int(traced)), str(result_path),
                       until=until, sample=not traced)
        record = json.loads(result_path.read_text())
        if not traced:
            record["solve_s"] = child.rescaled(record["t0"], record["t1"])
            record["wall_s"] = running_time(record["t0"], record["t1"], child.frozen)
        passes.append(record)
        walls.append(time.perf_counter() - t0)
    return passes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Measure one workload; returns the result line plus everything the report shows."""
    from workloads import Sizes, make_inputs, write_eigs_file
    inputs = make_inputs(workload, seed, sizes or Sizes())
    OUT.mkdir(parents=True, exist_ok=True)
    if "eigenvalues" in inputs:
        write_eigs_file(inputs, OUT / f"eigs-{workload}.json")
    inputs_path = OUT / f"inputs-{workload}.json"
    inputs_path.write_text(json.dumps(inputs))
    until = time.perf_counter() + RUN_LIMIT_S
    probes = measure_setup(until, sample=not trace)
    passes = run_passes(workload, inputs_path, time.perf_counter() + seconds, until, trace)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        names = passes[0]["layers"]
        metrics = {name: (statistics.median([p["layers"][name][0] for p in passes]), names[name][1])
                   for name in names}
        metrics["singular.factor_s"] = (statistics.median([p["factor_s"] for p in probes]), "s")
    else:
        metrics = {
            "setup_s": (statistics.median([p["setup_s"] for p in probes]), "s"),
            "solve_s": (statistics.median([p["solve_s"] for p in passes]), "s"),
            "peak_rss_mb": (statistics.median([p["peak_rss_mb"] for p in passes]), "MB"),
        }
    accuracy = {key: max(v for p in passes for v in p["details"].get(key, []))
                for key in ACCURACY_KEYS if any(p["details"].get(key) for p in passes)}
    return {
        "result": {"correct": failed == 0 and attempted > 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
        "record": {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                   "inputs": inputs, "environment": environment(), "setup_probes": probes,
                   "accuracy": accuracy, "passes": passes},
    }


def report(run: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, accuracy and failures."""
    res, rec = run["result"], run["record"]
    lines = [f"perfbench {rec['workload']} seed={rec['seed']} seconds={rec['seconds']} "
             f"trace={rec['trace']}",
             f"  inputs: {json.dumps(rec['inputs'])}",
             f"  environment: {json.dumps(rec['environment'])}",
             f"  passes: {len(rec['passes'])}, set-up probes: {len(rec['setup_probes'])}"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:<28} {m['value']:<22.6g} {m['unit']}")
    lines.append(f"  {'failed_frac':<28} {res['failed'] / max(1, res['attempted']):<22.6g} "
                 f"ratio ({res['failed']}/{res['attempted']} operations)")
    for name, values in (("setup wall", [p["wall_s"] for p in rec["setup_probes"]]),
                         ("pass wall", [p["wall_s"] for p in rec["passes"]])):
        lines.append(f"  {name:<28} {statistics.median(values):<22.6g} s (raw median)")
    for name, value in rec["accuracy"].items():
        lines.append(f"  {name:<28} {value:<22.6g} (gate)")
    failures = [f for p in rec["passes"] for f in p["failures"]]
    lines += [f"  FAILED: {f}" for f in failures[:20]]
    return lines


def write_record(run: dict) -> Path:
    """The full record, spans included, written once the run has ended."""
    rec = run["record"]
    path = OUT / f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
    path.write_text(json.dumps({**rec, "result": run["result"]}, indent=1) + "\n")
    return path


def load_program() -> str | None:
    """Put the checkout's ``src`` first on the path and import perspec from it.

    Returns what went wrong, or None.
    """
    if not (SRC / "perspec" / "__init__.py").is_file():
        return f"no perspec source at {SRC}; run from a checkout of the repository"
    sys.path.insert(0, str(SRC))
    import perspec
    if Path(perspec.__file__).resolve().parent != SRC / "perspec":
        return f"imported perspec from {perspec.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    problem = load_program()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_CHILD_FAILED
    print("\n".join(report(run)))
    print(f"  record: {write_record(run).relative_to(ROOT)}")
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
