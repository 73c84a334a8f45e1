"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in both modes, that the metrics reported are
exactly those in BENCHMARK.json with the same units and that the report
prints each by name and unit; and that an unreachable resolvent tolerance
fails every operation.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run

TOY = dict(lmax=2.0, ladder=(256, 512), resolvent_tol=1e-3, pairs_per_profile=2,
           schatten_grid=256, schatten_lams=1)


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problem = run.load_program()
    check(problem is None, f"perspec imports from the checkout ({problem or run.SRC})")
    from workloads import Sizes
    toy = Sizes(**TOY)

    for workload in run.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            out = run.run_workload(workload, seed=1, seconds=0.01, trace=trace, sizes=toy)
            got = {k: m["unit"] for k, m in out["result"]["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[section]}
            label = f"{workload} trace={int(trace)}"
            check(got == want, f"{label}: metrics and units match BENCHMARK.json {section}")
            check(out["result"]["correct"] and out["result"]["failed"] == 0,
                  f"{label}: every operation passes its gate")
            text = "\n".join(run.report(out))
            check(all(f" {n} " in text and u in text for n, u in want.items()),
                  f"{label}: report prints every metric by name and unit")

    out = run.run_workload("resolvent", seed=1, seconds=0.01, trace=False,
                           sizes=replace(toy, resolvent_tol=1e-12))
    res = out["result"]
    check(res["attempted"] > 0 and res["failed"] == res["attempted"] and not res["correct"],
          "unreachable resolvent tolerance gives failed_frac = 1")


if __name__ == "__main__":
    main()
