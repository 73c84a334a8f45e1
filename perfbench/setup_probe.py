"""Set-up probe, run in a fresh process: import perspec, build the model, build its integrating factor.

Prints one JSON line with the time of each phase.  ``perfbench/run.py``
launches it with ``src`` on ``PYTHONPATH``.
"""

import json
import time

t0 = time.perf_counter()
import perspec  # noqa: E402

t1 = time.perf_counter()
model = perspec.OperatorModel(profile=perspec.sine_profile(), epsilon=1.0)
t2 = time.perf_counter()
perspec.integrating_factor(model)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "model_s": t2 - t1, "factor_s": t3 - t2}))
