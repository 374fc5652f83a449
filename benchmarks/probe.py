"""Time one fresh-process set-up: `import homord` plus a workload's fixed inputs.

    python3 benchmarks/probe.py WORKLOAD SEED

run.py starts this with PYTHONPATH pointing at the checkout's src/; the
probe prints one JSON line with raw seconds and reference seconds (see
calibration.py).
"""

import json
import sys
import time

from calibration import REF_S, loop_seconds

before = loop_seconds()
t0 = time.perf_counter()
import workloads  # noqa: E402  (timed: pulls in homord, numpy, scipy)

t1 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
t2 = time.perf_counter()
after = loop_seconds()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0,
                  "setup_ref_s": (t2 - t0) * REF_S / ((before + after) / 2)}))
