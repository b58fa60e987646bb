"""Set up one workload in a fresh interpreter, then print ``ready <time>``.

``run.py`` launches this once per ``setup_s`` sample and takes the
wall-clock ``time.time()`` printed here minus its launch time:
interpreter start, ``import repro``, parsing the spec, cold device
calibration and the first build.

    python3 perfbench/setup_probe.py serve-open 1
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).prepare()
print("ready", time.time(), flush=True)
