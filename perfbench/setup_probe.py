"""Set-up probe: import ia_lab and run one trial of a workload's first
configuration, in a fresh process.

``run.py`` starts this script several times with ``./src`` on PYTHONPATH and
reports the median wall time as ``setup_s``. The trial is always the first
input of the pool, so that set-up time does not depend on the seed. After
the trial the script times the calibration loop and prints, as JSON, the
fastest loop and the time all loops took, so that ``run.py`` can take that
time off and scale by the speed this process saw. Usage:

    python3 perfbench/setup_probe.py <workload>
"""

import json
import os
import sys
import time
from pathlib import Path

CALIBRATION_LOOPS = 3


def main(name: str) -> None:
    import workloads
    workload = workloads.WORKLOADS[name]
    if workload.post == "probe":
        index, key = -1, workload.probe_seeds[0]
    else:
        index, key = 0, workload.cases[0].roots[0]
    path = Path(__file__).resolve().parent / "out" / f"setup-channels-{os.getpid()}.json"
    path.parent.mkdir(exist_ok=True)
    try:
        workloads.run_unit(workload, index, key, path)
    finally:
        path.unlink(missing_ok=True)

    import calibrate
    t0 = time.perf_counter()
    fastest = min(calibrate.seconds() for _ in range(CALIBRATION_LOOPS))
    print(json.dumps({"calibration_s": fastest,
                      "calibration_total_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main(sys.argv[1])
