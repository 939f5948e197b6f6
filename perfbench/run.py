#!/usr/bin/env python3
"""Run one ia_lab benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload slopes_suite --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each call into ia_lab starts when the
previous one returns, with BLAS pinned to one thread. Times are scaled by
the machine-speed factor of ``calibrate.py``. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Outputs are checked against ``reference.json`` (see ``gate.py``); the last
line of standard output is the JSON result, and the exit code is 1 when a
check fails. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> Path:
    """Pin BLAS threads and put ``./src`` first on the import path.

    Exits non-zero when the working directory holds no ia_lab source, so
    that an installed copy is never measured by mistake.
    """
    src = Path.cwd() / "src"
    if not (src / "ia_lab" / "__init__.py").is_file():
        sys.exit("perfbench: no ./src/ia_lab here; run from the repository root")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import ia_lab
    if Path(ia_lab.__file__).resolve().parent != (src / "ia_lab").resolve():
        sys.exit(f"perfbench: imported ia_lab from {ia_lab.__file__}, not ./src")
    return src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = prepare()
    import bench
    if args.workload not in bench.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of "
                     f"{sorted(bench.workloads.WORKLOADS)}")
    return bench.run(args, src)


if __name__ == "__main__":
    sys.exit(main())
