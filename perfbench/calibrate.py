"""Fixed calibration loop: how fast this machine runs the benchmark's kind of
work right now.

The machines the benchmark runs on are shared, and their speed drifts by
tens of percent over seconds to minutes. ``run.py`` times this loop between
rounds and scales each round's rate by ``seconds / REFERENCE_S``, which
cancels the drift common to both. The loop mixes what ia_lab spends its time
on (Philox stream set-up, small complex SVDs and products, Python call
overhead) but never calls ia_lab, so no change to ia_lab moves it. Changing
it, or ``REFERENCE_S``, changes every figure: treat it as part of the
benchmark definition.
"""

import time

import numpy as np

# typical time of one loop on a 2-core x86-64 Linux machine, numpy 2.4 with
# single-threaded OpenBLAS; scaled figures read as if measured there
REFERENCE_S = 0.020


def _loop() -> float:
    total = 0.0
    for i in range(150):
        rng = np.random.Generator(np.random.Philox(key=(7 << 64) | i))
        total += float(rng.uniform(0.5, 2.0, size=(2, 2)).sum())
    rng = np.random.Generator(np.random.Philox(key=99))
    for n, reps in ((4, 60), (8, 40), (33, 12), (64, 4)):
        for _ in range(reps):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            _, s, vh = np.linalg.svd(a)
            total += float(s[0]) + float(np.linalg.norm(a @ vh.conj().T))
    return total


def seconds() -> float:
    """Wall time of one calibration loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
