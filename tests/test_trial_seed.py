"""A sweep derives each trial's channel seed as numpy's
``SeedSequence(root, spawn_key=(trial,)).generate_state(1, np.uint64)[0]``,
computed in pure Python so that a sweep never imports ``numpy.random``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ia_lab.evaluation import _root_pool, _trial_seed

EDGE_ROOTS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1]


def numpy_seed(root, trial):
    return int(np.random.SeedSequence(root, spawn_key=(trial,)).generate_state(1, np.uint64)[0])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EDGE_ROOTS) | st.integers(0, 2 ** 64 - 1),
       st.lists(st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 70])
                | st.integers(0, 2 ** 96), min_size=1, max_size=4))
def test_trial_seeds_equal_numpy_seed_sequence(root, trials):
    pool = _root_pool(root)
    for trial in trials:
        expected = numpy_seed(root, trial)
        assert _trial_seed(root, trial) == expected
        assert _trial_seed(root, trial, pool) == expected


def test_roots_wider_than_the_pool_equal_numpy_seed_sequence():
    for root in (2 ** 128 + 17, 2 ** 200 - 1):
        assert [_trial_seed(root, t) for t in range(3)] == [numpy_seed(root, t)
                                                            for t in range(3)]


def test_a_sweep_leaves_numpy_random_unimported():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from ia_lab import SchemeConfig, estimate_dof, snr_sweep\n"
            "table = snr_sweep(SchemeConfig('siso-k3', n=1), [40, 60, 80], 3, 2 ** 64 - 1)\n"
            "estimate_dof(table)\n"
            "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True, timeout=120)
    assert out.stdout.split() == ["False"]
