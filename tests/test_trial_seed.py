"""A sweep derives each trial's channel seed as numpy's
``SeedSequence(root, spawn_key=(trial,)).generate_state(1, np.uint64)[0]``.
Importing the package, building a scheme and verifying it never import
``numpy.random``; a sweep imports it once, for the seeds."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ia_lab import SchemeConfig, snr_sweep
from ia_lab.evaluation import _trial_seed

EDGE_ROOTS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1]
EDGE_TRIALS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 70]

# _trial_seed(root, t) for t in EDGE_TRIALS, recorded from the pure-Python
# port of numpy's hashing that the seeds were computed with before
GOLDEN_SEEDS = {
    0: [8668861027912758289, 4881901421217228719, 1115911174736451823,
        14898058564793133489, 5769914874538990685, 5570270995788390543],
    1: [8431846347943309920, 4042681867674859579, 614802387137957541,
        10679137941945874026, 14605089043725774812, 17506166697158341500],
    2 ** 32 - 1: [1081025625650990659, 6248304163837380790, 3106464671405534962,
                  46660150963161906, 9723876175726676836, 8866096437270552035],
    2 ** 32: [3061595112526229754, 7789721593315801384, 15439578934620129114,
              5308734145445910443, 14425917908469846003, 6893210790985062933],
    2 ** 63 + 5: [3252978044558920779, 9018886592777122370, 7255484797785607636,
                  11484824654152960434, 5641204633376676583, 11651660238452651068],
    2 ** 64 - 1: [14031750673298188677, 15591386231082554480, 16712576060912336357,
                  8908646417573421857, 9886019559089789561, 17289812378921464360],
}

# the seed column of snr_sweep(SchemeConfig('siso-k3'), [40, 60], 3, 2**64 - 1),
# recorded with the same port
GOLDEN_SWEEP_SEEDS = [14031750673298188677, 14031750673298188677,
                      15591386231082554480, 15591386231082554480,
                      15835484829646641829, 15835484829646641829]


def numpy_seed(root, trial):
    return int(np.random.SeedSequence(root, spawn_key=(trial,)).generate_state(1, np.uint64)[0])


def test_trial_seeds_equal_the_recorded_seeds():
    assert sorted(GOLDEN_SEEDS) == sorted(EDGE_ROOTS)
    for root, expected in GOLDEN_SEEDS.items():
        seeds = [_trial_seed(root, t) for t in EDGE_TRIALS]
        assert seeds == expected
        assert all(type(seed) is int for seed in seeds)
    table = snr_sweep(SchemeConfig("siso-k3"), [40, 60], 3, 2 ** 64 - 1)
    assert [r.seed for r in table.records] == GOLDEN_SWEEP_SEEDS


def test_roots_wider_than_the_pool_equal_numpy_seed_sequence():
    for root in (2 ** 128 + 17, 2 ** 200 - 1):
        assert [_trial_seed(root, t) for t in range(3)] == [numpy_seed(root, t)
                                                            for t in range(3)]


def test_a_build_and_its_check_leave_numpy_random_unimported():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from ia_lab import SchemeConfig, check_alignment\n"
            "scheme, ext = SchemeConfig('siso-k3').build(7)\n"
            "assert check_alignment(scheme, ext).passed\n"
            "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True, timeout=120)
    assert out.stdout.split() == ["False"]
