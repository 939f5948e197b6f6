"""Workload definitions: which inputs each benchmark run feeds to ia_lab.

Every input comes from a fixed pool whose outputs are recorded in
``reference.json``, so each trial a run makes can be checked bit for bit.
The workload seed picks the order in which a run walks each pool; a run
cycles the pool when it outlasts it. ia_lab receives only the configs and
sweep seeds built here, always through module attribute lookups at call
time, so the tracer in ``tracing.py`` sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

import ia_lab.channels
import ia_lab.evaluation
import ia_lab.receiver
import ia_lab.siso
import ia_lab.verification
from ia_lab.errors import InsufficientDataError
from ia_lab.evaluation import SchemeConfig


@dataclass(frozen=True)
class SweepCase:
    """One scheme configuration swept over its own SNR grid.

    Each call is ``snr_sweep(config, grid, trials, root)`` with ``root``
    taken from ``roots``; the sweep derives one channel seed per trial.
    """

    label: str
    config: SchemeConfig
    grid: tuple
    trials: int
    roots: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    post: str  # "dof" | "gap" | "probe": what follows each sweep call
    cases: tuple = ()
    probe_seeds: tuple = ()
    probes_per_round: int = 0


def _pool(base: int, size: int) -> tuple:
    return tuple(range(base, base + size))


def _cases(specs, trials, pool_size):
    return tuple(SweepCase(label, config, tuple(float(g) for g in grid), trials,
                           _pool(1000 * (i + 1), pool_size))
                 for i, (label, config, grid) in enumerate(specs))


# the nine cases of scripts/run_dof_slopes.py, on their own grids
SLOPES_CASES = _cases([
    ("siso-k3 n=1", SchemeConfig(family="siso-k3", n=1), (60, 70, 80)),
    ("siso-k3 n=3", SchemeConfig(family="siso-k3", n=3), (160, 180, 200)),
    ("siso-k3 n=5", SchemeConfig(family="siso-k3", n=5), (160, 180, 200)),
    ("siso-general K=4 n=1", SchemeConfig(family="siso-general", K=4, n=1),
     (120, 140, 160)),
    ("designed K=3", SchemeConfig(family="designed", K=3), (60, 70, 80)),
    ("designed K=10", SchemeConfig(family="designed", K=10), (60, 70, 80)),
    ("mimo M=2", SchemeConfig(family="mimo", M=2), (40, 60, 80)),
    ("mimo M=3", SchemeConfig(family="mimo", M=3), (40, 60, 80)),
    ("mimo M=4", SchemeConfig(family="mimo", M=4), (40, 60, 80)),
], trials=2, pool_size=32)

GAP_GRID = tuple(range(40, 81, 2))
GAP_CASES = _cases([(f"mimo M={m}", SchemeConfig(family="mimo", M=m), GAP_GRID)
                    for m in (2, 3, 4)], trials=4, pool_size=32)

# the default magnitude law fails every trial at this size (ROADMAP item 4);
# it stays in on purpose so the defect, and any fix, shows in the numbers
LARGE_CASES = _cases([
    ("siso-general K=4 n=2 law [0.5, 2]",
     SchemeConfig(family="siso-general", K=4, n=2), (160, 180, 200)),
    ("siso-general K=4 n=2 law [1, 1]",
     SchemeConfig(family="siso-general", K=4, n=2, a_min=1.0, a_max=1.0),
     (160, 180, 200)),
], trials=1, pool_size=6)

WORKLOADS = {w.name: w for w in (
    Workload("slopes_suite",
             "the nine run_dof_slopes cases users run; K=4 channel generation "
             "is its biggest layer",
             "dof", cases=SLOPES_CASES),
    Workload("gap_mimo_fine_grid",
             "mimo gap probe on 21 SNR points; zero-forcing rates and their "
             "SVDs dominate, channel generation is small",
             "gap", cases=GAP_CASES),
    Workload("siso_general_large_L",
             "L=275 dense products and SVDs; half the trials hit the known "
             "default-law failure, the other half pass",
             "dof", cases=LARGE_CASES),
    Workload("verify_probes",
             "channel-file round trip and rank/verification probes; the only "
             "load on the verification layer",
             "probe", probe_seeds=_pool(90000, 256), probes_per_round=8),
)}

# probe units run the 3-user construction at order n=3 over F=2n+1 slots
PROBE_K, PROBE_N = 3, 3
PROBE_F = 2 * PROBE_N + 1
PROBE_DIAGONAL_M = (2, 4)


def _walk(pool, rng):
    order = list(pool)
    rng.shuffle(order)
    while True:
        yield from order


def rounds(workload: Workload, seed: int):
    """Endless sequence of rounds; a round is a list of (case index, root).

    A sweep round makes one call per case; a probe round runs
    ``probes_per_round`` units (case index -1). The same seed always gives
    the same sequence.
    """
    rng = random.Random(seed)
    if workload.post == "probe":
        seeds = _walk(workload.probe_seeds, rng)
        while True:
            yield [(-1, next(seeds)) for _ in range(workload.probes_per_round)]
    walks = [_walk(case.roots, rng) for case in workload.cases]
    while True:
        yield [(i, next(walk)) for i, walk in enumerate(walks)]


@dataclass
class UnitResult:
    attempted: int
    ok: int
    table: object = None  # RateTable of a sweep call
    verdicts: dict = None  # probe verdicts


def run_sweep(workload: Workload, index: int, root: int) -> UnitResult:
    """One ``snr_sweep`` call followed by the estimate users take from it."""
    case = workload.cases[index]
    table = ia_lab.evaluation.snr_sweep(case.config, case.grid, case.trials, root)
    if workload.post == "gap":
        ia_lab.evaluation.estimate_o1_gap(table, float(case.config.claimed_dof))
    else:
        try:
            ia_lab.evaluation.estimate_dof(table)
        except InsufficientDataError:
            # expected only when every trial failed, as ``ia-lab dof`` reports
            if table.ok_records():
                raise
    ok_seeds = {r.seed for r in table.ok_records()}
    return UnitResult(attempted=case.trials, ok=len(ok_seeds), table=table)


EXPECTED_VERDICTS = {
    "round_trip_exact": True,
    "alignment_passed": True,
    "separability_full_rank": True,
    "vandermonde_ok": True,
    **{f"diagonal_m{m}_rank_deficient": True for m in PROBE_DIAGONAL_M},
    **{f"dense_m{m}_full_rank": True for m in PROBE_DIAGONAL_M},
}


def run_probe(seed: int, path) -> UnitResult:
    """One verification unit; ``path`` is the scratch channel file."""
    channels = ia_lab.channels
    verification = ia_lab.verification
    ch = channels.generate_channels(PROBE_K, 1, PROBE_F, seed=seed)
    channels.save_channels(ch, path)
    loaded = channels.load_channels(path)
    ext = channels.extend_channel(loaded, PROBE_F)
    scheme = ia_lab.siso.build_precoders_k3(ext, PROBE_N)
    report = ia_lab.receiver.check_alignment(scheme, ext)
    separability = verification.RankProbe.of(
        verification.separability_matrix(ext, PROBE_N))
    vandermonde = verification.vandermonde_check(ia_lab.siso.loop_gains(ext))
    verdicts = {
        "round_trip_exact": bool(loaded.seed == ch.seed
                                 and np.array_equal(loaded.coeffs, ch.coeffs)),
        "alignment_passed": report.passed,
        "separability_full_rank": separability.full_rank,
        "vandermonde_ok": vandermonde.ok,
    }
    for m in PROBE_DIAGONAL_M:
        diagonal = verification.demonstrate_diagonal_infeasibility(m, seed)
        dense = verification.demonstrate_diagonal_infeasibility(m, seed, dense=True)
        verdicts[f"diagonal_m{m}_rank_deficient"] = diagonal.receivers[0].joint_rank < m
        verdicts[f"dense_m{m}_full_rank"] = dense.receivers[0].joint_rank == m
    ok = verdicts == EXPECTED_VERDICTS
    return UnitResult(attempted=1, ok=int(ok), verdicts=verdicts)


def run_unit(workload: Workload, index: int, key: int, probe_path) -> UnitResult:
    if workload.post == "probe":
        return run_probe(key, probe_path)
    return run_sweep(workload, index, key)
