#!/usr/bin/env python3
"""Print SHA-256 digests of what ia_lab computes on a fixed set of
configurations: per configuration, the alignment reports and zero-forcing
rates of a few seeds, an SNR sweep's table, and its DoF and gap estimates
(or their errors). One line per configuration gives its own digest, and the
last line one digest over all of them. The line before it, labelled
``verdicts``, is a digest over only what decides verdicts: per seed the
build's error, or else each receiver's ranks, each relation's ok flag and
whether the report passed; and each sweep record's status. A change to the
numerics that moves rates in their last bits keeps it. Run it on two
checkouts to see whether a change keeps every output bit for bit, and which
configurations moved:

    PYTHONPATH=src python3 scripts/output_digest.py

BLAS is pinned to one thread, since the last bits of L=275 rates change with
the thread count.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import hashlib
import json

from ia_lab import (InsufficientDataError, ParameterError, SchemeConfig, check_alignment,
                    estimate_dof, estimate_o1_gap, snr_sweep, zf_rates)
from ia_lab.evaluation import TRIAL_ERRORS
from ia_lab.families import FAMILIES

LAWS = ((0.5, 2.0), (1.0, 1.0))
# siso-k3 n=7 and n=8 hold near-tolerance verdicts (n=7 fails a receiver
# check at seed 15, n=8 at 1 and 11); from M=8 on, transmitter 1's mimo
# precoder is column-major
CONFIGS = ([SchemeConfig("siso-k3", n=n) for n in (1, 2, 3, 4, 5, 7, 8)]
           + [SchemeConfig("siso-general", K=4, n=n, a_min=lo, a_max=hi)
              for n in (1, 2) for lo, hi in LAWS]
           + [SchemeConfig("mimo", M=M) for M in (2, 3, 4, 5, 8, 9, 16)]
           + [SchemeConfig("designed", K=K) for K in (3, 10)])
GRID = (40.0, 60.0, 80.0)
RHOS = [10.0 ** (s / 10.0) for s in GRID]


def label(config) -> str:
    """The configuration's family, K, M and the fields its family reads."""
    return " ".join([config.family, f"K={config.K}", f"M={config.M}"]
                    + [f"{name}={getattr(config, name)}"
                       for name in FAMILIES[config.family].reads if name != "seed"])


def digest(each=None) -> tuple:
    """(overall digest, verdict digest); ``each(config, hexdigest)`` is called
    with each configuration's own digest, when given."""
    sha, verdicts = hashlib.sha256(), hashlib.sha256()

    def put(value):
        line = json.dumps(value, sort_keys=True, default=repr).encode() + b"\n"
        sha.update(line)
        one.update(line)

    def verdict(value):
        verdicts.update(json.dumps(value).encode() + b"\n")

    for config in CONFIGS:
        one = hashlib.sha256()
        large = config.family == "siso-general" and config.n == 2  # L=275
        near = config.family == "siso-k3" and config.n >= 7
        for seed in range(2 if large else 16 if near else 4):
            try:
                scheme, ext = config.build(seed)
            except TRIAL_ERRORS as err:
                put(repr(err))
                verdict([type(err).__name__, str(err)])
                continue
            report = check_alignment(scheme, ext)
            put(report.to_dict())
            verdict([[[r.desired_rank, r.interference_rank, r.joint_rank]
                      for r in report.receivers],
                     [r.ok for r in report.relations], report.passed])
            [rates] = zf_rates(scheme, ext, RHOS)
            put(None if rates is None else rates.tobytes().hex())
        table = snr_sweep(config, GRID, 2 if large else 6, seed=3)
        put([(r.snr_db, r.seed, r.rates, r.status) for r in table.records])
        verdict([r.status for r in table.records])
        for estimate in (lambda: estimate_dof(table),
                         lambda: estimate_o1_gap(table, float(config.claimed_dof))):
            try:
                put(vars(estimate()))
            except (InsufficientDataError, ParameterError) as err:
                put(repr(err))
        if each is not None:
            each(config, one.hexdigest())
    return sha.hexdigest(), verdicts.hexdigest()


if __name__ == "__main__":
    overall, verdicts = digest(lambda config, hexdigest: print(f"{hexdigest}  {label(config)}"))
    print(f"{verdicts}  verdicts")
    print(overall)
