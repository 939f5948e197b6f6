#!/usr/bin/env python3
"""Print SHA-256 digests of what ia_lab computes on a fixed set of
configurations: per configuration, the alignment reports and zero-forcing
rates of a few seeds, an SNR sweep's table, and its DoF and gap estimates
(or their errors); at L=275 also the seeds' rates and a sweep on a second
grid of 160-200 dB, where receiver 1 takes its rates from its projected
channel's R. One line per configuration gives its own digest, and the
last line one digest over all of them. The line before it, labelled
``verdicts``, is a digest over only what decides verdicts: per seed the
build's error, or else each receiver's ranks, each relation's ok flag and
whether the report passed; and each sweep record's status. A change to the
numerics that moves rates in their last bits keeps it. Run it on two
checkouts to see whether a change keeps every output bit for bit, and which
configurations moved:

    PYTHONPATH=src python3 scripts/output_digest.py

``--save FILE`` also writes every rate array it computes to FILE as JSON,
and ``--against FILE`` then prints, after the digests, the largest relative
rate difference of each configuration from such a file: run it with
``--save`` on one checkout and with ``--against`` on the other to see how
far rates moved (``inf`` where a rate exists in one run only).

BLAS is pinned to one thread, since the last bits of L=275 rates change with
the thread count.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import argparse
import hashlib
import json
import math

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
# L=275 configurations are also rated and swept here, the grid of the large
# benchmark workload: on GRID every receiver 1 takes its rates from its
# gains' SVD, here from its projected channel's R
HIGH_GRID = (160.0, 180.0, 200.0)
HIGH_RHOS = [10.0 ** (s / 10.0) for s in HIGH_GRID]


def label(config) -> str:
    """The configuration's family, K, M and the fields its family reads."""
    return " ".join([config.family, f"K={config.K}", f"M={config.M}"]
                    + [f"{name}={getattr(config, name)}"
                       for name in FAMILIES[config.family].reads if name != "seed"])


def build_seeds(config) -> range:
    """The seeds a configuration is built and checked at: two at L=275, 16
    for the near-tolerance siso-k3 orders, else four."""
    large = config.family == "siso-general" and config.n == 2
    near = config.family == "siso-k3" and config.n >= 7
    return range(2 if large else 16 if near else 4)


def digest(each=None, rates=None) -> tuple:
    """(overall digest, verdict digest); ``each(config, hexdigest)`` is called
    with each configuration's own digest, when given. A ``rates`` dict gets,
    by label, each configuration's rates as lists: per seed its zero-forcing
    rates (None where the build or the check fails), then per sweep record
    its rates (None where it failed); at L=275 each seed's and sweep
    record's on HIGH_GRID follow, which only the overall digest reads."""
    sha, verdicts = hashlib.sha256(), hashlib.sha256()

    def put(value):
        line = json.dumps(value, sort_keys=True, default=repr).encode() + b"\n"
        sha.update(line)
        one.update(line)

    def verdict(value):
        verdicts.update(json.dumps(value).encode() + b"\n")

    for config in CONFIGS:
        one, seeds, high = hashlib.sha256(), [], []
        large = config.family == "siso-general" and config.n == 2  # L=275
        for seed in build_seeds(config):
            try:
                scheme, ext = config.build(seed)
            except TRIAL_ERRORS as err:
                put(repr(err))
                verdict([type(err).__name__, str(err)])
                seeds.append(None)
                high.append(None)
                continue
            report = check_alignment(scheme, ext)
            put(report.to_dict())
            verdict([[[r.desired_rank, r.interference_rank, r.joint_rank]
                      for r in report.receivers],
                     [r.ok for r in report.relations], report.passed])
            for grid, out in [(RHOS, seeds)] + ([(HIGH_RHOS, high)] if large else []):
                [got] = zf_rates(scheme, ext, grid)
                put(None if got is None else got.tobytes().hex())
                out.append(None if got is None else got.tolist())
        table = snr_sweep(config, GRID, 2 if large else 6, seed=3)
        put([(r.snr_db, r.seed, r.rates, r.status) for r in table.records])
        verdict([r.status for r in table.records])
        records = [r.rates for r in table.records]
        if large:
            high_table = snr_sweep(config, HIGH_GRID, 2, seed=3)
            put([(r.snr_db, r.seed, r.rates, r.status) for r in high_table.records])
            records += high + [r.rates for r in high_table.records]
        if rates is not None:
            rates[label(config)] = seeds + records
        for estimate in (lambda: estimate_dof(table),
                         lambda: estimate_o1_gap(table, float(config.claimed_dof))):
            try:
                put(vars(estimate()))
            except (InsufficientDataError, ParameterError) as err:
                put(repr(err))
        if each is not None:
            each(config, one.hexdigest())
    return sha.hexdigest(), verdicts.hexdigest()


def largest_change(saved, now) -> float:
    """Largest relative difference |now - saved| / |saved| over two rate
    lists of :func:`digest`; inf where one holds a rate the other lacks."""
    if saved is None or now is None or isinstance(saved, float) != isinstance(now, float):
        return 0.0 if saved is None and now is None else math.inf
    if isinstance(now, float):
        return abs(now - saved) / abs(saved) if saved else (0.0 if now == saved else math.inf)
    if len(saved) != len(now):
        return math.inf
    return max(map(largest_change, saved, now), default=0.0)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="FILE", help="write every rate array as JSON")
    parser.add_argument("--against", metavar="FILE",
                        help="print each configuration's largest relative rate "
                             "difference from a file of --save")
    args = parser.parse_args(argv)
    saved = None
    if args.against:
        with open(args.against, encoding="ascii") as fh:
            saved = json.load(fh)
    rates = {}
    overall, verdicts = digest(lambda config, hexdigest: print(f"{hexdigest}  {label(config)}"),
                               rates)
    print(f"{verdicts}  verdicts")
    print(overall)
    if args.save:
        with open(args.save, "w", encoding="ascii") as fh:
            json.dump(rates, fh)
    if saved is not None:
        for name, now in rates.items():
            print(f"{largest_change(saved.get(name), now):.3g}  {name}")


if __name__ == "__main__":
    main()
