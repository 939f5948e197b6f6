"""Output-correctness gate: checks a run's outputs against ``reference.json``.

Three checks, as the reference was recorded at the commit that added the
benchmark:

* channel fingerprints: SHA-256 of the ``generate_channels`` coefficients of
  every trial seed a sweep reported (and of every probe seed), bit for bit;
* mean sum rate of each configuration at every grid point, over the trials
  the run made, within ``RATE_RTOL`` relative;
* the ``estimate_dof`` slope of each configuration within ``SLOPE_RTOL`` of
  the family's ``claimed_dof``.

A trial that passed at the reference and fails now is a mismatch. A trial
that failed at the reference and passes now (a fix of a known failure) is
counted as newly passing, and its rates enter the slope check only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

import ia_lab.channels
import ia_lab.evaluation
from ia_lab.errors import InsufficientDataError
from ia_lab.siso import guarded_extension_general

from workloads import EXPECTED_VERDICTS, PROBE_F, PROBE_K

# Reassociating the products in zf_rates moved per-trial sum rates by at
# most 7e-16 relative on the slopes and gap pools; the tolerance leaves room
# for other SVD or projection routes, while a change to what is computed
# moves a rate by far more.
RATE_RTOL = 1e-6
# Measured slopes sit within 3e-3 of the claim on these grids.
SLOPE_RTOL = 1e-2


def channel_shape(config):
    """(K, M, F) of the channel set a trial of ``config`` generates, or None
    for designed channels, which draw no random coefficients."""
    if config.family == "siso-k3":
        return config.K, 1, 2 * config.n + 1
    if config.family == "siso-general":
        return config.K, 1, guarded_extension_general(config.K, config.n,
                                                      config.size_cap)
    if config.family == "mimo":
        return config.K, config.M, 1
    return None


def channel_fingerprint(coeffs: np.ndarray) -> str:
    """SHA-256 over the shape and the little-endian complex128 bytes."""
    arr = np.ascontiguousarray(coeffs, dtype="<c16")
    digest = hashlib.sha256(repr(arr.shape).encode("ascii"))
    digest.update(arr.tobytes())
    return digest.hexdigest()


def trial_fingerprint(config, seed: int):
    shape = channel_shape(config)
    if shape is None:
        return None
    K, M, F = shape
    ch = ia_lab.channels.generate_channels(K, M, F, config.a_min, config.a_max, seed)
    return channel_fingerprint(ch.coeffs)


def probe_fingerprint(seed: int) -> str:
    ch = ia_lab.channels.generate_channels(PROBE_K, 1, PROBE_F, seed=seed)
    return channel_fingerprint(ch.coeffs)


def fingerprint_mismatches(expected: dict, actual: dict) -> list:
    """Keys whose fingerprint differs from, or is missing in, ``expected``."""
    return [f"channel fingerprint of seed {key}: expected "
            f"{expected.get(key)}, got {value}"
            for key, value in actual.items() if expected.get(key) != value]


class Observations:
    """What a run's units returned, reduced to what the gate checks.

    Keeps the first table of each distinct sweep call; a repeated call must
    return bit-identical sum rates.
    """

    def __init__(self, workload):
        self.workload = workload
        self.tables = {}  # (case index, root) -> RateTable
        self.trials = {}  # (case index, trial seed) -> sum rates or None
        self.counts = {}  # (case index, trial seed) -> times run
        self.probes = {}  # probe seed -> verdicts
        self.probe_counts = {}
        self.problems = []

    def add(self, index: int, key: int, result) -> None:
        if result.verdicts is not None:
            self.probe_counts[key] = self.probe_counts.get(key, 0) + 1
            if self.probes.setdefault(key, result.verdicts) != result.verdicts:
                self.problems.append(f"probe seed {key}: verdicts changed on repeat")
            return
        self.tables.setdefault((index, key), result.table)
        for seed, rates in sum_rates(result.table).items():
            slot = (index, seed)
            self.counts[slot] = self.counts.get(slot, 0) + 1
            if slot not in self.trials:
                self.trials[slot] = rates
            elif self.trials[slot] != rates:
                self.problems.append(
                    f"{self.workload.cases[index].label}: trial seed {seed} "
                    "gave different sum rates on repeat")


def sum_rates(table) -> dict:
    """trial seed -> tuple of sum rates over the grid (None if it failed)."""
    out = {}
    for rec in table.records:
        rows = out.setdefault(rec.seed, [])
        rows.append(None if rec.status != "ok" else rec.sum_rate)
    return {seed: (None if None in rows else tuple(rows))
            for seed, rows in out.items()}


def case_reference(case) -> dict:
    """Identity of a sweep case as the reference stores it."""
    return {"label": case.label, "config": dataclasses.asdict(case.config),
            "grid": list(case.grid), "trials": case.trials,
            "roots": list(case.roots)}


@dataclasses.dataclass
class Verdict:
    problems: list
    failed: int = 0  # trial attempts whose outcome regressed
    newly_passing: int = 0  # distinct trials that fail at the reference only
    fingerprints: int = 0  # distinct seeds fingerprinted


def check(obs: Observations, reference: dict) -> Verdict:
    """Compare a run's observations with the recorded reference."""
    ref = reference["workloads"][obs.workload.name]
    if obs.workload.post == "probe":
        return _check_probes(obs, ref)
    verdict = Verdict(problems=list(obs.problems))
    if [c["label"] for c in ref["cases"]] != [c.label for c in obs.workload.cases]:
        verdict.problems.append("reference cases differ from the workload; re-record it")
        return verdict
    for index, (case, case_ref) in enumerate(zip(obs.workload.cases, ref["cases"])):
        identity = {key: case_ref[key] for key in case_reference(case)}
        if identity != case_reference(case):
            verdict.problems.append(f"{case.label}: reference was recorded for "
                                    "another definition; re-record it")
            continue
        _check_case(obs, index, case, case_ref["results"], verdict)
    return verdict


def _check_case(obs, index, case, results, verdict):
    observed = {seed: rates for (i, seed), rates in obs.trials.items() if i == index}
    if not observed:
        return
    expected_prints, actual_prints = {}, {}
    both_ok = []
    for seed, rates in observed.items():
        entry = results.get(str(seed))
        if entry is None:
            verdict.problems.append(f"{case.label}: trial seed {seed} not in reference")
            continue
        if entry["sha256"] is not None:
            expected_prints[seed] = entry["sha256"]
            actual_prints[seed] = trial_fingerprint(case.config, seed)
        was_ok = entry["status"] == "ok"
        if was_ok and rates is None:
            verdict.failed += obs.counts[(index, seed)]
            verdict.problems.append(
                f"{case.label}: trial seed {seed} passed at the reference, fails now")
        elif not was_ok and rates is not None:
            verdict.newly_passing += 1
        elif was_ok:
            both_ok.append((rates, entry["sum_rates"]))
    verdict.fingerprints += len(actual_prints)
    verdict.problems.extend(f"{case.label}: {msg}" for msg in
                            fingerprint_mismatches(expected_prints, actual_prints))
    if both_ok:
        got = np.mean([r for r, _ in both_ok], axis=0)
        want = np.mean([w for _, w in both_ok], axis=0)
        for snr, g, w in zip(case.grid, got, want):
            if not math.isclose(g, w, rel_tol=RATE_RTOL, abs_tol=1e-12):
                verdict.problems.append(
                    f"{case.label}: mean sum rate at {snr:g} dB is {float(g)!r}, "
                    f"reference {float(w)!r}")
    _check_slope(obs, index, case, verdict)


def _check_slope(obs, index, case, verdict):
    tables = [t for (i, _), t in obs.tables.items() if i == index]
    merged = ia_lab.evaluation.RateTable(
        K=tables[0].K, snr_db=tables[0].snr_db,
        records=tuple(rec for t in tables for rec in t.records))
    claimed = float(case.config.claimed_dof)
    try:
        slope = ia_lab.evaluation.estimate_dof(merged).slope
    except InsufficientDataError:
        if merged.ok_records():
            verdict.problems.append(f"{case.label}: estimate_dof refused a table "
                                    "with successful trials")
        return
    if abs(slope - claimed) > SLOPE_RTOL * claimed:
        verdict.problems.append(
            f"{case.label}: slope {slope:.6f} is off the claimed {claimed:.6f}")


def _check_probes(obs, ref):
    verdict = Verdict(problems=list(obs.problems))
    expected_prints, actual_prints = {}, {}
    for seed, verdicts in obs.probes.items():
        entry = ref["probes"].get(str(seed))
        if entry is None:
            verdict.problems.append(f"probe seed {seed} not in reference")
            continue
        if verdicts != EXPECTED_VERDICTS:
            verdict.failed += obs.probe_counts[seed]
            wrong = sorted(k for k, v in verdicts.items() if v != EXPECTED_VERDICTS[k])
            verdict.problems.append(f"probe seed {seed}: unexpected verdicts {wrong}")
        expected_prints[seed] = entry["sha256"]
        actual_prints[seed] = probe_fingerprint(seed)
    verdict.fingerprints = len(actual_prints)
    verdict.problems.extend(fingerprint_mismatches(expected_prints, actual_prints))
    return verdict


def load_reference(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
