"""The estimators read a rate table's records in one pass, grouped by grid
point and by seed; on any table, regular or not, they must give what the
plain per-record code gives.

The oracles below are per-record ``mean_sum_rates``, ``estimate_dof`` and
``estimate_o1_gap``, which filter the records anew for every point.
Everything but ``half_width`` must match bit for bit. The per-trial slopes
behind ``half_width`` come from one least-squares fit of every trial, where
the oracle fits each trial alone: LAPACK rounds the two alike for fits of
up to 7 points, and from 8 points on each slope may differ in its last bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ia_lab import (InsufficientDataError, ParameterError, RateRecord, RateTable,
                    estimate_dof, estimate_o1_gap)


# what both estimators raise on a table without records
NO_TRIALS = "the rate table holds no trials"


def ok_at(table, s):
    return [r for r in table.records if r.status == "ok" and r.snr_db == s]


def oracle_mean_sum_rates(table):
    out = np.full(len(table.snr_db), np.nan)
    for i, s in enumerate(table.snr_db):
        ok = ok_at(table, s)
        if ok:
            out[i] = float(np.mean([r.sum_rate for r in ok]))
    return out


def oracle_estimate_dof(table):
    """(slope, half_width, snr_db, trials_used, trials_failed) and the
    per-trial slopes, or the InsufficientDataError message."""
    high = [s for s in table.snr_db if s >= 40.0]
    usable = [s for s in high if ok_at(table, s)]
    if len(high) >= 2 and len(usable) < 2:
        trials = len({r.seed for r in table.records})
        failed = trials - len({r.seed for s in high for r in ok_at(table, s)})
        if failed == trials:
            return f"all {trials} trials failed" if trials else NO_TRIALS
        return (f"{failed} of {trials} trials failed, leaving {len(usable)} of "
                f"{len(high)} SNR points at >= 40 dB with successful trials")
    if len(usable) < 2:
        return "need at least two SNR points at >= 40 dB with successful trials"
    x = np.array([s / 10.0 * math.log2(10.0) for s in usable])
    means = np.array([np.mean([r.sum_rate for r in ok_at(table, s)]) for s in usable])
    slope = float(np.polyfit(x, means, 1)[0])
    by_seed = {}
    for s in usable:
        for rec in ok_at(table, s):
            by_seed.setdefault(rec.seed, {})[s] = rec.sum_rate
    trial_slopes = [np.polyfit(x, [rows[s] for s in usable], 1)[0]
                    for rows in by_seed.values() if len(rows) == len(usable)]
    if len(trial_slopes) > 1:
        half = 1.96 * float(np.std(trial_slopes, ddof=1)) / math.sqrt(len(trial_slopes))
    else:
        half = 0.0
    failed = len({r.seed for r in table.records if r.status != "ok"})
    return (slope, half, tuple(usable), len(trial_slopes), failed), trial_slopes


def oracle_estimate_o1_gap(table, claimed_dof):
    usable = [s for s in table.snr_db if ok_at(table, s)]
    if not usable:
        trials = len({r.seed for r in table.records})
        return f"all {trials} trials failed" if trials else NO_TRIALS
    gaps = []
    for s in usable:
        rho = 10.0 ** (s / 10.0)
        mean = float(np.mean([r.sum_rate for r in ok_at(table, s)]))
        gaps.append(mean - float(claimed_dof) * math.log2(1.0 + rho))
    return tuple(usable), tuple(gaps), float(max(gaps) - min(gaps))


GRID = (0.0, 20.0, 35.0, 40.0, 45.0, 50.0, 60.0, 70.0, 80.0, 100.0, 120.0, 160.0)
# a small pool, so that trials and merged sweeps repeat seeds
SEEDS = (0, 1, 2, 3, 7, 2 ** 64 - 1)


@st.composite
def tables(draw):
    """Merged sweeps of trials over partial grids, with failed rows at any
    point, repeated seeds, and records off the table's grid."""
    K = draw(st.sampled_from([1, 3, 10]))
    grid = sorted(draw(st.sets(st.sampled_from(GRID), min_size=1, max_size=10)))
    rate = st.floats(0.0, 60.0)
    records = []
    for _ in range(draw(st.integers(1, 3))):
        points = draw(st.lists(st.sampled_from(grid + [90.0]), min_size=1, max_size=12,
                               unique=True))
        for seed in draw(st.lists(st.sampled_from(SEEDS), min_size=1, max_size=6)):
            for snr in points:
                if draw(st.integers(0, 4)) == 0:
                    records.append(RateRecord(snr, seed, None, "failed"))
                else:
                    records.append(RateRecord(snr, seed, tuple(draw(st.lists(
                        rate, min_size=K, max_size=K))), "ok"))
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    return RateTable(K=K, snr_db=tuple(grid), records=tuple(records))


def outcome(estimator, *args):
    try:
        return estimator(*args)
    except InsufficientDataError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_view_estimates_equal_the_per_record_code(table):
    assert table.mean_sum_rates().tobytes() == oracle_mean_sum_rates(table).tobytes()

    got, want = outcome(estimate_dof, table), oracle_estimate_dof(table)
    if isinstance(want, str):
        assert got == want
    else:
        (slope, half, snr_db, used, failed), trial_slopes = want
        assert (got.slope, got.snr_db, got.trials_used, got.trials_failed) == (
            slope, snr_db, used, failed)
        if len(snr_db) < 8:
            assert math.isclose(got.half_width, half, rel_tol=1e-12, abs_tol=0.0)
        else:
            # last-bit differences of the slopes, over a spread of any size
            scale = max(abs(s) for s in trial_slopes) if trial_slopes else 0.0
            assert abs(got.half_width - half) <= 1e-12 * half + 1e-13 * scale

    if table.snr_db[-1] - table.snr_db[0] < 40.0 - 1e-9:
        try:
            estimate_o1_gap(table, 1.5)
        except ParameterError:
            return
        raise AssertionError("a narrow grid was probed")
    got, want = outcome(estimate_o1_gap, table, 1.5), oracle_estimate_o1_gap(table, 1.5)
    if isinstance(want, str):
        assert got == want
    else:
        assert (got.snr_db, got.gaps, got.oscillation) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 4))
def test_means_sum_each_point_pairwise_as_np_mean_does(count, points):
    # rows of one count reduce together; each row as np.mean of its list
    rng = np.random.default_rng(count * 7 + points)
    rates = rng.exponential(10.0, size=(points, count))
    grid = tuple(40.0 + 10.0 * p for p in range(points))
    records = tuple(RateRecord(grid[p], t, (float(rates[p, t]),), "ok")
                    for t in range(count) for p in range(points))
    table = RateTable(K=1, snr_db=grid, records=records)
    assert table.mean_sum_rates().tolist() == [float(np.mean(row.tolist())) for row in rates]


def test_sum_rates_add_users_in_order():
    # numpy's unrolled sum over a row of 10 would round these differently
    rates = tuple(0.1 * 3 ** u for u in range(10))
    table = RateTable(K=10, snr_db=(40.0,), records=(RateRecord(40.0, 0, rates, "ok"),))
    total = 0.0
    for r in rates:
        total += r
    assert table.mean_sum_rates().tolist() == [total] == [table.records[0].sum_rate]


@pytest.mark.parametrize("grid", [(40.0, 60.0, 80.0), (0.0, 20.0, 40.0), (40.0,)])
def test_a_table_without_records_holds_no_trials_to_fit(grid):
    # not "all 0 trials failed": the table never held a trial
    table = RateTable(K=3, snr_db=grid, records=())
    with pytest.raises(InsufficientDataError) as err:
        estimate_dof(table)
    assert str(err.value) == NO_TRIALS


def test_a_table_without_records_holds_no_trials_to_probe():
    table = RateTable(K=3, snr_db=(40.0, 60.0, 80.0), records=())
    with pytest.raises(InsufficientDataError) as err:
        estimate_o1_gap(table, 1.5)
    assert str(err.value) == NO_TRIALS
    # a grid too narrow to probe is still the caller's error
    with pytest.raises(ParameterError):
        estimate_o1_gap(RateTable(K=3, snr_db=(40.0, 60.0), records=()), 1.5)
