"""The estimators read a rate table's records in one pass, grouped by grid
point and by seed; on any table, regular or not, they must give what the
plain per-record code gives.

The oracles below are per-record ``mean_sum_rates``, ``estimate_dof`` and
``estimate_o1_gap``, which filter the records anew for every point. They
must match bit for bit. ``estimate_dof`` fits the mean curve and every
trial in one closed-form pass over the points, where the oracle fits each
curve alone in plain floats, so each sum must run in point order whatever
the number of trials. ``np.polyfit`` stays as an independent reference for
the fit, to within a stated bound.
"""

import math
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ia_lab import (InsufficientDataError, ParameterError, RateRecord, RateTable,
                    estimate_dof, estimate_o1_gap, snr_sweep)

from conftest import load


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


def closed_form_slope(x, y):
    """Least-squares slope of the floats y against the floats x, one point
    at a time: sum w_i y_i / sum w_i x_i, with w the centered x over its
    largest magnitude."""
    center = reduce(add, x) / len(x)
    scale = max(abs(v - center) for v in x)
    w = [(v - center) / scale for v in x]
    return reduce(add, map(mul, w, y)) / reduce(add, map(mul, w, x))


def usable_curves(table, usable):
    """The mean sum rate at each usable point, and each seed's sum rates
    there, for the seeds with an ok record at all of them, in order of
    their first at the first point."""
    means = [float(np.mean([r.sum_rate for r in ok_at(table, s)])) for s in usable]
    by_seed = {}
    for s in usable:
        for rec in ok_at(table, s):
            by_seed.setdefault(rec.seed, {})[s] = rec.sum_rate
    return means, [[rows[s] for s in usable]
                   for rows in by_seed.values() if len(rows) == len(usable)]


def oracle_estimate_dof(table):
    """(slope, half_width, snr_db, trials_used, trials_failed), or the
    InsufficientDataError message."""
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
    x = [s / 10.0 * math.log2(10.0) for s in usable]
    means, trials = usable_curves(table, usable)
    slope = closed_form_slope(x, means)
    trial_slopes = [closed_form_slope(x, y) for y in trials]
    if len(trial_slopes) > 1:
        half = 1.96 * float(np.std(trial_slopes, ddof=1)) / math.sqrt(len(trial_slopes))
    else:
        half = 0.0
    failed = len({r.seed for r in table.records if r.status != "ok"})
    return slope, half, tuple(usable), len(trial_slopes), failed


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
        assert (got.slope, got.half_width, got.snr_db, got.trials_used,
                got.trials_failed) == want

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


@pytest.mark.parametrize("failing,used", [(1, 9), (10, 0)])
def test_many_trials_over_many_points_equal_the_per_record_code(failing, used):
    # from 8 points numpy would sum a lone column pairwise, and from 8
    # trials the half-width's sums are pairwise. Trial t < failing fails at
    # point t; with no trial complete, the mean curve is fitted alone. A
    # pairwise sum can round as the sequential one does, so five tables
    grid = tuple(40.0 + 10.0 * p for p in range(10))
    for draw in range(5):
        rng = np.random.default_rng(draw)
        records = [RateRecord(s, seed, (float(rng.exponential(10.0)),), "ok")
                   if seed >= failing or p != seed else RateRecord(s, seed, None, "failed")
                   for seed in range(10) for p, s in enumerate(grid)]
        table = RateTable(K=1, snr_db=grid, records=tuple(records))
        got = estimate_dof(table)
        assert (got.slope, got.half_width, got.snr_db, got.trials_used,
                got.trials_failed) == oracle_estimate_dof(table)
        assert got.trials_used == used


def polyfit_scale(x, y):
    """The slope scale of points (x, y): max |y| over the span of x."""
    return max(abs(v) for v in y) / (x[-1] - x[0])


@settings(max_examples=200, deadline=None)
@given(tables())
def test_slopes_agree_with_np_polyfit(table):
    # np.polyfit solves the scaled Vandermonde system through LAPACK, an
    # independent route to the same least-squares slope. Bound: 1e-12 of
    # the slope scale, where the closed form reads at most 2.2e-14 over
    # 20000 random fits
    want = oracle_estimate_dof(table)
    if isinstance(want, str):
        return
    usable = want[2]
    x = [s / 10.0 * math.log2(10.0) for s in usable]
    means, trials = usable_curves(table, usable)
    reference = np.polyfit(x, means, 1)[0]
    assert abs(estimate_dof(table).slope - reference) <= 1e-12 * polyfit_scale(x, means)
    # the per-trial slopes equal the oracle's bit for bit (test above)
    for y in trials:
        assert (abs(closed_form_slope(x, y) - np.polyfit(x, y, 1)[0])
                <= 1e-12 * polyfit_scale(x, y))


def test_sweep_slopes_agree_with_np_polyfit(monkeypatch):
    # the cases of scripts/run_dof_slopes.py: slopes near their degrees of
    # freedom, so the bound is relative to the slope itself
    for _, config, grid in load(monkeypatch, "run_dof_slopes").CASES:
        for seed in range(3):
            table = snr_sweep(config, grid, 2, seed)
            x = [s / 10.0 * math.log2(10.0) for s in grid]
            reference = np.polyfit(x, table.mean_sum_rates(), 1)[0]
            assert math.isclose(estimate_dof(table).slope, reference, rel_tol=1e-12)


def test_the_fit_takes_no_polyfit_std_or_lapack(monkeypatch):
    class Refused:
        def __getattr__(self, name):
            raise AssertionError(f"np.linalg.{name} was called")

    def refuse(*args, **kwargs):
        raise AssertionError("np.polyfit or np.std was called")

    grid = (40.0, 60.0, 80.0)
    table = RateTable(K=1, snr_db=grid, records=tuple(
        RateRecord(s, seed, (1.5 * s / 10.0 * math.log2(10.0) + seed,), "ok")
        for seed in range(3) for s in grid))
    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np, "std", refuse)
    monkeypatch.setattr(np, "linalg", Refused())
    estimate = estimate_dof(table)
    assert math.isclose(estimate.slope, 1.5, rel_tol=1e-12)
    assert estimate.trials_used == 3


def test_a_line_on_a_huge_grid_keeps_its_slope():
    # a squared spread of log2(rho) overflows here; the scaled weights do not
    grid = (40.0, 1e300)
    table = RateTable(K=1, snr_db=grid, records=tuple(
        RateRecord(s, seed, (1.5 * s / 10.0 * math.log2(10.0) + seed,), "ok")
        for seed in range(3) for s in grid))
    estimate = estimate_dof(table)
    assert math.isclose(estimate.slope, 1.5, rel_tol=1e-12)
    assert math.isfinite(estimate.half_width) and estimate.half_width <= 1e-12


@pytest.mark.parametrize("grid", [(), (40.0, 1e300)])
def test_the_gap_probe_names_a_grid_it_cannot_take(grid):
    # an empty grid has no span; 1e300 dB overflows float64 as a power
    table = RateTable(K=1, snr_db=grid, records=tuple(
        RateRecord(s, 0, (1.5 * s / 10.0 * math.log2(10.0),), "ok") for s in grid))
    with pytest.raises(ParameterError, match="snr"):
        estimate_o1_gap(table, 1.5)


def test_points_that_share_one_log2_rho_are_not_fitted():
    # adjacent floats near 40 dB can round to one log2(rho), which leaves no
    # spread to fit a slope over
    low = 40.000000000000014
    grid = (low, math.nextafter(low, math.inf))
    assert grid[0] / 10.0 * math.log2(10.0) == grid[1] / 10.0 * math.log2(10.0)
    table = RateTable(K=1, snr_db=grid, records=tuple(
        RateRecord(s, 0, (13.0 + i,), "ok") for i, s in enumerate(grid)))
    with pytest.raises(InsufficientDataError, match="share one log2"):
        estimate_dof(table)


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
