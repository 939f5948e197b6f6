import csv
import time
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ia_lab.evaluation
import ia_lab.families
from ia_lab import (CognitiveScenario, DegeneracyError, InsufficientDataError,
                    ParameterError, RateRecord, RateTable, RegionMembershipError,
                    SchemeConfig, cognitive_dof, decompose_dof_point,
                    estimate_dof, estimate_o1_gap, in_dof_region,
                    sample_dof_region, snr_sweep, REGION_CORNERS)
from ia_lab.channels import extend_channel, generate_channels
from ia_lab.evaluation import BuiltStack


def synthetic_table(snr_db, sum_rate_fn, trials=1):
    records = []
    for trial in range(trials):
        for snr in snr_db:
            total = sum_rate_fn(10.0 ** (snr / 10.0))
            records.append(RateRecord(snr_db=float(snr), seed=trial,
                                      rates=(total / 3.0,) * 3, status="ok"))
    return RateTable(K=3, snr_db=tuple(float(s) for s in snr_db),
                     records=tuple(records))


def test_sweep_is_deterministic():
    config = SchemeConfig(family="siso-k3", n=1)
    a = snr_sweep(config, [40, 60], trials=3, seed=5)
    b = snr_sweep(config, [40, 60], trials=3, seed=5)
    assert a == b


def test_sweep_single_trial_two_rows():
    config = SchemeConfig(family="siso-k3", n=1)
    table = snr_sweep(config, [40, 60], trials=1, seed=7)
    assert len(table.records) == 2
    assert all(r.status == "ok" for r in table.records)
    assert {r.snr_db for r in table.records} == {40.0, 60.0}


def test_sweep_rejects_bad_grid():
    config = SchemeConfig(family="siso-k3")
    with pytest.raises(ParameterError):
        snr_sweep(config, [60, 40], trials=1, seed=0)
    with pytest.raises(ParameterError):
        snr_sweep(config, [], trials=1, seed=0)
    with pytest.raises(ParameterError):
        snr_sweep(config, [60, 80], trials=0, seed=0)


def test_sweep_refuses_a_point_whose_power_overflows(monkeypatch):
    drawn = []
    monkeypatch.setattr(ia_lab.evaluation, "generate_channels", lambda *args: drawn.append(args))
    with pytest.raises(ParameterError, match=r"^snr point 3082\.6 dB overflows float64"):
        snr_sweep(SchemeConfig(family="siso-k3"), [40, 3082.6, 4000], 1, seed=0)
    assert drawn == []
    # 10^308.25 is still a float64
    assert ia_lab.evaluation.snr_grid([40, 3082.5]) == (40.0, 3082.5)


@pytest.mark.parametrize("trials", [2.0, 1.5, "2", None, True])
def test_sweep_rejects_a_trial_count_that_is_not_an_integer(monkeypatch, trials):
    drawn = []
    monkeypatch.setattr(ia_lab.evaluation, "generate_channels", lambda *args: drawn.append(args))
    with pytest.raises(ParameterError, match="whole number of trials"):
        snr_sweep(SchemeConfig(family="siso-k3"), [60, 80], trials, seed=0)
    assert drawn == []


@pytest.mark.parametrize("seed", [2.0, 1.5, "2", None, False])
def test_sweep_rejects_a_seed_that_is_not_an_integer(monkeypatch, seed):
    drawn = []
    monkeypatch.setattr(ia_lab.evaluation, "generate_channels", lambda *args: drawn.append(args))
    with pytest.raises(ParameterError, match="seed must be an integer"):
        snr_sweep(SchemeConfig(family="siso-k3"), [60], 1, seed)
    assert drawn == []


@pytest.mark.parametrize("fields,message", [
    (dict(family="siso-k3", n=1.5), "alignment order must be an integer"),
    (dict(family="siso-k3", n=0), "alignment order must be >= 1"),
    (dict(family="siso-general", K=4.0, n=1), "K must be an integer"),
    (dict(family="mimo", M=2.0), "M must be an integer"),
    (dict(family="mimo", n=-1), "alignment order must be >= 1"),
    (dict(family="siso-general", K=4, size_cap=0), "size_cap must be >= 1"),
    (dict(family="siso-general", K=4, size_cap=4096.0), "size_cap must be an integer"),
    (dict(family="siso-k3", a_min=3.0), "magnitude bounds"),
    (dict(family="mimo", a_max=float("inf")), "magnitude bounds"),
    (dict(family="designed", a_min=float("nan")), "magnitude bounds"),
    # bool is an Integral, but no count
    (dict(family="siso-k3", n=True), "alignment order must be an integer"),
    (dict(family="siso-general", K=True, n=1), "K must be an integer"),
    (dict(family="mimo", M=True), "M must be an integer"),
    (dict(family="siso-general", K=4, size_cap=True), "size_cap must be an integer"),
    # a bound that is not a number is named
    (dict(family="siso-k3", a_min="1"), "magnitude bound a_min must be a real number"),
    (dict(family="siso-k3", a_min=None), "magnitude bound a_min must be a real number"),
    (dict(family="mimo", a_max="2"), "magnitude bound a_max must be a real number"),
])
def test_scheme_config_checks_its_fields_when_built(fields, message):
    # claimed_dof, build and snr_sweep would otherwise meet them later, or
    # (n=0) claim the degrees of freedom of a scheme that cannot build
    with pytest.raises(ParameterError, match=message):
        SchemeConfig(**fields)


@pytest.mark.parametrize("config", [SchemeConfig("siso-k3", n=1),
                                    SchemeConfig("siso-general", K=4, n=1)])
def test_build_on_a_longer_set_builds_on_its_first_slots(config):
    # a siso build takes a drawn set as its own extension; a longer set, such
    # as a channel file's, is cut to the slots the family draws first
    K, M, F = ia_lab.families.get_family(config.family).channel_shape(config)
    ch = generate_channels(K, M, F + 2, seed=11)
    scheme, ext = config.build_on(ch)
    first = extend_channel(ch, F)
    alone = config.build_on(first)[0]
    assert ext.F == F and np.array_equal(ext.coeffs, first.coeffs)
    assert all(np.array_equal(a, b) for a, b in zip(scheme.precoders, alone.precoders))


def test_sweep_takes_a_numpy_integer_seed():
    config = SchemeConfig(family="siso-k3")
    assert snr_sweep(config, [60], 2, np.uint64(7)) == snr_sweep(config, [60], 2, 7)


def test_sweep_takes_a_numpy_integer_trial_count():
    config = SchemeConfig(family="siso-k3")
    assert snr_sweep(config, [60], np.int64(2), 0) == snr_sweep(config, [60], 2, 0)


class FailingConfig:
    K = 3

    def build(self, seed):
        raise DegeneracyError("synthetic failure")

    def build_trials(self, seeds):
        # a real build stack, with none of its trials kept
        seeds = tuple(seeds)
        [stack] = SchemeConfig("siso-k3").build_trials(seeds)
        scheme, ext = stack.trial
        return [BuiltStack(seeds, tuple(DegeneracyError("synthetic failure") for _ in seeds),
                           (scheme[:0], ext[:0]))]


def test_failed_trials_become_failure_rows():
    table = snr_sweep(FailingConfig(), [60, 80], trials=2, seed=0)
    assert len(table.records) == 4
    assert all(r.status == "failed" and r.rates is None for r in table.records)
    assert math.isnan(table.records[0].sum_rate)
    with pytest.raises(InsufficientDataError):
        estimate_dof(table)


def test_synthetic_slope_recovered_exactly():
    table = synthetic_table([40, 55, 70, 85], lambda rho: 1.5 * math.log2(rho) + 3.0)
    estimate = estimate_dof(table)
    assert abs(estimate.slope - 1.5) <= 1e-12
    assert estimate.half_width <= 1e-12


def test_estimate_needs_two_high_snr_points():
    table = synthetic_table([50], lambda rho: math.log2(rho))
    with pytest.raises(InsufficientDataError):
        estimate_dof(table)
    # points below 40 dB do not count toward the fit
    table = synthetic_table([10, 20, 60], lambda rho: math.log2(rho))
    with pytest.raises(InsufficientDataError):
        estimate_dof(table)


def failed_table(snr_db, trials):
    records = tuple(RateRecord(snr_db=float(snr), seed=trial, rates=None,
                               status="failed")
                    for trial in range(trials) for snr in snr_db)
    return RateTable(K=3, snr_db=tuple(float(s) for s in snr_db), records=records)


def test_estimate_names_the_failed_trials_on_a_long_enough_grid():
    with pytest.raises(InsufficientDataError, match="^all 20 trials failed$"):
        estimate_dof(failed_table([160, 180, 200], trials=20))
    # one trial succeeding at a single high point still cannot be fitted
    table = failed_table([60, 80], trials=3)
    ok = RateRecord(snr_db=60.0, seed=0, rates=(1.0, 1.0, 1.0), status="ok")
    table = RateTable(K=3, snr_db=table.snr_db, records=(ok,) + table.records[1:])
    with pytest.raises(InsufficientDataError, match="^2 of 3 trials failed, leaving 1 of 2 SNR points"):
        estimate_dof(table)


def test_estimate_keeps_the_short_grid_message_when_trials_fail():
    with pytest.raises(InsufficientDataError, match="need at least two SNR points"):
        estimate_dof(failed_table([20, 40], trials=5))


def test_gap_constant_offset_has_no_oscillation():
    table = synthetic_table([40, 50, 60, 70, 80],
                            lambda rho: 2.0 * math.log2(1 + rho) + 5.0)
    probe = estimate_o1_gap(table, 2.0)
    assert probe.oscillation <= 1e-9
    assert all(abs(g - 5.0) <= 1e-9 for g in probe.gaps)


def test_gap_unbounded_term_grows_with_span():
    crooked = lambda rho: 1.5 * math.log2(1 + rho) - math.sqrt(math.log2(1 + rho ** 2))
    narrow = estimate_o1_gap(synthetic_table([40, 60, 80], crooked), 1.5)
    wide = estimate_o1_gap(synthetic_table([40, 80, 120, 160], crooked), 1.5)
    assert wide.oscillation > narrow.oscillation > 0.1


def test_gap_names_the_failed_trials_when_none_succeeded():
    with pytest.raises(InsufficientDataError, match="^all 4 trials failed$"):
        estimate_o1_gap(failed_table([40, 60, 80], trials=4), 1.0)


def test_gap_needs_wide_grid():
    table = synthetic_table([40, 60], lambda rho: math.log2(rho))
    with pytest.raises(ParameterError):
        estimate_o1_gap(table, 1.0)
    wide = synthetic_table([40, 60, 80], lambda rho: math.log2(rho))
    for claim in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ParameterError, match="must be finite"):
            estimate_o1_gap(wide, claim)


def test_decompose_corners():
    assert np.allclose(decompose_dof_point((1, 0, 0)), [1, 0, 0, 0, 0], atol=0)
    assert np.allclose(decompose_dof_point((0.5, 0.5, 0.5)), [0, 0, 0, 1, 0], atol=0)
    assert np.allclose(decompose_dof_point((0, 0, 0)), [0, 0, 0, 0, 1], atol=0)


def test_decompose_interior_point_frozen():
    # s = 1.4 > 1: symmetric corner takes 0.8, users 1 and 2 keep 0.1 each
    weights = decompose_dof_point((0.5, 0.5, 0.4))
    assert np.allclose(weights, [0.1, 0.1, 0.0, 0.8, 0.0], atol=1e-15)
    rebuilt = weights @ REGION_CORNERS
    assert np.allclose(rebuilt, [0.5, 0.5, 0.4], atol=1e-15)


def test_decompose_rejects_outside_points():
    with pytest.raises(RegionMembershipError):
        decompose_dof_point((0.6, 0.6, 0.6))
    with pytest.raises(RegionMembershipError):
        decompose_dof_point((-0.1, 0.2, 0.2))
    assert not in_dof_region((0.6, 0.6, 0.6))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 2])
def test_region_rejects_a_non_finite_component(bad, slot):
    point = [0.2, 0.2, 0.2]
    point[slot] = bad
    with pytest.raises(ParameterError, match="finite"):
        in_dof_region(point)
    with pytest.raises(ParameterError, match="finite"):
        decompose_dof_point(point)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
def test_decompose_reconstructs_membership_points(point):
    assume(in_dof_region(point))
    weights = decompose_dof_point(point)
    assert np.all(weights >= -1e-12)
    assert abs(weights.sum() - 1.0) <= 1e-9
    assert np.linalg.norm(weights @ REGION_CORNERS - np.asarray(point)) <= 1e-9


def test_sampled_points_lie_in_region():
    points = sample_dof_region(500, seed=3)
    assert points.shape == (500, 3)
    assert all(in_dof_region(p) for p in points)
    again = sample_dof_region(500, seed=3)
    assert np.array_equal(points, again)


@pytest.mark.parametrize("count", [-1, 2.5, True])
def test_region_sampling_rejects_a_count_that_is_not_a_whole_number(count):
    with pytest.raises(ParameterError, match="number of samples"):
        sample_dof_region(count)


@pytest.mark.parametrize("seed", [-1, 2.5, 2 ** 128])
def test_region_sampling_rejects_a_seed_outside_philox_keys(seed):
    with pytest.raises(ParameterError, match="seed must be an integer"):
        sample_dof_region(3, seed)


def test_cognitive_lookup_values():
    assert cognitive_dof(CognitiveScenario.ONE_MESSAGE_SHARED) == Fraction(3, 2)
    assert cognitive_dof(CognitiveScenario.TWO_MESSAGES_SHARED) == Fraction(2)
    assert cognitive_dof(CognitiveScenario.COGNITIVE_RECEIVER) == Fraction(3, 2)
    assert cognitive_dof(CognitiveScenario.COGNITIVE_TRANSMITTER) == Fraction(2)
    assert cognitive_dof(2) == 2
    with pytest.raises(ValueError):
        cognitive_dof(5)


def test_cognitive_lookup_names_an_unknown_scenario():
    with pytest.raises(ParameterError, match="no cognitive-sharing scenario 5"):
        cognitive_dof(5)


def test_scheme_config_claimed_dof():
    assert SchemeConfig(family="siso-k3", n=1).claimed_dof == Fraction(4, 3)
    assert SchemeConfig(family="siso-k3", n=5).claimed_dof == Fraction(16, 11)
    assert SchemeConfig(family="siso-general", K=4, n=1).claimed_dof == Fraction(35, 33)
    assert SchemeConfig(family="mimo", M=3).claimed_dof == Fraction(9, 2)
    assert SchemeConfig(family="designed", K=10).claimed_dof == Fraction(5)


def test_scheme_config_validation():
    with pytest.raises(ParameterError):
        SchemeConfig(family="unknown")
    with pytest.raises(ParameterError):
        SchemeConfig(family="siso-k3", K=4)
    with pytest.raises(ParameterError):
        SchemeConfig(family="mimo", M=1)


def test_oversized_general_config_fails_before_generating():
    from ia_lab import SizeGuardError
    config = SchemeConfig(family="siso-general", K=6, n=1)  # length 2^19 + 1
    started = time.monotonic()
    with pytest.raises(SizeGuardError):
        config.build(seed=0)
    assert time.monotonic() - started < 1.0


def test_slopes_increase_with_alignment_order():
    # the asymptotic window shows the (3n+1)/(2n+1) ladder cleanly
    slopes = []
    for n in (1, 3, 5):
        table = snr_sweep(SchemeConfig(family="siso-k3", n=n),
                          [160, 180, 200], trials=5, seed=2)
        slopes.append(estimate_dof(table).slope)
    assert slopes[0] < slopes[1] < slopes[2] < 1.5


def test_csv_format(tmp_path):
    config = SchemeConfig(family="siso-k3", n=1)
    table = snr_sweep(config, [60, 80], trials=2, seed=9)
    path = tmp_path / "rates.csv"
    table.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["snr_db", "seed", "user", "rate_bits",
                       "sum_rate_bits", "status"]
    assert len(rows) == 1 + 3 * len(table.records)
    body = rows[1:]
    assert {r[2] for r in body} == {"1", "2", "3"}
    assert all(r[5] == "ok" for r in body)
    # per-user rates re-sum to the recorded sum rate
    first = [float(r[3]) for r in body[:3]]
    assert math.isclose(sum(first), float(body[0][4]), rel_tol=1e-12)


def test_designed_four_user_slope_is_two():
    table = snr_sweep(SchemeConfig(family="designed", K=4), [60, 80],
                      trials=1, seed=0)
    estimate = estimate_dof(table)
    assert abs(estimate.slope - 2.0) <= 0.01 * 2.0


def test_mean_sum_rates_alignment_with_grid():
    table = synthetic_table([40, 60, 80], lambda rho: math.log2(rho), trials=4)
    means = table.mean_sum_rates()
    assert means.shape == (3,)
    assert math.isclose(means[0], math.log2(1e4), rel_tol=1e-12)


def test_ok_records_and_means_match_a_full_scan():
    records = []
    for seed in range(5):
        for snr in (40.0, 60.0, 80.0):
            ok = (seed + int(snr)) % 3 != 0
            records.append(RateRecord(snr, seed, (snr + seed, 0.5, 0.25) if ok else None,
                                      "ok" if ok else "failed"))
    table = RateTable(K=3, snr_db=(40.0, 60.0, 80.0), records=tuple(records))
    scan = [r for r in records if r.status == "ok"]
    assert table.ok_records() == scan
    table.ok_records().clear()  # callers get their own list
    assert table.ok_records() == scan
    expected = [np.mean([r.sum_rate for r in records if r.status == "ok" and r.snr_db == s])
                for s in table.snr_db]
    assert table.mean_sum_rates().tolist() == expected


def test_dof_estimate_counts_the_failed_trials():
    records = []
    for seed in range(5):
        failed = seed in (1, 3)
        for snr in (40.0, 60.0, 80.0):
            rates = None if failed else ((snr / 10.0) * math.log2(10.0) / 3.0,) * 3
            records.append(RateRecord(snr, seed, rates, "failed" if failed else "ok"))
    table = RateTable(K=3, snr_db=(40.0, 60.0, 80.0), records=tuple(records))
    estimate = estimate_dof(table)
    assert (estimate.trials_used, estimate.trials_failed) == (3, 2)
    assert math.isclose(estimate.slope, 1.0, rel_tol=1e-12)
    clean = synthetic_table([40, 60, 80], lambda rho: math.log2(rho), trials=2)
    assert estimate_dof(clean).trials_failed == 0
