import dataclasses
import json
import math

import numpy as np
import pytest

import ia_lab.families
from ia_lab import (ParameterError, SchemeConfig, ShapeError,
                    build_designed_channel, build_precoders_k3, check_alignment,
                    extend_channel, generate_channels, snr_sweep, zf_rates)
from ia_lab.linalg import orthonormal_complement
from ia_lab.receiver import _grid_rates, _pass

from conftest import interference_at, steer


def k3_case(seed=7, n=1):
    ch = generate_channels(3, 1, 2 * n + 1, seed=seed)
    ext = extend_channel(ch, 2 * n + 1)
    return build_precoders_k3(ext, n), ext


def rates_of(scheme, ext, rhos):
    """Per-user rates of one trial, a (len(rhos), K) array or None."""
    [rates] = zf_rates(scheme, ext, rhos)
    return rates


class MatrixOverrideChannel:
    """Extended-channel stand-in with some link matrices replaced."""

    stacked = False

    def __init__(self, ext, overrides):
        self.K, self.M, self.F, self.dim = ext.K, ext.M, ext.F, ext.dim
        self._ext = ext
        self._overrides = overrides

    def matrix(self, k, j):
        return self._overrides.get((k, j), self._ext.matrix(k, j))

    def apply(self, k, j, v):
        return self.matrix(k, j) @ v

    def solve_adjoint(self, k, j, v):
        return np.linalg.solve(self.matrix(k, j).conj().T, v)


def test_k3_rank_structure():
    scheme, ext = k3_case(n=1)
    report = check_alignment(scheme, ext)
    assert report.passed
    rx1, rx2, rx3 = report.receivers
    # aligned interference collapses to one dimension at the two-stream user
    assert (rx1.interference_rank, rx1.desired_rank, rx1.joint_rank) == (1, 2, 3)
    assert (rx2.interference_rank, rx2.desired_rank, rx2.joint_rank) == (2, 1, 3)
    assert (rx3.interference_rank, rx3.desired_rank, rx3.joint_rank) == (2, 1, 3)


def test_designed_rank_structure():
    ext, scheme = build_designed_channel(3)
    report = check_alignment(scheme, ext)
    assert report.passed
    for rx in report.receivers:
        assert (rx.interference_rank, rx.desired_rank, rx.joint_rank) == (1, 1, 2)


def test_corrupted_precoder_fails_and_rates_refuse():
    scheme, ext = k3_case()
    corrupted = steer(scheme, ext)
    report = check_alignment(corrupted, ext)
    assert not report.passed
    # rx 1's interference covers one of its desired streams, which leaves
    # the interference-free dimensions
    rx1 = report.receivers[0]
    assert rx1.joint_rank < rx1.interference_rank + rx1.desired_streams
    assert rates_of(corrupted, ext, [1e4]) is None


def test_dimension_mismatch_raises():
    scheme, _ = k3_case(n=1)
    _, ext5 = k3_case(n=2)
    with pytest.raises(ShapeError):
        check_alignment(scheme, ext5)


def test_a_scheme_short_of_precoders_raises():
    scheme, ext = k3_case(n=1)
    short = dataclasses.replace(scheme, precoders=scheme.precoders[:2])
    with pytest.raises(ShapeError, match="K=3 but 2 precoders"):
        check_alignment(short, ext)
    with pytest.raises(ShapeError, match="K=3 but 2 precoders"):
        zf_rates(short, ext, [1.0])


def test_only_a_stacked_scheme_takes_a_trial_index():
    scheme, ext = k3_case(n=1)
    with pytest.raises(ShapeError):
        scheme[0]
    with pytest.raises(ShapeError):
        check_alignment(scheme[0], ext)
    assert scheme[None].stacked
    assert check_alignment(scheme[None][0], ext) == check_alignment(scheme, ext)


def test_zero_power_gives_zero_rates():
    scheme, ext = k3_case()
    [rates] = rates_of(scheme, ext, [0.0]).tolist()
    assert rates == [0.0, 0.0, 0.0]
    assert sum(rates) == 0.0


def test_negative_power_rejected():
    scheme, ext = k3_case()
    # and powers that are not finite
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite and nonnegative"):
            zf_rates(scheme, ext, [1.0, bad])


@pytest.mark.parametrize("rhos", [100.0, [[100.0], [1000.0]], [[100.0, 1000.0]]])
def test_power_grid_must_be_one_dimensional(rhos):
    scheme, ext = k3_case()
    with pytest.raises(ParameterError, match="one-dimensional"):
        zf_rates(scheme, ext, rhos)
    # the grid it would stand for has one row per power
    assert len(set(map(tuple, rates_of(scheme, ext, np.ravel(rhos)).tolist()))) == np.size(rhos)


def test_rates_monotone_over_snr_grid():
    scheme, ext = k3_case(seed=3)
    grid_db = np.linspace(0, 95, 20)
    previous = np.zeros(3)
    for rates in rates_of(scheme, ext, 10 ** (grid_db / 10)):
        assert np.all(rates >= previous - 1e-12)
        previous = rates


def test_projection_annihilates_interference():
    for seed in range(20):
        scheme, ext = k3_case(seed=seed)
        for k in range(3):
            stack = interference_at(scheme, ext, k)
            basis = orthonormal_complement(stack)
            projected = basis.conj().T @ stack
            norms = np.linalg.norm(stack, axis=0)
            assert np.all(np.linalg.norm(projected, axis=0) <= 1e-9 * norms)


def test_unitary_rotation_of_one_receiver_preserves_its_rate():
    scheme, ext = k3_case(seed=11)
    [baseline] = rates_of(scheme, ext, [1e6])
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(raw)
    rotated = MatrixOverrideChannel(
        ext, {(0, j): q @ ext.matrix(0, j) for j in range(3)})
    [result] = rates_of(scheme, rotated, [1e6])
    assert math.isclose(result[0], baseline[0], rel_tol=1e-9)


def test_relabeling_users_permutes_rates(monkeypatch):
    # permuting the channel tensor and the precoders together relabels the
    # computation exactly, so the rate vector permutes with no error; the
    # family relation list is anchored to the special role of user 1, so the
    # rates come from the receiver pass's gains, without the relations and
    # without the interference images, which hold only under them
    scheme, ext = k3_case(seed=17)
    assert check_alignment(scheme, ext).passed
    family = ia_lab.families.FAMILIES["siso-k3"]
    monkeypatch.setitem(ia_lab.families.FAMILIES, "siso-k3",
                        dataclasses.replace(family, relations=lambda K: (),
                                            interference_image=None))

    def rates(scheme, ext):
        ranks, _, passed, gains = _pass(scheme[None], ext, True)
        # every receiver reached and passed (a pass with gains leaves the
        # desired ranks at -1)
        assert passed.tolist() == [True] and np.all(ranks[1:] >= 0)
        return _grid_rates(ext.F, gains, [1e5])[0, 0].tolist()

    baseline = rates(scheme, ext)
    perm = [2, 0, 1]
    permuted_ext = MatrixOverrideChannel(
        ext, {(k, j): ext.matrix(perm[k], perm[j])
              for k in range(3) for j in range(3)})
    permuted_scheme = dataclasses.replace(
        scheme, precoders=tuple(scheme.precoders[perm[j]] for j in range(3)))
    result = rates(permuted_scheme, permuted_ext)
    for k in range(3):
        assert math.isclose(result[k], baseline[perm[k]], rel_tol=1e-12)
    assert math.isclose(sum(result), sum(baseline), rel_tol=1e-12)


def test_relabeled_k3_scheme_fails_its_relations_without_raising():
    # relabeled, the siso-k3 relations pair precoders of different widths:
    # the equality relation fails with residual 1.0, as a span relation
    # between spans of different dimensions does, instead of raising
    scheme, ext = k3_case(seed=17)
    perm = [2, 0, 1]
    permuted_ext = MatrixOverrideChannel(
        ext, {(k, j): ext.matrix(perm[k], perm[j]) for k in range(3) for j in range(3)})
    permuted_scheme = dataclasses.replace(
        scheme, precoders=tuple(scheme.precoders[perm[j]] for j in range(3)))
    report = check_alignment(permuted_scheme, permuted_ext)
    assert all(check.ok for check in report.receivers)
    [equality] = [r for r in report.relations if r.kind == "equality"]
    assert equality.residual == 1.0 and not equality.ok
    assert not report.passed and report.max_residual == 1.0
    assert zf_rates(permuted_scheme, permuted_ext, [1e5]) == [None]


def test_relabeling_designed_scheme_is_fully_symmetric():
    # the designed family has no special role, so a permuted copy passes the
    # checker outright and every user sees the same rate
    ext, scheme = build_designed_channel(4)
    perm = [3, 1, 0, 2]
    permuted_ext = MatrixOverrideChannel(
        ext, {(k, j): ext.matrix(perm[k], perm[j])
              for k in range(4) for j in range(4)})
    report = check_alignment(scheme, permuted_ext)
    assert report.passed
    baseline = rates_of(scheme, ext, [1e4])
    result = rates_of(scheme, permuted_ext, [1e4])
    assert result.tolist() == baseline.tolist()


def test_designed_two_user_rate_closed_form():
    # after projection each user sees a clean unit scalar channel with
    # per-stream power rho: rate = log2(1 + rho) / 2 per channel use
    ext, scheme = build_designed_channel(2)
    rhos = (1.0, 1e2, 1e6)
    for rho, rates in zip(rhos, rates_of(scheme, ext, rhos)):
        expected = math.log2(1.0 + rho) / 2.0
        assert math.isclose(rates[0], expected, rel_tol=1e-12)
        assert math.isclose(rates[1], expected, rel_tol=1e-12)


def test_k3_two_point_slope_matches_four_thirds():
    scheme, ext = k3_case(seed=23)
    low, high = rates_of(scheme, ext, [1e6, 1e8]).sum(axis=1)
    expected = (4.0 / 3.0) * math.log2(100.0)
    assert abs((high - low) - expected) <= 0.05 * expected


def test_report_serializes_to_json():
    scheme, ext = k3_case()
    report = check_alignment(scheme, ext)
    doc = json.loads(report.to_json())
    assert doc["passed"] is True
    assert doc["family"] == "siso-k3"
    assert len(doc["receivers"]) == 3
    assert all("residual" in rel for rel in doc["relations"])


@pytest.mark.parametrize("config", [
    SchemeConfig("siso-k3", n=2),
    SchemeConfig("siso-general", K=4, n=1),
    SchemeConfig("mimo", M=2),
    SchemeConfig("mimo", M=3),
    SchemeConfig("designed", K=3),
], ids=lambda c: f"{c.family}-K{c.K}-M{c.M}")
def test_sweep_rates_equal_per_point_zf_rates(config):
    # the sweep evaluates its whole grid from one geometry pass per trial;
    # every point must agree with a from-scratch zf_rates call at that point
    grid = (0.0, 20.0, 40.0, 60.0, 80.0)
    table = snr_sweep(config, grid, trials=1, seed=3)
    scheme, ext = config.build(table.records[0].seed)
    for rec in table.records:
        assert rec.status == "ok"
        [expected] = rates_of(scheme, ext, [10.0 ** (rec.snr_db / 10.0)])
        for got, want in zip(rec.rates, expected):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
