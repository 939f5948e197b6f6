"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, or plain ``pytest`` where each test's pass/fail stands for its
criterion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from ia_lab import (CognitiveScenario, ParameterError, SchemeConfig,
                    build_designed_channel, build_precoders_general,
                    build_precoders_k3, check_alignment, cognitive_dof,
                    check_delay_parity, decompose_dof_point, estimate_dof,
                    estimate_o1_gap, extend_channel, generate_channels,
                    sample_dof_region, simulate_delay_schedule, snr_sweep,
                    REGION_CORNERS)
from ia_lab.designed import DelayMatrix
from ia_lab.siso import required_extension_general
from ia_lab.verification import (RankProbe, demonstrate_diagonal_infeasibility,
                                 separability_matrix, vandermonde_check)

RESIDUAL_TOL = 1e-9


def report_pass(num, message):
    print(f"[acceptance] criterion {num:2d} PASS: {message}")


def slope_of(family_kwargs, grid, trials=20, seed=7):
    table = snr_sweep(SchemeConfig(**family_kwargs), grid, trials, seed)
    assert not table.failures()
    return estimate_dof(table)


def test_c01_three_user_alignment_exactness():
    started = time.monotonic()
    checked = 0
    for n in (1, 2, 3):
        length = 2 * n + 1
        for seed in range(100):
            ext = extend_channel(generate_channels(3, 1, length, seed=seed), length)
            scheme = build_precoders_k3(ext, n)
            report = check_alignment(scheme, ext)
            assert report.passed, f"n={n}, seed={seed}"
            assert all(rel.residual <= RESIDUAL_TOL for rel in report.relations)
            assert all(rx.joint_rank == length for rx in report.receivers)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report_pass(1, f"{checked} constructions aligned to {RESIDUAL_TOL} and "
                   f"full rank in {elapsed:.2f}s")


def test_c02_three_user_dof_slopes():
    target1 = 4.0 / 3.0
    est1 = slope_of(dict(family="siso-k3", n=1), [60, 70, 80])
    assert abs(est1.slope - target1) <= 0.02 * target1

    # the n=5 window sits higher: the weakest power-basis streams only clear
    # the noise floor beyond ~120 dB, and the criterion pins no grid for n=5
    target5 = 16.0 / 11.0
    est5 = slope_of(dict(family="siso-k3", n=5), [160, 180, 200])
    assert abs(est5.slope - target5) <= 0.02 * target5
    report_pass(2, f"slope(n=1)={est1.slope:.4f} (4/3 +/- 2%), "
                   f"slope(n=5)={est5.slope:.4f} (16/11 +/- 2%)")


def test_c03_general_four_user_construction():
    length = required_extension_general(4, 1)
    assert length == 33
    for seed in range(50):
        ext = extend_channel(generate_channels(4, 1, length, seed=seed), length)
        scheme = build_precoders_general(ext, 1)
        assert scheme.stream_counts == (32, 1, 1, 1)
        report = check_alignment(scheme, ext)
        assert report.passed, f"seed={seed}"
        assert all(rx.joint_rank == length for rx in report.receivers)
    target = 35.0 / 33.0
    est = slope_of(dict(family="siso-general", K=4, n=1), [120, 140, 160])
    assert abs(est.slope - target) <= 0.03 * target
    report_pass(3, f"50/50 seeds aligned at L=33; slope={est.slope:.4f} "
                   f"(35/33 +/- 3%)")


def test_c04_designed_channel():
    ext, scheme = build_designed_channel(3)
    desired = (ext.matrix(0, 0) @ scheme.precoders[0])[:, 0]
    interference = (ext.matrix(0, 1) @ scheme.precoders[1])[:, 0]
    assert np.vdot(desired, interference) == 0  # exact, zero tolerance
    slopes = {}
    for K in (3, 10):
        est = slope_of(dict(family="designed", K=K), [60, 70, 80], trials=3)
        assert abs(est.slope - K / 2.0) <= 0.01 * (K / 2.0)
        slopes[K] = est.slope
    report_pass(4, f"orthogonality exact; slopes {slopes[3]:.4f} (K=3), "
                   f"{slopes[10]:.4f} (K=10) within 1% of K/2")


def test_c05_delay_alignment():
    delays = np.full((3, 3), 1, dtype=int)
    np.fill_diagonal(delays, 2)
    valid = DelayMatrix.from_array(delays)
    fractions = simulate_delay_schedule(valid, 100)
    assert np.all(fractions == 0.5)  # exactly one half per user

    delays[0, 0] = 1
    invalid = DelayMatrix.from_array(delays)
    assert not check_delay_parity(invalid)
    with pytest.raises(ParameterError):
        simulate_delay_schedule(invalid, 100)
    report_pass(5, "valid parity gives exactly 1/2 per user; invalid rejected")


def test_c06_mimo_even_slope_and_gap():
    lines = []
    for M in (2, 4):
        target = 3.0 * M / 2.0
        table = snr_sweep(SchemeConfig(family="mimo", M=M),
                          [40, 50, 60, 70, 80], trials=20, seed=7)
        assert not table.failures()
        est = estimate_dof(table)
        assert abs(est.slope - target) <= 0.02 * target
        gap = estimate_o1_gap(table, target)
        assert gap.oscillation <= 1.0
        lines.append(f"M={M}: slope={est.slope:.4f}, gap osc={gap.oscillation:.4f}")
    report_pass(6, "; ".join(lines))


def test_c07_mimo_odd_three_antennas():
    from ia_lab.mimo import build_mimo_odd
    for seed in range(100):
        ext = extend_channel(generate_channels(3, 3, 1, seed=seed), 2, mode="constant-time")
        report = check_alignment(build_mimo_odd(ext), ext)
        assert report.passed, f"seed={seed}"
    est = slope_of(dict(family="mimo", M=3), [60, 70, 80])
    assert abs(est.slope - 4.5) <= 0.02 * 4.5
    report_pass(7, f"100/100 seeds aligned; slope={est.slope:.4f} (4.5 +/- 2%)")


def test_c08_diagonal_infeasibility_demo():
    for M in (2, 4):
        for seed in range(100):
            diag = demonstrate_diagonal_infeasibility(M, seed)
            assert diag.receivers[0].joint_rank < M, f"M={M}, seed={seed}"
            dense = demonstrate_diagonal_infeasibility(M, seed, dense=True)
            assert dense.receivers[0].joint_rank == M, f"M={M}, seed={seed}"
    report_pass(8, "diagonal channels rank-deficient 100/100 (M=2 and 4); "
                   "dense controls full rank 100/100")


def test_c09_vandermonde_and_separability():
    rng = np.random.default_rng(12345)
    for trial in range(1000):
        size = 2 + trial % 6  # sizes 2..7
        nodes = rng.normal(size=size) + 1j * rng.normal(size=size)
        check = vandermonde_check(nodes)
        assert check.relative_error <= 1e-9, f"trial={trial}"

    worst = 1.0
    for n in (1, 2, 3):
        length = 2 * n + 1
        for seed in range(1000):
            ext = extend_channel(generate_channels(3, 1, length, seed=seed), length)
            probe = RankProbe.of(separability_matrix(ext, n))
            assert probe.tolerance == 1e-8 and probe.full_rank, f"n={n}, seed={seed}"
            s = probe.singular_values
            worst = min(worst, s[-1] / s[0])
    report_pass(9, f"1000 determinant agreements at 1e-9; 3000 separability "
                   f"matrices nonsingular (worst sv ratio {worst:.2e})")


def test_c10_region_decomposition():
    points = sample_dof_region(1000, seed=99)
    for point in points:
        weights = decompose_dof_point(point)
        assert np.all(weights >= -1e-12)
        assert abs(weights.sum() - 1.0) <= 1e-9
        assert np.linalg.norm(weights @ REGION_CORNERS - point) <= 1e-9
    report_pass(10, "1000 sampled points decomposed: weights nonnegative, "
                    "sum to one, reconstruct exactly")


def test_c11_cognitive_lookup():
    expected = {1: Fraction(3, 2), 2: Fraction(2),
                3: Fraction(3, 2), 4: Fraction(2)}
    for case, value in expected.items():
        assert cognitive_dof(CognitiveScenario(case)) == value
    report_pass(11, "cases 1-4 return (3/2, 2, 3/2, 2)")
