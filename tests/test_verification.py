import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import identity_channels

from ia_lab import extend_channel, generate_channels
from ia_lab.channels import ChannelSet
from ia_lab.linalg import has_full_column_rank
from ia_lab.verification import (RankProbe, demonstrate_diagonal_infeasibility,
                                 diagonal_channels, separability_matrix,
                                 vandermonde_check)


def test_separability_matrix_shape_and_first_columns():
    ch = generate_channels(3, 1, 3, seed=7)
    ext = extend_channel(ch, 3)
    s = separability_matrix(ext, 1)
    assert s.shape == (3, 3)
    assert np.array_equal(s[:, 0], np.ones(3))


def test_separability_nonsingular_over_seeds():
    for n in (1, 2, 3):
        for seed in range(200):
            ext = extend_channel(generate_channels(3, 1, 2 * n + 1, seed=seed),
                                 2 * n + 1)
            probe = RankProbe.of(separability_matrix(ext, n))
            assert probe.full_rank, f"singular at n={n}, seed={seed}"
            assert abs(np.linalg.det(separability_matrix(ext, n))) > 0


def test_separability_degenerate_when_loop_gains_repeat():
    # identical links make every loop gain 1, so the power columns collapse
    ext = extend_channel(identity_channels(), 3)
    s = separability_matrix(ext, 1)
    assert RankProbe.of(s).rank < 3
    assert abs(np.linalg.det(s)) < 1e-12


def test_separability_degenerate_when_direct_ratio_is_identity():
    # links equal across (0,0) and (0,1) duplicate the first column
    ch = generate_channels(3, 1, 3, seed=2)
    coeffs = ch.coeffs.copy()
    coeffs[0, 1] = coeffs[0, 0]
    doctored = ChannelSet(K=3, M=1, F=3, a_min=ch.a_min, a_max=ch.a_max,
                          seed=ch.seed, coeffs=coeffs)
    s = separability_matrix(extend_channel(doctored, 3), 1)
    assert np.allclose(s[:, 0], s[:, 2])
    assert RankProbe.of(s).rank < 3


def test_vandermonde_hand_computed_case():
    check = vandermonde_check([1.0, 2.0, 3.0])
    assert abs(check.det_product - 2.0) < 1e-12  # (2-1)(3-1)(3-2)
    assert abs(check.det_lu - 2.0) < 1e-9
    assert check.ok


def test_vandermonde_repeated_node_is_singular():
    check = vandermonde_check([1.0, 2.0, 2.0])
    assert check.det_product == 0.0
    assert abs(check.det_lu) < 1e-9
    assert check.ok


def test_vandermonde_random_size_seven():
    rng = np.random.default_rng(1)
    for _ in range(50):
        nodes = rng.normal(size=7) + 1j * rng.normal(size=7)
        assert vandermonde_check(nodes).relative_error <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=2, max_size=7))
def test_vandermonde_formula_matches_lu(nodes):
    arr = np.asarray(nodes)
    gaps = np.abs(arr[:, None] - arr[None, :])
    np.fill_diagonal(gaps, np.inf)
    assume(gaps.min() > 1e-3)
    assert vandermonde_check(arr).relative_error <= 1e-9


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_rank_probe_counts_singular_values(rows_extra, rank, seed):
    # a matrix assembled from `rank` independent outer products
    rng = np.random.default_rng(seed)
    rows = rank + rows_extra
    cols = rank + 1
    a = np.zeros((rows, cols), dtype=complex)
    for _ in range(rank):
        u = rng.normal(size=rows) + 1j * rng.normal(size=rows)
        v = rng.normal(size=cols) + 1j * rng.normal(size=cols)
        a += np.outer(u, v)
    probe = RankProbe.of(a)
    assert probe.rank == rank
    s = np.array(probe.singular_values)
    assert probe.rank == int(np.sum(s >= probe.tolerance * s[0]))


def test_full_column_rank_counts_columns_not_rows():
    wide = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])  # 2 x 3 of rank 2
    assert RankProbe.of(wide).rank == 2
    assert not has_full_column_rank(wide)
    assert has_full_column_rank(wide.T)
    assert not has_full_column_rank(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))
    assert not has_full_column_rank(np.zeros((3, 2)))


def test_diagonal_channels_have_diagonal_links():
    ch = diagonal_channels(4, seed=0)
    link = ch.coeffs[0, 1, 0]
    assert np.array_equal(link, np.diag(np.diag(link)))
    assert np.all(np.abs(np.diag(link)) >= 0.5)


def test_diagonal_demo_m2_collapses_to_one_line():
    for seed in range(30):
        report = demonstrate_diagonal_infeasibility(2, seed)
        assert not report.passed
        assert report.receivers[0].joint_rank == 1


def test_diagonal_demo_m4_rank_deficient():
    for seed in range(30):
        report = demonstrate_diagonal_infeasibility(4, seed)
        assert report.receivers[0].joint_rank < 4


def test_dense_control_keeps_full_rank():
    for seed in range(30):
        report = demonstrate_diagonal_infeasibility(2, seed, dense=True)
        assert report.passed
        assert report.receivers[0].joint_rank == 2


def test_rank_probe_json():
    probe = RankProbe.of(np.eye(3))
    doc = probe.to_json()
    assert '"rank": 3' in doc
