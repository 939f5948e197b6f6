import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ia_lab import (ChannelFileError, ParameterError, build_designed_channel,
                    check_delay_parity, simulate_delay_schedule)
from ia_lab.designed import DelayMatrix


def test_designed_directions_exactly_orthogonal():
    ext, scheme = build_designed_channel(3)
    desired = ext.matrix(0, 0) @ scheme.precoders[0]
    interference = ext.matrix(0, 1) @ scheme.precoders[1]
    assert np.vdot(desired[:, 0], interference[:, 0]) == 0  # zero tolerance
    # the Gram matrix of the two directions is diagonal in integer arithmetic
    d = [int(x.real) for x in desired[:, 0]]
    i = [int(x.real) for x in interference[:, 0]]
    assert sum(a * b for a, b in zip(d, i)) == 0
    assert sum(a * a for a in d) == 2 and sum(b * b for b in i) == 2


def test_all_interference_lands_on_one_line():
    ext, scheme = build_designed_channel(3)
    for k in range(3):
        cols = [ext.matrix(k, j) @ scheme.precoders[j]
                for j in range(3) if j != k]
        for c in cols[1:]:
            assert np.array_equal(c, cols[0])


def test_hundred_users_half_the_streams_per_use():
    ext, scheme = build_designed_channel(100)
    assert scheme.total_streams == 100
    assert scheme.L == 2
    assert float(scheme.claimed_dof) == 50.0


def test_designed_needs_two_users():
    with pytest.raises(ParameterError):
        build_designed_channel(1)


def canonical_delays(K=3):
    delays = np.full((K, K), 1, dtype=int)
    np.fill_diagonal(delays, 2)
    return DelayMatrix.from_array(delays)


def test_parity_minimal_valid_matrix():
    assert check_delay_parity(canonical_delays()) is True


def test_parity_single_violation():
    delays = canonical_delays().delays.copy()
    delays[0, 0] = 1
    assert check_delay_parity(DelayMatrix.from_array(delays)) is False


def test_parity_all_zeros_invalid():
    assert check_delay_parity(DelayMatrix.from_array(np.zeros((3, 3), int))) is False


@pytest.mark.parametrize("K", [2, 3, 5])
def test_schedule_fraction_exactly_half(K):
    fractions = simulate_delay_schedule(canonical_delays(K), 100)
    assert np.all(fractions == 0.5)


def test_schedule_rejects_invalid_parity():
    delays = np.zeros((3, 3), int)
    with pytest.raises(ParameterError):
        simulate_delay_schedule(DelayMatrix.from_array(delays), 100)


def test_schedule_needs_enough_headroom():
    delays = canonical_delays().delays.copy()
    delays[0, 1] = 61
    with pytest.raises(ParameterError):
        simulate_delay_schedule(DelayMatrix.from_array(delays), 100)
    with pytest.raises(ParameterError):
        simulate_delay_schedule(canonical_delays(), 99)  # odd horizon


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(min_value=2, max_value=4))
def test_schedule_useful_sets_from_independent_oracle(own_half, cross_half, K):
    # any parity-valid matrix: recompute the slot sets directly and compare
    delays = np.full((K, K), 2 * cross_half + 1, dtype=int)
    np.fill_diagonal(delays, 2 * own_half)
    matrix = DelayMatrix.from_array(delays)
    slots = max(100, 4 * int(delays.max()))
    slots += slots % 2
    fractions = simulate_delay_schedule(matrix, slots)
    emissions = range(0, slots, 2)
    for k in range(K):
        own = {t + delays[k, k] for t in emissions}
        hit = {t + delays[j, k] for j in range(K) if j != k for t in emissions}
        useful = own - hit
        assert len(useful) == slots // 2  # identical cardinality at every rx
        assert fractions[k] == len(useful) / len(own | hit)


def test_delay_matrix_from_csv(tmp_path):
    path = tmp_path / "delays.csv"
    path.write_text("2,1,1\n1,2,1\n1,1,2\n")
    matrix = DelayMatrix.from_csv(path)
    assert matrix.K == 3
    assert check_delay_parity(matrix)


def test_delay_matrix_csv_rejects_garbage(tmp_path):
    path = tmp_path / "delays.csv"
    path.write_text("2,1\n1,x\n")
    with pytest.raises(ChannelFileError, match="line 2"):
        DelayMatrix.from_csv(path)
    path.write_text("2,1,1\n1,2\n")
    with pytest.raises(ChannelFileError, match="square"):
        DelayMatrix.from_csv(path)


def test_delay_matrix_rejects_negative_and_nonsquare():
    with pytest.raises(ParameterError):
        DelayMatrix.from_array([[2, -1], [1, 2]])
    with pytest.raises(ParameterError):
        DelayMatrix.from_array([[2, 1, 1], [1, 2, 1]])


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, "1"])
def test_delay_matrix_rejects_non_integer_delays(bad):
    values = np.array([[2, 1], [1, 2]], dtype=object)
    values[0, 1] = bad
    with pytest.raises(ParameterError, match="integers"):
        DelayMatrix.from_array(values.tolist())


def test_delay_matrix_takes_whole_float_delays():
    matrix = DelayMatrix.from_array([[2.0, 1.0], [1.0, 2.0]])
    assert matrix.delays.dtype.kind == "i"
    assert matrix.delays.tolist() == [[2, 1], [1, 2]]


@pytest.mark.parametrize("slots", [10.0, "10", None, True])
def test_schedule_rejects_a_non_integer_horizon(slots):
    with pytest.raises(ParameterError, match="even integer"):
        simulate_delay_schedule(canonical_delays(), slots)


def test_delay_matrix_rejects_an_empty_matrix():
    with pytest.raises(ParameterError, match="nonempty square"):
        DelayMatrix.from_array(np.zeros((0, 0), dtype=int))


def test_delay_matrix_rejects_boolean_delays():
    with pytest.raises(ParameterError, match="integers"):
        DelayMatrix.from_array([[True, False], [False, True]])


@pytest.mark.parametrize("values", [[[True, 1], [1, 2]], [[2, 1], [np.True_, 2]],
                                    [[2.0, False], [1, 2]]])
def test_delay_matrix_rejects_a_boolean_among_numbers(values):
    # numpy makes these lists number arrays before any dtype is seen
    with pytest.raises(ParameterError, match="integers"):
        DelayMatrix.from_array(values)


def test_delay_matrix_rejects_ragged_rows():
    with pytest.raises(ParameterError, match="square"):
        DelayMatrix.from_array([[2, 1, 1], [1, 2]])
