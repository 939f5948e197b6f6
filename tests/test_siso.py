import numpy as np
import pytest

from conftest import identity_channels

from ia_lab import (ParameterError, ShapeError, SizeGuardError, extend_channel,
                    generate_channels)
from ia_lab.siso import (_exponent_columns, _reference_scalings, build_precoders_general,
                         build_precoders_k3, cross_pair_gains, loop_gains,
                         required_extension_general)

# loop gains for (K=3, M=1, F=3, bounds [0.5, 2.0], seed=7), frozen from the
# dense-matrix oracle H01 inv(H10) H12 inv(H21) H20 inv(H02)
LOOP_GAINS_SEED7 = np.array([
    0.19666010075262347 - 0.025824909310268627j,
    -1.8612601151555765 + 8.2538961211364406j,
    0.42283968329869615 - 0.45689783291774416j,
])


def k3_setup(seed, n):
    ch = generate_channels(3, 1, 2 * n + 1, seed=seed)
    return extend_channel(ch, 2 * n + 1)


def dense_loop_product(ext):
    """Independent route: explicit inverses and dense matrix products."""
    H = ext.matrix
    return (H(0, 1) @ np.linalg.inv(H(1, 0)) @ H(1, 2)
            @ np.linalg.inv(H(2, 1)) @ H(2, 0) @ np.linalg.inv(H(0, 2)))


def test_loop_gains_frozen_seed7():
    ext = k3_setup(7, 1)
    assert np.allclose(loop_gains(ext), LOOP_GAINS_SEED7, rtol=1e-12, atol=0)


def test_loop_gains_match_dense_product():
    for seed in range(20):
        ext = k3_setup(seed, 1)
        dense = dense_loop_product(ext)
        # products of diagonal matrices keep exact zeros off the diagonal
        assert np.array_equal(dense, np.diag(np.diag(dense)))
        assert np.allclose(np.diag(dense), loop_gains(ext), rtol=1e-12)
        assert len(set(np.round(loop_gains(ext), 12))) == 3


def test_loop_gains_identity_links():
    ext = extend_channel(identity_channels(), 3)
    assert np.array_equal(loop_gains(ext), np.ones(3))


def test_k3_shapes_order_one():
    scheme = build_precoders_k3(k3_setup(7, 1), 1)
    assert scheme.stream_counts == (2, 1, 1)
    assert scheme.precoders[0].shape == (3, 2)
    assert np.array_equal(scheme.precoders[0][:, 0], np.ones(3))
    assert np.allclose(scheme.precoders[0][:, 1], LOOP_GAINS_SEED7)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_k3_alignment_by_direct_substitution(n):
    # oracle: dense extended matrices applied to the precoders
    for seed in range(20):
        ext = k3_setup(seed, n)
        v = build_precoders_k3(ext, n).precoders
        H = ext.matrix
        left = H(0, 1) @ v[1]
        right = H(0, 2) @ v[2]
        assert np.linalg.norm(left - right) <= 1e-9 * np.linalg.norm(left)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_k3_containments_by_column_match(n):
    # oracle: nearest-column matching of the single-user interference blocks
    for seed in range(20):
        ext = k3_setup(seed, n)
        v = build_precoders_k3(ext, n).precoders
        H = ext.matrix
        for cols, pool in ((H(1, 2) @ v[2], H(1, 0) @ v[0]),
                           (H(2, 1) @ v[1], H(2, 0) @ v[0])):
            for i in range(cols.shape[1]):
                gaps = np.linalg.norm(pool - cols[:, i:i + 1], axis=0)
                assert gaps.min() <= 1e-9 * np.linalg.norm(cols[:, i])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_k3_desired_plus_interference_full_rank(n):
    for seed in range(20):
        ext = k3_setup(seed, n)
        v = build_precoders_k3(ext, n).precoders
        H = ext.matrix
        joint = np.hstack([H(0, 0) @ v[0], H(0, 1) @ v[1]])
        joint /= np.linalg.norm(joint, axis=0)
        s = np.linalg.svd(joint, compute_uv=False)
        assert s[-1] > 1e-8 * s[0]


def test_k3_rejects_wrong_extension_length():
    with pytest.raises(ShapeError):
        build_precoders_k3(k3_setup(7, 2), 1)
    with pytest.raises(ParameterError):
        build_precoders_k3(k3_setup(7, 1), 0)


def general_setup(K, n, seed):
    length = required_extension_general(K, n)
    ch = generate_channels(K, 1, length, seed=seed)
    return extend_channel(ch, length)


def test_general_k4_shapes():
    ext = general_setup(4, 1, seed=3)
    scheme = build_precoders_general(ext, 1)
    assert scheme.L == 33
    assert scheme.stream_counts == (32, 1, 1, 1)
    assert scheme.precoders[0].shape == (33, 32)
    # the seed block is the single all-ones column, so every other precoder
    # is exactly its per-transmitter diagonal scaling
    h = ext.diagonal
    for j in (1, 2, 3):
        scale = h(0, 2) * h(1, 0) / (h(0, j) * h(1, 2))
        assert np.allclose(scheme.precoders[j][:, 0], scale, rtol=1e-12)


def test_general_k4_columns_are_binary_products():
    # every tx-1 column must be the ones vector pushed through a subset of
    # the five cross-pair maps (exponents 0/1 for n=1)
    ext = general_setup(4, 1, seed=3)
    scheme = build_precoders_general(ext, 1)
    gains = cross_pair_gains(ext)
    pairs = sorted(gains)
    assert len(pairs) == 5
    for idx in range(32):
        expected = np.ones(33, dtype=complex)
        rest = idx
        for pair in pairs:
            if rest % 2:
                expected = expected * gains[pair]
            rest //= 2
        col = scheme.precoders[0][:, idx]
        assert np.allclose(col, expected, rtol=1e-12)


def looped_exponent_columns(gains, pairs, radix):
    """The column-by-column product _exponent_columns replaced: each mixed-
    radix index multiplies a ones column by the powers its nonzero digits
    pick, first pair first."""
    count = radix ** len(pairs)
    tables = {p: gains[p][..., None] ** np.arange(radix) for p in pairs}
    lead = gains[pairs[0]].shape
    cols = np.empty(lead + (count,), dtype=complex)
    for idx in range(count):
        col = np.ones(lead, dtype=complex)
        rest = idx
        for p in pairs:
            digit = rest % radix
            rest //= radix
            if digit:
                col = col * tables[p][..., digit]
        cols[..., idx] = col
    return cols


# every (pairs, radix) of at most 3**8 columns: all that a build under the
# default size cap takes (K=5 n=1 is 11 pairs of radix 2)
EXPONENT_CASES = [(count, radix) for count in range(1, 12) for radix in (1, 2, 3)
                  if radix ** count <= 3 ** 8]


@pytest.mark.parametrize("count,radix", EXPONENT_CASES)
def test_exponent_columns_equal_the_column_loop_bit_for_bit(count, radix):
    rng = np.random.default_rng(count * 3 + radix)
    pairs = [(m, m + 1) for m in range(count)]
    for T in (1, 3):
        gains = {p: rng.normal(size=(T, 5)) + 1j * rng.normal(size=(T, 5)) for p in pairs}
        got = _exponent_columns(gains, pairs, radix)
        want = looped_exponent_columns(gains, pairs, radix)
        assert got.shape == want.shape == (T, 5, radix ** count)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("K,n", [(3, 1), (3, 2), (3, 3), (4, 1)])
def test_general_column_counts_are_exact(K, n):
    big_n = (K - 1) * (K - 2) - 1
    scheme = build_precoders_general(general_setup(K, n, seed=5), n)
    assert scheme.stream_counts[0] == (n + 1) ** big_n
    assert all(d == n ** big_n for d in scheme.stream_counts[1:])


def test_general_reference_pair_is_identity():
    # pair (2, 3) is the identity by algebra, so the build neither computes
    # nor returns it
    for K in (4, 5):
        for seed in range(20):
            ext = extend_channel(generate_channels(K, 1, 16, seed=seed), 16)
            assert (1, 2) not in cross_pair_gains(ext)
            h = ext.diagonal
            scale = _reference_scalings(K, h)[2]
            assert np.max(np.abs(h(1, 2) * scale / h(1, 0) - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_general_at_k3_matches_dedicated_up_to_gauge(n):
    """The K=3 reduction of the general recipe spans powers 0..-n of the
    dedicated loop gain: reversing its columns and scaling slotwise by
    loop^n reproduces the dedicated construction exactly."""
    ext = k3_setup(9, n)
    dedicated = build_precoders_k3(ext, n)
    general = build_precoders_general(ext, n)
    assert general.stream_counts == dedicated.stream_counts
    loop = loop_gains(ext)
    gauge = (loop ** n)[:, None] * general.precoders[0][:, ::-1]
    assert np.allclose(gauge, dedicated.precoders[0], rtol=1e-9)


def test_general_k3_satisfies_k3_alignment_relations():
    ext = k3_setup(21, 2)
    v = build_precoders_general(ext, 2).precoders
    H = ext.matrix
    left = H(0, 1) @ v[1]
    right = H(0, 2) @ v[2]
    assert np.linalg.norm(left - right) <= 1e-9 * np.linalg.norm(left)
    for cols, pool in ((H(1, 2) @ v[2], H(1, 0) @ v[0]),
                       (H(2, 1) @ v[1], H(2, 0) @ v[0])):
        for i in range(cols.shape[1]):
            gaps = np.linalg.norm(pool - cols[:, i:i + 1], axis=0)
            assert gaps.min() <= 1e-9 * np.linalg.norm(cols[:, i])


def test_size_guard_blocks_oversized_builds():
    assert required_extension_general(5, 2) > 4096
    # the guard fires on (K, n) alone, before the extension is touched
    ext = extend_channel(generate_channels(5, 1, 3, seed=0), 3)
    with pytest.raises(SizeGuardError):
        build_precoders_general(ext, 2)


def test_general_rejects_two_users():
    with pytest.raises(ParameterError):
        required_extension_general(2, 1)


def test_general_k4_alignment_residuals_hundred_seeds():
    from ia_lab import check_alignment
    for seed in range(100):
        ext = general_setup(4, 1, seed=seed)
        report = check_alignment(build_precoders_general(ext, 1), ext)
        assert report.passed and report.max_residual <= 1e-9, f"seed={seed}"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_k3_builds_on_a_drawn_set_as_on_its_extension(n):
    for seed in (0, [3, 4, 5]):
        ch = generate_channels(3, 1, 2 * n + 1, seed=seed)
        direct, extended = build_precoders_k3(ch, n), build_precoders_k3(
            extend_channel(ch, 2 * n + 1), n)
        if ch.stacked:
            (direct, ext), slots = direct
            (extended, _), extended_slots = extended
            assert slots == extended_slots and ext.seed == ch.seed
        for v, w in zip(direct.precoders, extended.precoders, strict=True):
            assert v.tobytes() == w.tobytes() and v.strides == w.strides
