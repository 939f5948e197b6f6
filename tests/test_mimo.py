import sys

import numpy as np
import pytest

import ia_lab.channels
from ia_lab import (DegeneracyError, ParameterError, SchemeConfig, ShapeError,
                    extend_channel, generate_channels)
from ia_lab.channels import ChannelSet
from ia_lab.mimo import (_sorted_eigenbasis, build_mimo_even, build_mimo_odd,
                         interleaved_seed, loop_matrix)
from ia_lab.schemes import TrialStack


def rank_of(matrix, tol=1e-8):
    a = matrix / np.linalg.norm(matrix, axis=0)
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s >= tol * s[0]))


def extension(ch):
    """The constant-time extension each parity builds on: one slot for even
    M, two for odd."""
    return extend_channel(ch, 1 + ch.M % 2, mode="constant-time")


def identity_mimo_channels(M=2):
    coeffs = np.zeros((3, 3, 1, M, M), dtype=complex)
    coeffs[:, :, 0] = np.eye(M)
    return ChannelSet(K=3, M=M, F=1, a_min=1.0, a_max=1.0, seed=0, coeffs=coeffs)


def test_loop_matrix_matches_explicit_inverses():
    ch = generate_channels(3, 3, 1, seed=4)
    H = lambda k, j: ch.coeffs[k, j, 0]
    oracle = (np.linalg.inv(H(2, 0)) @ H(2, 1) @ np.linalg.inv(H(0, 1))
              @ H(0, 2) @ np.linalg.inv(H(1, 2)) @ H(1, 0))
    assert np.allclose(loop_matrix(ch), oracle, rtol=1e-10)


def test_eigenbasis_order_is_deterministic():
    ch = generate_channels(3, 4, 1, seed=8)
    [values], [vectors] = _sorted_eigenbasis(loop_matrix(ch)[None], TrialStack(1))
    assert np.all(np.diff(np.abs(values)) <= 1e-12)
    assert np.allclose(np.linalg.norm(vectors, axis=0), 1.0)


def test_identity_channels_flagged_degenerate():
    with pytest.raises(DegeneracyError):
        build_mimo_even(extension(identity_mimo_channels(2)))


@pytest.mark.parametrize("M", [2, 4, 6])
def test_even_alignment_equations(M):
    for seed in range(20):
        ch = generate_channels(3, M, 1, seed=seed)
        scheme = build_mimo_even(extension(ch))
        H = lambda k, j: ch.coeffs[k, j, 0]
        v = scheme.precoders
        # exact equalities at receivers 2 and 3
        for left, right in ((H(1, 0) @ v[0], H(1, 2) @ v[2]),
                            (H(2, 0) @ v[0], H(2, 1) @ v[1])):
            assert np.linalg.norm(left - right) <= 1e-9 * np.linalg.norm(left)
        # span equality at receiver 1 via interference rank collapse
        interference = np.hstack([H(0, 1) @ v[1], H(0, 2) @ v[2]])
        assert rank_of(interference) == M // 2


@pytest.mark.parametrize("M", [2, 4, 6])
def test_even_desired_plus_interference_full_rank(M):
    for seed in range(100):
        ch = generate_channels(3, M, 1, seed=seed)
        scheme = build_mimo_even(extension(ch))
        H = lambda k, j: ch.coeffs[k, j, 0]
        v = scheme.precoders
        for k in range(3):
            interference = np.hstack([H(k, j) @ v[j] for j in range(3) if j != k])
            joint = np.hstack([H(k, k) @ v[k], interference])
            assert rank_of(joint) == M


def test_even_rejects_odd_antennas():
    with pytest.raises(ParameterError):
        build_mimo_even(extension(generate_channels(3, 3, 1, seed=0)))
    with pytest.raises(ParameterError):
        build_mimo_odd(extension(generate_channels(3, 2, 1, seed=0)))


@pytest.mark.parametrize("M", [2, 3])
def test_builders_reject_an_extension_of_the_wrong_length(M):
    build = build_mimo_odd if M % 2 else build_mimo_even
    ch = generate_channels(3, M, 1, seed=0)
    for L in (1, 2, 3):
        if L != 1 + M % 2:
            ext = extend_channel(ch, L, mode="constant-time")
            with pytest.raises(ShapeError, match="extension"):
                build(ext)
            with pytest.raises(ShapeError, match="extension"):
                build(ext[None])


def test_odd_builder_rejects_slots_that_differ():
    # a frequency extension of F=2 channels has the right length, but it is
    # not a constant channel
    ext = extend_channel(generate_channels(3, 3, 2, seed=0), 2)
    with pytest.raises(ShapeError, match="equal slots"):
        build_mimo_odd(ext)
    with pytest.raises(ShapeError, match="equal slots"):
        build_mimo_odd(extend_channel(generate_channels(3, 3, 2, seed=[0, 1]), 2))
    # the constant-time extension of the same channels repeats their first slot
    build_mimo_odd(extend_channel(generate_channels(3, 3, 2, seed=0), 2, mode="constant-time"))


def test_odd_seed_layout_m3():
    ch = generate_channels(3, 3, 1, seed=6)
    _, [vectors] = _sorted_eigenbasis(loop_matrix(ch)[None], TrialStack(1))
    seed = interleaved_seed(vectors)
    assert seed.shape == (6, 3)
    # column 1: first eigenvector on the first slot, exact zeros below
    assert np.array_equal(seed[:3, 0], vectors[:, 0]) and np.all(seed[3:, 0] == 0)
    # column 2: second eigenvector on the second slot
    assert np.all(seed[:3, 1] == 0) and np.array_equal(seed[3:, 1], vectors[:, 1])
    # column 3: last eigenvector on both slots
    assert np.array_equal(seed[:3, 2], vectors[:, 2])
    assert np.array_equal(seed[3:, 2], vectors[:, 2])


@pytest.mark.parametrize("M", [3, 5])
def test_odd_interference_dimension_and_joint_rank(M):
    for seed in range(100):
        ch = generate_channels(3, M, 1, seed=seed)
        ext = extension(ch)
        scheme = build_mimo_odd(ext)
        v = scheme.precoders
        for k in range(3):
            interference = np.hstack([ext.matrix(k, j) @ v[j]
                                      for j in range(3) if j != k])
            assert rank_of(interference) == M
            joint = np.hstack([ext.matrix(k, k) @ v[k], interference])
            assert rank_of(joint) == 2 * M


def test_odd_alignment_equalities_m3():
    for seed in range(20):
        ch = generate_channels(3, 3, 1, seed=seed)
        ext = extension(ch)
        scheme = build_mimo_odd(ext)
        v = scheme.precoders
        for left, right in ((ext.matrix(1, 0) @ v[0], ext.matrix(1, 2) @ v[2]),
                            (ext.matrix(2, 0) @ v[0], ext.matrix(2, 1) @ v[1])):
            assert np.linalg.norm(left - right) <= 1e-9 * np.linalg.norm(left)


@pytest.mark.parametrize("M,expected", [(2, 3), (3, 4.5), (4, 6), (5, 7.5), (6, 9)])
def test_total_streams_per_channel_use(M, expected):
    ch = generate_channels(3, M, 1, seed=1)
    scheme = (build_mimo_odd if M % 2 else build_mimo_even)(extension(ch))
    assert scheme.total_streams / scheme.L == expected
    counts = scheme.stream_counts
    assert counts[0] == counts[1] == counts[2]


def test_eigenvector_scaling_leaves_span_checks_unchanged():
    # rescaling the eigenvector columns (and pushing the same scaling through
    # the derived precoders) must not move any span or rank decision
    ch = generate_channels(3, 4, 1, seed=13)
    scheme = build_mimo_even(extension(ch))
    rng = np.random.default_rng(0)
    scaling = np.diag(rng.uniform(0.2, 3.0, 2) * np.exp(2j * np.pi * rng.uniform(size=2)))
    H = lambda k, j: ch.coeffs[k, j, 0]
    v = [p @ scaling for p in scheme.precoders]
    interference = np.hstack([H(0, 1) @ v[1], H(0, 2) @ v[2]])
    assert rank_of(interference) == 2
    for k in range(3):
        joint = np.hstack([H(k, k) @ v[k]]
                          + [H(k, j) @ v[j] for j in range(3) if j != k])
        assert rank_of(joint) == 4


@pytest.mark.parametrize("M", [2, 3, 4, 5])
def test_one_extension_per_build(monkeypatch, M):
    # both parities solve on the same extension the family build returns
    original = ia_lab.channels.extend_channel
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ia_lab") and getattr(module, "extend_channel", None) is original:
            monkeypatch.setattr(module, "extend_channel", counting)
    scheme, ext = SchemeConfig("mimo", M=M).build(seed=3)
    assert len(calls) == 1
    assert ext.F == scheme.L == (1 if M % 2 == 0 else 2)
    # the same precoders as the builder gives on that extension of the channels
    alone = (build_mimo_odd if M % 2 else build_mimo_even)(
        extension(generate_channels(3, M, 1, seed=3)))
    assert all(np.array_equal(a, b) for a, b in zip(scheme.precoders, alone.precoders))


@pytest.mark.parametrize("M", [2, 4])
def test_even_build_on_a_one_slot_set_equals_it_on_its_extension(M):
    for seed in (1, [6, 7, 8]):
        ch = generate_channels(3, M, 1, seed=seed)
        direct = build_mimo_even(ch)
        extended = build_mimo_even(extend_channel(ch, 1, mode="constant-time"))
        if ch.stacked:
            (direct, ext), slots = direct
            (extended, _), extended_slots = extended
            assert slots == extended_slots and ext.seed == ch.seed
        for v, w in zip(direct.precoders, extended.precoders, strict=True):
            assert v.tobytes() == w.tobytes() and v.strides == w.strides
