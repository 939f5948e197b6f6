import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_channels

from ia_lab import (ChannelFileError, ParameterError, ShapeError, build_designed_channel,
                    diagonal_channels, extend_channel, generate_channels, load_channels,
                    save_channels)


def test_generate_shapes_and_bounds():
    ch = generate_channels(3, 1, 3, 0.5, 2.0, seed=7)
    assert ch.coeffs.shape == (3, 3, 3, 1, 1)
    mags = np.abs(ch.coeffs)
    assert mags.size == 27
    assert np.all(mags >= 0.5) and np.all(mags <= 2.0)
    assert np.all(mags > 0)


def test_generate_deterministic():
    a = generate_channels(3, 2, 4, seed=123)
    b = generate_channels(3, 2, 4, seed=123)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_per_link_streams_do_not_interfere():
    # each (k, j, f) block comes from its own counter-derived stream: the
    # draws of one link must not depend on how many other links exist
    small = generate_channels(2, 1, 5, seed=9, a_min=0.5, a_max=2.0)
    big = generate_channels(3, 1, 5, seed=9, a_min=0.5, a_max=2.0)
    # same seed, different K: link (0, 0) differs because the stream index
    # encodes K, but regeneration of the same geometry is always identical
    again = generate_channels(3, 1, 5, seed=9, a_min=0.5, a_max=2.0)
    assert np.array_equal(big.coeffs, again.coeffs)
    assert small.coeffs.shape != big.coeffs.shape


# SHA-256 over the little-endian complex128 coefficients of the four seeds
# below, in order; recorded from the one-generator-per-block implementation
GOLDEN_SEEDS = (0, 1, 2 ** 63 + 5, 2 ** 64 - 1)
GOLDEN_COEFFS = {
    ((3, 1, 3), (0.5, 2.0)): "a673538c0029042bb4d6e64665d5e847ca6bb37e694bf796e95c3122f5957220",
    ((3, 1, 3), (1.0, 1.0)): "4decd31afaa79e38525a23e936a65d1ce038f532e491fbc00bd61632c66cfd57",
    ((4, 1, 5), (0.5, 2.0)): "369c0290cf936be72e4c70dccd1c84275aacf63959f71dd29fce03cc48201d05",
    ((4, 1, 5), (1.0, 1.0)): "369be8b328c6637df64a3051558542f8c122484593521c883d32bc96e8117487",
    ((4, 1, 275), (0.5, 2.0)): "a52a5ba8ab42c33a2f6b1f5f656cc525c78132529956c93cdab51fe37137d2b9",
    ((4, 1, 275), (1.0, 1.0)): "981c6bb10f97825d30634c228f8d3c4e16a0f20c2e4e524985f12ad0fc86d4bb",
    ((3, 2, 1), (0.5, 2.0)): "7990a675ed83cd4249dfd49151af86e08c81feff0d44e09b3276f7e8e7a859fc",
    ((3, 2, 1), (1.0, 1.0)): "a0f2312a1bd5ec61257e6f6b91b18188a5ebe5aab366bf047f0aba4a61ed8ca6",
    ((3, 3, 1), (0.5, 2.0)): "133e3a995675ddd5531d7ae2300466197e59e48bfbbeeeb7ed3e389bf6cba39f",
    ((3, 3, 1), (1.0, 1.0)): "3fa8e00c533ef01ade9fd2f214857054231648466528a98f977c72f4b3a838cf",
    ((2, 5, 2), (0.5, 2.0)): "119da02adee7a9f6569fa414b63273c0255f2a3023c1aa3ef62c5e586137b1d9",
    ((2, 5, 2), (1.0, 1.0)): "27f85a3e5cbc4ed17863aa98cf52cd11c85b14678ca5f3edae8eb1e915e341b3",
}


@pytest.mark.parametrize("shape,law", sorted(GOLDEN_COEFFS))
def test_coefficients_match_golden_fingerprints(shape, law):
    digest = hashlib.sha256()
    for seed in GOLDEN_SEEDS:
        coeffs = generate_channels(*shape, *law, seed=seed).coeffs
        digest.update(np.ascontiguousarray(coeffs, dtype="<c16").tobytes())
    assert digest.hexdigest() == GOLDEN_COEFFS[(shape, law)]


def per_block_philox(K, M, F, a_min, a_max, seed):
    """Reference draw: one numpy Philox generator per (k, j, f) block, keyed
    by (seed << 64) | block index."""
    coeffs = np.empty((K, K, F, M, M), dtype=complex)
    for k in range(K):
        for j in range(K):
            for f in range(F):
                key = (seed << 64) | ((k * K + j) * F + f)
                rng = np.random.Generator(np.random.Philox(key=key))
                mag = rng.uniform(a_min, a_max, size=(M, M))
                phase = rng.uniform(0.0, 2.0 * np.pi, size=(M, M))
                coeffs[k, j, f] = mag * np.exp(1j * phase)
    return coeffs


@settings(max_examples=40, deadline=None)
@given(K=st.integers(2, 4), M=st.integers(1, 5), F=st.integers(1, 6),
       seed=st.integers(0, 2 ** 64 - 1),
       law=st.sampled_from([(0.5, 2.0), (1.0, 1.0), (0.25, 1.5)]))
def test_kernel_matches_per_block_numpy_philox(K, M, F, seed, law):
    drawn = generate_channels(K, M, F, *law, seed=seed)
    assert np.array_equal(drawn.coeffs, per_block_philox(K, M, F, *law, seed))


def test_slot_values_distinct_across_seeds():
    # probability-zero collision; check every link of 1000 realizations
    for seed in range(1000):
        ch = generate_channels(3, 1, 3, seed=seed)
        vals = ch.coeffs[0, 0, :, 0, 0]
        assert len(set(vals)) == 3


def test_bounds_hold_over_many_draws():
    total = 0
    for seed in range(10):
        ch = generate_channels(2, 5, 10, 0.25, 1.5, seed=seed)
        mags = np.abs(ch.coeffs)
        assert np.all((mags >= 0.25) & (mags <= 1.5))
        total += mags.size
    assert total >= 10_000


@pytest.mark.parametrize("a_min,a_max", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), ("x", 2.0),
                                         (0.5, None), (True, 2.0)])
def test_invalid_bounds_rejected(a_min, a_max):
    with pytest.raises(ParameterError):
        generate_channels(3, 1, 3, a_min, a_max, seed=0)


def test_single_user_rejected():
    with pytest.raises(ParameterError):
        generate_channels(1, 1, 3, seed=0)


@pytest.mark.parametrize("shape", [(3.0, 1, 3), (3, 1.0, 3), (3, 1, 2.0), (3, 1, "3"),
                                   (True, 1, 3), (3, True, 3), (3, 1, True)])
def test_non_integer_sizes_rejected(shape):
    with pytest.raises(ParameterError, match="must be integers"):
        generate_channels(*shape, seed=0)


@pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), [0, 2.5], np.array([1.0, 2.0]), True,
                                  [0, False]])
def test_non_integer_seeds_rejected(seed):
    with pytest.raises(ParameterError, match="seed"):
        generate_channels(3, 1, 3, seed=seed)


def test_numpy_integer_seeds_draw_as_their_values():
    one = generate_channels(3, 1, 3, seed=np.uint64(7))
    assert one.seed == 7 and type(one.seed) is int
    assert np.array_equal(one.coeffs, generate_channels(3, 1, 3, seed=7).coeffs)
    stack = generate_channels(3, 1, 3, seed=np.array([7, 8]))
    assert stack.seed == (7, 8)
    assert np.array_equal(stack.coeffs, generate_channels(3, 1, 3, seed=[7, 8]).coeffs)


def test_extend_frequency_diagonal():
    ch = generate_channels(3, 1, 3, seed=7)
    ext = extend_channel(ch, 3)
    for k in range(3):
        for j in range(3):
            m = ext.matrix(k, j)
            assert np.array_equal(np.diag(np.diag(m)), m)  # off-diagonal exact zeros
            assert np.array_equal(np.diag(m), ch.coeffs[k, j, :, 0, 0])


def test_extend_identity_channels():
    ext = extend_channel(identity_channels(), 3)
    for k in range(3):
        for j in range(3):
            assert np.array_equal(ext.matrix(k, j), np.eye(3, dtype=complex))


def test_constant_time_extension_repeats_first_slot():
    ch = generate_channels(3, 3, 1, seed=5)
    ext = extend_channel(ch, 2, mode="constant-time")
    m = ext.matrix(0, 1)
    assert m.shape == (6, 6)
    assert np.array_equal(m[:3, :3], ch.coeffs[0, 1, 0])
    assert np.array_equal(m[3:, 3:], ch.coeffs[0, 1, 0])
    assert np.all(m[:3, 3:] == 0) and np.all(m[3:, :3] == 0)


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("mode", ["frequency", "constant-time"])
def test_apply_matches_dense_product(M, mode):
    ext = extend_channel(generate_channels(3, M, 4, seed=13), 4, mode=mode)
    rng = np.random.default_rng(5)
    for d in (1, 3):
        v = rng.normal(size=(ext.dim, d)) + 1j * rng.normal(size=(ext.dim, d))
        for k in range(3):
            for j in range(3):
                dense = ext.matrix(k, j) @ v
                got = ext.apply(k, j, v)
                assert got.shape == dense.shape
                assert np.linalg.norm(got - dense) <= 1e-14 * np.linalg.norm(dense)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_solve_adjoint_inverts_the_adjoint_product(M):
    # one extension and a stack of two, with v stacked alike
    channels = generate_channels(3, M, 4, seed=[13, 14])
    rng = np.random.default_rng(7)
    for ext in (extend_channel(channels[0], 4), extend_channel(channels, 4)):
        lead = ext.coeffs.shape[:-5]
        v = rng.normal(size=lead + (ext.dim, 3)) + 1j * rng.normal(size=lead + (ext.dim, 3))
        for k, j in ((0, 0), (1, 0), (2, 1)):
            got = ext.solve_adjoint(k, j, v)
            assert got.shape == v.shape
            back = ext.matrix(k, j).conj().swapaxes(-1, -2) @ got
            assert np.linalg.norm(back - v) <= 1e-13 * np.linalg.norm(v)


def test_frequency_extension_needs_enough_slots():
    ch = generate_channels(3, 1, 3, seed=0)
    with pytest.raises(ParameterError):
        extend_channel(ch, 4)


@pytest.mark.parametrize("mode", ["frequency", "constant-time"])
@pytest.mark.parametrize("L", [2.0, 3.0, "2", True])
def test_non_integer_extension_length_rejected(mode, L):
    ch = generate_channels(3, 1, 3, seed=0)
    with pytest.raises(ParameterError, match="positive integer"):
        extend_channel(ch, L, mode=mode)


def test_only_a_stacked_extension_takes_a_trial_index():
    one = extend_channel(generate_channels(3, 2, 1, seed=0), 1)
    with pytest.raises(ShapeError):
        one[0]
    assert one[None].stacked and np.array_equal(one[None].coeffs[0], one.coeffs)
    stack = extend_channel(generate_channels(3, 2, 1, seed=[0, 1]), 1)
    assert not stack[1].stacked and np.array_equal(stack[1].coeffs, stack.coeffs[1])


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0),
       phase=st.floats(min_value=0.0, max_value=6.28))
def test_extension_commutes_with_scalar_scaling(scale, phase):
    factor = scale * np.exp(1j * phase)
    ch = generate_channels(3, 1, 3, seed=11)
    scaled = dataclasses.replace(ch, coeffs=ch.coeffs * factor)
    left = extend_channel(scaled, 3).coeffs
    right = extend_channel(ch, 3).coeffs * factor
    assert np.allclose(left, right, rtol=0, atol=0)


def test_extended_matrices_invertible():
    for seed in range(50):
        ext = extend_channel(generate_channels(3, 1, 5, seed=seed), 5)
        for k in range(3):
            for j in range(3):
                s = np.linalg.svd(ext.matrix(k, j), compute_uv=False)
                assert s[-1] > 0


def test_roundtrip_is_bit_exact(tmp_path):
    ch = generate_channels(3, 2, 3, 0.5, 2.0, seed=42)
    path = tmp_path / "channels.json"
    save_channels(ch, path)
    back = load_channels(path)
    assert (back.K, back.M, back.F, back.seed) == (ch.K, ch.M, ch.F, ch.seed)
    assert back.a_min == ch.a_min and back.a_max == ch.a_max
    assert np.array_equal(back.coeffs, ch.coeffs)


def test_load_rejects_zero_magnitude(tmp_path):
    ch = generate_channels(2, 1, 2, seed=1)
    path = tmp_path / "channels.json"
    save_channels(ch, path)
    text = path.read_text()
    first = text.index('{"re"')
    end = text.index("}", first) + 1
    broken = text[:first] + '{"re": 0, "im": 0}' + text[end:]
    path.write_text(broken)
    with pytest.raises(ChannelFileError, match="magnitude"):
        load_channels(path)


def test_load_rejects_single_user(tmp_path):
    path = tmp_path / "channels.json"
    path.write_text('{"schema_version": 1, "K": 1, "M": 1, "F": 1, "seed": 0, '
                    '"a_min": 0.5, "a_max": 2.0, '
                    '"coeffs": [{"re": 1.0, "im": 0.0}]}')
    with pytest.raises(ChannelFileError, match="2 users"):
        load_channels(path)


def test_load_reports_parse_position(tmp_path):
    path = tmp_path / "channels.json"
    path.write_text('{"schema_version": 1,\n  "K": oops')
    with pytest.raises(ChannelFileError, match=r"line 2"):
        load_channels(path)


def test_load_rejects_wrong_coefficient_count(tmp_path):
    ch = generate_channels(2, 1, 2, seed=1)
    path = tmp_path / "channels.json"
    save_channels(ch, path)
    doc = path.read_text()
    doc = doc.replace('"F": 2', '"F": 3')
    path.write_text(doc)
    with pytest.raises(ChannelFileError, match="expected 12 coefficients"):
        load_channels(path)


def test_load_rejects_repeated_slot_values(tmp_path):
    # save_channels refuses such a set, so the file is written by hand
    path = tmp_path / "channels.json"
    path.write_text('{"schema_version": 1, "K": 2, "M": 1, "F": 2, "seed": 0, '
                    '"a_min": 0.5, "a_max": 2.0, "coeffs": ['
                    + ", ".join(['{"re": 1.0, "im": 0.0}'] * 8) + ']}')
    with pytest.raises(ChannelFileError, match="repeats a slot value"):
        load_channels(path)


def test_coefficients_are_immutable():
    ch = generate_channels(2, 1, 2, seed=3)
    with pytest.raises(ValueError):
        ch.coeffs[0, 0, 0, 0, 0] = 0.0


def test_only_a_stack_of_channel_sets_takes_a_trial_index():
    one = generate_channels(3, 2, 1, seed=4)
    with pytest.raises(ShapeError):
        one[0]
    stack = generate_channels(3, 2, 1, seed=[4, 5, 6])
    alone, picked, rows = one[None], stack[1], stack[np.array([2, 0])]
    assert alone.stacked and alone.seed == (4,)
    assert np.array_equal(alone.coeffs, one.coeffs[None])
    assert stack.stacked and stack.seed == (4, 5, 6)
    assert not picked.stacked and picked.seed == 5 and type(picked.seed) is int
    assert np.array_equal(picked.coeffs, stack.coeffs[1])
    assert rows.stacked and rows.seed == (6, 4) and all(type(s) is int for s in rows.seed)
    assert np.array_equal(rows.coeffs, stack.coeffs[[2, 0]])
    # None gives the stack of one of a single set only
    with pytest.raises(ShapeError):
        stack[None]
    for ch in (alone, picked, rows):
        assert not ch.coeffs.flags.writeable


@pytest.mark.parametrize("mode,L", [("frequency", 3), ("constant-time", 2)])
def test_the_stack_of_one_extends_to_the_stacked_extension(mode, L):
    ch = generate_channels(3, 1, 3, seed=8)
    ext = extend_channel(ch[None], L, mode)
    assert ext.stacked
    assert np.array_equal(ext.coeffs, extend_channel(ch, L, mode)[None].coeffs)


@pytest.mark.parametrize("a_min,a_max", [(0.5, np.inf), (0.5, np.nan), (np.nan, 2.0),
                                         (np.inf, np.inf)])
def test_non_finite_bounds_rejected(a_min, a_max):
    with pytest.raises(ParameterError, match="a_max < inf"):
        generate_channels(3, 1, 3, a_min, a_max, 1)


def _channel_file(tmp_path, a_min="0.5", a_max="2.0", re="1.0", im="0.0"):
    path = tmp_path / "channels.json"
    coeffs = ", ".join([f'{{"re": {re}, "im": {im}}}'] + ['{"re": 1.0, "im": 0.0}'] * 3)
    path.write_text('{"schema_version": 1, "K": 2, "M": 1, "F": 1, "seed": 0, '
                    f'"a_min": {a_min}, "a_max": {a_max}, "coeffs": [{coeffs}]}}')
    return path


def test_channel_file_helper_writes_a_loadable_file(tmp_path):
    assert load_channels(_channel_file(tmp_path)).coeffs.shape == (2, 2, 1, 1, 1)


@pytest.mark.parametrize("fields,message", [
    ({"a_max": "Infinity", "re": "1e6"}, "magnitude bounds"),
    ({"a_min": "NaN"}, "magnitude bounds"),
    ({"a_min": "true"}, "'a_min' must be a number"),
    ({"a_max": "true"}, "'a_max' must be a number"),
    ({"re": "true"}, "expected {re, im} numbers"),
    ({"im": "false"}, "expected {re, im} numbers"),
])
def test_load_rejects_non_finite_bounds_and_booleans(tmp_path, fields, message):
    with pytest.raises(ChannelFileError, match=message):
        load_channels(_channel_file(tmp_path, **fields))


@pytest.mark.parametrize("mode", ["frequency", "constant-time"])
def test_an_extension_keeps_its_sources_law_and_seeds(mode):
    stack = generate_channels(3, 2, 3, 0.25, 4.0, seed=[9, 2, 7])
    ext = extend_channel(stack, 2, mode)
    assert (ext.K, ext.M, ext.F, ext.a_min, ext.a_max) == (3, 2, 2, 0.25, 4.0)
    assert ext.seed == stack.seed
    for t in range(3):
        assert ext[t].seed == stack[t].seed
        assert np.array_equal(ext[t].coeffs, extend_channel(stack[t], 2, mode).coeffs)


def test_a_fancy_indexed_extension_is_read_only():
    ext = extend_channel(generate_channels(3, 1, 3, seed=[1, 2]), 3)[[0, 1]]
    assert ext.stacked and ext.seed == (1, 2)
    assert not ext.coeffs.flags.writeable


def test_save_refuses_a_set_without_an_integer_seed(tmp_path):
    path = tmp_path / "channels.json"
    designed, _ = build_designed_channel(3)
    with pytest.raises(ParameterError, match="integer seed"):
        save_channels(designed, path)
    ch = generate_channels(3, 1, 3, seed=1)
    with pytest.raises(ParameterError, match="integer seed"):
        save_channels(dataclasses.replace(ch, seed=1.5), path)
    assert not path.exists()


def test_save_refuses_repeated_slot_values(tmp_path):
    path = tmp_path / "channels.json"
    ext = extend_channel(generate_channels(3, 1, 1, seed=2), 3, mode="constant-time")
    with pytest.raises(ParameterError, match=r"link \(k=1, j=1\) repeats a slot value"):
        save_channels(ext, path)
    assert not path.exists()
    # an M > 1 constant-time extension repeats its blocks, and saves
    save_channels(extend_channel(generate_channels(3, 2, 1, seed=2), 2, "constant-time"), path)
    assert load_channels(path).F == 2


def test_a_late_repeat_is_named_by_its_link(tmp_path):
    # repeats planted at links (3, 2) and (3, 3): save and load name the
    # first of them in (k, j) order
    ch = generate_channels(3, 1, 7, seed=4)
    coeffs = ch.coeffs.copy()
    coeffs[2, 1, 6] = coeffs[2, 1, 0]
    coeffs[2, 2, 3] = coeffs[2, 2, 5]
    planted = dataclasses.replace(ch, coeffs=coeffs)
    path = tmp_path / "channels.json"
    with pytest.raises(ParameterError, match=r"link \(k=3, j=2\) repeats a slot value"):
        save_channels(planted, path)
    assert not path.exists()
    save_channels(ch, path)
    doc = json.loads(path.read_text())
    doc["coeffs"] = [{"re": z.real, "im": z.imag} for z in coeffs.reshape(-1).tolist()]
    path.write_text(json.dumps(doc))
    with pytest.raises(ChannelFileError, match=r"link \(k=3, j=2\) repeats a slot value"):
        load_channels(path)


def test_save_refuses_what_load_rejects(tmp_path):
    path = tmp_path / "channels.json"
    # diagonal_channels zeroes the off-diagonal entries, outside [0.5, 2]
    with pytest.raises(ParameterError,
                       match=r"coeffs\[1\] \(k=1, j=1, f=1, row=1, col=2\): magnitude 0 "
                             r"outside \[0\.5, 2\.0\]"):
        save_channels(diagonal_channels(2, 0), path)
    assert not path.exists()
    ch = generate_channels(2, 1, 2, seed=1)
    coeffs = ch.coeffs.copy()
    coeffs[1, 0, 1, 0, 0] = complex(np.nan, 0.0)
    with pytest.raises(ParameterError, match=r"coeffs\[5\] \(k=2, j=1, f=2, row=1, col=1\): "
                                             r"magnitude nan"):
        save_channels(dataclasses.replace(ch, coeffs=coeffs), path)
    assert not path.exists()
    # a drawn set still round-trips exactly
    save_channels(ch, path)
    assert np.array_equal(load_channels(path).coeffs, ch.coeffs)


def test_a_frequency_extension_round_trips(tmp_path):
    ext = extend_channel(generate_channels(3, 1, 5, seed=4), 3)
    path = tmp_path / "channels.json"
    save_channels(ext, path)
    back = load_channels(path)
    assert (back.K, back.M, back.F, back.a_min, back.a_max, back.seed) == (3, 1, 3, 0.5, 2.0, 4)
    assert np.array_equal(back.coeffs, ext.coeffs)
