"""The relation residuals take a stack of trials and answer for each one
bit for bit as the one-matrix formulas below, which are the references:
``np.linalg.norm`` of each matrix, column or difference alone."""

import numpy as np
import pytest

from ia_lab import SchemeConfig
from ia_lab.evaluation import TRIAL_ERRORS, _trial_seed
from ia_lab.families import get_family
from ia_lab.linalg import (_rank, equality_residual, equilibrate_columns, span_residual,
                           subset_residual)
from ia_lab.receiver import RESIDUAL_TOL


def equality_alone(left, right):
    scale = max(np.linalg.norm(left), np.linalg.norm(right))
    return 0.0 if scale == 0.0 else float(np.linalg.norm(left - right) / scale)


def subset_alone(columns, pool, index):
    worst = 0.0
    for i in range(columns.shape[1]):
        col = columns[:, i]
        norm = np.linalg.norm(col)
        if norm == 0.0:
            continue
        # the distance to every pool column, each summed in row order
        dist = np.linalg.norm(pool - col[:, None], axis=0)[index[i]]
        worst = max(worst, float(dist / norm))
    return worst


def basis_alone(matrix):
    u, s, _ = np.linalg.svd(equilibrate_columns(matrix), full_matrices=False)
    return u[:, :_rank(s)]


def span_alone(left, right):
    ql, qr = basis_alone(left), basis_alone(right)
    if ql.shape[1] != qr.shape[1]:
        return 1.0
    if ql.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(ql - qr @ (qr.conj().T @ ql), 2))


def stack(rng, T, rows, cols, scale=1.0):
    return scale * (rng.normal(size=(T, rows, cols)) + 1j * rng.normal(size=(T, rows, cols)))


# rows x columns, up to the L=275 case
SIZES = [(2, 1), (3, 2), (7, 3), (33, 1), (33, 32), (64, 17), (275, 32)]


@pytest.mark.parametrize("rows,cols", SIZES)
def test_equality_residual_of_a_stack_is_each_alone(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    left = stack(rng, 5, rows, cols)
    right = left + stack(rng, 5, rows, cols, 1e-13)
    right[1] = left[1]
    left[3] = right[3] = 0.0
    got = equality_residual(left, right)
    assert got.tolist() == [equality_alone(a, b) for a, b in zip(left, right)]


# rows x columns x pool columns, up to the L=275 case
@pytest.mark.parametrize("rows,cols,pooled", [(3, 1, 2), (5, 2, 3), (7, 3, 4), (33, 1, 32),
                                              (64, 17, 40), (275, 32, 243)])
def test_subset_residual_of_a_stack_is_each_alone(rows, cols, pooled):
    rng = np.random.default_rng(rows * 100 + cols + 1)
    # column norms across 1e-8 .. 1e8
    pool = stack(rng, 4, rows, pooled) * 10.0 ** rng.uniform(-8.0, 8.0, size=(4, 1, pooled))
    # one map for every trial, and one map per trial
    for index in (np.tile(np.arange(0, pooled, pooled // cols)[:cols], (4, 1)),
                  np.stack([rng.permutation(pooled)[:cols] for _ in range(4)])):
        mapped = np.take_along_axis(pool, index[:, None, :], axis=-1)
        columns = mapped * (1.0 + stack(rng, 4, rows, cols, 1e-12))
        columns[1] = mapped[1]
        columns[2, :, 0] = 0.0  # a zero column matches any
        got = subset_residual(columns, mapped)
        assert got.tolist() == [subset_alone(c, p, i) for c, p, i in zip(columns, pool, index)]
        assert got[1] == 0.0 and max(got) <= RESIDUAL_TOL


def test_equality_residual_of_sides_of_different_widths_is_one():
    rng = np.random.default_rng(5)
    left = stack(rng, 3, 7, 2)
    assert equality_residual(left, left[..., :1]).tolist() == [1.0, 1.0, 1.0]


def test_subset_residual_of_sides_of_different_widths_is_one():
    rng = np.random.default_rng(6)
    columns = stack(rng, 3, 7, 2)
    assert subset_residual(columns, columns).tolist() == [0.0, 0.0, 0.0]
    assert subset_residual(columns, columns[..., :1]).tolist() == [1.0, 1.0, 1.0]
    assert subset_residual(columns, columns[..., :0]).tolist() == [1.0, 1.0, 1.0]


# the siso configurations of scripts/output_digest.py with the seeds whose
# reports it hashes (the first of each L=275 law), and the two L=275 trials
# of test_shared_pass.py's LARGE_GOLDEN
NEAREST_CASES = (
    [(SchemeConfig("siso-k3", n=n), range(16 if n >= 7 else 4)) for n in (1, 2, 3, 4, 5, 7, 8)]
    + [(SchemeConfig("siso-general", K=4, n=n, a_min=lo, a_max=hi), range(1 if n == 2 else 4))
       for n in (1, 2) for lo, hi in ((0.5, 2.0), (1.0, 1.0))]
    + [(SchemeConfig("siso-general", K=4, n=2), [_trial_seed(1002, 0)])])


def test_every_family_map_is_the_nearest_pool_column():
    # each subset relation's declared map sends an image column to the pool
    # column nearest it, the argmin of the norms of its differences with
    # every pool column
    checked = 0
    for config, seeds in NEAREST_CASES:
        for seed in seeds:
            try:
                scheme, ext = config.build(seed)
            except TRIAL_ERRORS:
                continue
            for kind, k, _, j, i, columns in get_family(scheme.family).relations(
                    scheme.K, scheme.n):
                if kind != "subset":
                    continue
                image, pool = ext.apply(k, j, scheme.precoders[j]), ext.apply(
                    k, i, scheme.precoders[i])
                nearest = [int(np.argmin(np.linalg.norm(pool - c[:, None], axis=0)))
                           for c in image.T]
                assert nearest == list(columns)
                checked += 1
    assert checked >= 150


@pytest.mark.parametrize("rows,cols", [(2, 1), (4, 2), (8, 4), (10, 5), (18, 9)])
def test_span_residual_of_a_stack_is_each_alone(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols + 2)
    left = stack(rng, 5, rows, cols)
    mix = stack(rng, 5, cols, cols)
    right = left @ mix + stack(rng, 5, rows, cols, 1e-12)
    right[1] = stack(rng, 1, rows, cols)[0]  # another span
    right[2, :, -1] = right[2, :, 0]  # a smaller span
    left[4] = right[4] = 0.0  # no span at all
    got = span_residual(left, right)
    assert got.tolist() == [span_alone(a, b) for a, b in zip(left, right)]


def test_span_residual_of_sides_of_different_widths_compares_their_ranks():
    # each side takes its own SVD; trial 0's three columns span the same
    # plane as its two, trial 1's a space of one more dimension
    rng = np.random.default_rng(9)
    left = stack(rng, 2, 7, 2)
    right = np.concatenate((left @ stack(rng, 2, 2, 2), stack(rng, 2, 7, 1)), axis=-1)
    right[0, :, 2] = right[0, :, 0] + 0.5 * right[0, :, 1]
    got = span_residual(left, right)
    assert got.tolist() == [span_alone(a, b) for a, b in zip(left, right)]
    assert got[0] < 1e-14 and got[1] == 1.0
