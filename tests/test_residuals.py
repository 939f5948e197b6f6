"""The relation residuals take a stack of trials and answer for each one
bit for bit as the one-matrix formulas below, which are the references:
``np.linalg.norm`` of each matrix, column or difference alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ia_lab.linalg import (RANK_TOL, _rank, equality_residual, equilibrate_columns,
                           span_residual, subset_residual)
from ia_lab.receiver import RESIDUAL_TOL


def equality_alone(left, right):
    scale = max(np.linalg.norm(left), np.linalg.norm(right))
    return 0.0 if scale == 0.0 else float(np.linalg.norm(left - right) / scale)


def subset_alone(columns, pool):
    worst = 0.0
    for i in range(columns.shape[1]):
        col = columns[:, i]
        norm = np.linalg.norm(col)
        if norm == 0.0:
            continue
        dist = np.min(np.linalg.norm(pool - col[:, None], axis=0))
        worst = max(worst, float(dist / norm))
    return worst


def basis_alone(matrix):
    u, s, _ = np.linalg.svd(equilibrate_columns(matrix), full_matrices=False)
    return u[:, :_rank(s, RANK_TOL)]


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
    pool = stack(rng, 4, rows, pooled)
    columns = pool[:, :, ::pooled // cols][:, :, :cols] + stack(rng, 4, rows, cols, 1e-12)
    columns[2, :, 0] = 0.0  # a zero column lies in any pool
    got = subset_residual(columns, pool)
    assert got.tolist() == [subset_alone(c, p) for c, p in zip(columns, pool)]


def test_equality_residual_of_sides_of_different_widths_is_one():
    rng = np.random.default_rng(5)
    left = stack(rng, 3, 7, 2)
    assert equality_residual(left, left[..., :1]).tolist() == [1.0, 1.0, 1.0]


def nearby(rng, columns, size):
    """Random columns of about ``size`` times the norms of ``columns``."""
    noise = stack(rng, *columns.shape) / np.sqrt(2 * columns.shape[-2])
    return size * np.linalg.norm(columns, axis=-2, keepdims=True) * noise


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 3), rows=st.integers(1, 40),
       pooled=st.integers(1, 8), cols=st.integers(1, 5), scaled=st.booleans(),
       perturbation=st.floats(-16.0, -1.0), duplicate=st.booleans(),
       near_tie=st.one_of(st.none(), st.floats(-16.0, -7.0)),
       rescaled=st.booleans(), zero_column=st.booleans(), zero_pool_column=st.booleans())
def test_subset_residual_is_the_brute_force_nearest_column(
        seed, T, rows, pooled, cols, scaled, perturbation, duplicate, near_tie, rescaled,
        zero_column, zero_pool_column):
    # the nearest column found through one product must be the one a
    # difference with every pool column finds, ties and scales included
    rng = np.random.default_rng(seed)
    pool = stack(rng, T, rows, pooled)
    if scaled:  # column norms across 1e-8 .. 1e8
        pool *= 10.0 ** rng.uniform(-8.0, 8.0, size=(T, 1, pooled))
    if near_tie is not None and pooled > 1:  # a second column 1e-16 .. 1e-7 from the first
        pool[..., 1:2] = pool[..., :1] + nearby(rng, pool[..., :1], 10.0 ** near_tie)
    if duplicate and pooled > 1:
        pool[..., -1] = pool[..., 0]
    if zero_pool_column:
        pool[..., rng.integers(pooled)] = 0.0
    picked = pool[..., rng.integers(0, pooled, size=cols)]
    columns = picked + nearby(rng, picked, 10.0 ** perturbation)
    if rescaled:  # columns far from the pool, at norms across 1e-8 .. 1e8 of it
        columns *= 10.0 ** rng.uniform(-8.0, 8.0, size=(T, 1, cols))
    if zero_column:
        columns[..., 0] = 0.0
    got = subset_residual(columns, pool).tolist()
    want = [subset_alone(c, p) for c, p in zip(columns, pool)]
    assert [g <= RESIDUAL_TOL for g in got] == [w <= RESIDUAL_TOL for w in want]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-15 * w
    if pooled > 1:
        # bit for bit; a pool of one column np.linalg.norm sums pairwise
        assert got == want


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
