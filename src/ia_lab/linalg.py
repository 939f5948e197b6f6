"""Rank decisions and subspace residuals for complex matrices.

All rank decisions in the package go through one rule, ``_rank``, so a
single tolerance convention applies: a singular value counts toward the rank
iff it is at least ``tol`` times the largest one. Columns are rescaled to
unit norm first by default; rescaling by a nonzero scalar per column leaves
the rank unchanged but greatly improves the spread of singular values when
column norms differ by orders of magnitude (power-basis precoders do).

The rank functions also take a stack of matrices, shape (T, rows, cols),
and then answer for every matrix of the stack from one batched SVD; each
matrix gets bit for bit the answer it gets alone.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-8


def equilibrate_columns(matrix: np.ndarray) -> np.ndarray:
    """Rescale each nonzero column (of each matrix of a stack) to unit
    Euclidean norm."""
    a = np.asarray(matrix)
    # np.linalg.norm's own formula for one axis, without its argument
    # handling: rank decisions make many of these calls on tiny matrices
    norms = np.sqrt(np.add.reduce((a.conj() * a).real, axis=-2, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    return a / safe


def _rank(s: np.ndarray, tol: float):
    """Count of singular values ``s`` (descending) >= tol times the largest;
    zero for an empty or all-zero matrix. For the rows of a (T, n) stack of
    them, an integer array of T counts."""
    if s.ndim == 2:
        return np.array([_rank(row, tol) for row in s], dtype=int)
    return int(np.count_nonzero(s >= tol * s[0])) if s.size and s[0] > 0.0 else 0


def singular_values(matrix: np.ndarray, equilibrate: bool = True) -> np.ndarray:
    a = equilibrate_columns(matrix) if equilibrate else np.asarray(matrix)
    return np.linalg.svd(a, compute_uv=False)


def numerical_rank(matrix: np.ndarray, tol: float = RANK_TOL,
                   equilibrate: bool = True):
    """Number of singular values >= tol times the largest one; an array of
    them for a stack of matrices."""
    return _rank(singular_values(matrix, equilibrate=equilibrate), tol)


def has_full_column_rank(matrix: np.ndarray) -> bool:
    """True iff the columns are linearly independent, rank decided at RANK_TOL."""
    return _rank(singular_values(matrix), RANK_TOL) == np.shape(matrix)[1]


def orthonormal_basis(matrix: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column space, rank decided at ``tol``."""
    u, s, _ = np.linalg.svd(equilibrate_columns(matrix), full_matrices=False)
    return u[:, :_rank(s, tol)]


def complement_and_rank(matrix: np.ndarray, tol: float = RANK_TOL) -> tuple:
    """(basis, rank): an orthonormal basis of the orthogonal complement of the
    column space and the rank it is cut at, both from one SVD, so the basis
    always has ``rows - rank`` columns.

    For a stack (T, rows, cols), (bases, ranks): a list of the T bases and
    an array of the T ranks.
    """
    u, s, _ = np.linalg.svd(equilibrate_columns(matrix), full_matrices=True)
    rank = _rank(s, tol)
    if u.ndim == 2:
        return u[:, rank:], rank
    return [ui[:, r:] for ui, r in zip(u, rank)], rank


def orthonormal_complement(matrix: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column space."""
    return complement_and_rank(matrix, tol)[0]


def equality_residual(left: np.ndarray, right: np.ndarray) -> float:
    """Relative Frobenius distance between two equally shaped matrices."""
    scale = max(np.linalg.norm(left), np.linalg.norm(right))
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(left - right) / scale)


def subset_residual(columns: np.ndarray, pool: np.ndarray) -> float:
    """Worst relative distance from a column of ``columns`` to its nearest
    column of ``pool``.

    Zero (up to rounding) iff the column set of ``columns`` is contained in
    the column set of ``pool``.
    """
    worst = 0.0
    for i in range(columns.shape[1]):
        col = columns[:, i]
        norm = np.linalg.norm(col)
        if norm == 0.0:
            continue
        dist = np.min(np.linalg.norm(pool - col[:, None], axis=0))
        worst = max(worst, float(dist / norm))
    return worst


def span_residual(left: np.ndarray, right: np.ndarray, tol: float = RANK_TOL) -> float:
    """Sine of the largest principal angle between the two column spans.

    Returns 1.0 outright when the spans have different dimensions. The
    small-angle regime is computed as ``||Ql - Qr (Qr^H Ql)||_2``, which does
    not suffer the cancellation of the arccos-of-cosine route.
    """
    ql = orthonormal_basis(left, tol)
    qr = orthonormal_basis(right, tol)
    if ql.shape[1] != qr.shape[1]:
        return 1.0
    if ql.shape[1] == 0:
        return 0.0
    resid = ql - qr @ (qr.conj().T @ ql)
    return float(np.linalg.norm(resid, 2))
