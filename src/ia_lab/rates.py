"""Zero-forcing rates of a receiver's projected effective channel.

A row is one receiver of one trial, and G = B^H J_D its projected effective
channel (B an orthonormal basis of the complement of its interference, J_D
its desired columns through unit-norm precoders). Its rate at per-stream
power p is sum_i log2(1 + p g_i) / L over the squared singular values g_i
of G. A row of fewer than QR_STREAMS streams takes them from the values
SVD (:func:`_log_det`). A wider row takes one QR of G (:class:`_Factored`):
``linalg._full_rank`` decides its verdict from R, and an expansion on a
block of the columns of X = R^-1, the inverse its certificate read, gives
its rates, with the values SVD left for the rows the expansion does not
cover. Each choice reads the row's own values and powers alone, so a row
gets the bits it gets in any stack.
"""

from __future__ import annotations

import numpy as np

from .linalg import HOUSEHOLDER_BLOCK, _full_rank, _norms


# rows of at least QR_STREAMS streams take their verdict and rates from one
# QR of their projected channel (:class:`_Factored`), rows of fewer the
# values SVD. The QR, R's inverse and its norm against the values SVD of one
# d x d channel, medians of 30, one BLAS thread of a shared 2-core x86-64
# machine: 145 against 151 us at d = 32, 251 against 201 us at 48, 427
# against 602 us at 64, 1.7 against 2.7 ms at 128 and 3.9 against 11.7 ms at
# 243. So the 32-stream rows (siso-general K=4 n=1's receiver 1, and the
# receivers 2..4 of K=4 n=2) keep the SVD
QR_STREAMS = 2 * HOUSEHOLDER_BLOCK
# a factored row's log2 det(I + X X^H / p) stands as an expansion
# (:func:`_expansion`) where the bound tau^2 / (2 ln 2) on its remainder is
# at most EXPANSION_TOL of the row's rate. That bounds the expansion's
# remainder alone: the QR's 2 sum log2 |r_ii| and the SVD's gains round apart
# as kappa(G) grows (a planted channel of kappa 3e7 read 2.3e-12 of the rate
# apart at every point), and a certified row may have kappa up to about
# sqrt(d) / (2 RANK_TOL)
EXPANSION_TOL = 1e-13
# and a row is factored at all only where S = ||X||_F^2 / p <=
# DETERMINANT_BOUND at every point: each term the expansion reads is then at
# most 1 nat, so X's relative error (c d u kappa(R), Higham ch. 14) moves the
# rate less than the values SVD's rounding of the small singular values does
DETERMINANT_BOUND = 1.0
LN2 = float(np.log(2.0))


def _log_det(gains, p) -> np.ndarray:
    """sum over each row's gains g of log2(1 + p g), for a (n, d) stack of
    ``gains`` and each per-stream power of ``p``, as a (n, len(p)) array."""
    return np.sum(np.log2(1.0 + p[:, None] * gains[:, None, :]), axis=-1)


class _Factored:
    """QR, log-det and rates of a group of rows with QR_STREAMS or more
    streams, from one QR of each projected channel G = B^H J_D = QR,
    ``channels``, a (n, m, d) stack, and ``norms``, the rows' (d) column
    norms nu_i of J_D.

    ``full`` holds each row's verdict, from :func:`linalg._full_rank` of R
    with scale 1 and nu: whether B^H E_D = G diag(1 / nu), whose R is R
    diag(1 / nu), keeps rank d counted from 1. With g_i the squared
    singular values of G (those of R), sum_i log2(1 + p g_i) = d log2 p + 2
    sum_i log2 |r_ii| + log2 det(I + X X^H / p), for X = R^-1 of a row the
    certificate showed full. Such a row with ||X||_F^2 / p <= DETERMINANT_BOUND at the grid's
    least power takes the last term at each point from the expansion on no
    column of X, then on HOUSEHOLDER_BLOCK columns (:func:`_expansion`),
    where its error bound is at most EXPANSION_TOL of the rate. A row the
    block misses at any point, and every other row, takes the values SVD of
    G, as a row of fewer streams does.
    """

    def __init__(self, channels, norms):
        self.channels = channels
        r = np.linalg.qr(channels, mode="r")
        with np.errstate(all="ignore"):
            self.logdet = 2.0 * np.sum(
                np.log2(np.abs(np.diagonal(r, axis1=-2, axis2=-1))), axis=-1)
        # R's memory may take X
        self.full, self.inverses = _full_rank(r, channels, 1.0, norms)
        # ||X||_F^2, inf without X
        norm = np.array([np.inf if x is None else _norms(x.reshape(1, -1))[0]
                         for x in self.inverses])
        self.x2 = norm * norm

    def rates(self, rows, p) -> np.ndarray:
        """sum_i log2(1 + p g_i) of ``rows`` at each per-stream power of
        ``p``, as a (len(rows), len(p)) array. Lets the channels and X go."""
        least = np.minimum.reduce(p) if len(p) else 0.0
        factored = self.x2[rows] <= DETERMINANT_BOUND * least
        out = np.empty((len(rows), len(p)))
        d = self.channels.shape[-1]
        for i in np.flatnonzero(factored).tolist():
            row = rows[i]
            # the points the expansion on no column, then on a block, leaves
            left = np.ones(len(p), dtype=bool)
            for width in (0, HOUSEHOLDER_BLOCK):
                at = p[left]
                terms, tau = _expansion(self.inverses[row], self.x2[row], at, width)
                out[i, left] = values = d * np.log2(at) + self.logdet[row] + terms / LN2
                left[left] = tau * tau / (2 * LN2) > EXPANSION_TOL * values
                if not left.any():
                    break
            factored[i] = not left.any()
        self.inverses = None
        if not factored.all():
            rest = [row for row, f in zip(rows, factored.tolist()) if not f]
            out[~factored] = _log_det(np.linalg.svd(self.channels[rest],
                                                    compute_uv=False) ** 2, p)
        self.channels = None
        return out


def _expansion(x, x2, p, width) -> tuple:
    """(log det(I + X X^H / p_j) to second order, tau_j) in nats, at each
    power p_j of ``p``, for an upper triangular d x d X, ``x2`` = ||X||_F^2,
    on a block of its ``width`` columns of the largest norms.

    Q is an orthonormal basis of the block and [Q, Q'] a unitary; M = X X^H
    / p has the blocks A = Q^H M Q = P P^H / p for P = Q^H X, M_21 = Q'^H M
    Q and M_22. The Schur complement I + Sc of I + M is positive
    semidefinite, so log det(I + M) = log det(I + A) + log det(I + Sc), and
    log det(I + Sc) lies in [tr Sc - tau^2 / 2, tr Sc] for tau = tr M_22 =
    ||X||_F^2 / p - tr A >= tr Sc. With W = (I - Q Q^H) X P^H, tr Sc = tau -
    tr((I + A)^-1 W^H W) / p^2. No block leaves the first-order S = ||X||_F^2
    / p with tau = S. Every product and solve reads X alone."""
    if not width:
        s = x2 / p
        return s, s
    columns = np.vecdot(x.T, x.T).real
    q = np.linalg.qr(x[:, np.sort(np.argsort(-columns, kind="stable")[:width])])[0]
    # P = Q^H X, without a copy of X's adjoint
    pp = q.conj().T @ x
    gram = pp @ pp.conj().T
    w = x @ pp.conj().T - q @ gram
    a = np.eye(len(gram)) + gram / p[:, None, None]
    tau = (x2 - np.trace(gram).real) / p
    inside = np.trace(np.linalg.solve(a, w.conj().T @ w), axis1=-2, axis2=-1).real / (p * p)
    return np.linalg.slogdet(a)[1] + tau - inside, tau
