"""Zero-forcing rates of a receiver's projected effective channel.

A row is one receiver of one trial, and G = B^H J_D its projected effective
channel (B an orthonormal basis of the complement of its interference, J_D
its desired columns through unit-norm precoders). Its rate at per-stream
power p is sum_i log2(1 + p g_i) / L over the squared singular values g_i
of G. A row of fewer than QR_STREAMS streams takes them from the values
SVD (:func:`_log_det`); a wider row takes its verdict and rates from one QR
of G (:class:`_Factored`). Each choice reads the row's own values and
powers alone, so a row gets the bits it gets in any stack.
"""

from __future__ import annotations

import numpy as np

from .linalg import (HOUSEHOLDER_BLOCK, RANK_TOL, _invert_triangular, _norms, _rank,
                     equilibrate_columns)


# rows of at least QR_STREAMS streams take their verdict and rates from one
# QR of their projected channel (:class:`_Factored`), rows of fewer the
# values SVD. The QR, R's inverse and its norm against the values SVD of one
# d x d channel, medians of 30, one BLAS thread of a shared 2-core x86-64
# machine: 145 against 151 us at d = 32, 251 against 201 us at 48, 427
# against 602 us at 64, 1.7 against 2.7 ms at 128 and 3.9 against 11.7 ms at
# 243. So the 32-stream rows (siso-general K=4 n=1's receiver 1, and the
# receivers 2..4 of K=4 n=2) keep the SVD
QR_STREAMS = 2 * HOUSEHOLDER_BLOCK
# a factored row's log2 det(I + X X^H / p) is its first-order term S / ln 2,
# S = ||X||_F^2 / p, where the term's error bound S^2 / (2 ln 2) is at most
# EXPANSION_TOL of the row's rate: a tenth of the 1e-12 relative in which the
# route keeps to the SVD's rates
EXPANSION_TOL = 1e-13
# and a row is factored at all only where S <= DETERMINANT_BOUND at every
# point of the grid: the determinant of p I + X X^H, whose eigenvalues then
# lie in [p, 2p], is taken to rounding from its LU factors, and the error
# R's inverse carries into S moves the rate by less than the SVD's own
# rounding does. Every other row takes the values SVD of its channel
DETERMINANT_BOUND = 1.0
LN2 = float(np.log(2.0))


def _log_det(gains, p) -> np.ndarray:
    """sum over each row's gains g of log2(1 + p g), for a (n, d) stack of
    ``gains`` and each per-stream power of ``p``, as a (n, len(p)) array."""
    return np.sum(np.log2(1.0 + p[:, None] * gains[:, None, :]), axis=-1)


class _Factored:
    """Verdict and rates of a group of rows with QR_STREAMS or more streams,
    from one QR of each projected channel G = B^H J_D = QR, ``channels``, a
    (n, m, d) stack, and ``norms``, the rows' (d) column norms nu_i of J_D.

    Verdict first. A row whose R can be inverted, every entry finite and
    min |r_ii| >= 2 RANK_TOL max nu > 0, has it overwritten with X = R^-1.
    As s_min(G) >= 1 / ||X||_F and s_min(B^H E_D) >= s_min(G) / max nu, a
    row whose 1 / ||X||_F reaches 2 RANK_TOL max nu is ``certified`` and
    keeps X; every other row takes the verdict SVD of G diag(1 / nu), the
    projected equilibrated columns, so no second projection is needed. A
    basis of fewer than d columns certifies nothing and factors nothing.

    Rates after: with g_i the squared singular values of G (those of R),
    sum_i log2(1 + p g_i) = d log2 p + 2 sum_i log2 |r_ii| + log2 det(I + X
    X^H / p), and the last term lies in [S / ln 2 - S^2 / (2 ln 2), S / ln 2]
    for S = ||X||_F^2 / p. A certified row with S <= DETERMINANT_BOUND at the
    grid's least power is factored: at each point the first-order term
    stands where EXPANSION_TOL allows, and elsewhere the sum is 2 sum_i
    log2 |r_ii| + log2 det(p I + X X^H), from one X X^H per row. Every other
    row takes the values SVD of G, as a row of fewer streams does. Each
    choice reads the row's own values and powers alone, so a row gets the
    bits it gets in any stack.
    """

    def __init__(self, channels, norms):
        n, m, d = channels.shape
        self.channels, self.norms = channels, norms
        largest = np.maximum.reduce(norms, axis=-1)
        self.certified = np.zeros(n, dtype=bool)
        # each row's place in X, or -1, and ||X||_F^2 (inf without X)
        self.slot, self.x2, self.inverse = np.full(n, -1), np.full(n, np.inf), None
        if m < d:
            return
        r = np.linalg.qr(channels, mode="r")
        with np.errstate(all="ignore"):
            diagonal = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
            self.logdet = 2.0 * np.sum(np.log2(diagonal), axis=-1)
            least = np.minimum.reduce(diagonal, axis=-1)
            live = np.flatnonzero(np.isfinite(_norms(r.reshape(n, d * d))) & (least > 0.0)
                                  & (least >= 2 * RANK_TOL * largest))
            if len(live):
                x = _invert_triangular(r if len(live) == n else r[live])
                del r
                norm = _norms(x.reshape(len(live), d * d))
                self.certified[live] = norm * (2 * RANK_TOL * largest[live]) <= 1.0
                # X goes before the verdict SVD of the other rows, which take
                # the values SVD for rates where they pass
                kept = self.certified[live]
                live, norm = live[kept], norm[kept]
                self.slot[live], self.x2[live] = range(len(live)), norm * norm
                self.inverse = x if kept.all() else x[kept] if kept.any() else None

    def verdict(self, rows) -> np.ndarray:
        """The projected ranks of ``rows``, from the SVD of their projected
        equilibrated columns, counted from RANK_TOL times 1."""
        every = len(rows) == len(self.channels)
        g, nu = (self.channels, self.norms) if every else (self.channels[rows],
                                                           self.norms[rows])
        return _rank(np.linalg.svd(equilibrate_columns(g, nu[:, None, :]), compute_uv=False),
                     scale=1.0)

    def rates(self, rows, p) -> np.ndarray:
        """sum_i log2(1 + p g_i) of ``rows`` at each per-stream power of
        ``p``, as a (len(rows), len(p)) array. Lets the channels go, and
        overwrites X with X X^H."""
        least = np.minimum.reduce(p) if len(p) else 0.0
        factored = self.x2[rows] <= DETERMINANT_BOUND * least
        out = np.empty((len(rows), len(p)))
        if not factored.all():
            rest = [i for i, f in zip(rows, factored.tolist()) if not f]
            out[~factored] = _log_det(np.linalg.svd(self.channels[rest],
                                                    compute_uv=False) ** 2, p)
        self.channels = None
        if factored.any():
            at = np.array(rows)[factored]
            d = self.inverse.shape[-1]
            logdet, s = self.logdet[at][:, None], self.x2[at][:, None] / p
            values = d * np.log2(p) + logdet + s / LN2
            exact = s * s / (2 * LN2) > EXPANSION_TOL * values
            need = np.flatnonzero(exact.any(axis=1))
            if len(need):
                slots = self.slot[at[need]]
                gram = _gram(self.inverse if len(slots) == len(self.inverse)
                             else self.inverse[slots])
                self.inverse = None
                values[need] = np.where(exact[need], _shifted_log_det(gram, exact[need], p)
                                        + logdet[need], values[need])
            out[factored] = values
        self.inverse = None
        return out


def _gram(x) -> np.ndarray:
    """Overwrite each upper triangular X of a (n, d, d) stack with X X^H, and
    return the stack, by blocks of HOUSEHOLDER_BLOCK columns in order: block
    [lo, hi) reads X's columns from lo on, as X's rows lo:hi hold nothing
    before them, and each block's product is formed whole before it is
    written, over columns no later block reads."""
    d = x.shape[-1]
    for lo in range(0, d, HOUSEHOLDER_BLOCK):
        hi = min(lo + HOUSEHOLDER_BLOCK, d)
        x[..., lo:hi] = x[..., lo:] @ x[..., lo:hi, lo:].conj().swapaxes(-1, -2)
    return x


def _shifted_log_det(gram, at, p) -> np.ndarray:
    """log2 det(p_j I + M) of each matrix M of a (n, d, d) stack ``gram`` at
    each power p_j of ``p`` where ``at`` (n, len(p)) holds, as a (n, len(p))
    array (nan elsewhere). The diagonal is set in place to M's own plus p_j,
    so each value reads its matrix and power alone."""
    n, d = gram.shape[:2]
    out = np.full(at.shape, np.nan)
    i = np.arange(d)
    own = gram[:, i, i]
    for j in np.flatnonzero(at.any(axis=0)).tolist():
        rows = np.flatnonzero(at[:, j])
        gram[rows[:, None], i, i] = own[rows] + p[j]
        _, logabs = np.linalg.slogdet(gram if len(rows) == n else gram[rows])
        out[rows, j] = logabs / LN2
    return out
