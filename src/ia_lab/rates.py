"""Zero-forcing rates of a receiver's projected effective channel.

A row is one receiver of one trial, and G = B^H J_D its projected effective
channel (B an orthonormal basis of the complement of its interference, J_D
its desired columns through unit-norm precoders). Its rate at per-stream
power p is sum_i log2(1 + p g_i) / L over the squared singular values g_i
of G. A row of fewer than QR_STREAMS streams takes them from the values
SVD (:func:`_log_det`); a wider row takes its verdict and rates from one QR
of G (:class:`_Factored`): bounds from R's inverse X decide its verdict,
and an expansion on a block of X's columns gives its rates, with the
values SVD left for the rows they do not decide. Each choice reads the
row's own values and powers alone, so a row gets the bits it gets in any
stack.
"""

from __future__ import annotations

import numpy as np

from .linalg import (HOUSEHOLDER_BLOCK, RANK_TOL, SHORT_MARGIN, _invert_triangular, _norms,
                     _rank, _shown_short, equilibrate_columns)


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
# (:func:`_expansion`) where its error bound tau^2 / (2 ln 2) is at most
# EXPANSION_TOL of the row's rate: a tenth of the 1e-12 relative in which
# the route keeps to the SVD's rates
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
    """Verdict and rates of a group of rows with QR_STREAMS or more streams,
    from one QR of each projected channel G = B^H J_D = QR, ``channels``, a
    (n, m, d) stack, and ``norms``, the rows' (d) column norms nu_i of J_D.

    Verdict first, on B^H E_D = G diag(1 / nu), whose R is R diag(1 / nu).
    A row is ``short`` where min_i |r_ii| / nu_i, or power steps on diag(nu)
    X, X = R^-1, bound its least singular value under SHORT_MARGIN RANK_TOL
    (:func:`linalg._shown_short`; X rounds as the equilibrated R's inverse
    would, a column scaling moving its rounding with it). A basis of fewer
    than d columns is short outright. Every other row with R finite and min
    |r_ii| > 0 has R overwritten with X; as s_min(G) >= 1 / ||X||_F and
    s_min(B^H E_D) >= s_min(G) / max nu, one whose 1 / ||X||_F reaches 2
    RANK_TOL max nu is ``certified`` and keeps X. Only the rows no bound
    decides take the verdict SVD.

    Rates after: with g_i the squared singular values of G (those of R),
    sum_i log2(1 + p g_i) = d log2 p + 2 sum_i log2 |r_ii| + log2 det(I + X
    X^H / p). A certified row with ||X||_F^2 / p <= DETERMINANT_BOUND at the
    grid's least power takes the last term at each point from the expansion
    on no column of X, then on HOUSEHOLDER_BLOCK columns (:func:`_expansion`),
    where its error bound is at most EXPANSION_TOL of the rate. A row the
    block misses at any point, and every other row, takes the values SVD of
    G, as a row of fewer streams does. Each choice reads the row's own
    values and powers alone, so a row gets the bits it gets in any stack.
    """

    def __init__(self, channels, norms):
        n, m, d = channels.shape
        self.channels, self.norms = channels, norms
        largest = np.maximum.reduce(norms, axis=-1)
        self.certified = np.zeros(n, dtype=bool)
        self.short = np.full(n, m < d)
        # each row's place in X, or -1, and ||X||_F^2 (inf without X)
        self.slot, self.x2, self.inverse = np.full(n, -1), np.full(n, np.inf), None
        if m < d:
            return
        r = np.linalg.qr(channels, mode="r")
        with np.errstate(all="ignore"):
            diagonal = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
            self.logdet = 2.0 * np.sum(np.log2(diagonal), axis=-1)
            least = np.minimum.reduce(diagonal, axis=-1)
            finite = np.isfinite(_norms(r.reshape(n, d * d)))
            # R diag(1 / nu)'s diagonal, a zero column's divided by 1 as
            # equilibrate_columns divides it
            self.short = finite & (np.minimum.reduce(
                diagonal / np.where(norms > 0.0, norms, 1.0), axis=-1)
                < SHORT_MARGIN * RANK_TOL)
            live = np.flatnonzero(finite & (least > 0.0) & ~self.short)
            if len(live):
                x = _invert_triangular(r if len(live) == n else r[live])
                del r
                norm = _norms(x.reshape(len(live), d * d))
                kept = norm * (2 * RANK_TOL * largest[live]) <= 1.0
                self.certified[live] = kept
                doubtful = live[~kept]
                if len(doubtful):
                    # diag(nu) X, in X's memory where no row keeps X
                    scaled = x if not kept.any() else x[~kept]
                    scaled *= norms[doubtful][:, :, None]
                    self.short[doubtful] = _shown_short(scaled, 1.0)
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
        ``p``, as a (len(rows), len(p)) array. Lets the channels and X go."""
        least = np.minimum.reduce(p) if len(p) else 0.0
        factored = (self.slot[rows] >= 0) & (self.x2[rows] <= DETERMINANT_BOUND * least)
        out = np.empty((len(rows), len(p)))
        d = self.norms.shape[-1]
        for i in np.flatnonzero(factored).tolist():
            row = rows[i]
            # the points the expansion on no column, then on a block, leaves
            left = np.ones(len(p), dtype=bool)
            for width in (0, HOUSEHOLDER_BLOCK):
                at = p[left]
                terms, tau = _expansion(self.inverse[self.slot[row]], self.x2[row], at, width)
                out[i, left] = values = d * np.log2(at) + self.logdet[row] + terms / LN2
                left[left] = tau * tau / (2 * LN2) > EXPANSION_TOL * values
                if not left.any():
                    break
            factored[i] = not left.any()
        self.inverse = None
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
