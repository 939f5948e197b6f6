"""Rank decisions and subspace residuals for complex matrices.

All rank decisions in the package go through one rule, ``_rank``, at one
tolerance, RANK_TOL: a singular value counts toward the rank iff it is at
least RANK_TOL times the largest one, or times a scale the caller knows (1
for a projection of unit-norm columns). As singular values come in
descending order, the count walks each row from its tail and stops at the
last value that counts. Only :func:`_full_rank`, which decides the
build's ranks and a wide receiver's (``rates._Factored``), may skip the
singular values of a triangular R, and only where it answers as ``_rank``
would: a bound on R's condition from its inverse certifies full rank, and
an upper bound on the least singular value (R's least diagonal entry, or
power steps on its inverse) under SHORT_MARGIN RANK_TOL times the count's
reference shows it short; :func:`_certified` certifies a narrower
receiver's projected rank from singular values its rates read anyway.
The rank functions rescale columns to unit norm first; rescaling by a
nonzero scalar per column leaves the rank unchanged but greatly improves
the spread of singular values when column norms differ by orders of
magnitude (power-basis precoders do).

The rank functions also take a stack of matrices, shape (T, rows, cols),
and then answer for every matrix of the stack from one batched SVD. The
residuals take stacks only, and answer with an array over the stack. Each
matrix gets bit for bit the answer it gets alone, or as a stack of one.
"""

from __future__ import annotations

import functools

import numpy as np

RANK_TOL = 1e-8


def column_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column (of each matrix of a stack), shape
    (..., 1, cols)."""
    a = np.asarray(matrix)
    # np.linalg.norm's own formula for one axis, without its argument
    # handling: rank decisions make many of these calls on tiny matrices
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=-2, keepdims=True))


def equilibrate_columns(matrix: np.ndarray, norms: np.ndarray = None) -> np.ndarray:
    """Rescale each nonzero column (of each matrix of a stack) to unit
    Euclidean norm, dividing by its :func:`column_norms`, or by ``norms``
    where a caller has them."""
    a = np.asarray(matrix)
    norms = column_norms(a) if norms is None else norms
    return a / np.where(norms > 0.0, norms, 1.0)


def _rank(s: np.ndarray, scale: float = None):
    """Count of singular values ``s`` (descending) >= RANK_TOL times the
    largest, or times ``scale`` when given, from the tail; zero for an
    empty or all-zero matrix. For the rows of a (T, n) stack of them, an
    integer array of T counts."""
    counts = []
    # in Python floats, which compare as float64 do: cheaper than numpy
    # calls on the few values of a row
    for row in s.tolist() if s.ndim == 2 else [s.tolist()]:
        n = len(row) if row and row[0] > 0.0 else 0
        cut = RANK_TOL * (row[0] if scale is None else scale) if n else 0.0
        while n and not row[n - 1] >= cut:
            n -= 1
        counts.append(n)
    return np.array(counts, dtype=int) if s.ndim == 2 else counts[0]


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, or of each of a stack, columns equilibrated."""
    return np.linalg.svd(equilibrate_columns(matrix), compute_uv=False)


def numerical_rank(matrix: np.ndarray):
    """Number of singular values >= RANK_TOL times the largest one, columns
    equilibrated; an array of them for a stack of matrices."""
    return _rank(singular_values(matrix))


def has_full_column_rank(matrix: np.ndarray):
    """True iff the columns are linearly independent, rank decided at
    RANK_TOL; a boolean array of the answers for a stack of matrices.

    From HOUSEHOLDER_BLOCK equilibrated columns on, and no more of them
    than rows, :func:`_full_rank` decides from the R of their QR, and a
    matrix it leaves open takes the SVD of its equilibrated columns. Fewer
    columns, or more than rows, take that SVD alone."""
    rows, cols = np.shape(matrix)[-2:]
    if cols < HOUSEHOLDER_BLOCK or rows < cols:
        return _rank(singular_values(matrix)) == cols
    e = equilibrate_columns(matrix)
    return _full_rank(np.linalg.qr(e, mode="r"), e)[0]


def complement_and_rank(matrix: np.ndarray) -> tuple:
    """(basis, rank): an orthonormal basis of the orthogonal complement of the
    column space and the rank it is cut at, at RANK_TOL, both from one SVD of
    ``matrix`` as given (not equilibrated): ``rows - rank`` basis columns.

    For a stack (T, rows, cols), (u, ranks): the T left singular bases, the
    columns of ``u[t]`` from ``ranks[t]`` on being trial t's basis, and an
    array of the T ranks.
    """
    u, s, _ = np.linalg.svd(matrix)
    rank = _rank(s)
    return (u[:, rank:], rank) if u.ndim == 2 else (u, rank)


# reflectors per block of the compact WY form: at 275 x 243, applying Q to
# 32 columns is fastest at 32 per block
HOUSEHOLDER_BLOCK = 32


@functools.lru_cache(maxsize=64)
def _triangles(rows: int, cols: int) -> tuple:
    """(strictly lower, upper, identity) masks of a rows x cols matrix, the
    identity as complex numbers: read-only, shared by every call."""
    lower = np.tri(rows, cols, -1, dtype=bool)
    out = (lower, ~lower, np.eye(rows, cols, dtype=complex))
    for a in out:
        a.setflags(write=False)
    return out


def householder(matrix: np.ndarray) -> tuple:
    """(reflectors, full) of a stack (T, rows, cols) from one Householder
    QR, ``np.linalg.qr(matrix, mode="raw")``.

    ``full`` holds whether each matrix has full column rank at RANK_TOL, as
    :func:`_full_rank` decides it from its triangular R. ``reflectors``
    keeps Q = H_1 ... H_p (p = min(rows, cols), H_i = I - tau_i v_i v_i^H)
    for :func:`apply_householder` in the compact WY form of blocks of
    HOUSEHOLDER_BLOCK reflectors V_b, Q_b = I - V_b T_b V_b^H (Schreiber
    and Van Loan 1989). With T_b^-1 =
    striu(V_b^H V_b) + diag(1/tau_b) (Joffrain et al. 2006), T_b = D_b M_b^-1
    for D_b = diag(tau_b) and the unit upper triangular M_b = I +
    striu(V_b^H V_b D_b): no division, and a reflector of tau 0, the
    identity, needs no case of its own. ``reflectors`` is a tuple of arrays
    over the stack: V, the (T, rows, p) unit lower trapezoidal reflectors,
    W = V diag(tau), then each block's M_b; a row selection of every array
    selects the trials. The columns of Q from a full column rank on span the
    complement of the column space, so no rows x rows Q need be formed.
    """
    h, tau = np.linalg.qr(matrix, mode="raw")
    # the C-ordered (T, rows, cols) LAPACK layout: R on and above the
    # diagonal, the reflectors' entries below it
    a = h.swapaxes(-1, -2)
    p = tau.shape[-1]
    lower, upper, eye = _triangles(*a.shape[-2:])
    full = _full_rank(np.where(upper[:p], a[..., :p, :], 0.0))[0]
    v = np.where(lower[:, :p], a[..., :p], eye[:, :p])
    w = v * tau[..., None, :]
    blocks = []
    for lo in range(0, p, HOUSEHOLDER_BLOCK):
        vb, wb = v[..., lo:lo + HOUSEHOLDER_BLOCK], w[..., lo:lo + HOUSEHOLDER_BLOCK]
        strict, _, unit = _triangles(vb.shape[-1], vb.shape[-1])
        blocks.append(np.where(strict.T, vb.conj().swapaxes(-1, -2) @ wb, unit))
    return (v, w, *blocks), full


def _invert_triangular(r: np.ndarray) -> np.ndarray:
    """Overwrite each upper triangular matrix of a (T, p, p) stack with its
    inverse, and return the stack, by halves: [[A, B], [0, D]]^-1 =
    [[A^-1, -A^-1 B D^-1], [0, D^-1]], the halves cut at a multiple of
    HOUSEHOLDER_BLOCK and inverted down to one block, which
    ``np.linalg.inv`` takes."""
    p = r.shape[-1]
    if p <= HOUSEHOLDER_BLOCK:
        r[...] = np.linalg.inv(r)
        return r
    m = HOUSEHOLDER_BLOCK * -(-p // (2 * HOUSEHOLDER_BLOCK))
    a, d = _invert_triangular(r[..., :m, :m]), _invert_triangular(r[..., m:, m:])
    r[..., :m, m:] = -(a @ r[..., :m, m:]) @ d
    return r


# power steps on A^H A, from the all-ones vector, behind the lower bound
# ||A x|| / ||x|| on sigma_max(A) that :func:`_full_rank` takes, however far
# they converge: of R, and of R's inverse, whose sigma_max is 1 / sigma_min(R)
POWER_STEPS = 4


def _power_bound(a: np.ndarray) -> np.ndarray:
    """||A x|| / ||x|| of each matrix A of a (T, p, p) stack, for the x of
    POWER_STEPS power steps on A^H A: a lower bound on sigma_max(A), nan or
    zero where the steps under- or overflow."""
    adjoint = a.conj().swapaxes(-1, -2)
    x = np.ones((len(a), a.shape[-1], 1), dtype=a.dtype)
    for _ in range(POWER_STEPS):
        x = adjoint @ (a @ x)
        x = x / _norms(x[..., 0])[:, None, None]
    return _norms((a @ x)[..., 0]) / _norms(x[..., 0])


# an upper bound on sigma_min under SHORT_MARGIN RANK_TOL times the scale the
# rank is counted from shows a matrix short (see :func:`_full_rank`)
SHORT_MARGIN = 0.9


def _certified(s, norms):
    """Which rows of projections B^H J keep rank d for sure, from ``s``, the
    singular values of B^H J, and ``norms``, the rows' (d) column norms
    nu_i of J. E = J diag(1 / nu), so s_min(B^H E) >= s_min(B^H J) / max
    nu, and a row whose bound reaches twice RANK_TOL times 1, the scale a
    projected rank counts from, needs no SVD of B^H E. A basis of fewer
    than d columns certifies nothing."""
    if s.shape[-1] < norms.shape[-1]:
        return np.zeros(len(s), dtype=bool)
    return s[:, -1] >= 2 * RANK_TOL * np.maximum.reduce(norms, axis=-1)


def _full_rank(r: np.ndarray, values: np.ndarray = None, scale: float = None,
               nu: np.ndarray = None) -> tuple:
    """(full, inverses) of a stack of upper triangular (p, cols) R, or of
    one: whether each A = R diag(1 / nu) has full column rank at RANK_TOL
    as ``_rank(s, scale)`` of its singular values decides it, counting from
    sigma_max(A), or from ``scale``; and the inverse X that the certificate
    read of each R it showed full (None for the others). ``nu``, the (n,
    cols) column scales of a stack of n, comes with a scale, and is 1
    without. An R of fewer rows than columns is short outright.

    A square R of at least HOUSEHOLDER_BLOCK columns is decided by bounds
    where they can. Full: sigma_min(A) >= 1 / (||R^-1||_F max nu). So with
    X = (R / f)^-1, f = ||R||_F >= sigma_max, relative to sigma_max, and X
    = R^-1 from a scale, ||X||_F w <= 1 / (2 RANK_TOL) for w = 1, or max nu
    times the scale, puts sigma_min(A) at twice RANK_TOL times its count's
    reference or more. X comes from :func:`_invert_triangular`, accurate to
    about c p u kappa (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 14), some 1e-6 c at p = 243 and a certified
    kappa_F of 5e7. Only an R with every entry finite and min |r_ii| / nu_i
    >= 2 RANK_TOL times f, or the scale, is inverted for the certificate
    (|r_ii| / nu_i >= sigma_min(A), so no other R can pass), which keeps
    X's blocks finite and ``np.linalg.inv`` from raising; overflow in the
    products only fails the certificate.

    Short: sigma_min(A) <= min |r_ii| / nu_i (ch. 8), and relative to
    sigma_max, ||R x|| / ||x|| <= sigma_max for the x of POWER_STEPS power
    steps on R^H R (:func:`_power_bound`). So min |r_ii| / nu_i under
    SHORT_MARGIN RANK_TOL times that estimate, or the scale, shows R short.
    An R that bound leaves open, every entry finite and min |r_ii| > 0,
    takes power steps on diag(nu) X, the inverse of A (or of R / f), under
    the same margin: sigma_min <= ||y|| / ||diag(nu) X y||. An A the values
    SVD counts full has kappa at most sqrt(p) / RANK_TOL from the scale 1
    of unit-norm columns, and 1 / RANK_TOL relative to sigma_max: X is then
    accurate to about 4e-5 c at p = 243, so the bound cannot fall 10% under
    sigma_min unless c exceeds about 2000, and the SVD's own rounding, about
    p u sigma_max, is far smaller still. An R whose estimates are zero or
    not finite stays open. Every bound answers as ``_rank`` does, bit for
    bit, however the rounding falls, in a stack or alone.

    Every R no bound decides takes the values SVD: of the rows of
    ``values`` over nu where given (the matrices R was factored from), else
    of R. So does one narrower than a block, where numpy's per-call cost
    makes the bounds dearer than the SVD (the CHANGES.md entry that
    introduced the certificate gives the per-call timings). From a scale
    and with ``values`` given, nothing reads R after its inversion, and X
    takes R's memory; the X of a row the certificate fails is scaled to
    diag(nu) X in place.
    """
    p, cols = r.shape[-2:]
    stack = r.reshape(-1, p, cols)
    n = len(stack)
    full, inverses = np.zeros(n, dtype=bool), [None] * n
    undecided = np.arange(n if p >= cols else 0)
    if p == cols >= HOUSEHOLDER_BLOCK:
        with np.errstate(all="ignore"):
            f = _norms(stack.reshape(n, p * p))
            diagonal = np.abs(np.diagonal(stack, axis1=-2, axis2=-1))
            invertible = np.isfinite(f) & (np.minimum.reduce(diagonal, axis=-1) > 0.0)
            weight = np.full(n, 1.0 if scale is None else scale)
            if nu is not None:
                # a zero column's nu read as 1, as equilibrate_columns does
                diagonal = diagonal / np.where(nu > 0.0, nu, 1.0)
                weight *= np.maximum.reduce(nu, axis=-1)
            least = np.minimum.reduce(diagonal, axis=-1)

            def inverse(rows):
                every = len(rows) == n
                if scale is None:
                    return _invert_triangular((stack if every else stack[rows])
                                              / (f if every else f[rows])[:, None, None])
                # in R's memory where nothing reads R afterwards
                return _invert_triangular(stack if every and values is not None
                                          else stack[rows])

            live = np.flatnonzero(invertible & (least >= 2 * RANK_TOL
                                                * (f if scale is None else scale)))
            if len(live):
                x = inverse(live)
                certified = _norms(x.reshape(len(live), p * p)) * weight[live] <= 0.5 / RANK_TOL
                full[live] = certified
                for i in np.flatnonzero(certified).tolist():
                    inverses[live[i]] = x[i]
            undecided = np.flatnonzero(~full)
            if len(undecided):
                reference = (scale if scale is not None else
                             _power_bound(stack if len(undecided) == n else stack[undecided]))
                bounded = np.isfinite(f[undecided]) & np.isfinite(reference) & (reference > 0.0)
                short = bounded & (least[undecided] < SHORT_MARGIN * RANK_TOL * reference)
                open_ = np.flatnonzero(bounded & ~short & invertible[undecided])
                if len(open_):
                    rows = undecided[open_]
                    # the certificate's inverses where it formed them all,
                    # in their own memory where it failed every one
                    if np.array_equal(rows, live):
                        y = x
                    elif np.isin(rows, live).all():
                        y = x[np.searchsorted(live, rows)]
                    else:
                        y = inverse(rows)
                    if nu is not None:
                        y *= nu[rows][:, :, None]
                    growth = _power_bound(y)
                    unit = reference[open_] / f[rows] if scale is None else scale
                    short[open_] = np.isfinite(growth) & (
                        growth * (SHORT_MARGIN * RANK_TOL * unit) > 1.0)
                undecided = undecided[~short]
    if len(undecided):
        values = stack if values is None else values.reshape(-1, *values.shape[-2:])
        every = len(undecided) == n
        a = values if every else values[undecided]
        if nu is not None:
            a = equilibrate_columns(a, (nu if every else nu[undecided])[:, None, :])
        full[undecided] = _rank(np.linalg.svd(a, compute_uv=False), scale) == cols
    return (full, inverses) if r.ndim == 3 else (bool(full[0]), inverses[0])


def apply_householder(reflectors: tuple, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Q x, or Q^H x when ``adjoint``, for the Q of :func:`householder`'s
    ``reflectors`` and a (rows, n) ``x`` or a stack of them, one block at a
    time: Q_b x = x - W_b M_b^-1 V_b^H x and Q_b^H x = x - V_b M_b^-H W_b^H x,
    each two products and a solve with the b x b triangle M_b. ``x`` is
    read, never written."""
    v, w, *blocks = reflectors
    # each block's reflectors, from the blocks' own widths
    cuts, lo = [], 0
    for m in blocks:
        cuts.append((slice(lo, lo + m.shape[-1]), m))
        lo += m.shape[-1]
    for cut, m in cuts if adjoint else cuts[::-1]:
        if adjoint:
            y = v[..., cut] @ np.linalg.solve(
                m.conj().swapaxes(-1, -2), w[..., cut].conj().swapaxes(-1, -2) @ x)
        else:
            y = w[..., cut] @ np.linalg.solve(m, v[..., cut].conj().swapaxes(-1, -2) @ x)
        # x - y, into y's memory: y has the broadcast shape
        x = np.subtract(x, y, out=y)
    return x


def orthonormal_complement(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column space."""
    return complement_and_rank(equilibrate_columns(matrix))[0]


def _norms(stack: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (T, n) complex stack, bit for bit
    ``np.linalg.norm`` of the row alone: one dot product each of its real
    and its imaginary part (``np.vecdot`` runs the same dot product as
    ``np.dot``, where an ``add.reduce`` of the squares would round
    differently)."""
    return np.sqrt(np.vecdot(stack.real, stack.real) + np.vecdot(stack.imag, stack.imag))


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0.0)


def equality_residual(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Relative Frobenius distance between the two matrices of each trial of
    a (T, rows, cols) stack, as an array of T; 1.0 for sides of two shapes."""
    T = len(left)
    if left.shape != right.shape:
        return np.ones(T)
    norms = _norms(np.concatenate((left, right, left - right)).reshape(3 * T, -1))
    return _ratio(norms[2 * T:], np.maximum(norms[:T], norms[T:2 * T]))


def subset_residual(columns: np.ndarray, mapped: np.ndarray) -> np.ndarray:
    """Worst relative distance from a column of ``columns`` to the pool column
    mapped to it, in its place in ``mapped``, for each trial of a stack, as an
    array; 1.0 for sides of two shapes. A zero column matches any. Distances
    sum in row order, as ``np.linalg.norm`` sums a column of a wider matrix."""
    if columns.shape != mapped.shape:
        return np.ones(len(columns))
    diff = mapped - columns
    dist = np.sqrt(np.add.accumulate((diff.conj() * diff).real, axis=-2)[..., -1, :])
    return np.fmax.reduce(_ratio(dist, _norms(columns.swapaxes(-1, -2))), axis=-1, initial=0.0)


def span_residual(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sine of the largest principal angle between the two column spans of
    each trial of a stack, as an array.

    1.0 outright when the spans have different dimensions. Each span's
    orthonormal basis comes from a batched SVD, its rank decided at
    RANK_TOL; sides of one shape share one SVD call. The small-angle regime
    is computed as ``||Ql - Qr (Qr^H Ql)||_2``, which does not suffer the
    cancellation of the arccos-of-cosine route.
    """
    T = len(left)
    if left.shape == right.shape:
        u, s, _ = np.linalg.svd(equilibrate_columns(np.concatenate((left, right))),
                                full_matrices=False)
        sides = ((u[:T], s[:T]), (u[T:], s[T:]))
    else:
        sides = [np.linalg.svd(equilibrate_columns(m), full_matrices=False)[:2]
                 for m in (left, right)]
    (ul, rl), (ur, rr) = [(u, _rank(s)) for u, s in sides]
    out = np.where(rl == rr, 0.0, 1.0)
    by_rank = {}
    for t, (a, b) in enumerate(zip(rl.tolist(), rr.tolist())):
        if a == b and a:
            by_rank.setdefault(a, []).append(t)
    for rank, trials in by_rank.items():
        ql, qr = (ul, ur) if len(trials) == len(ul) else (ul[trials], ur[trials])
        ql, qr = ql[..., :rank], qr[..., :rank]
        resid = ql - qr @ (qr.conj().swapaxes(-1, -2) @ ql)
        # the spectral norm, as np.linalg.norm(resid, 2) takes it
        out[trials] = np.max(np.linalg.svd(resid, compute_uv=False), axis=-1)
    return out
