"""Zero-forcing reception: alignment verification and achievable rates.

Two entry points share one pass over the receivers.
:func:`check_alignment` verifies one scheme on one channel: at every
receiver it measures the rank of the desired signal, of the interference,
and of the desired signal projected onto the orthogonal complement of the
interference, and it evaluates the family's alignment
relations (``Family.relations``): exact and span equalities, and column
subsets, where each column of an interfering image must equal the column
its family maps it to, in a scheme made by hand too (permuted columns fail).
:func:`zf_rates` gives the zero-forcing rates of a stack of trials over one
power grid: the projection keeps the noise white, so a receiver's rate is a
log-det over its projected effective channel. Channel products go through
``ChannelSet.apply``, which never forms dense block-diagonal matrices.

Zero forcing succeeds at receiver k iff its equilibrated desired columns
keep rank d_k after the projection (:func:`zf_ok`; a report's joint rank
is the interference rank plus that projected rank), their singular values
counted from RANK_TOL times 1, the unprojected scale, so that a desired
signal inside the interference counts nothing. Every family names, per
receiver k, the transmitter j whose image H_kj span(V_j) spans k's
interference once its relations hold (``Family.interference_image``); k's
interference rank and complement are that image's, by one of two routes
(:func:`_check`): carried by H_kj^{-H} from the complement of V_j the build
kept (``PrecoderScheme.complements``), else decomposed at k, as every image
of a scheme made by hand is. The relations are still evaluated. With
rates, each row's projected effective channel G = B^H J_D (B an
orthonormal basis of the complement) gives both its rates and, where
bounds decide it, its verdict: a row of fewer than QR_STREAMS streams from
G's values SVD, a wider one from one QR of G (see ``rates``). Only the rows
no bound decides, and every row of :func:`check_alignment`, take the
verdict's SVD, and a row that fails takes no rates.

The pass runs over a stack of trials of one family and shape, as a stacked
build gives them, or over one trial as the stack of one. It takes the
receivers of one stream count and complement route (the columns of the
image they decompose, or the transmitter whose kept complement they carry)
in batches of whole receivers with all their trials, as many as fit
STACK_BYTES and at least one. A batch forms, once, the columns of each of
its links' products H_kj V_j that a check, a rate or a relation reads
(:func:`_plan`, worked out once per configuration: at L=275, 64 of
transmitter 1's 243 at each of receivers 2..4), into receiver k's array
of all its products, of which the desired and image matrices, the
projection the rates read and the family relations read views; the other
columns are never written. The relations at a batch's receivers are
evaluated first, those of one kind and operand shape in one residual
call. Then one call takes the norms of the leading columns its checks read
(the desired ones, and those of the image they decompose), which scale the
image's columns, and the desired ones only where a verdict SVD reads them;
each batched decomposition is shared, and the products go once the checks
have read them (a batch of wide rows lets them go before its QRs). The
verdicts are arrays: ranks per (receiver, trial) and residuals per
(relation, trial), and the pass mask follows from them.
:func:`check_alignment` builds its report from its one trial's column, and
only it measures desired ranks; :func:`zf_rates` keeps a failing trial in
the stack's batches, stops once no trial can still pass, and takes its
rates from the complement that gives the verdict, each batch's over the
whole power grid at once. Every trial that passes gets, bit for bit, the
answer it gets alone.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from .channels import ChannelSet
from .errors import ParameterError, ShapeError
from .families import get_family
from .linalg import (RANK_TOL, _certified, _rank, apply_householder, column_norms,
                     complement_and_rank, equality_residual, equilibrate_columns, householder,
                     span_residual, subset_residual)
from .rates import QR_STREAMS, _Factored, _log_det
from .schemes import PrecoderScheme

RESIDUAL_TOL = 1e-9
SPAN_TOL = 1e-8


@dataclass(frozen=True)
class RelationCheck:
    """Residual of one alignment relation the scheme family promises."""

    description: str
    receiver: int
    kind: str  # equality | subset | span
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class ReceiverCheck:
    """Rank bookkeeping at one receiver."""

    receiver: int
    desired_streams: int
    desired_rank: int
    interference_rank: int
    joint_rank: int
    full_dim: int

    @property
    def ok(self) -> bool:
        return zf_ok(self.desired_streams, self.interference_rank, self.joint_rank)


def zf_ok(streams, interference_rank, joint_rank):
    """Whether zero forcing succeeds at a receiver, elementwise: the desired
    signal keeps rank d_k after projection onto the complement of the
    interference, so the joint rank (interference rank plus projected rank)
    exceeds the interference rank by exactly the stream count d_k."""
    return joint_rank == interference_rank + streams


@dataclass(frozen=True)
class AlignmentReport:
    family: str
    K: int
    M: int
    L: int
    rank_tol: float
    residual_tol: float
    receivers: tuple
    relations: tuple

    @property
    def passed(self) -> bool:
        return (all(r.ok for r in self.receivers)
                and all(r.ok for r in self.relations))

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.relations), default=0.0)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["passed"] = self.passed
        doc["max_residual"] = self.max_residual
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


# bytes of receiver-pass matrices one batch of a pass, or one stack of a
# sweep, may hold
STACK_BYTES = 1 << 22


def _receiver_bytes(dim: int, streams: int) -> int:
    """Rough complex128 bytes one receiver of one trial adds to a batch of a
    receiver pass: a dim-square U and four dim x (total streams) matrices."""
    return 16 * dim * (dim + 4 * streams)


def _batches(items: list, item_bytes: int) -> list:
    """``items`` cut into consecutive batches of as many as fit STACK_BYTES,
    at least one each."""
    size = max(1, STACK_BYTES // item_bytes)
    return [items[lo:lo + size] for lo in range(0, len(items), size)]


@functools.lru_cache(maxsize=64)
def _plan(family, K: int, n, d: tuple, carried: tuple) -> tuple:
    """What a pass over the schemes of one ``family`` record, K, order n and
    stream counts d reads, where the scheme keeps the complements of the
    transmitters ``carried``, worked out once per configuration:
    (relations, reads, routes, offsets, formed).

    ``reads[i]`` holds relation i's right-side columns: all, its map, or
    none for a map past them. ``routes`` pairs each (d_k, route) with its
    receivers (see :func:`_pass`). Receiver k's products lie in
    ``offsets[k][j]``-based blocks: its own streams first, then its image's,
    then the others' in order. ``formed[k]`` lists (columns of k's products,
    j, columns of V_j) of each product k reads: every column of its own
    streams, of an image it decomposes and of every relation operand
    without a map, else the union of the subset maps that read it, and
    nothing of the others.
    """
    image = family.interference_image(K)
    listed = tuple(family.relations(K, n))
    reads = tuple(slice(None) if c is None else c if all(0 <= a < d[i] for a in c) else ()
                  for *_, i, c in listed)
    routes, offsets, formed = {}, [], []
    for k, j in enumerate(image):
        # receiver k's complement route: the transmitter whose kept
        # complement it carries, or else the range (lo, hi) of its columns
        # that hold the image, which it decomposes itself
        routes.setdefault((d[k], j if j in carried else (d[k], d[k] + d[j])), []).append(k)
        # an image a receiver decomposes is its columns d_k:d_k + d_j, so
        # that receivers of one stream count and image width batch together
        order = [k, j] + [i for i in range(K) if i not in (k, j)]
        offsets.append(dict(zip(order, accumulate((d[i] for i in order), initial=0))))
        wanted = {i: set() for i in order}
        for i in [k] + ([] if j in carried else [j]):
            wanted[i].update(range(d[i]))
        for (_, m, _, jl, jr, columns), cols in zip(listed, reads):
            if m == k:
                wanted[jl].update(range(d[jl]))
                wanted[jr].update(range(d[jr]) if columns is None else cols)
        products = []
        for i in order:
            lo, cols = offsets[k][i], np.array(sorted(wanted[i]), dtype=int)
            if len(cols) == d[i]:
                products.append((slice(lo, lo + d[i]), i, slice(None)))
            elif len(cols):
                products.append((lo + cols, i, cols))
        formed.append(tuple(products))
    return listed, reads, tuple(routes.items()), tuple(offsets), tuple(formed)


def _pass(scheme, ext, rhos=None) -> tuple:
    """One pass over the receivers of a stack of T trials, checking ranks and
    relations; returns the verdicts as arrays, (ranks, residuals, passed, rates).

    ``scheme`` is stacked, and ``ext`` is stacked alike or one extension
    every trial shares. ``ranks[:, k, t]`` holds the desired, interference
    and joint ranks at receiver k in trial t, and ``residuals[i, t]`` the
    residual of the family's relation i; an entry the pass did not reach
    is -1 or nan, and so is every desired rank of a pass with rates, which
    does not need it. ``passed`` masks the trials that pass every check and
    relation. A batch of whole receivers forms the columns of their
    products that :func:`_plan` says are read (own streams first, through
    unit-norm columns for rates, then their image's, then the others' in
    order), checks them at every trial of the stack, evaluates their
    relations and lets the products go; the other columns of a receiver's
    array are never written.

    Without a power grid ``rhos`` every batch runs, and rates is None.
    With one, the pass stops before a batch once no trial of the stack can
    still pass (at once for a stack of no trials); a failed trial stays in
    the batches before that, and nothing reads what they give it.
    ``rates[t]`` holds, for every trial t of ``passed``, its per-user rates
    as a (len(rhos), K) array (see :func:`zf_rates`); the rows of the other
    trials are not set.
    """
    T, K, dim = len(scheme.precoders[0]), scheme.K, ext.dim
    d = scheme.stream_counts
    streams = sum(d)
    listed, reads, routes, offsets, formed = _plan(get_family(scheme.family), K, scheme.n, d,
                                                   tuple(sorted(scheme.complements)))

    def products(k):
        out = np.empty((T, dim, streams), dtype=complex)
        for dst, j, src in formed[k]:
            v = scheme.precoders[j][..., src]
            # the rates take the desired streams through unit-norm columns
            out[..., dst] = ext.apply(k, j, equilibrate_columns(v) if j == k and rates is not None
                                      else v)
        return out

    # built per call from the module names, so whatever rebinds them sees it
    residual = {"equality": equality_residual, "subset": subset_residual,
                "span": span_residual}
    ranks = np.full((3, K, T), -1)
    residuals = np.full((len(listed), T), np.nan)
    # whether each trial passed every check and relation so far
    passed = [True] * T

    def relate(joint):
        kinds = {}
        for i, (kind, k, _, jl, jr, columns) in enumerate(listed):
            if k in joint:
                right = d[jr] if columns is None else len(reads[i])
                kinds.setdefault((kind, d[jl], right), []).append(i)

        def operand(k, j, columns=slice(None)):
            return joint[k][..., offsets[k][j]:offsets[k][j] + d[j]][..., columns]

        for (kind, dl, dr), members in kinds.items():
            tol = SPAN_TOL if kind == "span" else RESIDUAL_TOL
            # operands and temporaries of their size
            for batch in _batches(members, 32 * T * dim * (dl + dr)):
                out = residual[kind](
                    np.concatenate([operand(listed[i][1], listed[i][3]) for i in batch]),
                    np.concatenate([operand(listed[i][1], listed[i][4], reads[i])
                                    for i in batch]))
                residuals[batch] = out = out.reshape(len(batch), -1)
                for t, ok in enumerate((out <= tol).all(axis=0).tolist()):
                    passed[t] = passed[t] and ok

    if rhos is not None:
        rhos = np.asarray(rhos, dtype=float)
        rates = np.empty((T, rhos.size, K))
    else:
        rates = None
    size = max(T, 1) * _receiver_bytes(dim, streams)
    for dk, route, batch in [(dk, route, batch) for (dk, route), members in routes
                             for batch in _batches(members, size)]:
        if rates is not None and not any(passed):
            break
        joint = {k: products(k) for k in batch}
        # the relations first: a check with rates may let the products go
        relate(joint)
        # each stream's power at every point of the grid
        _check(joint, route, scheme, ext, dk, ranks, passed,
               None if rates is None else (rates, (rhos / K) * ext.F / dk))
    return ranks, residuals, np.array(passed, dtype=bool), rates


def _by_rank(ranks) -> dict:
    """Positions of an array of ``ranks`` by rank, in order."""
    out = {}
    for p, r in enumerate(ranks.tolist()):
        out.setdefault(r, []).append(p)
    return out


def _projection(basis):
    """B^H x of the rows ``among`` of a stack of orthonormal bases B, or of
    all of them."""
    return lambda x, among=None: (
        basis if among is None else basis[among]).conj().swapaxes(-1, -2) @ x


# rows from which a span takes the Householder QR, not the full-U SVD: QR
# time over SVD time of the decomposition and projected desired SVD of two
# trials, medians of 41 in alternation, one BLAS thread of a shared 2-core
# x86-64 machine, read 1.54 at 7 x 3, 1.21 at 17 x 8, 1.07 at 33 x 1, 0.81 at
# 33 x 16, 1.00 at 48 x 1, 0.71 at 48 x 24, 0.95 at 64 x 1, 0.58 at 128 x 64
# and 0.78 at 275 x 32 (one trial): one-column spans break even last
REFLECTOR_ROWS = 48


def _decomposed(columns) -> list:
    """(rows, projection, rank) of ``columns``, a stack of equilibrated spans,
    by rank, projecting onto each row's complement. From REFLECTOR_ROWS rows
    on, one Householder QR: a row of full column rank r applies Q^H and keeps
    the rows from r on. Every other row takes the full-U SVD's complement."""
    dim, width = columns.shape[-2:]
    groups, short = [], list(range(len(columns)))
    if dim >= REFLECTOR_ROWS:
        reflectors, full = householder(columns)
        rows, short = np.flatnonzero(full).tolist(), np.flatnonzero(~full).tolist()
        if rows:
            kept = tuple(a[rows] for a in reflectors) if short else reflectors
            groups.append((rows, lambda x, among=None: apply_householder(
                kept if among is None else tuple(a[among] for a in kept),
                x, adjoint=True)[..., width:, :], width))
    if short:
        u, span = complement_and_rank(columns[short] if groups else columns)
        groups += [([short[p] for p in group], _projection(u[group, :, r:]), r)
                   for r, group in _by_rank(span).items()]
    return groups


def _check(joint, route, scheme, ext, dk, ranks, passed, rates) -> None:
    """Check the receivers of a batch of one ``route`` at every trial of the
    stack, ``joint[k]`` being receiver k's (T, dim, streams) products,
    desired streams first: set their ``ranks``, clear ``passed`` for each
    failing trial and set the rates of the others. ``rates`` is None, or
    (out, p): the pass's (T, grid, K) rates and each of the d_k streams'
    power at every point of the grid. A row is one (receiver, trial) pair,
    receiver by receiver.

    One call takes the norms of the columns the batch reads: the desired
    ones, and those of the image a range route (lo, hi) decomposes, whose
    rank is hi - lo once the relations hold. The image's columns are
    scaled by them, and :func:`_decomposed` takes their complement row by
    row. A transmitter route j takes ext's H_kj^{-H} applied to
    ``scheme.complements[j]``, the complement of V_j the build kept,
    orthonormalized: one solve per receiver and one QR, of rank d_j. The
    verdict and the rates project onto the complement. With rates, a row
    of QR_STREAMS or more streams takes both from one QR of its projected
    channel (:class:`_Factored`, decided by ``linalg._full_rank``; one not
    full records -1 as its joint rank), and such a batch empties ``joint``
    once its projected channels are formed, so that its products go before
    the QRs; a row of fewer takes the channel's values SVD, whose gains
    certify rank d_k where they can (``linalg._certified``), and only the
    rows they leave take the verdict SVD, with their desired columns
    scaled."""
    parts = list(joint.values())
    J = parts[0] if len(parts) == 1 else np.concatenate(parts)
    lo, hi = route if isinstance(route, tuple) else (dk, dk)
    # each column is scaled alone, so only the columns read need it
    nu = column_norms(J[..., :hi])

    def scaled(cols, rows=None):
        """J's columns ``cols`` over their norms, of the batch's arrays, or
        of copies of ``rows``, so that a row is laid out alike in any group."""
        if rows is None or len(rows) == len(J):
            return equilibrate_columns(J[..., cols], nu[..., cols])
        return equilibrate_columns(J[rows, :, cols], nu[rows, :, cols])

    # every row of check_alignment reads its desired columns scaled
    E = scaled(slice(hi)) if rates is None else None
    trials = list(range(len(passed)))
    ks, ts = [k for k in joint for _ in trials], trials * len(joint)
    if rates is None:
        ranks[0, ks, ts] = _rank(np.linalg.svd(E[..., :dk], compute_uv=False))
    # (rows of the batch, projection onto their complements, interference rank)
    if isinstance(route, tuple):
        groups = _decomposed(scaled(slice(lo, hi)) if E is None else E[..., lo:hi])
    else:
        adjoint = np.concatenate([ext.solve_adjoint(k, route, scheme.complements[route])
                                  for k in joint])
        groups = [(list(range(len(J))), _projection(np.linalg.qr(adjoint)[0]),
                   scheme.precoders[route].shape[-1])]
    # the desired columns as views: of the batch's arrays when a group holds
    # all its rows, else of copies of the group's rows, so that a row is laid
    # out, and rounds, alike in any group
    batch = len(J)
    wide = rates is not None and dk >= QR_STREAMS
    if wide:
        # wide rows read nothing of the products past their projected
        # channels: every group's are formed, and the products go before
        # any QR
        channels = [project((J if len(rows) == batch else J[rows])[..., :dk])
                    for rows, project, _ in groups]
        joint.clear()
        del parts, J
    for group, (rows, project, r) in enumerate(groups):
        every = len(rows) == batch
        # each row's projected rank: d_k where certified
        kept = np.full(len(rows), dk)
        if rates is None:
            # check_alignment's rows are all doubtful
            kept[:] = _rank(np.linalg.svd(project(E[..., :dk] if every else E[rows][..., :dk]),
                                          compute_uv=False), scale=1.0)
        elif wide:
            factored = _Factored(channels[group], (nu if every else nu[rows])[..., 0, :dk])
            channels[group] = None
            # the pass's mark for what it did not measure
            kept[~factored.full] = -1 - r
        else:
            s = np.linalg.svd(project((J if every else J[rows])[..., :dk]), compute_uv=False)
            doubtful = np.flatnonzero(~_certified(s, (nu if every else nu[rows])[..., 0, :dk])
                                      ).tolist()
            if doubtful:
                projected = project(scaled(slice(dk), [rows[i] for i in doubtful]),
                                    None if len(doubtful) == len(rows) else doubtful)
                kept[doubtful] = _rank(np.linalg.svd(projected, compute_uv=False), scale=1.0)
        joint_rank = r + kept
        rks, rts = [ks[p] for p in rows], [ts[p] for p in rows]
        ranks[1, rks, rts], ranks[2, rks, rts] = r, joint_rank
        for t, ok in zip(rts, zf_ok(dk, r, joint_rank).tolist()):
            passed[t] = passed[t] and ok
        # a passing row's complement has dim - r >= d_k dimensions for its
        # streams
        ok = [i for i, t in enumerate(rts) if rates is not None and passed[t]]
        if ok:
            out, p = rates
            values = factored.rates(ok, p) if wide else _log_det(s[ok] ** 2, p)
            out[[rts[i] for i in ok], :, [rks[i] for i in ok]] = values / ext.F


def _check_dimensions(scheme, ext) -> None:
    if len(scheme.precoders) != scheme.K:
        raise ShapeError(f"scheme has K={scheme.K} but {len(scheme.precoders)} precoders")
    if scheme.K != ext.K:
        raise ShapeError(f"scheme has K={scheme.K}, channel has K={ext.K}")
    if scheme.precoders[0].shape[-2] != ext.dim:
        raise ShapeError(
            f"precoders act on {scheme.precoders[0].shape[-2]} dimensions, "
            f"channel extension has {ext.dim}")
    if scheme.stacked != ext.stacked or (
            scheme.stacked and len(scheme.precoders[0]) != len(ext.coeffs)):
        raise ShapeError("a scheme and its extension must stack the same trials")


def check_alignment(scheme: PrecoderScheme, ext: ChannelSet) -> AlignmentReport:
    """Measure every rank and alignment relation of a scheme of one trial on
    its extended channel (or any channel of matching dimensions).

    Singular values below RANK_TOL times the largest do not count toward a
    rank, nor those of a projected desired signal below RANK_TOL times 1;
    RESIDUAL_TOL bounds equality and subset residuals, SPAN_TOL the sine of
    a span equality's largest principal angle. ``report.passed`` is True iff
    every receiver check and relation holds.
    """
    _check_dimensions(scheme, ext)
    if scheme.stacked:
        raise ShapeError("check_alignment takes one trial")
    ranks, residuals, _, _ = _pass(scheme[None], ext)
    d = scheme.stream_counts
    listed = _plan(get_family(scheme.family), scheme.K, scheme.n, d,
                   tuple(sorted(scheme.complements)))[0]
    return AlignmentReport(
        family=scheme.family, K=scheme.K, M=ext.M, L=ext.F, rank_tol=RANK_TOL,
        residual_tol=RESIDUAL_TOL,
        receivers=tuple(ReceiverCheck(k, d[k], *r, full_dim=ext.dim)
                        for k, r in enumerate(ranks[..., 0].T.tolist())),
        relations=tuple(RelationCheck(desc, k, kind, value,
                                      SPAN_TOL if kind == "span" else RESIDUAL_TOL)
                        for (kind, k, desc, *_), value in zip(listed, residuals[:, 0].tolist())))


def zf_rates(scheme, ext, rhos) -> list:
    """Zero-forcing rates of a stack of trials over one power grid, from one
    pass over the receivers.

    ``scheme`` and ``ext`` are stacked alike, as a stacked build gives them, or
    one trial, taken as the stack of one. ``rhos``, a 1-D grid, holds total
    transmit powers per orthogonal dimension, split equally over transmitters
    and then over each one's streams; any other shape, or a power that is not
    finite and nonnegative, raises ParameterError before the pass. Receiver k
    decodes its own streams jointly in the interference-free subspace: rate_k =
    log2 det(I + p_k G G^H) / L, with G the projected effective channel through
    unit-norm precoder columns and p_k = (rho / K) * L / d_k per stream.
    Returns, per trial, its per-user rates as a (len(rhos), K) array, or None
    where the pass mask fails it: a failed check means the construction is
    broken and any rate would be meaningless. A receiver of QR_STREAMS or
    more streams takes its rates from one QR of G where the whole grid lies
    high enough (see ``rates``), else from G's singular values: its rate at
    one point may then differ, in its last bits, with the grid around it.
    """
    _check_dimensions(scheme, ext)
    rhos = np.asarray(rhos, dtype=float)
    if rhos.ndim != 1:
        raise ParameterError(f"the power grid must be one-dimensional, got shape {rhos.shape}")
    bad = ~(np.isfinite(rhos) & (rhos >= 0))
    if bad.any():
        raise ParameterError(
            f"transmit power must be finite and nonnegative, got {rhos[bad][0]}")
    if not scheme.stacked:
        scheme = scheme[None]
    _, _, passed, rates = _pass(scheme, ext, rhos)
    return [rates[t] if ok else None for t, ok in enumerate(passed.tolist())]
