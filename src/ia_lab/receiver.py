"""Zero-forcing reception: alignment verification and achievable rates.

Two entry points share one pass over the receivers.
:func:`check_alignment` verifies one scheme on one channel: at every
receiver it measures the rank of the desired signal, of the stacked
interference, and of the desired signal projected onto the orthogonal
complement of the interference, and it evaluates the family-specific
alignment relations (exact equalities, column-subset containments, span
equalities). :func:`zf_rates` gives the zero-forcing rates of a stack of
trials over one power grid: the projection keeps the noise white, so a
receiver's rate is a log-det over its projected effective channel. Channel
products go through ``ChannelSet.apply``, which never forms dense
block-diagonal matrices.

Zero forcing succeeds at receiver k iff its equilibrated desired columns
keep rank d_k after the projection (:func:`zf_ok`; a report's joint rank
is the interference rank plus that projected rank), their singular values
counted from RANK_TOL times 1, the unprojected scale, so that a desired
signal inside the interference counts nothing. Where a family names the
transmitter j whose image H_kj span(V_j) spans receiver k's interference
once its relations hold (``Family.interference_image``), k's complement is
that image's. An image no other receiver names is decomposed at k: the
full-U SVD of j's equilibrated columns among k's products. An image that
several receivers name takes one full-U SVD of V_j per stack, and at each
of them H_kj^{-H} span(V_j)^perp: a diagonal solve and a thin QR. The
relations are still evaluated. Every other receiver takes the full-U SVD of
its interference. With gains, each row first takes the SVD of its projected
effective channel B^H J_D, and that certifies its verdict where the
smallest singular value over J_D's largest column norm reaches twice
RANK_TOL, a lower bound on the equilibrated projection's; only the other
rows, and every row of :func:`check_alignment`, take the verdict's SVD.

The pass runs over a stack of trials of one family and shape, as a stacked
build gives them, or over one trial as the stack of one. It takes the
receivers of one stream count and complement route (the columns they
decompose, or the transmitter whose shared image they carry) in batches of
whole receivers with all their trials, as many as fit STACK_BYTES and at
least one. A batch forms the product H_kj V_j of each of its links once,
into receiver k's array of all its products, of which the desired and
interference matrices, the gain projection and the family relations read
views; it is equilibrated once and shares each batched SVD, and then the
relations at its receivers are evaluated, those of one kind and operand
shape in one residual call, before its products go. The verdicts are
arrays: ranks per (receiver, trial) and residuals per (relation, trial),
and the pass mask follows from them. :func:`check_alignment` builds its
report from its one trial's column, and only it measures desired ranks;
:func:`zf_rates` drops a failing trial after its batch and takes its gains
from the complement that gives the verdict. Every trial gets, bit for bit,
the answer it gets alone, and the whole power grid takes one broadcast per
stream count.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from .channels import ChannelSet
from .errors import ParameterError, ShapeError
from .families import get_family
from .linalg import (RANK_TOL, _rank, complement_and_rank, equality_residual,
                     equilibrate_columns, span_residual, subset_residual)
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


def _pass(scheme, ext, with_gains) -> tuple:
    """One pass over the receivers of a stack of T trials, checking ranks and
    relations; returns the verdicts as arrays, (ranks, residuals, passed, gains).

    ``scheme`` is stacked, and ``ext`` is stacked alike or one extension
    every trial shares. ``ranks[:, k, t]`` holds the desired, interference
    and joint ranks at receiver k in trial t, and ``residuals[i, t]`` the
    residual of the family's relation i; an entry the pass did not reach
    is -1 or nan, and so is every desired rank of a pass with gains, which
    does not need it. ``passed`` masks the trials that pass every check and
    relation. A batch of whole receivers forms their products (own streams
    first, through unit-norm columns for gains, then the others' in order),
    checks them, evaluates their relations and lets the products go.

    Without gains every trial stays to the last receiver and relation, and
    gains is None. With gains, a trial that fails a check or relation
    leaves the pass after its batch, and ``gains[k][t]`` holds the squared
    singular values of receiver k's projected effective channel for every
    trial t of ``passed``.
    """
    T, K, dim = len(scheme.precoders[0]), scheme.K, ext.dim
    d = scheme.stream_counts
    streams = sum(d)
    order = [[k] + [j for j in range(K) if j != k] for k in range(K)]
    offsets = [dict(zip(o, accumulate((d[j] for j in o), initial=0))) for o in order]

    def products(k):
        out = np.empty((T, dim, streams), dtype=complex)
        for j in order[k]:
            v = scheme.precoders[j]
            # the gains take the desired streams through unit-norm columns
            out[..., offsets[k][j]:offsets[k][j] + d[j]] = ext.apply(
                k, j, equilibrate_columns(v) if j == k and with_gains else v)
        return out

    family = get_family(scheme.family)
    image = family.interference_image(K) if family.interference_image else (None,) * K
    # receiver k's complement route: the range of its columns it decomposes
    # itself (its interference, or an image no other receiver names), or
    # else the transmitter whose shared image it carries
    routes = [(d[k], streams) if j is None else
              (offsets[k][j], offsets[k][j] + d[j]) if image.count(j) == 1 else j
              for k, j in enumerate(image)]
    listed = list(family.relations(K))
    # built per call from the module names, so whatever rebinds them sees it
    residual = {"equality": equality_residual, "subset": subset_residual,
                "span": span_residual}
    ranks = np.full((3, K, T), -1)
    residuals = np.full((len(listed), T), np.nan)
    # whether each trial passed every check and relation so far
    passed = [True] * T

    def relate(joint):
        rows = [t for t in range(T) if passed[t] or not with_gains]
        if not rows:
            return
        kinds = {}
        for i, (kind, k, _, jl, jr) in enumerate(listed):
            if k in joint:
                kinds.setdefault((kind, d[jl], d[jr]), []).append(i)

        def operand(k, j):
            hv = joint[k][..., offsets[k][j]:offsets[k][j] + d[j]]
            return hv if len(rows) == T else hv[rows]

        for (kind, dl, dr), members in kinds.items():
            tol = SPAN_TOL if kind == "span" else RESIDUAL_TOL
            # operands, temporaries of their size, a subset's (dl, dr) ranks
            for batch in _batches(members, 32 * len(rows) * (dim * (dl + dr) + dl * dr)):
                out = residual[kind](
                    np.concatenate([operand(listed[i][1], listed[i][3]) for i in batch]),
                    np.concatenate([operand(listed[i][1], listed[i][4]) for i in batch]))
                out = out.reshape(len(batch), -1)
                residuals[batch if len(rows) == T else np.ix_(batch, rows)] = out
                for t, ok in zip(rows, (out <= tol).all(axis=0).tolist()):
                    passed[t] = passed[t] and ok

    spans = {}

    def image_complement(j):
        """complement_and_rank of transmitter j's equilibrated precoders,
        taken once per stack for every receiver whose interference is its
        image."""
        if j not in spans:
            spans[j] = complement_and_rank(equilibrate_columns(scheme.precoders[j]))
        return spans[j]

    groups = {}
    for k in range(K):
        groups.setdefault((d[k], routes[k]), []).append(k)
    gains = tuple(np.empty((T, dk)) for dk in d) if with_gains else None
    for (dk, route), members in groups.items():
        for batch in _batches(members, max(T, 1) * _receiver_bytes(dim, streams)):
            live = [t for t in range(T) if passed[t] or not with_gains]
            if live:
                joint = {k: products(k) for k in batch}
                _check(joint, live, route, ext, dk, image_complement, ranks, passed, gains)
                relate(joint)
    return ranks, residuals, np.array(passed, dtype=bool), gains


def _by_rank(ranks) -> dict:
    """Positions of an array of ``ranks`` by rank, in order."""
    out = {}
    for p, r in enumerate(ranks.tolist()):
        out.setdefault(r, []).append(p)
    return out


def _certified(s, desired):
    """Which rows keep projected rank d_k for sure, from ``s``, the singular
    values of B^H J_D, with J_D the rows' ``desired`` (dim, d_k) columns.
    E_D is J_D with column i divided by its norm nu_i, so the verdict's
    s_min(B^H E_D) >= s_min(B^H J_D) / max nu: a row whose bound reaches
    twice RANK_TOL needs no verdict SVD. A basis of fewer than d_k columns
    certifies nothing."""
    if s.shape[-1] < desired.shape[-1]:
        return np.zeros(len(s), dtype=bool)
    nu = np.sqrt(np.add.reduce((desired.conj() * desired).real, axis=-2))
    return s[:, -1] >= 2 * RANK_TOL * np.maximum.reduce(nu, axis=-1)


def _check(joint, trials, route, ext, dk, image_complement, ranks, passed,
           gains) -> None:
    """Check the receivers of a batch of one ``route`` at the stack's live
    ``trials``, ``joint[k]`` being receiver k's (T, dim, streams) products,
    desired streams first: set their ``ranks``, clear ``passed`` for each
    failing trial and set the gains of the others (unless gains is None).
    A row is one (receiver, trial) pair, receiver by receiver.

    A range route (lo, hi) takes every row's complement from one full-U
    SVD of those columns equilibrated. A transmitter route j takes ext's
    H_kj^{-H} applied to the columns past the rank of
    ``image_complement(j)``, orthonormalized: one solve per receiver and
    one QR per rank. The verdict and the gains project onto it; with gains,
    a row whose gains certify rank d_k takes no verdict SVD."""
    whole = len(trials) == len(passed)
    # views of the products when every trial is live
    parts = [p if whole else p[trials] for p in joint.values()]
    J = parts[0] if len(parts) == 1 else np.concatenate(parts)
    # each column is scaled alone, so every SVD reads columns of one equilibration
    E = equilibrate_columns(J)
    ks, ts = [k for k in joint for _ in trials], trials * len(joint)
    if gains is None:
        ranks[0, ks, ts] = _rank(np.linalg.svd(E[..., :dk], compute_uv=False), RANK_TOL)
    # (rows of the batch, bases of their complements, interference rank)
    if isinstance(route, tuple):
        u, interference = complement_and_rank(E[..., route[0]:route[1]])
        groups = [(rows, u[rows, :, r:], r) for r, rows in _by_rank(interference).items()]
    else:
        u, image = image_complement(route)
        groups = []
        for r, rows in _by_rank(image[trials]).items():
            chosen = [trials[p] for p in rows]
            base = u if len(chosen) == len(passed) else u[chosen]
            sub = ext[chosen] if ext.stacked and len(chosen) < len(passed) else ext
            scaled = np.concatenate([sub.solve_adjoint(k, route, base[..., r:]) for k in joint])
            groups.append(([i * len(trials) + p for i in range(len(joint)) for p in rows],
                           np.linalg.qr(scaled)[0], r))
    for rows, basis, r in groups:
        doubtful = list(range(len(rows)))
        if gains is not None:
            desired = J[rows, :, :dk]
            s = np.linalg.svd(basis.conj().swapaxes(-1, -2) @ desired, compute_uv=False)
            doubtful = np.flatnonzero(~_certified(s, desired)).tolist()
        joint_rank = np.full(len(rows), r + dk)
        if doubtful:
            whole = len(doubtful) == len(rows)
            projected = ((basis if whole else basis[doubtful]).conj().swapaxes(-1, -2)
                         @ E[[rows[i] for i in doubtful], :, :dk])
            joint_rank[doubtful] = r + _rank(np.linalg.svd(projected, compute_uv=False),
                                             RANK_TOL, 1.0)
        rks, rts = [ks[p] for p in rows], [ts[p] for p in rows]
        ranks[1, rks, rts], ranks[2, rks, rts] = r, joint_rank
        for t, ok in zip(rts, zf_ok(dk, r, joint_rank).tolist()):
            passed[t] = passed[t] and ok
        if gains is not None:
            # a passing row's basis has dim - r >= d_k columns for its streams
            for i, t in enumerate(rts):
                if passed[t]:
                    gains[rks[i]][t] = s[i] ** 2


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
    ranks, residuals, _, _ = _pass(scheme[None], ext, False)
    d, listed = scheme.stream_counts, get_family(scheme.family).relations(scheme.K)
    return AlignmentReport(
        family=scheme.family, K=scheme.K, M=ext.M, L=ext.F, rank_tol=RANK_TOL,
        residual_tol=RESIDUAL_TOL,
        receivers=tuple(ReceiverCheck(k, d[k], *r, full_dim=ext.dim)
                        for k, r in enumerate(ranks[..., 0].T.tolist())),
        relations=tuple(RelationCheck(desc, k, kind, value,
                                      SPAN_TOL if kind == "span" else RESIDUAL_TOL)
                        for (kind, k, desc, _, _), value in zip(listed, residuals[:, 0].tolist())))


def _grid_rates(L, gains, rhos) -> np.ndarray:
    """Per-user rates of a stack of T trials at every total transmit power
    in ``rhos``, as a (T, len(rhos), K) array, from ``gains[k]``, the
    (T, d_k) squared singular values of receiver k's projected effective
    channels; ``L`` is the extension length.

    rate_k = sum over gains g of log2(1 + p_k g) / L, with
    p_k = (rho / K) * L / d_k per stream: one broadcast over a (trials x
    grid x receivers x streams) array per stream count. Rates are in bits
    per channel use (per extension slot), with unit noise variance.
    """
    rhos = np.asarray(rhos, dtype=float)
    K = len(gains)
    out = np.empty(gains[0].shape[:-1] + (rhos.size, K))
    groups = {}
    for k, g in enumerate(gains):
        groups.setdefault(g.shape[-1], []).append(k)
    for d_k, members in groups.items():
        g = np.stack([gains[k] for k in members], axis=-2)
        p_k = (rhos / K) * L / d_k
        out[..., members] = np.sum(np.log2(1.0 + p_k[:, None, None] * g[..., None, :, :]),
                                   axis=-1) / L
    return out


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
    broken and any rate would be meaningless.
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
    _, _, passed, gains = _pass(scheme, ext, True)
    rates = iter(_grid_rates(ext.F, tuple(g[passed] for g in gains), rhos))
    return [next(rates) if ok else None for ok in passed.tolist()]
