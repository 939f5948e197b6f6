"""Zero-forcing reception: alignment verification and achievable rates.

Two entry points share one pass over the receivers.
:func:`check_alignment` verifies one scheme on one channel: at every
receiver it measures the rank of the stacked interference, of the desired
signal, and of both together, and it evaluates the family-specific
alignment relations (exact equalities, column-subset containments, span
equalities). :func:`zf_rates` gives the zero-forcing rates of many trials,
each a scheme and its extended channel, over one power grid: projecting
onto the orthogonal complement of the interference span keeps the noise
white, so a receiver's rate is a log-det over its projected effective
channel.

All channel products go through ``ExtendedChannel.apply``, which works on
the diagonal blocks and never forms the dense block-diagonal matrices.

Both run one pass over a stack of trials of one family and shape: a
stacked scheme and extension, as a stacked build gives them, or
separately built trials stacked once. Each link's product H_kj V_j is
formed once per stack, with one ``apply``, into receiver k's array of all
its products, and the desired, interference and joint matrices, the gain
projection and the family relations all read views of it. Receivers whose
desired and interference matrices have one shape share each batched SVD:
the rows are (receiver, trial) pairs, cut into batches of STACK_BYTES
receiver by receiver, so a trial above that budget walks its receivers
one at a time. Once a receiver is done, the family relations at it are
evaluated, those of one kind and operand shape in one residual call, and
its products are dropped. :func:`check_alignment` is the stack of one,
takes values-only SVDs and keeps every receiver and relation, so its
report holds them all. :func:`zf_rates` takes one full-U SVD of the
interference, which gives the interference ranks and the bases of their
orthogonal complements from the same singular values; rows are grouped by
interference rank, and each group's projected effective channels take one
batched SVD whose squared singular values are the gains. A trial that
fails a receiver check or a relation leaves the pass after its batch (fail
fast). Every trial gets, bit for bit, the answer it gets alone. The
geometry does not depend on the transmit power, so the whole grid, for
every trial of a stack, takes one broadcast per receiver.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from itertools import accumulate

import numpy as np

from .channels import ExtendedChannel
from .errors import ParameterError, ShapeError
from .families import get_family
from .linalg import (RANK_TOL, complement_and_rank, equality_residual,
                     equilibrate_columns, numerical_rank, span_residual,
                     subset_residual)
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
        # zero forcing succeeds iff the desired streams survive next to the
        # interference: joint rank must exceed the interference by exactly
        # the stream count
        return (self.desired_rank == self.desired_streams
                and self.joint_rank == self.interference_rank + self.desired_streams)


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

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# bytes of receiver-pass matrices one batch of a pass, or one stack of a
# sweep, may hold
STACK_BYTES = 1 << 22


def _receiver_bytes(dim: int, streams: int) -> int:
    """Rough complex128 bytes one receiver of one trial adds to a batch of a
    receiver pass: a dim-square U and four dim x (total streams) matrices."""
    return 16 * dim * (dim + 4 * streams)


def _batches(rows: list, row_bytes: int) -> list:
    """``rows`` cut into consecutive batches of as many as fit STACK_BYTES,
    at least one each."""
    size = max(1, STACK_BYTES // row_bytes)
    return [rows[lo:lo + size] for lo in range(0, len(rows), size)]


def _pass(scheme, ext, with_gains, rank_tol=RANK_TOL, residual_tol=RESIDUAL_TOL,
          span_tol=SPAN_TOL) -> tuple:
    """One pass over the receivers of a stack of T trials, checking ranks
    and family relations; returns (checks, relations, passed, gains).

    ``scheme`` is stacked, and ``ext`` is stacked alike or one extension
    every trial shares. ``checks[t]`` holds trial t's ReceiverChecks in
    receiver order. Receivers whose desired and interference matrices have
    one shape share each batched SVD, over rows of (receiver, trial) pairs
    cut into batches by STACK_BYTES, receiver by receiver. Once a batch
    completes a receiver, the family relations at it are evaluated, those
    of one kind and operand shape in one residual call per batch. Each
    receiver's products H_kj V_j are formed once, when a batch first
    reaches it, into one (T, dim, total streams) array (its own streams,
    with gains through unit-norm precoder columns, then every other
    transmitter's in order), of which its desired, interference, joint and
    relation matrices are views, and dropped once its relations are
    evaluated.

    ``relations[t]`` holds trial t's RelationChecks in family order.
    Without gains every trial stays to the last receiver, and gains is None.
    With gains, a trial that fails a check or relation leaves the pass (its
    checks end with the first failing one), and ``gains[k][t]`` holds the
    squared singular values of receiver k's projected effective channel for
    every trial t of ``passed``, those that pass every check and relation.
    """
    T, K, dim = len(scheme.precoders[0]), scheme.K, ext.dim
    d = scheme.stream_counts
    streams = sum(d)
    order = [[k] + [j for j in range(K) if j != k] for k in range(K)]
    offsets = [dict(zip(o, accumulate((d[j] for j in o), initial=0))) for o in order]
    products = [None] * K

    def joint(k):
        if products[k] is None:
            products[k] = np.empty((T, dim, streams), dtype=complex)
            for j in order[k]:
                v = scheme.precoders[j]
                # the gains take the desired streams through unit-norm columns
                products[k][..., offsets[k][j]:offsets[k][j] + d[j]] = ext.apply(
                    k, j, equilibrate_columns(v) if j == k and with_gains else v)
        return products[k]

    listed = list(get_family(scheme.family).relations(K))
    # built per call from the module names, so whatever rebinds them sees it
    residual = {"equality": equality_residual, "subset": subset_residual,
                "span": span_residual}
    values = [[None] * len(listed) for _ in range(T)]
    live = [True] * T

    def relate(receivers):
        rows = [t for t in range(T) if live[t]]
        if not rows:
            return
        kinds = {}
        for i, (kind, k, _, jl, jr) in enumerate(listed):
            if k in receivers:
                kinds.setdefault((kind, d[jl], d[jr]), []).append(i)

        def operand(k, j):
            hv = products[k][..., offsets[k][j]:offsets[k][j] + d[j]]
            return hv if len(rows) == T else hv[rows]

        for (kind, dl, dr), members in kinds.items():
            tol = span_tol if kind == "span" else residual_tol
            # operands, temporaries of their size, a subset's (dl, dr) ranks
            for batch in _batches(members, 32 * len(rows) * (dim * (dl + dr) + dl * dr)):
                out = residual[kind](
                    np.concatenate([operand(listed[i][1], listed[i][3]) for i in batch]),
                    np.concatenate([operand(listed[i][1], listed[i][4]) for i in batch]))
                for i, row in zip(batch, out.reshape(len(batch), -1).tolist()):
                    for t, value in zip(rows, row):
                        values[t][i] = value
                        live[t] = live[t] and (not with_gains or value <= tol)

    groups = {}
    for k in range(K):
        groups.setdefault((d[k], streams - d[k]), []).append(k)
    checks = [{} for _ in range(T)]
    gains = tuple(np.empty((T, dk)) for dk in d) if with_gains else None
    for (dk, _), members in groups.items():
        rows = [(k, t) for k in members for t in range(T)]
        done = 0
        for batch in _batches(rows, _receiver_bytes(dim, streams)):
            done += len(batch)
            batch = [(k, t) for k, t in batch if live[t]]
            if batch:
                _check(batch, joint, T, dk, rank_tol, checks, live, gains)
            # receivers whose every row has been checked
            completed = [k for k in members[:done // T] if products[k] is not None]
            relate(completed)
            for k in completed:
                products[k] = None
    out = []
    for by_receiver in checks:
        row = tuple(by_receiver[k] for k in sorted(by_receiver))
        failed = [i for i, check in enumerate(row) if not check.ok]
        out.append(row[:failed[0] + 1] if with_gains and failed else row)
    relations = [tuple(RelationCheck(desc, k, kind, values[t][i],
                                     span_tol if kind == "span" else residual_tol)
                       for i, (kind, k, desc, _, _) in enumerate(listed)
                       if values[t][i] is not None)
                 for t in range(T)]
    passed = [t for t in range(T) if len(out[t]) == K and len(relations[t]) == len(listed)
              and all(c.ok for c in out[t] + relations[t])]
    return out, relations, passed, gains


def _check(batch, joint, T, dk, rank_tol, checks, live, gains) -> None:
    """Check the (receiver k, trial t) rows of a batch, ``joint(k)`` being
    receiver k's (T, dim, streams) products, desired streams first: set
    ``checks[t][k]`` and, unless gains is None, take each failing trial out
    of ``live`` and set the gains of the rows whose trials stay.

    Its matrices live only for this call, so that dropping a receiver's
    products frees them."""
    trials = {}
    for k, t in batch:
        trials.setdefault(k, []).append(t)
    # a view of receiver k's products when the batch is all of them
    parts = [joint(k) if len(ts) == T else joint(k)[ts] for k, ts in trials.items()]
    J = parts[0] if len(parts) == 1 else np.concatenate(parts)
    desired, interference = J[..., :dk], J[..., dk:]
    desired_rank = numerical_rank(desired, rank_tol)
    joint_rank = numerical_rank(J, rank_tol)
    if gains is not None:
        bases, interference_rank = complement_and_rank(interference, rank_tol)
    else:
        interference_rank = numerical_rank(interference, rank_tol)
    dim = J.shape[-2]
    for (k, t), dr, ir, jr in zip(batch, desired_rank.tolist(), interference_rank.tolist(),
                                  joint_rank.tolist()):
        checks[t][k] = ReceiverCheck(
            receiver=k, desired_streams=dk, desired_rank=dr, interference_rank=ir,
            joint_rank=jr, full_dim=dim)
        if gains is not None and not checks[t][k].ok:
            live[t] = False
    if gains is not None:
        _project(batch, [p for p, (_, t) in enumerate(batch) if live[t]], desired, bases,
                 gains)


def _project(batch, passing, desired, bases, gains) -> None:
    """Set ``gains[k][t]`` for the rows ``passing`` of a batch of (k, t)
    rows, given their desired matrices (through unit-norm precoder columns)
    and the complement bases of their interference: one batched SVD per
    interference rank.

    A passing check leaves dim - interference rank >= joint rank -
    interference rank = d_k basis columns for the desired streams.
    """
    by_rank = {}
    for p in passing:
        by_rank.setdefault(bases[p].shape[1], []).append(p)
    for group in by_rank.values():
        basis = np.stack([bases[p] for p in group])
        projected = basis.conj().swapaxes(-1, -2) @ desired[group]
        for p, g in zip(group, np.linalg.svd(projected, compute_uv=False) ** 2):
            k, t = batch[p]
            gains[k][t] = g


def _check_dimensions(scheme, ext) -> None:
    if scheme.K != ext.K:
        raise ShapeError(f"scheme has K={scheme.K}, channel has K={ext.K}")
    if scheme.precoders[0].shape[-2] != ext.dim:
        raise ShapeError(
            f"precoders act on {scheme.precoders[0].shape[-2]} dimensions, "
            f"channel extension has {ext.dim}")
    if scheme.stacked != ext.stacked or (
            scheme.stacked and len(scheme.precoders[0]) != len(ext.blocks)):
        raise ShapeError("a scheme and its extension must stack the same trials")


def check_alignment(scheme: PrecoderScheme, ext: ExtendedChannel,
                    rank_tol: float = RANK_TOL,
                    residual_tol: float = RESIDUAL_TOL,
                    span_tol: float = SPAN_TOL) -> AlignmentReport:
    """Measure every rank and alignment relation of a scheme.

    Args:
        scheme: precoders to verify, of one trial.
        ext: the extended channel they were built against (or any channel of
            matching dimensions).
        rank_tol: singular values below ``rank_tol`` times the largest do
            not count toward a rank.
        residual_tol: pass threshold for equality and subset relations.
        span_tol: pass threshold (sine of largest principal angle) for
            span-equality relations.

    Returns:
        An AlignmentReport; ``report.passed`` is True iff at every receiver
        the desired streams are separable from the interference and every
        family relation holds within tolerance.
    """
    _check_dimensions(scheme, ext)
    if scheme.stacked:
        raise ShapeError("check_alignment takes one trial")
    [receivers], [relations], _, _ = _pass(scheme[None], ext, False, rank_tol,
                                           residual_tol, span_tol)
    return AlignmentReport(
        family=scheme.family, K=scheme.K, M=ext.M, L=ext.L, rank_tol=rank_tol,
        residual_tol=residual_tol, receivers=receivers, relations=relations)


def _grid_rates(L, gains, rhos) -> np.ndarray:
    """Per-user rates of a stack of T trials at every total transmit power
    in ``rhos``, as a (T, len(rhos), K) array, from ``gains[k]``, the
    (T, d_k) squared singular values of receiver k's projected effective
    channels; ``L`` is the extension length.

    rate_k = sum over gains g of log2(1 + p_k g) / L, with
    p_k = (rho / K) * L / d_k per stream: one broadcast evaluation over a
    (trials x grid x streams) array per receiver. Rates are in bits per
    channel use (per extension slot), with unit noise variance.
    """
    rhos = np.asarray(rhos, dtype=float)
    if np.any(rhos < 0):
        raise ParameterError(
            f"transmit power must be nonnegative, got {rhos[rhos < 0][0]}")
    K = len(gains)
    out = np.empty(gains[0].shape[:-1] + (rhos.size, K))
    for k, g in enumerate(gains):
        p_k = (rhos / K) * L / g.shape[-1]
        out[..., k] = np.sum(np.log2(1.0 + p_k[:, None] * g[..., None, :]),
                             axis=-1) / L
    return out


def zf_rates(trials, rhos) -> list:
    """Zero-forcing rates of many trials over one power grid; the trials of
    each family and shape share one pass over the receivers and one
    evaluation of each kind of family relation.

    ``trials`` holds (scheme, ext) pairs, each one trial or a stack of them
    (a stacked scheme and extension, as a stacked build gives them); pairs
    of one family and shape are stacked together. ``rhos`` holds total
    transmit powers per orthogonal dimension, split equally over
    transmitters and then over each one's streams. Receiver k decodes its
    own streams jointly in the interference-free subspace: rate_k =
    log2 det(I + p_k G G^H) / L, with G the projected effective channel
    through unit-norm precoder columns and p_k = (rho / K) * L / d_k per
    stream. Returns, per trial, the trials of a stacked pair one by one,
    its per-user rates as a (len(rhos), K) array, or None when one of its
    receiver checks or family relations fails: a failed check means the
    construction is broken and any rate would be meaningless. The family
    relations at a receiver are evaluated for the trials that passed every
    check so far, once that receiver's checks are done.
    """
    groups, count = {}, 0
    for scheme, ext in trials:
        _check_dimensions(scheme, ext)
        size = len(scheme.precoders[0]) if scheme.stacked else 1
        # one family per stack: its relations are evaluated for the whole stack
        groups.setdefault((scheme.family, scheme.K, ext.M, ext.L, scheme.stream_counts),
                          []).append((range(count, count + size), scheme, ext))
        count += size
    out = [None] * count
    for members in groups.values():
        places = [place for span, _, _ in members for place in span]
        for place, rates in zip(places, _stack_rates(*_one_stack(members), rhos)):
            out[place] = rates
    return out


def _one_stack(members) -> tuple:
    """The stacked (scheme, ext) of the pairs of one family and shape; a
    stacked pair alone stays itself, and a trial alone becomes a view."""
    if len(members) == 1:
        _, scheme, ext = members[0]
        return (scheme, ext) if scheme.stacked else (scheme[None], ext)
    pairs = [(s, e) if s.stacked else (s[None], e[None]) for _, s, e in members]
    # concatenating keeps each row's memory layout, which decides the order
    # in which its column norms are summed
    precoders = tuple(np.concatenate(v) for v in zip(*(s.precoders for s, _ in pairs)))
    return (replace(pairs[0][0], precoders=precoders),
            replace(pairs[0][1], blocks=np.concatenate([e.blocks for _, e in pairs])))


def _stack_rates(scheme, ext, rhos) -> list:
    """Per trial of a stacked (scheme, ext): its rates over ``rhos``, or
    None when a receiver check or family relation fails."""
    _, _, passed, gains = _pass(scheme, ext, True)
    out = [None] * len(scheme.precoders[0])
    if passed:
        rates = _grid_rates(ext.L, tuple(g[passed] for g in gains), rhos)
        for t, trial in zip(passed, rates):
            out[t] = trial
    return out
