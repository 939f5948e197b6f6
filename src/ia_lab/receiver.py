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

The pass works on a stack of trials of one family and shape. At receiver
k it stacks the desired, joint and interference matrices of every trial
still in the stack and takes each kind of rank from one batched SVD; the
family relations then take one evaluation per relation for the whole
stack, with batched norms and one batched SVD per side of a span.
:func:`check_alignment` takes values-only SVDs on a stack of one and keeps
it to the last receiver, so its report holds them all. :func:`zf_rates`
groups its trials by family and shape; one batched full-U SVD of the
interference gives the interference ranks and the bases of their
orthogonal complements from the same singular values, trials are grouped
by interference rank, and each group's projected effective channels take
one batched SVD whose squared singular values are the gains. A trial that
fails a receiver check leaves the stack at once (fail fast): it gets no
further receivers and no family relations. Every trial gets, bit for bit,
the answer it gets alone. The geometry does not depend on the transmit
power, so the whole grid, for every trial of a stack, takes one broadcast
per receiver.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .channels import ExtendedChannel
from .errors import ParameterError, ShapeError
from .families import get_family
from .linalg import (RANK_TOL, complement_and_rank, equality_residual,
                     numerical_rank, span_residual, subset_residual)
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


def _interference_stack(scheme, ext, k) -> np.ndarray:
    return np.hstack([ext.apply(k, j, scheme.precoders[j])
                      for j in range(scheme.K) if j != k])


def _stack(arrays) -> np.ndarray:
    """``np.stack(arrays)``, but a view for a stack of one, so a trial alone
    (the large ones) costs no copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _receiver_pass(trials, rank_tol, with_gains) -> list:
    """One pass over the receivers for a stack of (scheme, ext) trials of
    one shape; returns each trial's (checks, gains).

    Without gains every trial stays to the last receiver, and gains is
    None. With gains, a trial whose check fails leaves the stack: its
    checks end with the failing one and its gains are None; every other
    trial gets one array of gains per receiver.
    """
    K = trials[0][0].K
    checks = [[] for _ in trials]
    gains = [[] for _ in trials] if with_gains else None
    live = list(range(len(trials)))
    for k in range(K):
        if not live:
            break
        live = _receiver(trials, live, k, rank_tol, checks, gains)
    if gains is None:
        return [(tuple(c), None) for c in checks]
    return [(tuple(c), tuple(g) if len(g) == K else None) for c, g in zip(checks, gains)]


def _receiver(trials, live, k, rank_tol, checks, gains) -> list:
    """Receiver k for the trials ``live``: appends each one's check to
    ``checks[t]`` and, unless ``gains`` is None, each passing one's gains to
    ``gains[t]``. Returns the trials that stay in the stack: all of them
    without gains, the passing ones with.

    Its stacks live only for this call, and the joint stack is gone before
    the interference SVD.
    """
    stack = [trials[t] for t in live]
    desired = _stack([ext.apply(k, k, scheme.precoders[k]) for scheme, ext in stack])
    interference = _stack([_interference_stack(scheme, ext, k) for scheme, ext in stack])
    desired_rank = numerical_rank(desired, rank_tol)
    joint_rank = numerical_rank(np.concatenate([desired, interference], axis=-1), rank_tol)
    if gains is None:
        interference_rank = numerical_rank(interference, rank_tol)
    else:
        bases, interference_rank = complement_and_rank(interference, rank_tol)
    for t, d, i, j in zip(live, desired_rank.tolist(), interference_rank.tolist(),
                          joint_rank.tolist()):
        checks[t].append(ReceiverCheck(
            receiver=k, desired_streams=desired.shape[-1], desired_rank=d,
            interference_rank=i, joint_rank=j, full_dim=trials[t][1].dim))
    if gains is None:
        return live
    passing = [p for p, t in enumerate(live) if checks[t][-1].ok]
    _project(trials, k, [live[p] for p in passing], [bases[p] for p in passing], gains)
    return [live[p] for p in passing]


def _project(trials, k, members, bases, gains) -> None:
    """Append receiver k's gains to ``gains[t]`` for every trial t of
    ``members``, whose checks passed, given the complement bases of their
    interference: one batched SVD per interference rank.

    A passing check leaves dim - interference rank >= joint rank -
    interference rank = d_k basis columns for the desired streams.
    """
    by_rank = {}
    for t, basis in zip(members, bases):
        by_rank.setdefault(basis.shape[1], []).append((t, basis))
    for group in by_rank.values():
        basis = _stack([b for _, b in group])
        # each precoder is normalized alone, so its column norms are summed
        # in its own memory layout, as for a trial alone
        effective = _stack([ext.apply(k, k, v / np.linalg.norm(v, axis=0))
                            for ext, v in ((trials[t][1], trials[t][0].precoders[k])
                                           for t, _ in group)])
        projected = basis.conj().swapaxes(-1, -2) @ effective
        for (t, _), g in zip(group, np.linalg.svd(projected, compute_uv=False) ** 2):
            gains[t].append(g)


def _family_relations(trials, residual_tol, span_tol) -> list:
    """Per trial of a stack of (scheme, ext) trials of one family and
    shape, the residuals of the alignment relations its family promises;
    each relation is evaluated once for the whole stack."""
    def HV(k, j):
        return _stack([ext.apply(k, j, scheme.precoders[j]) for scheme, ext in trials])

    # built per call from the module names, so whatever rebinds them sees it
    residual = {"equality": equality_residual, "subset": subset_residual,
                "span": span_residual}
    scheme = trials[0][0]
    evaluated = [(desc, rx, kind, residual[kind](left, right).tolist(),
                  span_tol if kind == "span" else residual_tol)
                 for kind, rx, desc, left, right
                 in get_family(scheme.family).relations(scheme.K, HV)]
    return [tuple(RelationCheck(desc, rx, kind, values[t], tol)
                  for desc, rx, kind, values, tol in evaluated)
            for t in range(len(trials))]


def _check_dimensions(scheme, ext) -> None:
    if scheme.K != ext.K:
        raise ShapeError(f"scheme has K={scheme.K}, channel has K={ext.K}")
    if scheme.precoders[0].shape[0] != ext.dim:
        raise ShapeError(
            f"precoders act on {scheme.precoders[0].shape[0]} dimensions, "
            f"channel extension has {ext.dim}")


def check_alignment(scheme: PrecoderScheme, ext: ExtendedChannel,
                    rank_tol: float = RANK_TOL,
                    residual_tol: float = RESIDUAL_TOL,
                    span_tol: float = SPAN_TOL) -> AlignmentReport:
    """Measure every rank and alignment relation of a scheme.

    Args:
        scheme: precoders to verify.
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
    [(receivers, _)] = _receiver_pass([(scheme, ext)], rank_tol, with_gains=False)
    return AlignmentReport(
        family=scheme.family, K=scheme.K, M=ext.M, L=ext.L, rank_tol=rank_tol,
        residual_tol=residual_tol, receivers=receivers,
        relations=_family_relations([(scheme, ext)], residual_tol, span_tol)[0])


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
    evaluation of each family relation.

    ``trials`` holds (scheme, ext) pairs; ``rhos`` holds total transmit
    powers per orthogonal dimension, split equally over transmitters and
    then over each one's streams. Receiver k decodes its own streams
    jointly in the interference-free subspace: rate_k =
    log2 det(I + p_k G G^H) / L, with G the projected effective channel
    through unit-norm precoder columns and p_k = (rho / K) * L / d_k per
    stream. Returns, per trial, its per-user rates as a (len(rhos), K)
    array, or None when one of its receiver checks or family relations
    fails: a failed check means the construction is broken and any rate
    would be meaningless. The family relations of a trial are evaluated
    only when its receiver checks all pass.
    """
    out = [None] * len(trials)
    shapes = {}
    for i, (scheme, ext) in enumerate(trials):
        _check_dimensions(scheme, ext)
        # one family per stack: its relations are evaluated for the whole stack
        shapes.setdefault((scheme.family, scheme.K, ext.M, ext.L, scheme.stream_counts),
                          []).append(i)
    for members in shapes.values():
        stack = [trials[i] for i in members]
        passed = [(i, trial, gains) for i, trial, (_, gains) in zip(
            members, stack, _receiver_pass(stack, RANK_TOL, with_gains=True))
                  if gains is not None]
        if passed:
            relations = _family_relations([trial for _, trial, _ in passed],
                                          RESIDUAL_TOL, SPAN_TOL)
            passed = [(i, gains) for (i, _, gains), checks in zip(passed, relations)
                      if all(r.ok for r in checks)]
        if passed:
            stacked = tuple(np.stack(per_receiver)
                            for per_receiver in zip(*(g for _, g in passed)))
            for (i, _), rates in zip(passed, _grid_rates(stack[0][1].L, stacked, rhos)):
                out[i] = rates
    return out
