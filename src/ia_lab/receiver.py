"""Zero-forcing reception: alignment verification and achievable rates.

The checker measures, at every receiver, the rank of the stacked
interference, of the desired signal, and of both together, and evaluates the
family-specific alignment relations (exact equalities, column-subset
containments, span equalities). Rates are computed by projecting onto the
orthogonal complement of the interference span and jointly decoding the
desired streams there: projection keeps the noise white, so the rate is a
log-det over the projected effective channel.

All channel products go through ``ExtendedChannel.apply``, which works on
the diagonal blocks and never forms the dense block-diagonal matrices.

Every entry point is one pass over the receivers for a stack of trials of
one shape, each trial a scheme and its extended channel.
:func:`check_alignment` and :func:`zf_gains` run it on a stack of one;
:func:`zf_rates_stack`, which sweeps use, on many trials at once. At
receiver k the pass stacks the desired, joint and interference matrices of
every trial still in the stack and takes each kind of rank from one batched
SVD. :func:`check_alignment` takes values-only SVDs and keeps every trial
to the last receiver, so its report holds them all. With gains, one batched
full-U SVD of the interference gives the interference ranks and the bases
of their orthogonal complements from the same singular values; trials are
grouped by interference rank, and each group's projected effective
channels take one batched SVD whose squared singular values are the
gains. A trial that fails a receiver check leaves the stack at once (fail
fast): it gets no further receivers and no family relations. Every trial
gets, bit for bit, the answer it gets alone. The geometry does not depend
on the transmit power, so :meth:`ZfGains.grid_rates` evaluates a whole SNR
grid, for every trial of a stack, in one broadcast per receiver.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .channels import ExtendedChannel
from .errors import AlignmentError, ParameterError, ShapeError
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


def _family_relations(scheme, ext, residual_tol, span_tol):
    """Residuals of the alignment relations promised by the scheme family."""
    def HV(k, j):
        return ext.apply(k, j, scheme.precoders[j])

    # built per call from the module names, so whatever rebinds them sees it
    residual = {"equality": equality_residual, "subset": subset_residual,
                "span": span_residual}
    return tuple(RelationCheck(desc, rx, kind, residual[kind](left, right),
                               span_tol if kind == "span" else residual_tol)
                 for kind, rx, desc, left, right
                 in get_family(scheme.family).relations(scheme.K, HV))


def _check_dimensions(scheme, ext) -> None:
    if scheme.K != ext.K:
        raise ShapeError(f"scheme has K={scheme.K}, channel has K={ext.K}")
    if scheme.precoders[0].shape[0] != ext.dim:
        raise ShapeError(
            f"precoders act on {scheme.precoders[0].shape[0]} dimensions, "
            f"channel extension has {ext.dim}")


def _report(scheme, ext, receivers, rank_tol, residual_tol,
            span_tol) -> AlignmentReport:
    return AlignmentReport(
        family=scheme.family, K=scheme.K, M=ext.M, L=ext.L, rank_tol=rank_tol,
        residual_tol=residual_tol, receivers=receivers,
        relations=_family_relations(scheme, ext, residual_tol, span_tol))


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
    return _report(scheme, ext, receivers, rank_tol, residual_tol, span_tol)


@dataclass(frozen=True)
class RateResult:
    """Per-user achievable rates of zero-forcing reception.

    Rates are in bits per channel use (per extension slot). ``rho`` is the
    total transmit power per orthogonal dimension with unit noise variance,
    split equally over transmitters and then over each one's streams.
    """

    rho: float
    rates: tuple
    stream_powers: tuple

    @property
    def sum_rate(self) -> float:
        return float(sum(self.rates))


@dataclass(frozen=True)
class ZfGains:
    """Power-independent zero-forcing geometry of one scheme on one channel,
    or of a stack of trials of one shape.

    ``gains[k]`` holds the squared singular values of receiver k's projected
    effective channel, one per desired stream, with a leading trial axis for
    a stack; ``L`` is the extension length. Rates at any power follow from
    these alone.
    """

    L: int
    gains: tuple

    def grid_rates(self, rhos) -> np.ndarray:
        """Per-user rates at every total transmit power in ``rhos``, as a
        (len(rhos), K) array, or (T, len(rhos), K) for a stack of T trials.

        rate_k = sum over gains g of log2(1 + p_k g) / L, with
        p_k = (rho / K) * L / d_k per stream: one broadcast evaluation over a
        (trials x grid x streams) array per receiver.
        """
        rhos = np.asarray(rhos, dtype=float)
        if np.any(rhos < 0):
            raise ParameterError(
                f"transmit power must be nonnegative, got {rhos[rhos < 0][0]}")
        K, L = len(self.gains), self.L
        out = np.empty(self.gains[0].shape[:-1] + (rhos.size, K))
        for k, gains in enumerate(self.gains):
            p_k = (rhos / K) * L / gains.shape[-1]
            out[..., k] = np.sum(np.log2(1.0 + p_k[:, None] * gains[..., None, :]),
                                 axis=-1) / L
        return out

    def rates(self, rho: float) -> RateResult:
        """Rates at total transmit power ``rho``: :meth:`grid_rates` at one
        point (one trial only)."""
        rates = self.grid_rates([rho])[0]
        K, L = len(self.gains), self.L
        return RateResult(rho=float(rho), rates=tuple(rates.tolist()),
                          stream_powers=tuple((rho / K) * L / gains.size
                                              for gains in self.gains))


def _alignment_and_gains(scheme, ext, rank_tol=RANK_TOL, report=None):
    """(report, gains): the alignment report and, when it passes, the
    zero-forcing gains, from the pass with gains on a stack of one.

    A given ``report`` stands in for the family relations: only the
    receiver checks are re-derived, since the gains need their SVDs anyway.
    That pass stops at a failing receiver check; the report is then the
    given one or :func:`check_alignment`'s. ``gains`` is None when the
    report or a receiver check fails.
    """
    _check_dimensions(scheme, ext)
    if report is not None and not report.passed:
        return report, None
    [(receivers, gains)] = _receiver_pass([(scheme, ext)], rank_tol, with_gains=True)
    if gains is None:
        if report is None:
            report = check_alignment(scheme, ext, rank_tol)
        return report, None
    if report is None:
        report = _report(scheme, ext, receivers, rank_tol, RESIDUAL_TOL, SPAN_TOL)
    if not report.passed:
        return report, None
    return report, ZfGains(L=ext.L, gains=gains)


def zf_gains(scheme: PrecoderScheme, ext: ExtendedChannel,
             report: AlignmentReport = None,
             rank_tol: float = RANK_TOL) -> ZfGains:
    """Project out the interference at every receiver, once for all powers.

    Receiver k builds an orthonormal basis of the orthogonal complement of
    its stacked interference, projects (noise stays white), and keeps the
    squared singular values of G, the projected effective channel through
    unit-norm precoder columns. The alignment checks run in the same pass
    over the receivers (see :func:`check_alignment`); a passing ``report``
    given by the caller replaces only the family relations.

    Refuses to compute when the alignment checks fail; a failed check means
    the construction is broken and any rate would be meaningless.
    """
    _, gains = _alignment_and_gains(scheme, ext, rank_tol, report)
    if gains is None:
        raise AlignmentError(
            "alignment checks fail; refusing to compute zero-forcing rates")
    return gains


def zf_rates(scheme: PrecoderScheme, ext: ExtendedChannel, rho: float,
             report: AlignmentReport = None,
             rank_tol: float = RANK_TOL) -> RateResult:
    """Rates after projecting out the interference at every receiver.

    Receiver k decodes its own streams jointly in the interference-free
    subspace (see :func:`zf_gains`): rate_k = log2 det(I + p_k G G^H) / L
    with p_k = (rho / K) * L / d_k per stream.

    Refuses to compute when the alignment report fails; a failed report
    means the construction is broken and any rate would be meaningless.
    """
    return zf_gains(scheme, ext, report, rank_tol).rates(rho)


def zf_rates_stack(trials, rhos) -> list:
    """Zero-forcing rates of many trials over one power grid; the trials of
    each shape share one pass over the receivers.

    ``trials`` holds (scheme, ext) pairs. Returns, per trial, its per-user
    rates as a (len(rhos), K) array, bit for bit
    ``zf_gains(scheme, ext).grid_rates(rhos)``, or None when one of its
    receiver checks or family relations fails. The family relations of a
    trial are evaluated only when its receiver checks all pass.
    """
    out = [None] * len(trials)
    shapes = {}
    for i, (scheme, ext) in enumerate(trials):
        _check_dimensions(scheme, ext)
        shapes.setdefault((scheme.K, ext.M, ext.L, scheme.stream_counts), []).append(i)
    for members in shapes.values():
        stack = [trials[i] for i in members]
        passed = []
        for i, (scheme, ext), (_, gains) in zip(
                members, stack, _receiver_pass(stack, RANK_TOL, with_gains=True)):
            if gains is None:
                continue
            if all(r.ok for r in _family_relations(scheme, ext, RESIDUAL_TOL, SPAN_TOL)):
                passed.append((i, gains))
        if passed:
            stacked = ZfGains(L=stack[0][1].L, gains=tuple(
                np.stack(per_receiver) for per_receiver in zip(*(g for _, g in passed))))
            for (i, _), rates in zip(passed, stacked.grid_rates(rhos)):
                out[i] = rates
    return out
