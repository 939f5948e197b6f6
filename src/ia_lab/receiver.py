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

Both entry points walk the receivers once, stacking each receiver's
interference once. :func:`check_alignment` takes values-only SVDs there.
:func:`zf_gains` runs the same checks, but takes one full-U SVD of the
interference, which gives the report's interference rank and the basis of
its orthogonal complement from the same singular values; receiver k's gains
(the squared singular values of its projected effective channel) are taken
right after its check, and none after a check fails. The geometry does not
depend on the transmit power, so :meth:`ZfGains.grid_rates` evaluates a
whole SNR grid from the gains in one broadcast per receiver.
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


def _receiver(scheme, ext, k, rank_tol, with_gains):
    """Rank bookkeeping at receiver k, from one stacking of its interference,
    and with ``with_gains`` its zero-forcing gains (None if its check fails).

    The desired and joint ranks come from values-only SVDs; the joint stack
    is a temporary and is gone before the interference SVD. That SVD is
    values-only too unless gains are wanted: then one full-U SVD gives both
    the interference rank and the complement basis the gains project onto.
    """
    v = scheme.precoders[k]
    desired = ext.apply(k, k, v)
    interference = _interference_stack(scheme, ext, k)
    desired_rank = numerical_rank(desired, rank_tol)
    joint_rank = numerical_rank(np.hstack([desired, interference]), rank_tol)
    if with_gains:
        basis, interference_rank = complement_and_rank(interference, rank_tol)
    else:
        interference_rank = numerical_rank(interference, rank_tol)
    check = ReceiverCheck(receiver=k, desired_streams=v.shape[1],
                          desired_rank=desired_rank,
                          interference_rank=interference_rank,
                          joint_rank=joint_rank, full_dim=ext.dim)
    if not (with_gains and check.ok):
        return check, None
    # a passing check leaves basis.shape[1] = dim - interference rank >=
    # joint rank - interference rank = d_k columns for the desired streams
    effective = basis.conj().T @ ext.apply(k, k, v / np.linalg.norm(v, axis=0))
    return check, np.linalg.svd(effective, compute_uv=False) ** 2


def _receiver_pass(scheme, ext, rank_tol, with_gains):
    """(checks, gains) over every receiver in turn; gains is None unless
    ``with_gains`` and every check passes, and none are computed after the
    first failing check."""
    checks = []
    gains = [] if with_gains else None  # None from the first failing check on
    for k in range(scheme.K):
        check, g = _receiver(scheme, ext, k, rank_tol, gains is not None)
        checks.append(check)
        if g is None:
            gains = None
        else:
            gains.append(g)
    return tuple(checks), None if gains is None else tuple(gains)


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
    receivers, _ = _receiver_pass(scheme, ext, rank_tol, with_gains=False)
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
    """Power-independent zero-forcing geometry of one scheme on one channel.

    ``gains[k]`` holds the squared singular values of receiver k's projected
    effective channel, one per desired stream; ``L`` is the extension
    length. Rates at any power follow from these alone.
    """

    L: int
    gains: tuple

    def grid_rates(self, rhos) -> np.ndarray:
        """Per-user rates at every total transmit power in ``rhos``, as a
        (len(rhos), K) array.

        rate_k = sum over gains g of log2(1 + p_k g) / L, with
        p_k = (rho / K) * L / d_k per stream: one broadcast evaluation over a
        (grid x streams) array per receiver.
        """
        rhos = np.asarray(rhos, dtype=float)
        if np.any(rhos < 0):
            raise ParameterError(
                f"transmit power must be nonnegative, got {rhos[rhos < 0][0]}")
        K, L = len(self.gains), self.L
        out = np.empty((rhos.size, K))
        for k, gains in enumerate(self.gains):
            p_k = (rhos / K) * L / gains.size
            out[:, k] = np.sum(np.log2(1.0 + p_k[:, None] * gains), axis=1) / L
        return out

    def rates(self, rho: float) -> RateResult:
        """Rates at total transmit power ``rho``: :meth:`grid_rates` at one
        point."""
        rates = self.grid_rates([rho])[0]
        K, L = len(self.gains), self.L
        return RateResult(rho=float(rho), rates=tuple(rates.tolist()),
                          stream_powers=tuple((rho / K) * L / gains.size
                                              for gains in self.gains))


def _alignment_and_gains(scheme, ext, rank_tol=RANK_TOL, report=None):
    """(report, gains): the alignment report and, when it passes, the
    zero-forcing gains, from one pass over the receivers.

    A given ``report`` stands in for the family relations: only the
    receiver checks are re-derived, since the gains need their SVDs anyway.
    ``gains`` is None when the report or a receiver check fails.
    """
    _check_dimensions(scheme, ext)
    if report is not None and not report.passed:
        return report, None
    receivers, gains = _receiver_pass(scheme, ext, rank_tol, with_gains=True)
    if report is None:
        report = _report(scheme, ext, receivers, rank_tol, RESIDUAL_TOL, SPAN_TOL)
    if gains is None or not report.passed:
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
