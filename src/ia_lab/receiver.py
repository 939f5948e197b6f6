"""Zero-forcing reception: alignment verification and achievable rates.

The checker measures, at every receiver, the rank of the stacked
interference, of the desired signal, and of both together, and evaluates the
family-specific alignment relations (exact equalities, column-subset
containments, span equalities). Rates are computed by projecting onto the
orthogonal complement of the interference span and jointly decoding the
desired streams there: projection keeps the noise white, so the rate is a
log-det over the projected effective channel.

All channel products go through ``ExtendedChannel.apply``, which works on
the diagonal blocks and never forms the dense block-diagonal matrices. The
interference geometry does not depend on the transmit power, so it is
computed once per trial: :func:`zf_gains` finds each receiver's
interference-free subspace and the squared singular values of its
projected effective channel, and :meth:`ZfGains.rates` turns those cached
gains into rates for any number of SNR points.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .channels import ExtendedChannel
from .errors import AlignmentError, ParameterError, ShapeError
from .families import get_family
from .linalg import (RANK_TOL, equality_residual, numerical_rank,
                     orthonormal_complement, span_residual, subset_residual)
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
    if scheme.K != ext.K:
        raise ShapeError(f"scheme has K={scheme.K}, channel has K={ext.K}")
    if scheme.precoders[0].shape[0] != ext.dim:
        raise ShapeError(
            f"precoders act on {scheme.precoders[0].shape[0]} dimensions, "
            f"channel extension has {ext.dim}")

    receivers = []
    for k in range(scheme.K):
        desired = ext.apply(k, k, scheme.precoders[k])
        interference = _interference_stack(scheme, ext, k)
        joint = np.hstack([desired, interference])
        receivers.append(ReceiverCheck(
            receiver=k,
            desired_streams=scheme.precoders[k].shape[1],
            desired_rank=numerical_rank(desired, rank_tol),
            interference_rank=numerical_rank(interference, rank_tol),
            joint_rank=numerical_rank(joint, rank_tol),
            full_dim=ext.dim,
        ))
    relations = _family_relations(scheme, ext, residual_tol, span_tol)
    return AlignmentReport(family=scheme.family, K=scheme.K, M=ext.M, L=ext.L,
                           rank_tol=rank_tol, residual_tol=residual_tol,
                           receivers=tuple(receivers), relations=relations)


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

    def rates(self, rho: float) -> RateResult:
        """Rates at total transmit power ``rho``.

        rate_k = sum over gains g of log2(1 + p_k g) / L, with
        p_k = (rho / K) * L / d_k per stream.
        """
        if rho < 0:
            raise ParameterError(f"transmit power must be nonnegative, got {rho}")
        K, L = len(self.gains), self.L
        rates = []
        powers = []
        for gains in self.gains:
            p_k = (rho / K) * L / gains.size
            rates.append(float(np.sum(np.log2(1.0 + p_k * gains)) / L))
            powers.append(p_k)
        return RateResult(rho=float(rho), rates=tuple(rates),
                          stream_powers=tuple(powers))


def zf_gains(scheme: PrecoderScheme, ext: ExtendedChannel,
             report: AlignmentReport = None,
             rank_tol: float = RANK_TOL) -> ZfGains:
    """Project out the interference at every receiver, once for all powers.

    Receiver k builds an orthonormal basis of the orthogonal complement of
    its stacked interference, projects (noise stays white), and keeps the
    squared singular values of G, the projected effective channel through
    unit-norm precoder columns.

    Refuses to compute when the alignment report fails; a failed report
    means the construction is broken and any rate would be meaningless.
    """
    if report is None:
        report = check_alignment(scheme, ext, rank_tol=rank_tol)
    if not report.passed:
        raise AlignmentError(
            "alignment checks fail; refusing to compute zero-forcing rates")

    gains = []
    for k in range(scheme.K):
        interference = _interference_stack(scheme, ext, k)
        basis = orthonormal_complement(interference, rank_tol)
        d_k = scheme.precoders[k].shape[1]
        if basis.shape[1] < d_k:
            raise AlignmentError(
                f"receiver {k + 1}: {d_k} streams exceed the "
                f"{basis.shape[1]}-dimensional interference-free subspace")
        v = scheme.precoders[k]
        v_unit = v / np.linalg.norm(v, axis=0)
        effective = basis.conj().T @ ext.apply(k, k, v_unit)
        gains.append(np.linalg.svd(effective, compute_uv=False) ** 2)
    return ZfGains(L=ext.L, gains=tuple(gains))


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
