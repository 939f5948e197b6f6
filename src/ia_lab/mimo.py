"""Three-user MIMO alignment precoders for constant channels.

With M antennas per node and a single frequency slot, transmitter 1 signals
along eigenvectors of the M x M closed-loop map of the cross links; the
other two precoders are solved from the exact alignment equalities at
receivers 2 and 3. Even M needs no extension (M/2 streams each); odd M uses
a two-slot constant-time extension and an interleaved eigenvector layout to
fit M streams per user into 2M dimensions.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelSet, ExtendedChannel, extend_channel
from .errors import DegeneracyError, ParameterError, ShapeError, SingularChannelError
from .schemes import PrecoderScheme, full_rank_scheme

EIGENBASIS_COND_CAP = 1e8
EIGENVALUE_GAP_TOL = 1e-10


def _solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as err:
        raise SingularChannelError(f"{what} is singular") from err


def loop_matrix(ch: ChannelSet) -> np.ndarray:
    """M x M map a transmit direction picks up around the cross-link loop.

    inv(H31) H32 inv(H12) H13 inv(H23) H21 in 1-based user indices. Its
    eigenvectors are directions whose interference footprints at receiver 1
    from transmitters 2 and 3 coincide once the exact alignment equalities
    at receivers 2 and 3 are enforced.
    """
    if ch.K != 3:
        raise ShapeError("loop_matrix needs exactly 3 users")
    H = lambda k, j: ch.coeffs[k, j, 0]
    return (_solve(H(2, 0), H(2, 1), "H31")
            @ _solve(H(0, 1), H(0, 2), "H12")
            @ _solve(H(1, 2), H(1, 0), "H23"))


def sorted_eigenbasis(matrix: np.ndarray) -> tuple:
    """Full eigenbasis sorted by |eigenvalue| descending, phase ascending.

    Returns (eigenvalues, eigenvectors) with unit-norm eigenvector columns.
    Raises DegeneracyError when the basis is ill conditioned or eigenvalues
    collide; random continuous channels hit neither almost surely, so a
    failure here signals structured input.
    """
    values, vectors = np.linalg.eig(matrix)
    order = np.lexsort((np.angle(values), -np.abs(values)))
    values, vectors = values[order], vectors[:, order]
    if np.linalg.cond(vectors) > EIGENBASIS_COND_CAP:
        raise DegeneracyError("eigenbasis condition number exceeds cap")
    gaps = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(gaps, np.inf)
    if np.min(gaps) <= EIGENVALUE_GAP_TOL * np.max(np.abs(values)):
        raise DegeneracyError("repeated eigenvalues; every direction aligns trivially")
    return values, vectors


def build_mimo_even(ch: ChannelSet) -> PrecoderScheme:
    """Even-M precoders on the unextended constant channel.

    Transmitter 1 uses the first M/2 eigenvectors of the loop map; the
    others are solved from the exact equalities H21 V1 = H23 V3 and
    H31 V1 = H32 V2, leaving M/2 interference dimensions at every receiver.
    """
    M = ch.M
    if M < 2 or M % 2:
        raise ParameterError(f"even construction needs even M >= 2, got M={M}")
    if ch.F != 1:
        raise ShapeError("constant-channel construction expects F=1")
    _, vectors = sorted_eigenbasis(loop_matrix(ch))
    H = lambda k, j: ch.coeffs[k, j, 0]
    v_tx1 = vectors[:, : M // 2]
    v_tx2 = _solve(H(2, 1), H(2, 0) @ v_tx1, "H32")
    v_tx3 = _solve(H(1, 2), H(1, 0) @ v_tx1, "H23")
    return full_rank_scheme(DegeneracyError, family="mimo", K=3, M=M, L=1,
                            precoders=(v_tx1, v_tx2, v_tx3), parity="even")


def interleaved_seed(vectors: np.ndarray) -> np.ndarray:
    """2M x M seed precoder from an eigenbasis, for the two-slot extension.

    Column j < M-1 carries eigenvector j in the first slot when j is even
    and in the second slot when j is odd (zero elsewhere); the last column
    carries the last eigenvector in both slots. Every column is an
    eigenvector of the block-diagonal extended loop map, and the slot
    interleaving keeps the desired signal clear of the interference span.
    """
    M = vectors.shape[0]
    seed = np.zeros((2 * M, M), dtype=complex)
    for j in range(M - 1):
        offset = 0 if j % 2 == 0 else M
        seed[offset:offset + M, j] = vectors[:, j]
    seed[:M, M - 1] = vectors[:, M - 1]
    seed[M:, M - 1] = vectors[:, M - 1]
    return seed


def build_mimo_odd(ch: ChannelSet, ext: ExtendedChannel = None) -> PrecoderScheme:
    """Odd-M precoders over a two-slot constant-time extension.

    Same loop map and alignment equalities as the even case, applied to the
    block-diagonal two-slot extension, with the interleaved eigenvector seed
    at transmitter 1. Each user gets M streams over 2 slots, so the total
    stays 3M/2 per channel use. ``ext`` is that extension of ``ch`` (see
    :func:`odd_extension`) when the caller already holds it; otherwise it
    is built here.
    """
    M = ch.M
    if M < 3 or M % 2 == 0:
        raise ParameterError(f"odd construction needs odd M >= 3, got M={M}")
    if ch.F != 1:
        raise ShapeError("constant-channel construction expects F=1")
    _, vectors = sorted_eigenbasis(loop_matrix(ch))
    if ext is None:
        ext = odd_extension(ch)
    v_tx1 = interleaved_seed(vectors)
    v_tx2 = _solve(ext.matrix(2, 1), ext.apply(2, 0, v_tx1), "extended H32")
    v_tx3 = _solve(ext.matrix(1, 2), ext.apply(1, 0, v_tx1), "extended H23")
    return full_rank_scheme(DegeneracyError, family="mimo", K=3, M=M, L=2,
                            precoders=(v_tx1, v_tx2, v_tx3), parity="odd")


def odd_extension(ch: ChannelSet) -> ExtendedChannel:
    """The two-slot constant-time extension the odd-M construction uses."""
    return extend_channel(ch, 2, mode="constant-time")


def mimo_extension(ch: ChannelSet, scheme: PrecoderScheme) -> ExtendedChannel:
    """The extension a MIMO scheme was built against (L=1 even, L=2 odd)."""
    return extend_channel(ch, scheme.L, mode="constant-time")
