"""Three-user MIMO alignment precoders for constant channels.

With M antennas per node and a single frequency slot, transmitter 1 signals
along eigenvectors of the M x M closed-loop map of the cross links; the
other two precoders are solved from the exact alignment equalities at
receivers 2 and 3. Each builder takes a constant-time extension: even M the
one-slot one, the constant channel itself (M/2 streams each); odd M the
two-slot one and an interleaved eigenvector layout to fit M streams per user
into 2M dimensions. Every step (solves, eigendecomposition, checks) also
runs over a stack of trials at once.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelSet
from .errors import DegeneracyError, ParameterError, ShapeError, SingularChannelError
from .schemes import TrialStack, full_rank_schemes

EIGENBASIS_COND_CAP = 1e8
EIGENVALUE_GAP_TOL = 1e-10


def _solve(stack: TrialStack, *systems) -> np.ndarray:
    """Solutions of (a, b, name) systems over a stacked build's rows, in one
    ``np.linalg.solve``; on a singular matrix each is solved alone, a singular
    one reads zeros, and its trial fails naming its first singular matrix."""
    a, b, names = zip(*systems)
    a, b = np.concatenate(a), np.concatenate(b)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.zeros(b.shape, dtype=complex)
        ok = np.ones(len(b), dtype=bool)
        for r in range(len(b)):
            try:
                x[r] = np.linalg.solve(a[r], b[r])
            except np.linalg.LinAlgError:
                ok[r] = False
        for what, fine in zip(names, ok.reshape(len(names), -1)):
            stack.fail(fine, SingularChannelError, f"{what} is singular")
    return x.reshape(len(names), -1, *b.shape[1:])


def _loop_matrix(coeffs: np.ndarray, stack: TrialStack) -> np.ndarray:
    """Loop maps of a build's (T, 3, 3, F, M, M) coefficients, from slot 1."""
    if coeffs.shape[1] != 3:
        raise ShapeError("loop_matrix needs exactly 3 users")
    H = lambda k, j: coeffs[:, k, j, 0]
    x31, x12, x23 = _solve(stack, (H(2, 0), H(2, 1), "H31"), (H(0, 1), H(0, 2), "H12"),
                           (H(1, 2), H(1, 0), "H23"))
    return x31 @ x12 @ x23


def loop_matrix(ch: ChannelSet) -> np.ndarray:
    """M x M map a transmit direction picks up around the cross-link loop.

    inv(H31) H32 inv(H12) H13 inv(H23) H21 in 1-based user indices. Its
    eigenvectors are directions whose interference footprints at receiver 1
    from transmitters 2 and 3 coincide once the exact alignment equalities
    at receivers 2 and 3 are enforced.
    """
    trials = ch if ch.stacked else ch[None]
    stack = TrialStack(len(trials.coeffs))
    return stack.one(_loop_matrix(trials.coeffs, stack))


def _sorted_eigenbasis(matrices: np.ndarray, stack: TrialStack) -> tuple:
    values, vectors = np.linalg.eig(matrices)
    order = np.lexsort((np.angle(values), -np.abs(values)), axis=-1)
    rows = np.arange(len(order))[:, None]
    values = values[rows, order]
    # each basis in column-major layout, as indexing the columns of one
    # matrix lays them out
    vectors = vectors.swapaxes(-1, -2)[rows, order].swapaxes(-1, -2)
    # np.linalg.cond's ratio, without its checks for empty or NaN input
    s = np.linalg.svd(vectors, compute_uv=False)
    stack.fail(~(s[:, 0] / s[:, -1] > EIGENBASIS_COND_CAP), DegeneracyError,
               "eigenbasis condition number exceeds cap")
    gaps = np.abs(values[:, :, None] - values[:, None, :])
    M = gaps.shape[-1]
    gaps.reshape(len(gaps), M * M)[:, ::M + 1] = np.inf  # the diagonals
    stack.fail(~(np.min(gaps, axis=(1, 2))
                 <= EIGENVALUE_GAP_TOL * np.max(np.abs(values), axis=1)),
               DegeneracyError, "repeated eigenvalues; every direction aligns trivially")
    return values, vectors


def _build(ext: ChannelSet, L: int, seed, parity: str):
    """Either parity's construction over its L-slot ``ext`` (see the builders):
    transmitter 1's precoder is ``seed`` of the loop map's sorted eigenbasis."""
    if ext.F != L:
        raise ShapeError(f"{parity}-M construction needs a {L}-slot extension, got L={ext.F}")
    trials = ext if ext.stacked else ext[None]
    if not (trials.coeffs[..., 1:, :, :] == trials.coeffs[..., :1, :, :]).all():
        raise ShapeError("constant-channel construction expects equal slots")
    stack = TrialStack(len(trials.coeffs))
    _, vectors = _sorted_eigenbasis(_loop_matrix(trials.coeffs, stack), stack)
    v_tx1 = seed(vectors)
    link = "H" if L == 1 else "extended H"
    v_tx2, v_tx3 = _solve(stack, (trials.matrix(2, 1), trials.apply(2, 0, v_tx1), link + "32"),
                          (trials.matrix(1, 2), trials.apply(1, 0, v_tx1), link + "23"))
    schemes = full_rank_schemes(stack, DegeneracyError, (v_tx1, v_tx2, v_tx3),
                                family="mimo", K=3, M=ext.M, L=L, parity=parity)
    return stack.finish(schemes, ext)


def build_mimo_even(ext: ChannelSet):
    """Even-M precoders over the one-slot constant-time extension.

    Transmitter 1 uses the first M/2 eigenvectors of the loop map; the
    others are solved from the exact equalities H21 V1 = H23 V3 and
    H31 V1 = H32 V2, leaving M/2 interference dimensions at every receiver.

    For a stacked ``ext``, every step runs over the whole stack: ((the
    stacked scheme and extension of the trials that built), each trial's row
    in them or the error its build gives alone).
    """
    M = ext.M
    if M < 2 or M % 2:
        raise ParameterError(f"even construction needs even M >= 2, got M={M}")
    return _build(ext, 1, lambda vectors: vectors[..., : M // 2], "even")


def interleaved_seed(vectors: np.ndarray) -> np.ndarray:
    """2M x M seed precoder from an eigenbasis, for the two-slot extension;
    for a (T, M, M) stack of bases, the (T, 2M, M) stack of seeds.

    Column j < M-1 carries eigenvector j in the first slot when j is even
    and in the second slot when j is odd (zero elsewhere); the last column
    carries the last eigenvector in both slots. Every column is an
    eigenvector of the block-diagonal extended loop map, and the slot
    interleaving keeps the desired signal clear of the interference span.
    """
    M = vectors.shape[-1]
    seed = np.zeros(vectors.shape[:-2] + (2 * M, M), dtype=complex)
    for j in range(M - 1):
        offset = 0 if j % 2 == 0 else M
        seed[..., offset:offset + M, j] = vectors[..., j]
    seed[..., :M, M - 1] = vectors[..., M - 1]
    seed[..., M:, M - 1] = vectors[..., M - 1]
    return seed


def build_mimo_odd(ext: ChannelSet):
    """Odd-M precoders over the two-slot constant-time extension.

    Same loop map and alignment equalities as the even case, applied to the
    block-diagonal two-slot extension, with the interleaved eigenvector seed
    at transmitter 1. Each user gets M streams over 2 slots, so the total
    stays 3M/2 per channel use. A stacked ``ext`` gives what it gives
    :func:`build_mimo_even`.
    """
    M = ext.M
    if M < 3 or M % 2 == 0:
        raise ParameterError(f"odd construction needs odd M >= 3, got M={M}")
    return _build(ext, 2, interleaved_seed, "odd")
