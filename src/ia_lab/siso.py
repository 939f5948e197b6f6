"""Single-antenna interference-alignment precoders.

Both constructions here work on diagonal extended channels, so every matrix
is carried as its vector of diagonal entries and all products are
elementwise. The three-user scheme sends streams along powers of the gain
of the closed cross-link loop applied to the all-ones vector; the general-K
scheme replaces the single loop gain by one commuting diagonal map per
ordered cross pair and enumerates bounded exponent tuples of those maps.
"""

from __future__ import annotations

import numpy as np

from .channels import ExtendedChannel
from .errors import ParameterError, ShapeError, SingularChannelError, SizeGuardError
from .schemes import PrecoderScheme, full_rank_scheme

DEFAULT_SIZE_CAP = 4096


def _diag(ext: ExtendedChannel, k: int, j: int) -> np.ndarray:
    d = ext.diagonal(k, j)
    scale = np.max(np.abs(d))
    if scale == 0.0 or np.any(np.abs(d) <= 1e-14 * scale):
        raise SingularChannelError(
            f"extended channel for link (k={k + 1}, j={j + 1}) is singular")
    return d


def loop_gains(ext: ExtendedChannel) -> np.ndarray:
    """Per-slot gain of the closed cross-link loop of a 3-user network.

    Slot by slot this is h12*h23*h31 / (h21*h32*h13) (1-based user indices,
    h[kj] from transmitter j to receiver k): the scalar a signal direction
    picks up when mapped through all six cross links around the loop. The
    returned entries are the diagonal of a diagonal matrix and are pairwise
    distinct with probability one, which is what makes the power-basis
    precoders below linearly independent.
    """
    if ext.K != 3 or ext.M != 1:
        raise ShapeError("loop_gains needs K=3 single-antenna extended channels")
    return (_diag(ext, 0, 1) * _diag(ext, 1, 2) * _diag(ext, 2, 0)
            / (_diag(ext, 1, 0) * _diag(ext, 2, 1) * _diag(ext, 0, 2)))


def build_precoders_k3(ext: ExtendedChannel, n: int) -> PrecoderScheme:
    """Closed-form 3-user precoders over a (2n+1)-slot extension.

    Transmitter 1 gets the n+1 columns loop^0 .. loop^n applied to the
    all-ones vector; transmitters 2 and 3 get n columns each, scaled through
    the appropriate cross links so that at receiver 1 their interference
    coincides column by column, while at receivers 2 and 3 the single-user
    interference columns land inside transmitter 1's column set.
    """
    if n < 1:
        raise ParameterError(f"alignment order must be >= 1, got n={n}")
    L = 2 * n + 1
    if ext.L != L:
        raise ShapeError(f"order n={n} needs a {L}-slot extension, got L={ext.L}")
    loop = loop_gains(ext)
    powers = loop[:, None] ** np.arange(n + 1)

    v_tx1 = powers
    v_tx2 = (_diag(ext, 2, 0) / _diag(ext, 2, 1))[:, None] * powers[:, :n]
    v_tx3 = (_diag(ext, 1, 0) / _diag(ext, 1, 2))[:, None] * powers[:, 1:]
    return full_rank_scheme(SingularChannelError, family="siso-k3", K=3, M=1, L=L,
                            precoders=(v_tx1, v_tx2, v_tx3), n=n)


def required_extension_general(K: int, n: int) -> int:
    """Extension length (n+1)^N + n^N with N = (K-1)(K-2) - 1."""
    if K < 3:
        raise ParameterError(f"general construction needs K >= 3, got K={K}")
    if n < 1:
        raise ParameterError(f"alignment order must be >= 1, got n={n}")
    N = (K - 1) * (K - 2) - 1
    return (n + 1) ** N + n ** N


def guarded_extension_general(K: int, n: int,
                              size_cap: int = DEFAULT_SIZE_CAP) -> int:
    """Like required_extension_general, but enforcing the size cap.

    Checked before any channels are generated: extension lengths explode
    combinatorially in K, and a rejected configuration must fail fast.
    """
    length = required_extension_general(K, n)
    if length > size_cap:
        raise SizeGuardError(
            f"extension length {length} for (K={K}, n={n}) exceeds size cap "
            f"{size_cap}; pass a larger size_cap to unlock")
    return length


def _reference_scalings(ext: ExtendedChannel) -> dict:
    # per-transmitter diagonal that equalizes all interference at receiver 1
    h = lambda k, j: _diag(ext, k, j)
    return {j: h(0, 2) * h(1, 0) / (h(0, j) * h(1, 2)) for j in range(1, ext.K)}


def cross_pair_gains(ext: ExtendedChannel) -> dict:
    """Diagonal alignment maps, one per ordered pair of non-reference users.

    With user 1 as the reference (0-based index 0), the map for pair (m, k)
    is what interferer k's seed block picks up at receiver m relative to
    transmitter 1's columns; alignment requires each such image to stay
    inside transmitter 1's column set. Pair (2, 3) (0-based (1, 2)) is the
    identity by construction and is excluded from the returned dict.
    """
    K = ext.K
    h = lambda k, j: _diag(ext, k, j)
    scale = _reference_scalings(ext)
    gains = {}
    for m in range(1, K):
        for k in range(1, K):
            if m == k:
                continue
            g = h(m, k) * scale[k] / h(m, 0)
            if (m, k) == (1, 2):
                assert np.allclose(g, 1.0, atol=1e-9), "reference pair must be identity"
                continue
            gains[(m, k)] = g
    return gains


def _exponent_columns(gains: dict, pairs: list, radix: int, L: int) -> np.ndarray:
    """All products prod_p gains[p]**a_p (ones vector seed), a_p in 0..radix-1.

    Tuples are enumerated in mixed-radix order with the first pair as the
    least significant digit, fixing a deterministic column identity.
    """
    count = radix ** len(pairs)
    tables = {p: gains[p][:, None] ** np.arange(radix) for p in pairs}
    cols = np.empty((L, count), dtype=complex)
    for idx in range(count):
        col = np.ones(L, dtype=complex)
        rest = idx
        for p in pairs:
            digit = rest % radix
            rest //= radix
            if digit:
                col = col * tables[p][:, digit]
        cols[:, idx] = col
    return cols


def build_precoders_general(ext: ExtendedChannel, n: int,
                            size_cap: int = DEFAULT_SIZE_CAP) -> PrecoderScheme:
    """General-K single-antenna precoders over an (n+1)^N + n^N extension.

    Transmitter 1 sends (n+1)^N streams, everyone else n^N. The shared seed
    block uses exponents 0..n-1 of the cross-pair maps; transmitter 1 uses
    exponents 0..n, so multiplying the seed block by any single map stays
    inside transmitter 1's column set. ``size_cap`` bounds the extension
    length; raise it explicitly for configurations beyond desk scale.
    """
    K = ext.K
    if ext.M != 1:
        raise ShapeError("general construction needs single-antenna nodes")
    L = guarded_extension_general(K, n, size_cap)
    if ext.L != L:
        raise ShapeError(f"(K={K}, n={n}) needs a {L}-slot extension, got L={ext.L}")

    gains = cross_pair_gains(ext)
    pairs = sorted(gains)
    N = (K - 1) * (K - 2) - 1
    assert len(pairs) == N

    seed_block = _exponent_columns(gains, pairs, n, L)
    v_tx1 = _exponent_columns(gains, pairs, n + 1, L)

    scale = _reference_scalings(ext)
    precoders = [v_tx1] + [scale[j][:, None] * seed_block for j in range(1, K)]
    return full_rank_scheme(SingularChannelError, family="siso-general", K=K, M=1,
                            L=L, precoders=tuple(precoders), n=n)
