"""Single-antenna interference-alignment precoders.

Both constructions here work on diagonal extended channels, so every matrix
is carried as its vector of diagonal entries and all products are
elementwise; a stack of trials is a (T, L) stack of diagonals that the same
elementwise steps run over. The three-user scheme sends streams along
powers of the gain of the closed cross-link loop applied to the all-ones
vector; the general-K scheme replaces the single loop gain by one commuting
diagonal map per ordered cross pair and enumerates bounded exponent tuples
of those maps.
"""

from __future__ import annotations

import functools

import numpy as np

from .channels import ChannelSet, is_integer
from .errors import ParameterError, ShapeError, SingularChannelError, SizeGuardError
from .schemes import TrialStack

DEFAULT_SIZE_CAP = 4096


def check_order(n) -> None:
    """ParameterError unless the alignment order ``n`` is an integer >= 1."""
    if not is_integer(n):
        raise ParameterError(f"alignment order must be an integer, got n={n!r}")
    if n < 1:
        raise ParameterError(f"alignment order must be >= 1, got n={n}")


def _diagonals(ext: ChannelSet) -> tuple:
    """(h, stack) for a build over a stacked extension, or over the stack of
    one that a single extension stands for: ``h(k, j)`` is the (T, L) stack
    of link (k, j)'s diagonals, checked when first asked for, and ``stack``
    the bookkeeping of the build. A trial whose link is singular fails, and
    its row reads ones, so that what is computed from it stays finite until
    the build's final selection drops it."""
    stack = TrialStack(ext)
    checked = {}

    def h(k: int, j: int) -> np.ndarray:
        if (k, j) not in checked:
            d = stack.trials.diagonal(k, j)
            mag = np.abs(d)
            # a row whose largest entry is 0 fails on every entry
            bad = np.logical_or.reduce(
                mag <= 1e-14 * np.maximum.reduce(mag, axis=1, keepdims=True), axis=1)
            if np.logical_or.reduce(bad):
                stack.fail(~bad, SingularChannelError,
                           f"extended channel for link (k={k + 1}, j={j + 1}) is singular")
                d = np.where(bad[:, None], 1.0, d)
            checked[k, j] = d
        return checked[k, j]
    return h, stack


def _loop_gains(ext: ChannelSet, h) -> np.ndarray:
    if ext.K != 3 or ext.M != 1:
        raise ShapeError("loop_gains needs K=3 single-antenna extended channels")
    return h(0, 1) * h(1, 2) * h(2, 0) / (h(1, 0) * h(2, 1) * h(0, 2))


def loop_gains(ext: ChannelSet) -> np.ndarray:
    """Per-slot gain of the closed cross-link loop of a 3-user network.

    Slot by slot this is h12*h23*h31 / (h21*h32*h13) (1-based user indices,
    h[kj] from transmitter j to receiver k): the scalar a signal direction
    picks up when mapped through all six cross links around the loop. The
    returned entries are the diagonal of a diagonal matrix and are pairwise
    distinct with probability one, which is what makes the power-basis
    precoders below linearly independent.
    """
    h, stack = _diagonals(ext)
    return stack.one(_loop_gains(ext, h))


def build_precoders_k3(ext: ChannelSet, n: int):
    """Closed-form 3-user precoders over a (2n+1)-slot extension.

    Transmitter 1 gets the n+1 columns loop^0 .. loop^n applied to the
    all-ones vector; transmitters 2 and 3 get n columns each, scaled through
    the appropriate cross links so that at receiver 1 their interference
    coincides column by column, while at receivers 2 and 3 the single-user
    interference columns land inside transmitter 1's column set.

    For a stacked ``ext``, elementwise over its (T, L) diagonals: ((the
    stacked scheme and extension of the trials that built), each trial's row
    in them or the SingularChannelError its build gives alone).
    """
    check_order(n)
    L = 2 * n + 1
    if ext.F != L:
        raise ShapeError(f"order n={n} needs a {L}-slot extension, got L={ext.F}")
    h, stack = _diagonals(ext)
    powers = _loop_gains(ext, h)[..., None] ** np.arange(n + 1)

    v_tx1 = powers
    v_tx2 = (h(2, 0) / h(2, 1))[..., None] * powers[..., :n]
    v_tx3 = (h(1, 0) / h(1, 2))[..., None] * powers[..., 1:]
    return stack.finish(SingularChannelError, (v_tx1, v_tx2, v_tx3),
                        family="siso-k3", K=3, M=1, L=L, n=n)


def required_extension_general(K: int, n: int) -> int:
    """Extension length (n+1)^N + n^N with N = (K-1)(K-2) - 1."""
    if K < 3:
        raise ParameterError(f"general construction needs K >= 3, got K={K}")
    check_order(n)
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


def _reference_scalings(K: int, h) -> dict:
    # per-transmitter diagonal that equalizes all interference at receiver 1
    return {j: h(0, 2) * h(1, 0) / (h(0, j) * h(1, 2)) for j in range(1, K)}


def _cross_pairs(K: int) -> list:
    """The pairs (m, k) of non-reference users with a map, in digit order."""
    return [(m, k) for m in range(1, K) for k in range(1, K) if m != k and (m, k) != (1, 2)]


def _cross_pair_gains(K: int, h, scale: dict) -> dict:
    return {(m, k): h(m, k) * scale[k] / h(m, 0) for m, k in _cross_pairs(K)}


def cross_pair_gains(ext: ChannelSet) -> dict:
    """Diagonal alignment maps, one per ordered pair of non-reference users.

    With user 1 as the reference (0-based index 0), the map for pair (m, k)
    is what interferer k's seed block picks up at receiver m relative to
    transmitter 1's columns; alignment requires each such image to stay
    inside transmitter 1's column set. Pair (2, 3) (0-based (1, 2)) is the
    identity by construction, h23 * h13 h21 / (h13 h23) / h21, so it is
    neither computed nor returned.
    """
    h, stack = _diagonals(ext)
    gains = _cross_pair_gains(ext.K, h, _reference_scalings(ext.K, h))
    return stack.one([{p: g[0] for p, g in gains.items()}])


def _exponent_columns(gains: dict, pairs: list, radix: int) -> np.ndarray:
    """All products prod_p gains[p]**a_p (ones vector seed), a_p in 0..radix-1,
    for each trial of the (T, L) stacks ``gains[p]``.

    Tuples are enumerated in mixed-radix order with the first pair as the
    least significant digit, fixing a deterministic column identity. Each
    pair takes one broadcast product of the columns so far (left operand,
    as numpy's complex product is not bitwise commutative) with the pair's
    powers, whose exponent 0 is exactly 1.
    """
    lead = gains[pairs[0]].shape
    cols = np.ones(lead + (1,), dtype=complex)
    for p in pairs:
        table = gains[p][..., None] ** np.arange(radix)
        cols = (cols[..., None, :] * table[..., :, None]).reshape(lead + (-1,))
    return cols


@functools.cache
def image_columns_k3(n: int) -> tuple:
    """((m, k), columns) pairs: receiver m sees transmitter k's precoder of
    :func:`build_precoders_k3` as transmitter 1's ``columns`` (0-based)."""
    return ((1, 2), tuple(range(1, n + 1))), ((2, 1), tuple(range(n)))


@functools.cache
def image_columns_general(K: int, n: int) -> tuple:
    """As image_columns_k3, for :func:`build_precoders_general`: H_mk scale_k
    is H_m1 times pair (m, k)'s map, which raises that pair's exponent (its
    digit of a column's index) by one; pair (2, 3) has none to raise."""
    pairs = _cross_pairs(K)
    seed = np.unravel_index(np.arange(n ** len(pairs)), (n,) * len(pairs), order="F")
    base = np.ravel_multi_index(seed, (n + 1,) * len(pairs), order="F")
    step = {p: (n + 1) ** q for q, p in enumerate(pairs)}
    return tuple(((m, k), tuple((base + step.get((m, k), 0)).tolist()))
                 for m in range(1, K) for k in range(1, K) if m != k)


def build_precoders_general(ext: ChannelSet, n: int,
                            size_cap: int = DEFAULT_SIZE_CAP):
    """General-K single-antenna precoders over an (n+1)^N + n^N extension.

    Transmitter 1 sends (n+1)^N streams, everyone else n^N. The shared seed
    block uses exponents 0..n-1 of the cross-pair maps; transmitter 1 uses
    exponents 0..n, so multiplying the seed block by any single map stays
    inside transmitter 1's column set. ``size_cap`` bounds the extension
    length; raise it explicitly for configurations beyond desk scale.

    For a stacked ``ext``, elementwise over its (T, L) diagonals: ((the
    stacked scheme and extension of the trials that built), each trial's row
    in them or the SingularChannelError its build gives alone).
    """
    K = ext.K
    if ext.M != 1:
        raise ShapeError("general construction needs single-antenna nodes")
    L = guarded_extension_general(K, n, size_cap)
    if ext.F != L:
        raise ShapeError(f"(K={K}, n={n}) needs a {L}-slot extension, got L={ext.F}")
    h, stack = _diagonals(ext)
    scale = _reference_scalings(K, h)
    gains = _cross_pair_gains(K, h, scale)
    pairs = _cross_pairs(K)
    seed_block = _exponent_columns(gains, pairs, n)
    v_tx1 = _exponent_columns(gains, pairs, n + 1)

    precoders = [v_tx1] + [scale[j][..., None] * seed_block for j in range(1, K)]
    return stack.finish(SingularChannelError, tuple(precoders),
                        family="siso-general", K=K, M=1, L=L, n=n)
