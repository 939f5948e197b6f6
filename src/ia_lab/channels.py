"""Random interference-channel generation, symbol extension, and channel files.

Channel coefficients are complex scalars (or M x M matrices) drawn with
magnitude uniform in [a_min, a_max] and phase uniform in [0, 2pi). That is
one admissible continuous distribution with magnitudes bounded away from
zero and infinity, and it makes the bound invariant directly testable.

Every (receiver, transmitter, slot) coefficient block has its own Philox
stream keyed by (block index, seed). One vectorized Philox4x64-10 counter
kernel (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11)
evaluates all of them at once, so generation costs a fixed number of array
operations instead of one generator per block. Given a sequence of seeds,
:func:`generate_channels` draws the blocks of every seed in that same one
kernel call (a Monte-Carlo sweep draws all its trials so) and returns them
as a :class:`ChannelStack`. Each block's coefficients depend only on its
key, never on the order in which blocks are drawn or on what is drawn with
them, and are bit-identical to drawing them with ``np.random.Philox`` one
block at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ChannelFileError, ParameterError, ShapeError

SCHEMA_VERSION = 1
DEFAULT_A_MIN = 0.5
DEFAULT_A_MAX = 2.0

# slack for re-checking magnitudes of coefficients that went through
# magnitude*exp(i*phase) rounding or a file round-trip
_MAG_SLACK = 1e-12


@dataclass(frozen=True)
class ChannelSet:
    """All per-slot channel matrices of a K-user, M-antenna network.

    ``coeffs`` has shape (K, K, F, M, M); entry ``coeffs[k, j, f]`` is the
    matrix from transmitter j to receiver k on frequency slot f. Instances
    are immutable after construction and safe to share across threads.
    """

    K: int
    M: int
    F: int
    a_min: float
    a_max: float
    seed: int
    coeffs: np.ndarray


@dataclass(frozen=True)
class ChannelStack:
    """Channel sets of one shape drawn for a sequence of seeds.

    ``coeffs[t]`` holds the coefficients of seed ``seeds[t]``, shaped as a
    ChannelSet's; indexing and iteration give the ChannelSets themselves.
    """

    K: int
    M: int
    F: int
    a_min: float
    a_max: float
    seeds: tuple
    coeffs: np.ndarray

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, t: int) -> ChannelSet:
        return ChannelSet(K=self.K, M=self.M, F=self.F, a_min=self.a_min,
                          a_max=self.a_max, seed=self.seeds[t], coeffs=self.coeffs[t])

    def __iter__(self):
        return (self[t] for t in range(len(self)))

    @classmethod
    def of(cls, ch: ChannelSet) -> "ChannelStack":
        """The stack of one channel set."""
        return cls(K=ch.K, M=ch.M, F=ch.F, a_min=ch.a_min, a_max=ch.a_max,
                   seeds=(ch.seed,), coeffs=ch.coeffs[None])


@dataclass(frozen=True)
class ExtendedChannel:
    """Block-diagonal symbol extension of a channel set, or of every set of
    a ChannelStack.

    ``blocks[k, j, f]`` is the f-th diagonal block (M x M) of the extended
    matrix for the link from transmitter j to receiver k; off-block entries
    of the full matrix are exactly zero by construction. The extension of a
    stack puts a leading trial axis on ``blocks`` and on whatever its
    methods take and return, and ``ext[t]`` is the extension of trial t;
    indexing with an array of trials, or with None (the stack of one),
    gives a stacked extension, as numpy indexing does.
    """

    K: int
    M: int
    L: int
    blocks: np.ndarray

    @property
    def dim(self) -> int:
        """Row dimension L*M of the extended matrices."""
        return self.L * self.M

    @property
    def stacked(self) -> bool:
        """True for the extension of a ChannelStack."""
        return self.blocks.ndim == 6

    def __getitem__(self, t) -> "ExtendedChannel":
        if t is not None and not self.stacked:
            raise ShapeError("only a stacked extension takes a trial index")
        return ExtendedChannel(K=self.K, M=self.M, L=self.L, blocks=self.blocks[t])

    def matrix(self, k: int, j: int) -> np.ndarray:
        """Dense (L*M) x (L*M) block-diagonal matrix of one link."""
        out = np.zeros(self.blocks.shape[:-5] + (self.dim, self.dim), dtype=complex)
        for f in range(self.L):
            lo = f * self.M
            out[..., lo:lo + self.M, lo:lo + self.M] = self.blocks[..., k, j, f, :, :]
        return out

    def apply(self, k: int, j: int, v: np.ndarray) -> np.ndarray:
        """``matrix(k, j) @ v`` for an (L*M) x d ``v``, from the blocks alone.

        Elementwise for M = 1, one batched (L, M, M) @ (L, M, d) product
        otherwise; the zero off-block entries are never formed.
        """
        if self.M == 1:
            return self.blocks[..., k, j, :, :, 0] * v
        lead, d = v.shape[:-2], v.shape[-1]
        return (self.blocks[..., k, j, :, :, :]
                @ v.reshape(lead + (self.L, self.M, d))).reshape(lead + (self.dim, d))

    def solve_adjoint(self, k: int, j: int, v: np.ndarray) -> np.ndarray:
        """``matrix(k, j)^{-H} @ v`` for an (L*M) x d ``v``, from the blocks
        alone: elementwise for M = 1, one batched solve with the blocks'
        conjugate transposes otherwise."""
        if self.M == 1:
            return v / self.blocks[..., k, j, :, :, 0].conj()
        lead, d = v.shape[:-2], v.shape[-1]
        blocks = self.blocks[..., k, j, :, :, :].conj().swapaxes(-1, -2)
        return np.linalg.solve(blocks, v.reshape(lead + (self.L, self.M, d))).reshape(
            lead + (self.dim, d))

    def diagonal(self, k: int, j: int) -> np.ndarray:
        """Diagonal entries of one link's extended matrix (M = 1 only)."""
        if self.M != 1:
            raise ShapeError("diagonal() requires single-antenna nodes (M=1)")
        return self.blocks[..., k, j, :, 0, 0]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# Philox4x64 round multipliers and Weyl key increments (Random123), one row
# per multiply lane
_PHILOX_M = np.array([[[0xD2E7470EE14C6C93]], [[0xCA5A826395121157]]], dtype=np.uint64)
_PHILOX_W = np.array([[[0x9E3779B97F4A7C15]], [[0xBB67AE8584CAA73B]]], dtype=np.uint64)
_PHILOX_ROUNDS = np.arange(10, dtype=np.uint64)[:, None, None, None]
# 0-d operands: numpy dispatches them faster than Python or numpy scalars
_LO32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_HALF = np.array(32, dtype=np.uint64)


def _philox4x64(counter: np.ndarray, key0: np.ndarray, key1: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of counters (counter, 0, 0, 0) under keys (key0, key1)
    for every pairing of a (counter, key0) column with a key1 row.

    ``counter`` and ``key0`` have shape (n,), ``key1`` shape (T,). Returns
    the four output words of every counter, shape (T, n, 4), in the order
    numpy's ``Philox`` bit generator emits them. A round maps words
    (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1,
    lo(M0 c0)), and the key is bumped by a Weyl increment between rounds.
    Words 0 and 2, the two multiply lanes, travel together as one (2, T, n)
    array, and so do words 1 and 3; the high half of each 64 x 64-bit
    product is assembled from 32-bit partial products, all in wrapping
    uint64.
    """
    shape = (2, key1.shape[0], counter.shape[0])
    even = np.zeros(shape, dtype=np.uint64)  # words 0 and 2
    even[0] = counter
    odd = np.zeros(shape, dtype=np.uint64)  # words 1 and 3
    key = np.empty(shape, dtype=np.uint64)
    key[0] = key0
    key[1] = key1[:, None]
    keys = key + _PHILOX_ROUNDS * _PHILOX_W  # key of every round, wrapping
    m = np.broadcast_to(_PHILOX_M, shape).copy()
    m_lo, m_hi = m & _LO32, m >> _HALF
    for round_key in keys:
        x_lo, x_hi = even & _LO32, even >> _HALF
        t = m_lo * x_hi + ((m_lo * x_lo) >> _HALF)
        u = m_hi * x_lo + (t & _LO32)
        hi = m_hi * x_hi + (t >> _HALF) + (u >> _HALF)
        even, odd = hi[::-1] ^ odd ^ round_key, (m * even)[::-1]
    return np.stack((even[0], odd[0], even[1], odd[1]), axis=-1)


def generate_channels(K: int, M: int, F: int,
                      a_min: float = DEFAULT_A_MIN,
                      a_max: float = DEFAULT_A_MAX,
                      seed=0):
    """Draw a fresh channel realization, or one for each seed of a sequence.

    Args:
        K: number of transmitter/receiver pairs, at least 2.
        M: antennas per node, at least 1.
        F: number of frequency slots, at least 1.
        a_min, a_max: magnitude bounds, 0 < a_min <= a_max.
        seed: 64-bit generation seed, or a sequence of them; identical seeds
            reproduce identical coefficients bit for bit.

    Returns:
        A ChannelSet with K*K*F coefficient matrices of size M x M whose
        entries are independent across links, slots, and matrix positions;
        for a sequence of seeds, a ChannelStack holding the ChannelSet of
        each seed in order, every one bit-identical to drawing it alone.
    """
    one = np.ndim(seed) == 0
    seeds = [int(s) for s in ([seed] if one else seed)]
    if not all(isinstance(n, Integral) for n in (K, M, F)):
        raise ParameterError(f"K, M and F must be integers, got K={K!r}, M={M!r}, F={F!r}")
    if K < 2:
        raise ParameterError(f"need at least 2 users, got K={K}")
    if M < 1 or F < 1:
        raise ParameterError(f"M and F must be positive, got M={M}, F={F}")
    if not (0.0 < a_min <= a_max):
        raise ParameterError(
            f"magnitude bounds must satisfy 0 < a_min <= a_max, got [{a_min}, {a_max}]")
    if not all(0 <= s < 2 ** 64 for s in seeds):
        raise ParameterError("seed must fit in an unsigned 64-bit integer")

    # block (k, j, f) of a seed has key (its flat index, seed) and reads
    # counters 1..per_block; its first M*M words give magnitudes, the next
    # M*M phases
    blocks, words = K * K * F, 2 * M * M
    per_block = -(-words // 4)
    counter = np.tile(np.arange(1, per_block + 1, dtype=np.uint64), blocks)
    index = np.repeat(np.arange(blocks, dtype=np.uint64), per_block)
    out = _philox4x64(counter, index, np.array(seeds, dtype=np.uint64))
    out = out.reshape(-1, 4 * per_block)
    # numpy's uniform(low, high) is low + (high - low) * ((w >> 11) * 2**-53)
    u = (out[:, :words] >> np.uint64(11)).astype(float) * 2.0 ** -53
    mag = a_min + (a_max - a_min) * u[:, :M * M]
    phase = (2.0 * np.pi) * u[:, M * M:]
    coeffs = (mag * np.exp(1j * phase)).reshape(len(seeds), K, K, F, M, M)
    stack = ChannelStack(K=K, M=M, F=F, a_min=float(a_min), a_max=float(a_max),
                         seeds=tuple(seeds), coeffs=_freeze(coeffs))
    return stack[0] if one else stack


def extend_channel(ch, L: int, mode: str = "frequency") -> ExtendedChannel:
    """Build the L-slot block-diagonal extension of a channel set, or the
    stacked extension of every set of a ChannelStack.

    ``mode="frequency"`` stacks slots 1..L of the source (requires L <= F);
    ``mode="constant-time"`` repeats slot 1 L times, which models coding over
    L time slots of a constant channel.
    """
    if not isinstance(L, Integral) or L < 1:
        raise ParameterError(f"extension length must be a positive integer, got {L!r}")
    if mode == "frequency":
        if L > ch.F:
            raise ParameterError(
                f"frequency extension needs L <= F, got L={L} with F={ch.F}")
        blocks = ch.coeffs[..., :L, :, :].copy()
    elif mode == "constant-time":
        blocks = np.repeat(ch.coeffs[..., :1, :, :], L, axis=-3)
    else:
        raise ParameterError(f"unknown extension mode {mode!r}")
    return ExtendedChannel(K=ch.K, M=ch.M, L=L, blocks=_freeze(blocks))


def _fmt(x: float) -> str:
    # 17 significant decimal digits round-trip an IEEE-754 double exactly
    return format(float(x), ".17g")


def save_channels(ch: ChannelSet, path) -> None:
    """Write a channel file (JSON, coefficients flat in (k, j, f, row, col) order)."""
    lines = [
        "{",
        f'  "schema_version": {SCHEMA_VERSION},',
        f'  "K": {ch.K},',
        f'  "M": {ch.M},',
        f'  "F": {ch.F},',
        f'  "seed": {ch.seed},',
        f'  "a_min": {_fmt(ch.a_min)},',
        f'  "a_max": {_fmt(ch.a_max)},',
        '  "coeffs": [',
    ]
    flat = ch.coeffs.reshape(-1)
    body = ",\n".join(
        f'    {{"re": {_fmt(z.real)}, "im": {_fmt(z.imag)}}}' for z in flat)
    lines.append(body)
    lines.append("  ]")
    lines.append("}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _coeff_context(idx: int, K: int, M: int, F: int) -> str:
    rest, col = divmod(idx, M)
    rest, row = divmod(rest, M)
    rest, f = divmod(rest, F)
    k, j = divmod(rest, K)
    return f"coeffs[{idx}] (k={k + 1}, j={j + 1}, f={f + 1}, row={row + 1}, col={col + 1})"


def load_channels(path) -> ChannelSet:
    """Read a channel file, validating schema and channel invariants.

    Raises ChannelFileError with line or field context when the file is
    malformed, dimensioned inconsistently, or holds coefficients outside
    the stated magnitude bounds.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ChannelFileError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise ChannelFileError(f"{path}: top level must be a JSON object")

    def field(name, kind):
        if name not in doc:
            raise ChannelFileError(f"{path}: missing field {name!r}")
        value = doc[name]
        if kind is int and not (isinstance(value, int) and not isinstance(value, bool)):
            raise ChannelFileError(f"{path}: field {name!r} must be an integer")
        if kind is float and not isinstance(value, (int, float)):
            raise ChannelFileError(f"{path}: field {name!r} must be a number")
        return value

    if field("schema_version", int) != SCHEMA_VERSION:
        raise ChannelFileError(
            f"{path}: unsupported schema_version {doc['schema_version']}")
    K, M, F = field("K", int), field("M", int), field("F", int)
    seed = field("seed", int)
    a_min, a_max = float(field("a_min", float)), float(field("a_max", float))
    if K < 2:
        raise ChannelFileError(f"{path}: need at least 2 users, file has K={K}")
    if M < 1 or F < 1:
        raise ChannelFileError(f"{path}: M and F must be positive, got M={M}, F={F}")
    if not (0.0 < a_min <= a_max):
        raise ChannelFileError(
            f"{path}: magnitude bounds must satisfy 0 < a_min <= a_max")

    raw = field("coeffs", list)
    if not isinstance(raw, list):
        raise ChannelFileError(f"{path}: field 'coeffs' must be an array")
    expected = K * K * F * M * M
    if len(raw) != expected:
        raise ChannelFileError(
            f"{path}: expected {expected} coefficients for K={K}, M={M}, F={F}, "
            f"found {len(raw)}")

    flat = np.empty(expected, dtype=complex)
    lo = a_min * (1.0 - _MAG_SLACK)
    hi = a_max * (1.0 + _MAG_SLACK)
    for idx, entry in enumerate(raw):
        if (not isinstance(entry, dict) or "re" not in entry or "im" not in entry
                or not isinstance(entry["re"], (int, float))
                or not isinstance(entry["im"], (int, float))):
            raise ChannelFileError(
                f"{path}: {_coeff_context(idx, K, M, F)}: expected {{re, im}} numbers")
        z = complex(entry["re"], entry["im"])
        mag = abs(z)
        if not (lo <= mag <= hi):
            raise ChannelFileError(
                f"{path}: {_coeff_context(idx, K, M, F)}: magnitude {mag:.6g} "
                f"outside [{a_min}, {a_max}]")
        flat[idx] = z
    coeffs = flat.reshape(K, K, F, M, M)

    if M == 1:
        # single-antenna slot values must be pairwise distinct per link
        for k in range(K):
            for j in range(K):
                vals = coeffs[k, j, :, 0, 0]
                if len(np.unique(vals)) != F:
                    raise ChannelFileError(
                        f"{path}: link (k={k + 1}, j={j + 1}) repeats a slot value")
    return ChannelSet(K=K, M=M, F=F, a_min=a_min, a_max=a_max,
                      seed=seed, coeffs=_freeze(coeffs))
