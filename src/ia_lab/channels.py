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
as a stack: one :class:`ChannelSet` with a leading trial axis. Each block's
coefficients depend only on its key, never on the order in which blocks are
drawn or on what is drawn with them, and are bit-identical to drawing them
with ``np.random.Philox`` one block at a time.
A set of F slots is also its F-slot block-diagonal symbol extension, and
:func:`extend_channel` gives an extension as the channel set of its L slots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
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
    """All per-slot channel matrices of a K-user, M-antenna network, which
    are also its F-slot block-diagonal symbol extension.

    ``coeffs`` has shape (K, K, F, M, M); ``coeffs[k, j, f]`` is the matrix
    from transmitter j to receiver k on slot f, the f-th diagonal block of
    link (k, j)'s (F*M) x (F*M) extended matrix, zero off the blocks. A stack
    of sets, one per seed, puts a leading trial axis on ``coeffs`` and on
    what the link methods take and return, and holds its seeds as a tuple in
    ``seed``. ``ch[t]`` is trial t's set, an array of trials gives a stack,
    and None, on a single set only, the stack of one. Instances are
    immutable and safe to share across threads.
    """

    K: int
    M: int
    F: int
    a_min: float
    a_max: float
    seed: int
    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        """Row dimension F*M of the extended matrices."""
        return self.F * self.M

    @property
    def stacked(self) -> bool:
        """True for a stack of channel sets."""
        return self.coeffs.ndim == 6

    def __getitem__(self, t) -> "ChannelSet":
        if (t is None) == self.stacked:
            raise ShapeError("a trial index needs a stack of channel sets, None one set")
        seed = (self.seed,) if t is None else np.array(self.seed, dtype=object)[t]
        return replace(self, seed=seed if np.ndim(seed) == 0 else tuple(seed),
                       coeffs=_freeze(self.coeffs[t]))

    def matrix(self, k: int, j: int) -> np.ndarray:
        """Dense (F*M) x (F*M) block-diagonal matrix of one link."""
        out = np.zeros(self.coeffs.shape[:-5] + (self.dim, self.dim), dtype=complex)
        for f in range(self.F):
            lo = f * self.M
            out[..., lo:lo + self.M, lo:lo + self.M] = self.coeffs[..., k, j, f, :, :]
        return out

    def apply(self, k: int, j: int, v: np.ndarray) -> np.ndarray:
        """``matrix(k, j) @ v`` for an (F*M) x d ``v``, from the blocks alone.

        Elementwise for M = 1, one batched (F, M, M) @ (F, M, d) product
        otherwise; the zero off-block entries are never formed.
        """
        if self.M == 1:
            return self.coeffs[..., k, j, :, :, 0] * v
        lead, d = v.shape[:-2], v.shape[-1]
        return (self.coeffs[..., k, j, :, :, :]
                @ v.reshape(lead + (self.F, self.M, d))).reshape(lead + (self.dim, d))

    def solve_adjoint(self, k: int, j: int, v: np.ndarray) -> np.ndarray:
        """``matrix(k, j)^{-H} @ v`` for an (F*M) x d ``v``, from the blocks
        alone: elementwise for M = 1, one batched solve with the blocks'
        conjugate transposes otherwise."""
        if self.M == 1:
            return v / self.coeffs[..., k, j, :, :, 0].conj()
        lead, d = v.shape[:-2], v.shape[-1]
        blocks = self.coeffs[..., k, j, :, :, :].conj().swapaxes(-1, -2)
        return np.linalg.solve(blocks, v.reshape(lead + (self.F, self.M, d))).reshape(
            lead + (self.dim, d))

    def diagonal(self, k: int, j: int) -> np.ndarray:
        """Diagonal entries of one link's extended matrix (M = 1 only)."""
        if self.M != 1:
            raise ShapeError("diagonal() requires single-antenna nodes (M=1)")
        return self.coeffs[..., k, j, :, 0, 0]


# perfbench/tracing.py wraps the extension's products by the name
# ``ExtendedChannel.matrix``, which this alias keeps
ExtendedChannel = ChannelSet


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


def check_magnitude_law(a_min, a_max, error=ParameterError, where: str = "") -> None:
    """Refuse magnitude bounds outside 0 < a_min <= a_max < inf."""
    if not 0.0 < a_min <= a_max < np.inf:
        raise error(f"{where}magnitude bounds must satisfy 0 < a_min <= a_max < inf, "
                    f"got [{a_min}, {a_max}]")


def generate_channels(K: int, M: int, F: int,
                      a_min: float = DEFAULT_A_MIN,
                      a_max: float = DEFAULT_A_MAX,
                      seed=0):
    """Draw a fresh channel realization, or one for each seed of a sequence.

    Args:
        K: number of transmitter/receiver pairs, at least 2.
        M: antennas per node, at least 1.
        F: number of frequency slots, at least 1.
        a_min, a_max: magnitude bounds, 0 < a_min <= a_max < inf.
        seed: integer 64-bit generation seed, or a sequence of them;
            identical seeds reproduce identical coefficients bit for bit.

    Returns:
        A ChannelSet with K*K*F coefficient matrices of size M x M whose
        entries are independent across links, slots, and matrix positions;
        for a sequence of seeds, the stack of the sets of every seed in
        order, ``stack[t]`` bit-identical to drawing seed t alone.
    """
    one = np.ndim(seed) == 0
    seeds = [seed] if one else list(seed)
    if not all(isinstance(n, Integral) for n in (K, M, F)):
        raise ParameterError(f"K, M and F must be integers, got K={K!r}, M={M!r}, F={F!r}")
    if K < 2:
        raise ParameterError(f"need at least 2 users, got K={K}")
    if M < 1 or F < 1:
        raise ParameterError(f"M and F must be positive, got M={M}, F={F}")
    check_magnitude_law(a_min, a_max)
    if not all(isinstance(s, Integral) and 0 <= s < 2 ** 64 for s in seeds):
        raise ParameterError(f"seed must fit in an unsigned 64-bit integer, got {seed!r}")
    seeds = [int(s) for s in seeds]

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
    stack = ChannelSet(K=K, M=M, F=F, a_min=float(a_min), a_max=float(a_max),
                       seed=tuple(seeds), coeffs=_freeze(coeffs))
    return stack[0] if one else stack


def extend_channel(ch: ChannelSet, L: int, mode: str = "frequency") -> ChannelSet:
    """The L-slot block-diagonal extension of a channel set, or of every set
    of a stack: the channel set of those L slots (F = L), with the source's
    magnitude law and seeds.

    ``mode="frequency"`` takes slots 1..L of the source (requires L <= F);
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
    return replace(ch, F=L, coeffs=_freeze(blocks))


def _fmt(x: float) -> str:
    # 17 significant decimal digits round-trip an IEEE-754 double exactly
    return format(float(x), ".17g")


def _check_distinct_slots(coeffs: np.ndarray, error=ParameterError, where: str = "") -> None:
    """Refuse a single-antenna link of (K, K, F, M, M) ``coeffs`` whose F
    slot values are not pairwise distinct."""
    if coeffs.shape[-1] == 1:
        for k, j in np.ndindex(coeffs.shape[:2]):
            if len(np.unique(coeffs[k, j, :, 0, 0])) != coeffs.shape[2]:
                raise error(f"{where}link (k={k + 1}, j={j + 1}) repeats a slot value")


def save_channels(ch: ChannelSet, path) -> None:
    """Write one channel set, not a stack, to a channel file (JSON,
    coefficients flat in (k, j, f, row, col) order); ParameterError for a
    set without an integer seed or with a repeated slot value."""
    if ch.stacked:
        raise ShapeError("a channel file holds one channel set, not a stack")
    if not isinstance(ch.seed, Integral):
        raise ParameterError(f"a channel file needs an integer seed, got {ch.seed!r}")
    _check_distinct_slots(ch.coeffs)
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
        # JSON true and false load as bool, which is no number here
        if kind is int and type(value) is not int:
            raise ChannelFileError(f"{path}: field {name!r} must be an integer")
        if kind is float and type(value) not in (int, float):
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
    check_magnitude_law(a_min, a_max, ChannelFileError, f"{path}: ")

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
                or type(entry["re"]) not in (int, float)
                or type(entry["im"]) not in (int, float)):
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
    _check_distinct_slots(coeffs, ChannelFileError, f"{path}: ")
    return ChannelSet(K=K, M=M, F=F, a_min=a_min, a_max=a_max,
                      seed=seed, coeffs=_freeze(coeffs))
