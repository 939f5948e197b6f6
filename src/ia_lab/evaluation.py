"""Monte-Carlo SNR sweeps, slope and gap estimation, region decomposition.

A sweep regenerates channels per trial (never per SNR point: one
realization spans the whole grid, so constant terms cancel out of slope
estimates), rebuilds the scheme, and records zero-forcing rates. It works
on its trials as stacks (:meth:`SchemeConfig.build_trials`) of as many as
fit ``STACK_BYTES``, so a sweep's memory stays that of one stack; a trial
larger than that (an L=275 extension) goes alone. Each stack takes one
channel draw and one build call, every step of which runs over all the
stack's trials; a trial that fails keeps the error it gets alone, and the
build selects the trials that built once, at its end, and hands their
stacked scheme and extension (none, if none did) to
:func:`~ia_lab.receiver.zf_rates`: one pass over the receivers, and one
broadcast over the grid. A family that draws no channels (designed) is
built once per sweep as a stack of one, and evaluated once, and its rows
are written for every trial seed. Failed trials are recorded as failure rows.
The estimators read a rate table's records in one pass, which groups the
ok sum rates by grid point and by seed, and fit every trial's slope in one
least-squares call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import reduce
from itertools import repeat
from numbers import Integral
from operator import add

import numpy as np

from .channels import (DEFAULT_A_MAX, DEFAULT_A_MIN, ChannelSet, ChannelStack,
                       generate_channels)
from .errors import (DegeneracyError, InsufficientDataError, ParameterError,
                     RegionMembershipError, SingularChannelError)
from .families import get_family
from .receiver import STACK_BYTES, _receiver_bytes, zf_rates
from .siso import DEFAULT_SIZE_CAP

# failures of one realization, which a build reports in that trial's slot;
# any other error belongs to the configuration and propagates
TRIAL_ERRORS = (DegeneracyError, SingularChannelError)


@dataclass(frozen=True)
class SchemeConfig:
    """Everything needed to rebuild one scheme family (see
    :mod:`ia_lab.families`) from a seed."""

    family: str
    K: int = 3
    M: int = 1
    n: int = 1
    a_min: float = DEFAULT_A_MIN
    a_max: float = DEFAULT_A_MAX
    size_cap: int = DEFAULT_SIZE_CAP

    def __post_init__(self):
        get_family(self.family).check(self.K, self.M)

    @property
    def claimed_dof(self) -> Fraction:
        """Sum degrees of freedom the family is designed to achieve."""
        L, streams = get_family(self.family).extension(self)
        return Fraction(streams, L)

    def build_trials(self, seeds):
        """Iterator over the BuiltStacks of the realizations of ``seeds``,
        in order.

        A stack holds as many trials as fit STACK_BYTES, counted from the
        sizes the configuration fixes, and a trial larger than that goes
        alone. Each stack takes one channel draw and one family build, whose
        stacked scheme and extension it keeps as they are, and is built as
        the iterator reaches it, so a consumer holds only the stacks it
        keeps. A family that draws no channels is built once, and that one
        build serves every seed, in one stack.
        """
        family = get_family(self.family)
        shape = family.channel_shape(self)
        seeds = tuple(seeds)
        if shape is None:
            trial, [slot] = family.build(self, None)
            yield BuiltStack(seeds, (slot,) * len(seeds), trial)
            return
        size = max(1, STACK_BYTES // _trial_bytes(self))
        for lo in range(0, len(seeds), size):
            chunk = seeds[lo:lo + size]
            channels = generate_channels(*shape, self.a_min, self.a_max, chunk)
            trial, slots = family.build(self, channels)
            yield BuiltStack(chunk, slots, trial)

    def build(self, seed: int):
        """Build (scheme, extended channel) for one realization:
        :meth:`build_trials` of one seed, raising its error."""
        [[(_, built)]] = self.build_trials([seed])
        return _raised(built)

    def build_on(self, ch: ChannelSet):
        """Build (scheme, extended channel) against a channel set with this
        configuration's K and M."""
        family = get_family(self.family)
        if family.channel_shape(self) is None:
            raise ParameterError(
                f"{self.family} fixes its own channels and takes no channel set")
        if (ch.K, ch.M) != (self.K, self.M):
            raise ParameterError(
                f"channel set has K={ch.K}, M={ch.M}, but the scheme is "
                f"configured for K={self.K}, M={self.M}")
        trial, slots = family.build(self, ChannelStack.of(ch))
        [(_, built)] = BuiltStack((ch.seed,), slots, trial)
        return _raised(built)


def _raised(built):
    """A build, or its error raised."""
    if isinstance(built, Exception):
        raise built
    return built


@dataclass(frozen=True)
class BuiltStack:
    """The builds of one stack of trial seeds.

    ``trial`` is the stacked (scheme, extended channel) of the trials that
    built, as :func:`~ia_lab.receiver.zf_rates` takes it, with no trials
    when none built; ``slots[i]`` is seed i's row in it, or the TRIAL_ERRORS
    instance its build gives. Seeds share a row when they share a build.
    Iterating gives (seed, build) pairs, a build being the trial's own
    (scheme, extended channel) or its error.
    """

    seeds: tuple
    slots: tuple
    trial: tuple

    def __iter__(self):
        scheme, ext = self.trial
        return iter([(seed, slot if isinstance(slot, Exception) else (scheme[slot], ext[slot]))
                     for seed, slot in zip(self.seeds, self.slots)])


@dataclass(frozen=True)
class RateRecord:
    snr_db: float
    seed: int
    rates: tuple  # None when the trial failed
    status: str  # "ok" | "failed"

    @property
    def sum_rate(self) -> float:
        # in user order, one addition at a time (numpy's unrolled sum would
        # round some rows differently)
        return float(reduce(add, self.rates, 0.0)) if self.rates is not None else math.nan


@dataclass(frozen=True)
class RateTable:
    """Per-SNR, per-trial zero-forcing rates of one family; grid points distinct."""

    K: int
    snr_db: tuple
    records: tuple

    def ok_records(self):
        return [r for r in self.records if r.status == "ok"]

    def failures(self):
        return [r for r in self.records if r.status != "ok"]

    def mean_sum_rates(self) -> np.ndarray:
        """Mean sum rate per grid point over successful trials (nan if none)."""
        return _means(_by_point(self)[0])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["snr_db", "seed", "user", "rate_bits",
                             "sum_rate_bits", "status"])
            for rec in self.records:
                for user in range(self.K):
                    rate = rec.rates[user] if rec.rates is not None else math.nan
                    writer.writerow([rec.snr_db, rec.seed, user + 1,
                                     repr(float(rate)), repr(rec.sum_rate),
                                     rec.status])


def _by_point(table: RateTable) -> tuple:
    """One pass over a table's records: per grid point, the sum rates of its
    ok records in record order, and each seed's last of them (seeds in order
    of their first ok record there); and the seeds with a failed row."""
    column = {s: i for i, s in enumerate(table.snr_db)}
    sums = [[] for _ in table.snr_db]
    last = [{} for _ in table.snr_db]
    failed = set()
    for r in table.records:
        if r.status != "ok":
            failed.add(r.seed)
        elif (i := column.get(r.snr_db)) is not None:
            sums[i].append(r.sum_rate)
            last[i][r.seed] = sums[i][-1]
    return sums, last, failed


def _means(lists) -> np.ndarray:
    """np.mean of each list, nan where one is empty. Lists of one length
    reduce as the rows of one array, each row pairwise as np.mean sums a
    list."""
    means = np.full(len(lists), np.nan)
    for n in {len(values) for values in lists} - {0}:
        rows = [i for i, values in enumerate(lists) if len(values) == n]
        means[rows] = np.add.reduce(np.array([lists[i] for i in rows]), axis=1) / n
    return means


# numpy's SeedSequence, of whose spawned children _trial_seed takes one
# uint64 of state without importing numpy.random
_MASK32 = 0xFFFFFFFF


def _hashmix(value: int, const: int, mult: int = 0x931E8875) -> tuple:
    value ^= const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


def _words(n: int) -> list:
    """The 32-bit words of a nonnegative integer, least significant first."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _mixed(pool: list, const: int, words) -> tuple:
    """(pool, hash constant) once ``words`` are mixed into every pool word."""
    pool = list(pool)
    for word in words:
        for i in range(4):
            hashed, const = _hashmix(word, const)
            pool[i] = _mix(pool[i], hashed)
    return pool, const


def _root_pool(root: int) -> tuple:
    """(pool, hash constant) of ``SeedSequence(root, spawn_key=...)`` once
    its root, padded to the pool's 4 words as a spawn key has it, is mixed
    in: what the trials of one root share."""
    words = _words(root)
    words += [0] * (4 - len(words))
    pool, const = [], 0x43B0D7E5
    for word in words[:4]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    return _mixed(pool, const, words[4:])


def _trial_seed(root_seed: int, trial: int, root_pool: tuple = None) -> int:
    """``SeedSequence(root_seed, spawn_key=(trial,)).generate_state(1,
    np.uint64)[0]``; ``root_pool`` is ``_root_pool(root_seed)`` when the
    caller has it."""
    pool, _ = _mixed(*(root_pool or _root_pool(root_seed)), _words(trial))
    low, const = _hashmix(pool[0], 0x8B51F9DD, 0x58F38DED)
    high, _ = _hashmix(pool[1], const, 0x58F38DED)
    return low | high << 32


def _trial_bytes(config: SchemeConfig) -> int:
    """Rough bytes one trial of ``config`` adds to each receiver batch of a
    receiver pass."""
    L, streams = get_family(config.family).extension(config)
    return _receiver_bytes(L * config.M, streams)


def snr_grid(snr_db) -> tuple:
    """The grid as floats; ParameterError unless it is nonempty, finite and
    strictly increasing."""
    grid = tuple(float(s) for s in snr_db)
    if (not grid or not all(math.isfinite(s) for s in grid)
            or any(b <= a for a, b in zip(grid, grid[1:]))):
        raise ParameterError("snr grid must be nonempty, finite and strictly increasing")
    return grid


def snr_sweep(config: SchemeConfig, snr_db, trials: int, seed: int) -> RateTable:
    """Evaluate a scheme family over an SNR grid with fresh channels per trial.

    The channel seed of each trial is derived from ``seed``, an unsigned
    64-bit integer, and the trial index only, so one realization spans the
    whole grid. ``config`` needs ``K`` and :meth:`SchemeConfig.build_trials`.
    """
    grid = snr_grid(snr_db)
    if not isinstance(trials, Integral) or trials < 1:
        raise ParameterError(f"need a whole number of trials, at least one, got {trials!r}")
    if not isinstance(seed, Integral):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2 ** 64:
        raise ParameterError("seed must fit in an unsigned 64-bit integer")
    seed = int(seed)

    rhos = [10.0 ** (snr / 10.0) for snr in grid]
    root = _root_pool(seed)
    seeds = [_trial_seed(seed, t, root) for t in range(trials)]
    records = []
    for stack in config.build_trials(seeds):
        # seeds that share one build (a family that draws no channels)
        # share its evaluation too
        rows = [None if rates is None else rates.tolist()
                for rates in zf_rates(*stack.trial, rhos)]
        for tseed, slot in zip(stack.seeds, stack.slots):
            trial = None if isinstance(slot, Exception) else rows[slot]
            if trial is None:
                records.extend(map(RateRecord, grid, repeat(tseed), repeat(None),
                                   repeat("failed")))
            else:
                records.extend(map(RateRecord, grid, repeat(tseed), map(tuple, trial),
                                   repeat("ok")))
    return RateTable(K=config.K, snr_db=grid, records=tuple(records))


@dataclass(frozen=True)
class DofEstimate:
    slope: float
    half_width: float
    snr_db: tuple
    trials_used: int
    trials_failed: int  # trials with a failed row; they are left out of the fit


MIN_FIT_SNR_DB = 40.0


def estimate_dof(table: RateTable) -> DofEstimate:
    """Least-squares slope of mean sum rate against log2(rho).

    Only grid points at 40 dB or above enter the fit (lower points bias the
    slope through their constant terms); at least two such points with
    successful trials are required. The half-width is a normal 95% interval
    from the spread of per-trial slopes.
    """
    sums, last, failed = _by_point(table)
    high = [i for i, s in enumerate(table.snr_db) if s >= MIN_FIT_SNR_DB]
    usable = [i for i in high if sums[i]]
    if len(high) >= 2 and len(usable) < 2:
        # the grid is long enough; failed trials left too little to fit
        trials = len({r.seed for r in table.records})
        lost = trials - len(set().union(*(last[i] for i in usable)))
        if lost == trials:
            raise InsufficientDataError(f"all {trials} trials failed")
        raise InsufficientDataError(
            f"{lost} of {trials} trials failed, leaving {len(usable)} of "
            f"{len(high)} SNR points at >= 40 dB with successful trials")
    if len(usable) < 2:
        raise InsufficientDataError(
            "need at least two SNR points at >= 40 dB with successful trials")
    x = np.array([table.snr_db[i] / 10.0 * math.log2(10.0) for i in usable])
    slope = float(np.polyfit(x, _means([sums[i] for i in usable]), 1)[0])

    # the trials with an ok record at every usable point, in order of their
    # first at the first point, each at its last ok record per point
    first, *rest = (last[i] for i in usable)
    complete = [seed for seed in first if all(seed in at for at in rest)]
    half = 0.0
    if len(complete) > 1:
        # one least-squares fit of every complete trial
        trial_slopes = np.polyfit(x, [[last[i][seed] for seed in complete] for i in usable], 1)[0]
        half = 1.96 * float(np.std(trial_slopes, ddof=1)) / math.sqrt(len(complete))
    return DofEstimate(slope=slope, half_width=half,
                       snr_db=tuple(table.snr_db[i] for i in usable),
                       trials_used=len(complete), trials_failed=len(failed))


@dataclass(frozen=True)
class GapProbe:
    claimed_dof: float
    snr_db: tuple
    gaps: tuple
    oscillation: float


def estimate_o1_gap(table: RateTable, claimed_dof: float) -> GapProbe:
    """Gap of the mean sum rate to claimed_dof * log2(1 + rho) over the grid.

    A bounded oscillation (max minus min of the gap) over a wide grid is
    evidence that the rate curve differs from the claimed line by a
    constant; growing oscillation is evidence against.
    """
    if table.snr_db[-1] - table.snr_db[0] < MIN_FIT_SNR_DB - 1e-9:
        raise ParameterError("gap probing needs a grid spanning at least 40 dB")
    sums = _by_point(table)[0]
    usable = [i for i, values in enumerate(sums) if values]
    if not usable:
        raise InsufficientDataError(
            f"all {len({r.seed for r in table.records})} trials failed")
    snr_db = tuple(table.snr_db[i] for i in usable)
    gaps = tuple(mean - float(claimed_dof) * math.log2(1.0 + 10.0 ** (s / 10.0))
                 for s, mean in zip(snr_db, _means([sums[i] for i in usable]).tolist()))
    return GapProbe(claimed_dof=float(claimed_dof), snr_db=snr_db, gaps=gaps,
                    oscillation=float(max(gaps) - min(gaps)))


# corners of the three-user degrees-of-freedom region: one user alone (three
# ways), the symmetric alignment point, and silence
REGION_CORNERS = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.5, 0.5, 0.5],
    [0.0, 0.0, 0.0],
])

_REGION_TOL = 1e-12


def check_dof_point(point) -> None:
    """ParameterError unless every component of ``point`` is finite."""
    if not all(math.isfinite(x) for x in point):
        raise ParameterError("a degrees-of-freedom point must be finite")


def in_dof_region(point) -> bool:
    """Membership in the region: nonnegative with all pairwise sums <= 1.
    ParameterError unless the point has 3 finite components."""
    d = np.asarray(point, dtype=float)
    if d.shape != (3,):
        raise ParameterError("a degrees-of-freedom point has exactly 3 components")
    check_dof_point(d)
    pair_ok = all(d[i] + d[j] <= 1.0 + _REGION_TOL for i in range(3) for j in range(i + 1, 3))
    return bool(np.all(d >= -_REGION_TOL) and pair_ok)


def decompose_dof_point(point) -> np.ndarray:
    """Convex weights over the five region corners reconstructing ``point``.

    For total s = d1+d2+d3 <= 1 the single-user corners take the
    coordinates themselves and silence absorbs 1-s. For s > 1 the symmetric
    corner takes 2(s-1) and single-user corner i takes 1-d_j-d_k, which is
    nonnegative exactly because the pairwise sums stay below one. Weights
    are nonnegative, sum to one, and reconstruct the point exactly.
    """
    d = np.asarray(point, dtype=float)
    if not in_dof_region(d):
        raise RegionMembershipError(
            f"point {tuple(d)} violates the pairwise-sum constraints")
    total = float(d.sum())
    if total <= 1.0:
        weights = np.array([d[0], d[1], d[2], 0.0, 1.0 - total])
    else:
        weights = np.array([
            1.0 - d[1] - d[2],
            1.0 - d[0] - d[2],
            1.0 - d[0] - d[1],
            2.0 * (total - 1.0),
            0.0,
        ])
    return weights


def sample_dof_region(count: int, seed: int = 0) -> np.ndarray:
    """Uniform samples from the region by rejection from the unit cube."""
    if not isinstance(count, Integral) or count < 0:
        raise ParameterError(f"need a whole, nonnegative number of samples, got {count!r}")
    if not isinstance(seed, Integral) or not 0 <= seed < 2 ** 128:
        raise ParameterError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    out = np.empty((count, 3))
    have = 0
    while have < count:
        batch = rng.uniform(0.0, 1.0, size=(4 * (count - have) + 8, 3))
        sums = batch @ np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]).T
        keep = batch[np.all(sums <= 1.0, axis=1)]
        take = min(count - have, keep.shape[0])
        out[have:have + take] = keep[:take]
        have += take
    return out


class CognitiveScenario(IntEnum):
    """Message-sharing scenarios on the three-user channel."""

    ONE_MESSAGE_SHARED = 1       # one message at every other node
    TWO_MESSAGES_SHARED = 2      # two messages at every other node
    COGNITIVE_RECEIVER = 3       # one receiver knows all other messages
    COGNITIVE_TRANSMITTER = 4    # one transmitter knows all other messages

_COGNITIVE_DOF = {
    CognitiveScenario.ONE_MESSAGE_SHARED: Fraction(3, 2),
    CognitiveScenario.TWO_MESSAGES_SHARED: Fraction(2),
    CognitiveScenario.COGNITIVE_RECEIVER: Fraction(3, 2),
    CognitiveScenario.COGNITIVE_TRANSMITTER: Fraction(2),
}


def cognitive_dof(scenario) -> Fraction:
    """Total degrees of freedom under one cognitive-sharing scenario.

    Sharing a single message changes nothing (3/2); sharing two messages,
    or giving one transmitter full knowledge, reaches 2; a fully cognitive
    receiver stays at 3/2. A cognitive transmitter can cancel interference
    it knows about, a cognitive receiver without its own message cannot
    contribute, hence the asymmetry.
    """
    try:
        scenario = CognitiveScenario(scenario)
    except ValueError:
        raise ParameterError(f"no cognitive-sharing scenario {scenario!r}; "
                             "the scenarios are 1-4") from None
    return _COGNITIVE_DOF[scenario]
