"""Alignment by construction: designed channel coefficients and delay parity.

Two demonstrations that half the signaling dimensions per user survive
arbitrary interference when the channel itself can be chosen. The designed
channel puts every cross link on a sign-flipping two-slot diagonal so all
interference lands on [1, -1] while desired signals ride [1, 1]; the delay
schedule places nodes so own-link delays are even and cross-link delays odd,
making even time slots interference free.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet, is_integer
from .errors import ChannelFileError, ParameterError
from .schemes import PrecoderScheme


def build_designed_channel(K: int) -> tuple:
    """Two-slot designed channel and its fixed beamformers for K users.

    Every direct link is the identity diag(1, 1), every cross link is
    diag(1, -1), and each user sends one stream along [1, 1]. Interference
    is exactly orthogonal to every desired signal, so K streams fit in two
    slots no matter how many users interfere.
    """
    if K < 2:
        raise ParameterError(f"need at least 2 users, got K={K}")
    coeffs = np.zeros((K, K, 2, 1, 1), dtype=complex)
    coeffs[:, :, 0] = 1.0
    coeffs[:, :, 1] = -1.0
    for k in range(K):
        coeffs[k, k, 1] = 1.0
    coeffs.setflags(write=False)
    ext = ChannelSet(K=K, M=1, F=2, a_min=1.0, a_max=1.0, seed=None, coeffs=coeffs)
    beam = np.ones((2, 1), dtype=complex)
    scheme = PrecoderScheme(family="designed", K=K, M=1, L=2,
                            precoders=tuple(beam for _ in range(K)))
    return ext, scheme


@dataclass(frozen=True)
class DelayMatrix:
    """Integer propagation delays in symbol-duration units.

    ``delays[i, j]`` is the delay from transmitter i to receiver j; all
    entries are nonnegative.
    """

    delays: np.ndarray

    @property
    def K(self) -> int:
        return self.delays.shape[0]

    @classmethod
    def from_array(cls, values) -> "DelayMatrix":
        try:
            raw = np.asarray(values)
        except ValueError as err:  # rows of unequal length
            raise ParameterError(f"delay matrix must be square, got {values!r}") from err
        # a bool is no integer here, as nowhere else in the package; numpy
        # makes a list that mixes bools and numbers a number array, so each
        # element is looked at as given
        bools = any(isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat)
        if bools or raw.dtype.kind not in "iuf" or not np.all(
                np.isfinite(raw) & (raw == np.round(raw)) & (raw >= 0)):
            raise ParameterError(f"delays must be nonnegative integers, got {values!r}")
        arr = raw.astype(int)  # a copy; freezing must not leak out
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise ParameterError(f"delay matrix must be a nonempty square, got shape {arr.shape}")
        arr.setflags(write=False)
        return cls(delays=arr)

    @classmethod
    def from_csv(cls, path) -> "DelayMatrix":
        rows = []
        with open(path, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                try:
                    rows.append([int(cell) for cell in row])
                except ValueError as err:
                    raise ChannelFileError(
                        f"{path}: line {lineno}: non-integer delay entry") from err
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ChannelFileError(f"{path}: expected a square K x K integer matrix")
        return cls.from_array(rows)


def check_delay_parity(d: DelayMatrix) -> bool:
    """True iff every own-link delay is even and every cross delay is odd."""
    delays = d.delays
    own = np.diag(delays)
    cross = delays[~np.eye(d.K, dtype=bool)]
    return bool(np.all(own % 2 == 0) and np.all(cross % 2 == 1))


def simulate_delay_schedule(d: DelayMatrix, slots: int) -> np.ndarray:
    """Slot-level simulation of simultaneous transmission at even slots.

    Every transmitter emits at even slots 0, 2, ... below ``slots``; the
    emission at slot t from transmitter i reaches receiver j at slot
    t + delays[i, j]. A reception slot is useful for receiver k iff its own
    signal arrives there and no interfering signal does. Returns, per user,
    the fraction of that receiver's occupied slots (own or interfering
    arrivals) that are useful; with valid parity and uniform cross delays
    this is exactly one half.
    """
    if not check_delay_parity(d):
        raise ParameterError(
            "delay matrix fails the parity condition (own even, cross odd)")
    max_delay = int(np.max(d.delays))
    if not is_integer(slots) or slots % 2 or slots < max(2, 2 * max_delay):
        raise ParameterError(f"slots must be an even integer >= 2*max(delay)="
                             f"{2 * max_delay}, got {slots!r}")
    emissions = range(0, slots, 2)
    fractions = np.empty(d.K, dtype=float)
    for k in range(d.K):
        own = {t + int(d.delays[k, k]) for t in emissions}
        interference = {t + int(d.delays[j, k])
                        for j in range(d.K) if j != k for t in emissions}
        useful = own - interference
        occupied = own | interference
        fractions[k] = len(useful) / len(occupied)
    return fractions
