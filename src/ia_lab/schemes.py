"""Precoding scheme containers and their JSON export."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .linalg import has_full_column_rank


@dataclass(frozen=True)
class PrecoderScheme:
    """Per-transmitter beamforming matrices over an L-slot extension.

    ``precoders[i]`` is the (L*M) x d_i matrix whose columns carry the
    independent data streams of transmitter i. Columns are intentionally
    not normalized here; the receiver normalizes them when computing rates.
    ``n`` (the alignment order of the single-antenna families) and
    ``parity`` (even or odd M of the MIMO family) are None where they do
    not apply.

    The schemes of one family and shape built together form a stack: every
    precoder gets a leading trial axis, (T, L*M, d_i). ``scheme[t]`` is the
    scheme of trial t, and indexing with an array of trials, or with None
    (the stack of one), gives a stack, as numpy indexing does.
    """

    family: str
    K: int
    M: int
    L: int
    precoders: tuple
    n: int = None
    parity: str = None

    @property
    def stacked(self) -> bool:
        """True for a stack of schemes."""
        return self.precoders[0].ndim == 3

    def __getitem__(self, t) -> "PrecoderScheme":
        return replace(self, precoders=tuple(v[t] for v in self.precoders))

    @property
    def stream_counts(self) -> tuple:
        return tuple(v.shape[-1] for v in self.precoders)

    @property
    def total_streams(self) -> int:
        return sum(self.stream_counts)

    @property
    def claimed_dof(self) -> Fraction:
        """Streams per channel use the construction is designed to deliver."""
        return Fraction(self.total_streams, self.L)


class TrialStack:
    """Bookkeeping of a build over a stack of trials: which trials are still
    in it, and the error of each one that failed.

    A stacked build computes on arrays with a leading axis over the trials
    still in it; row r of those arrays is trial ``rows[r]``. ``fail`` gives
    each row whose ``ok`` entry is False its own error, unless its trial has
    one already, so a trial keeps the error of the first step it fails, as
    it does alone. ``cut`` drops the rows of failed trials; every array that
    the build still uses goes through the same ``cut`` call.
    """

    def __init__(self, size: int):
        self.rows = np.arange(size)
        self.errors = [None] * size
        self._failed = False  # whether a row failed since the last cut

    def fail(self, ok, error: type, message: str) -> None:
        if np.logical_and.reduce(ok, axis=None):
            return
        for t in self.rows[~ok]:
            if self.errors[t] is None:
                self.errors[t] = error(message)
                self._failed = True

    def cut(self, *arrays) -> tuple:
        """``arrays`` without the rows of failed trials. Indexing the first
        axis keeps each row's memory layout, so whatever is summed over a
        row later sums in the same order as for the trial alone."""
        if not self._failed:
            return arrays
        self._failed = False
        keep = np.array([self.errors[t] is None for t in self.rows], dtype=bool)
        self.rows = self.rows[keep]
        return tuple(a[keep] for a in arrays)

    def slots(self) -> tuple:
        """Per trial of the stack: its row among the trials still in it, or
        its error."""
        out = list(self.errors)
        for r, t in enumerate(self.rows):
            out[t] = r
        return tuple(out)

    def one(self, result):
        """For a stack of one: ``result[0]``, or the trial's error raised."""
        [error] = self.errors
        if error is not None:
            raise error
        return result[0]


def full_rank_schemes(stack: TrialStack, error: type, precoders: tuple,
                      **fields) -> PrecoderScheme:
    """The stacked PrecoderScheme of the trials of a stacked build whose
    precoders all have full column rank, in the rows of ``stack``.

    ``precoders[i]`` stacks transmitter i's precoders over the rows of
    ``stack``. A trial whose precoder does not have full column rank gets
    ``error`` naming its first such transmitter, and leaves the stack.
    Transmitters of one shape share one full-rank call, column-major ones
    apart (they sum their column norms in another order).
    """
    precoders = stack.cut(*precoders)
    groups, ok = {}, {}
    for i, v in enumerate(precoders):
        groups.setdefault((v.shape[1:], v.shape[-1] > 1 and v.strides[-2] < v.strides[-1]),
                          []).append(i)
    for members in groups.values():
        full = has_full_column_rank(np.concatenate([precoders[i] for i in members])
                                    if len(members) > 1 else precoders[members[0]])
        ok.update(zip(members, full.reshape(len(members), len(stack.rows))))
    for i in range(len(precoders)):
        stack.fail(ok[i], error, f"precoder of transmitter {i + 1} lost full column rank")
    return PrecoderScheme(precoders=stack.cut(*precoders), **fields)


def _matrix_entries(v: np.ndarray) -> list:
    # column-major walk
    return [{"re": float(v[r, c].real), "im": float(v[r, c].imag)}
            for c in range(v.shape[1]) for r in range(v.shape[0])]


def scheme_to_dict(scheme: PrecoderScheme) -> dict:
    doc = {
        "family": scheme.family,
        "K": scheme.K,
        "M": scheme.M,
        "L": scheme.L,
        "stream_counts": list(scheme.stream_counts),
        "precoders": [
            {"rows": int(v.shape[0]), "cols": int(v.shape[1]),
             "entries": _matrix_entries(v)}
            for v in scheme.precoders
        ],
    }
    if scheme.n is not None:
        doc["n"] = scheme.n
    if scheme.parity is not None:
        doc["parity"] = scheme.parity
    return doc


def save_scheme(scheme: PrecoderScheme, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(scheme_to_dict(scheme), fh, indent=1)
        fh.write("\n")
