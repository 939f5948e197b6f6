"""Precoding scheme containers and their JSON export."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import ShapeError
from .linalg import RANK_TOL, _rank, equilibrate_columns, has_full_column_rank, qr_complement


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
    scheme of trial t, an array of trials gives a stack, and None, on a
    single scheme only, the stack of one, as for a ChannelSet.

    ``complements`` keeps :meth:`complement` of each j it was taken for (by
    the build that decides a shared transmitter's rank, or else by the
    receiver pass), and selection takes its rows along with the precoders'.
    It is only a cache: == and repr leave it out, and a scheme made by hand
    or by ``dataclasses.replace`` starts without it.
    """

    family: str
    K: int
    M: int
    L: int
    precoders: tuple
    n: int = None
    parity: str = None
    complements: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def stacked(self) -> bool:
        """True for a stack of schemes."""
        return self.precoders[0].ndim == 3

    def __getitem__(self, t) -> "PrecoderScheme":
        if (t is None) == self.stacked:
            raise ShapeError("a trial index needs a stack of schemes, None one scheme")
        out = replace(self, precoders=tuple(v[t] for v in self.precoders))
        out.complements.update((j, (u[t], ranks[t])) for j, (u, ranks) in self.complements.items())
        return out

    def complement(self, j: int) -> tuple:
        """The complement of the span of transmitter j's precoders, of a
        stack: (u, ranks), the columns of ``u[t]`` from ``ranks[t]`` on
        spanning the complement of trial t's. The ranks come from a
        values-only SVD of the equilibrated precoders, and the bases from
        their ``qr_complement``. Taken on the first call and kept in
        ``complements``."""
        if not self.stacked:
            raise ShapeError("complement needs a stack of schemes")
        if j not in self.complements:
            e = equilibrate_columns(self.precoders[j])
            self.complements[j] = qr_complement(e, _column_ranks(e))
        return self.complements[j]

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
    """Bookkeeping of a build over a stack of trials: the error of each trial
    that failed.

    Every step of a stacked build runs over all the stack's rows, row t
    being trial t. ``fail`` gives each row whose ``ok`` entry is False its
    own error, unless its trial has one already, so a trial keeps the error
    of the first step it fails, as it does alone. A failed row stays in the
    build, finite, and ``finish`` selects the trials that built once, at the
    end, for the scheme and the extension together.
    """

    def __init__(self, size: int):
        self.errors = [None] * size

    def fail(self, ok, error: type, message: str) -> None:
        if np.logical_and.reduce(ok, axis=None):
            return
        for t in np.flatnonzero(~ok):
            if self.errors[t] is None:
                self.errors[t] = error(message)

    def finish(self, scheme: PrecoderScheme, ext):
        """What a build over ``ext`` returns of ``scheme``, which stacks every
        row: for a stacked ``ext``, ((scheme, ext) of the trials that built,
        each trial's row in them or its error), the two themselves when every
        trial built; for one extension, ``one(scheme)``. Indexing the first
        axis keeps each row's memory layout, so whatever is summed over a row
        later sums in the same order as for the trial alone."""
        if not ext.stacked:
            return self.one(scheme)
        kept = [t for t, error in enumerate(self.errors) if error is None]
        if len(kept) < len(self.errors):
            scheme, ext = scheme[kept], ext[kept]
        slots = list(self.errors)
        for r, t in enumerate(kept):
            slots[t] = r
        return (scheme, ext), tuple(slots)

    def one(self, result):
        """``result[0]`` of a stack of one, or its trial's error raised: what a
        single-trial helper returns. A larger stack raises ShapeError."""
        if len(self.errors) != 1:
            raise ShapeError(f"expected one trial, got a stack of {len(self.errors)}")
        [error] = self.errors
        if error is not None:
            raise error
        return result[0]


def _column_ranks(e: np.ndarray) -> np.ndarray:
    """The rank of each matrix of a stack of equilibrated columns, from one
    values-only SVD: ``has_full_column_rank``'s rule."""
    return _rank(np.linalg.svd(e, compute_uv=False), RANK_TOL)


def full_rank_schemes(stack: TrialStack, error: type, precoders: tuple,
                      **fields) -> PrecoderScheme:
    """The stacked PrecoderScheme of a stacked build's precoders, every row
    kept; ``precoders[i]`` stacks transmitter i's over the rows of ``stack``.

    A trial whose precoder does not have full column rank gets ``error``
    naming its first such transmitter. A transmitter j whose image several
    receivers carry (``Family.shared_images``) has full column rank where
    the values-only SVD of its equilibrated columns gives rank d_j, the rank
    :meth:`PrecoderScheme.complement` reads. The scheme keeps that
    complement for the receiver pass, taken once every transmitter's rank
    is known and for the trials that built only: the rows of the others,
    which :meth:`TrialStack.finish` drops, are zero. The other transmitters
    of one shape share one full-rank call, column-major ones apart (they sum
    their column norms in another order).
    """
    # families imports the builders, which import this module
    from .families import get_family

    scheme = PrecoderScheme(precoders=precoders, **fields)
    shared = get_family(scheme.family).shared_images(scheme.K)
    groups, ok, pending = {}, {}, {}
    for j in shared:
        e = equilibrate_columns(precoders[j])
        ranks = _column_ranks(e)
        ok[j], pending[j] = ranks == precoders[j].shape[-1], (e, ranks)
    for i, v in enumerate(precoders):
        if i not in shared:
            groups.setdefault((v.shape[1:], v.shape[-1] > 1 and v.strides[-2] < v.strides[-1]),
                              []).append(i)
    for members in groups.values():
        full = has_full_column_rank(np.concatenate([precoders[i] for i in members])
                                    if len(members) > 1 else precoders[members[0]])
        ok.update(zip(members, full.reshape(len(members), len(stack.errors))))
    for i in range(len(precoders)):
        stack.fail(ok[i], error, f"precoder of transmitter {i + 1} lost full column rank")
    built = [t for t, err in enumerate(stack.errors) if err is None]
    for j, (e, ranks) in pending.items():
        if len(built) == len(ranks):
            scheme.complements[j] = qr_complement(e, ranks)
        elif built:
            u = np.zeros(e.shape[:-1] + e.shape[-2:-1], dtype=e.dtype)
            u[built] = qr_complement(e[built], ranks[built])[0]
            scheme.complements[j] = u, ranks
    return scheme


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
