"""Precoding scheme containers and their JSON export."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import ShapeError
from .linalg import (_triangles, apply_householder, equilibrate_columns, has_full_column_rank,
                     householder)


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

    ``complements[j]`` holds, for each transmitter j whose image several
    receivers carry, the complement of the span of its precoders, the only
    one the receiver pass carries: a (T, L*M, L*M - d_j) stack of
    orthonormal bases, which :meth:`TrialStack.finish` forms after it
    selects the trials that built, for those trials only. Selection takes
    its rows along with the precoders'; == and repr leave it out,
    and a scheme made by hand or by ``dataclasses.replace`` starts without
    it, its receivers then decomposing each image themselves.
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
        out.complements.update((j, u[t]) for j, u in self.complements.items())
        return out

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
    """Bookkeeping of a build over ``ext``: ``trials`` is ``ext`` as a stack,
    a single extension standing for the stack of one, and ``errors`` holds
    the error of each trial that failed.

    Every step of a stacked build runs over all the rows of ``trials``, row
    t being trial t. ``fail`` gives each row whose ``ok`` entry is False its
    own error, unless its trial has one already, so a trial keeps the error
    of the first step it fails, as it does alone. A failed row stays in the
    build, finite, and ``finish`` selects the trials that built once, at the
    end, for the scheme and the extension together.
    """

    def __init__(self, ext):
        self.ext = ext
        self.trials = ext if ext.stacked else ext[None]
        self.errors = [None] * len(self.trials.coeffs)

    def fail(self, ok, error: type, message: str) -> None:
        if np.logical_and.reduce(ok, axis=None):
            return
        for t in np.flatnonzero(~ok):
            if self.errors[t] is None:
                self.errors[t] = error(message)

    def finish(self, error: type, precoders: tuple, **fields):
        """What the build returns of its ``precoders``, ``precoders[i]``
        stacking transmitter i's over the rows of ``trials``, and the
        PrecoderScheme ``fields``: for a stacked ``ext``, ((scheme, ext) of
        the trials that built, each trial's row in them or its error), the
        two themselves when every trial built; for one extension, its scheme
        or its error raised.

        A trial whose precoder does not have full column rank gets ``error``
        naming its first such transmitter. A transmitter j whose image
        several receivers carry (``Family.shared_images``) has full column
        rank where the :func:`~ia_lab.linalg.householder` of its
        equilibrated columns says so: one QR, and bounds on R, or else its
        singular values. The other transmitters of one shape share one
        full-rank call, column-major ones apart (they sum their column norms
        in another order). Once every rank is known the trials that built
        are selected, and only then does the scheme keep, in
        ``complements[j]``, the complement of j's span for the receiver
        pass, for those trials alone: Q's trailing dim - d_j columns.
        Indexing the first axis keeps each row's memory layout, so whatever
        is summed over a row later sums in the same order as for the trial
        alone.
        """
        # families imports the builders, which import this module
        from .families import get_family

        scheme = PrecoderScheme(precoders=precoders, **fields)
        shared = get_family(scheme.family).shared_images(scheme.K)
        groups, ok, pending = {}, {}, {}
        for j in shared:
            pending[j], ok[j] = householder(equilibrate_columns(precoders[j]))
        for i, v in enumerate(precoders):
            if i not in shared:
                groups.setdefault((v.shape[1:], v.shape[-1] > 1 and v.strides[-2] < v.strides[-1]),
                                  []).append(i)
        for members in groups.values():
            full = has_full_column_rank(np.concatenate([precoders[i] for i in members])
                                        if len(members) > 1 else precoders[members[0]])
            ok.update(zip(members, full.reshape(len(members), len(self.errors))))
        for i in range(len(precoders)):
            self.fail(ok[i], error, f"precoder of transmitter {i + 1} lost full column rank")
        trials = self.trials
        kept = [t for t, err in enumerate(self.errors) if err is None]
        if len(kept) < len(self.errors):
            scheme, trials = scheme[kept], trials[kept]
            pending = {j: tuple(a[kept] for a in r) for j, r in pending.items()}
        for j, reflectors in pending.items():
            dim, d = precoders[j].shape[-2:]
            # Q applied to the identity's columns from d_j on
            scheme.complements[j] = apply_householder(reflectors,
                                                      _triangles(dim, dim)[2][:, d:])
        if not self.ext.stacked:
            return self.one(scheme)
        slots = list(self.errors)
        for r, t in enumerate(kept):
            slots[t] = r
        return (scheme, trials), tuple(slots)

    def one(self, result):
        """``result[0]`` of a stack of one, or its trial's error raised: what a
        single-trial helper returns. A larger stack raises ShapeError."""
        if len(self.errors) != 1:
            raise ShapeError(f"expected one trial, got a stack of {len(self.errors)}")
        [error] = self.errors
        if error is not None:
            raise error
        return result[0]


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
