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
    receivers carry, the complement of the span of its precoders that
    :func:`full_rank_schemes` kept, the only one the receiver pass
    carries: a (T, L*M, L*M - d_j) stack of orthonormal bases. Selection
    takes its rows along with the precoders'; == and repr leave it out,
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


def full_rank_schemes(stack: TrialStack, error: type, precoders: tuple,
                      **fields) -> PrecoderScheme:
    """The stacked PrecoderScheme of a stacked build's precoders, every row
    kept; ``precoders[i]`` stacks transmitter i's over the rows of ``stack``.

    A trial whose precoder does not have full column rank gets ``error``
    naming its first such transmitter. A transmitter j whose image several
    receivers carry (``Family.shared_images``) has full column rank where
    the :func:`~ia_lab.linalg.householder` of its equilibrated columns says
    so: one QR, and bounds on R, or else its singular values. The scheme
    keeps, in ``complements[j]``, the complement of its span for the
    receiver pass, formed once every transmitter's rank is known and for
    the trials that built only, each of rank d_j: Q's trailing dim - d_j
    columns (at L=275, 8-11 ms per trial; see the README); the bounds
    decide all 12 L=275 builds of perfbench's pools. The rows of the
    others, which :meth:`TrialStack.finish` drops, are zero.
    The other transmitters of one shape share one full-rank call,
    column-major ones apart (they sum their column norms in another order).
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
        ok.update(zip(members, full.reshape(len(members), len(stack.errors))))
    for i in range(len(precoders)):
        stack.fail(ok[i], error, f"precoder of transmitter {i + 1} lost full column rank")
    built = [t for t, err in enumerate(stack.errors) if err is None]
    for j, reflectors in pending.items():
        dim, d = precoders[j].shape[-2:]
        # Q applied to the identity's columns from d_j on
        trailing = _triangles(dim, dim)[2][:, d:]
        if len(built) == len(stack.errors):
            scheme.complements[j] = apply_householder(reflectors, trailing)
        elif built:
            u = apply_householder(tuple(a[built] for a in reflectors), trailing)
            scheme.complements[j] = np.zeros((len(stack.errors),) + u.shape[1:], dtype=u.dtype)
            scheme.complements[j][built] = u
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
