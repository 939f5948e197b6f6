"""Precoding scheme containers and their JSON export."""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    """

    family: str
    K: int
    M: int
    L: int
    precoders: tuple
    n: int = None
    parity: str = None

    @property
    def stream_counts(self) -> tuple:
        return tuple(v.shape[1] for v in self.precoders)

    @property
    def total_streams(self) -> int:
        return sum(self.stream_counts)

    @property
    def claimed_dof(self) -> Fraction:
        """Streams per channel use the construction is designed to deliver."""
        return Fraction(self.total_streams, self.L)


def full_rank_scheme(error: type, **fields) -> PrecoderScheme:
    """A PrecoderScheme whose precoders all have full column rank.

    Raises ``error`` naming the first transmitter whose precoder does not.
    """
    for idx, v in enumerate(fields["precoders"]):
        if not has_full_column_rank(v):
            raise error(f"precoder of transmitter {idx + 1} lost full column rank")
    return PrecoderScheme(**fields)


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
