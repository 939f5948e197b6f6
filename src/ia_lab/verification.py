"""Independent numerical checks of the linear-independence machinery.

The separability matrix stacks the power-basis columns of transmitter 1
next to their images through the direct-to-cross channel ratio at
receiver 1; its nonsingularity is the desk-scale counterpart of the
almost-sure full-rank claim behind the three-user construction, certified
here by singular values and determinants rather than cofactor expansions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet, generate_channels
from .errors import ParameterError, ShapeError
from .linalg import RANK_TOL, _rank, singular_values
from .mimo import build_mimo_even
from .receiver import AlignmentReport, check_alignment
from .siso import loop_gains


@dataclass(frozen=True)
class RankProbe:
    """Singular values of one matrix and the rank they decide.

    The decided rank counts singular values at least ``tolerance``, RANK_TOL,
    times the largest one after unit-norm column scaling (``equilibrated``).
    """

    rows: int
    cols: int
    singular_values: tuple
    tolerance: float
    rank: int
    equilibrated: bool

    @classmethod
    def of(cls, matrix: np.ndarray) -> "RankProbe":
        s = singular_values(matrix)
        return cls(rows=matrix.shape[0], cols=matrix.shape[1],
                   singular_values=tuple(float(x) for x in s),
                   tolerance=RANK_TOL, rank=_rank(s, RANK_TOL), equilibrated=True)

    @property
    def full_rank(self) -> bool:
        return self.rank == min(self.rows, self.cols)

    def to_json(self) -> str:
        return json.dumps({
            "rows": self.rows, "cols": self.cols, "rank": self.rank,
            "tolerance": self.tolerance, "equilibrated": self.equilibrated,
            "singular_values": list(self.singular_values),
        })


def separability_matrix(ext: ChannelSet, n: int) -> np.ndarray:
    """Square (2n+1) x (2n+1) matrix whose nonsingularity certifies that the
    desired streams at receiver 1 separate from the aligned interference.

    Columns are loop^0 .. loop^n applied to the all-ones vector followed by
    the same columns up to power n-1 scaled by the diagonal ratio
    h12/h11 per slot.
    """
    if n < 1:
        raise ParameterError(f"alignment order must be >= 1, got n={n}")
    if ext.F != 2 * n + 1:
        raise ShapeError(f"order n={n} needs a {2 * n + 1}-slot extension, got {ext.F}")
    loop = loop_gains(ext)
    ratio = ext.diagonal(0, 1) / ext.diagonal(0, 0)
    powers = loop[:, None] ** np.arange(n + 1)
    return np.hstack([powers, ratio[:, None] * powers[:, :n]])


@dataclass(frozen=True)
class VandermondeCheck:
    det_lu: complex
    det_product: complex
    relative_error: float

    @property
    def ok(self) -> bool:
        return self.relative_error <= 1e-9


def vandermonde_check(nodes) -> VandermondeCheck:
    """Compare the Vandermonde determinant against its closed-form product.

    The matrix has rows (1, x, x^2, ...); its determinant is the product of
    (x_j - x_i) over i < j, zero exactly when two nodes coincide. The LU
    route (partial pivoting, via LAPACK) and the product formula must agree
    to 1e-9 relative for well-separated nodes.
    """
    x = np.asarray(nodes, dtype=complex)
    if x.ndim != 1 or x.size < 1:
        raise ParameterError("nodes must be a nonempty vector")
    matrix = np.vander(x, increasing=True)
    det_lu = complex(np.linalg.det(matrix))
    det_product = complex(np.prod([x[j] - x[i]
                                   for j in range(x.size) for i in range(j)]))
    # determinants below the rounding floor of this node set (repeated or
    # nearly repeated nodes) agree in the only sense that is meaningful:
    # both are numerically zero
    pairs = x.size * (x.size - 1) // 2
    floor = 1e-12 * max(1.0, float(np.max(np.abs(x)))) ** pairs
    scale = max(abs(det_lu), abs(det_product))
    rel = 0.0 if scale <= floor else abs(det_lu - det_product) / scale
    return VandermondeCheck(det_lu=det_lu, det_product=det_product,
                            relative_error=float(rel))


def diagonal_channels(M: int, seed: int) -> ChannelSet:
    """Constant 3-user channels whose M x M links are diagonal.

    This is what an M-slot symbol extension of single-antenna links looks
    like when recast as antennas; the off-diagonal zeros deliberately break
    the magnitude bounds a generated ChannelSet would satisfy.
    """
    if M < 1:
        raise ParameterError(f"M must be positive, got {M}")
    scalars = generate_channels(3, 1, M, seed=seed)
    coeffs = np.zeros((3, 3, 1, M, M), dtype=complex)
    for k in range(3):
        for j in range(3):
            np.fill_diagonal(coeffs[k, j, 0], scalars.coeffs[k, j, :, 0, 0])
    coeffs.setflags(write=False)
    return ChannelSet(K=3, M=M, F=1, a_min=scalars.a_min, a_max=scalars.a_max,
                      seed=seed, coeffs=coeffs)


def demonstrate_diagonal_infeasibility(M: int, seed: int,
                                       dense: bool = False) -> AlignmentReport:
    """Run the even-M construction on diagonal (or dense control) channels.

    With diagonal links the loop map is diagonal, its eigenvectors are
    standard basis vectors, and every derived precoder column stays on the
    same basis directions, so desired signal and interference pile onto
    M/2 shared lines: the report shows a rank-deficient desired-plus-
    interference matrix at receiver 1. Dense random channels (the control)
    produce a full-rank report instead.
    """
    if M < 2 or M % 2:
        raise ParameterError(f"demonstration needs even M >= 2, got M={M}")
    ch = generate_channels(3, M, 1, seed=seed) if dense else diagonal_channels(M, seed)
    return check_alignment(build_mimo_even(ch), ch)
