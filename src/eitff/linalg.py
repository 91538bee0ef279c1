"""Field tags, the decompositions the package needs, and the
block-relation kernel.

Matrices are plain numpy arrays in the field's dtype: float64 over R,
complex128 over C; a stack of m matrices of size r x r is one (m, r, r)
array, and the field tag lives on the container that holds it.  Polar
factors come from the SVD, null spaces of Hermitian matrices from
`eigh`.  `relation_residual` measures the block-Gram identity shared by
anticommuting families and unitary simplices.

`Mat`, a field-tagged complex128 carrier, is kept only where the
benchmark in `perfbench/` reads it: as the element type of
`FusionFrame.isometries` and `RhoOrthonormalSeq.mats`, and as the
argument of `nullspace`.  It goes once the benchmark reads plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DomainError,
    InvalidInputError,
    NumericError,
    ShapeError,
    SingularMatrixError,
)

DEFAULT_TOL = 1e-10


class FieldTag(Enum):
    REAL = "R"
    COMPLEX = "C"


@dataclass(frozen=True, eq=False)
class Mat:
    """Immutable dense matrix over R or C, kept only as the benchmark's
    carrier (see the module docstring).

    Entries are stored as C-ordered complex128 regardless of the field
    tag, so the storage always has a float64 view; a real-tagged matrix
    must have every imaginary part exactly zero and the constructor
    rejects anything else.  All entries must be finite.
    """

    field: FieldTag
    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=np.complex128, order="C")
        if arr.ndim != 2:
            raise ShapeError(f"matrix must be 2-d, got ndim={arr.ndim}")
        require_finite(arr, "matrix")
        if self.field is FieldTag.REAL:
            if np.any(arr.imag != 0.0):
                raise InvalidInputError(
                    "real-tagged matrix has a nonzero imaginary part"
                )
            arr = arr.real.astype(np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    def working(self) -> np.ndarray:
        """Entries in the field's natural dtype (float64 when real).

        Returns a contiguous array: the strided `.real` view would push
        matmul off the fast BLAS path.
        """
        if self.field is FieldTag.REAL:
            return np.ascontiguousarray(self.array.real)
        return self.array


def max_abs(values) -> float:
    """Largest entrywise magnitude; zero for an empty array."""
    arr = np.asarray(values)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def require_finite(a: np.ndarray, what: str) -> None:
    """Refuse NaN and infinite entries, which every residual test here
    would otherwise read as a pass."""
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{what} entries must be finite")


def polar_unitary(a: np.ndarray) -> np.ndarray:
    """Unitary polar factor U V* of an invertible square matrix, in its dtype."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"polar factor needs a square matrix, got {a.shape}")
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge on {a.shape} input") from exc
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise SingularMatrixError(
            f"matrix is numerically singular (s_min/s_max = {s[-1]}/{s[0]})"
        )
    return u @ vh


def nullspace(a: Mat, tol: float) -> np.ndarray:
    """Orthonormal basis of the numerical null space of a Hermitian matrix.

    The basis comes from `eigh`, so only the lower triangle is read.  An
    eigenvector is kept when |lambda| <= tol * max |lambda|, the singular
    value rule ||a x|| <= tol ||a|| ||x||; for the PSD matrices of the
    witness search that is lambda <= tol * lambda_max.  May legitimately
    have zero columns.  The basis is in the field's dtype.
    """
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if a.rows != a.cols:
        raise ShapeError(f"null space needs a square Hermitian matrix, got {a.shape}")
    lam, vecs = np.linalg.eigh(a.working())
    size = np.abs(lam)
    return vecs[:, size <= tol * np.max(size, initial=0.0)]


def relation_residual(
    stack: np.ndarray, offdiag: float
) -> tuple[float, tuple[int, int]]:
    """Worst violation of the block-Gram identity of an (m, r, r) stack.

    With H_ij = C_i* C_j the identity reads H_ii = I and
    H_ij + H_ji = offdiag * I for i != j: offdiag = 0 for an
    anticommuting unitary family, -2/(n-2) for a unitary simplex.  Each
    block row C_i* [C_i ... C_m] is one batched product in the stack's
    own dtype, so the full (m r)^2 Gram is never formed.  Returns the
    largest entrywise residual and the 1-indexed pair (i, j), i <= j,
    where it first occurs; (1, 1) when every relation holds exactly.
    """
    eye = np.eye(stack.shape[-1])
    worst, where = 0.0, (1, 1)
    for i in range(len(stack)):
        row = stack[i].conj().T @ stack[i:]
        row[1:] += row[1:].conj().swapaxes(1, 2) - offdiag * eye
        row[0] -= eye
        errs = np.abs(row).max(axis=(1, 2))
        k = int(np.argmax(errs))
        if errs[k] > worst:
            worst, where = float(errs[k]), (i + 1, i + 1 + k)
    return worst, where
