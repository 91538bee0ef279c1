"""Field-tagged matrix storage, the decompositions built on it, and the
block-relation kernel.

`Mat` is an immutable dense matrix tagged as real or complex.  Real
matrices ride inside the complex128 carrier with a hard zero-imaginary
invariant; arithmetic happens on plain numpy arrays in the field's
natural dtype (`Mat.working`).  Polar factors and null spaces come from
the SVD.  `relation_residual` measures the block-Gram identity shared by
anticommuting families and unitary simplices.
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
    """Immutable dense matrix over R or C.

    Entries are stored as complex128 regardless of the field tag; a
    real-tagged matrix must have every imaginary part exactly zero and
    the constructor rejects anything else.  All entries must be finite.
    """

    field: FieldTag
    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=np.complex128)
        if arr.ndim != 2:
            raise ShapeError(f"matrix must be 2-d, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("matrix entries must be finite")
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

    @classmethod
    def from_real(cls, array) -> "Mat":
        return cls(FieldTag.REAL, array)

    @classmethod
    def from_complex(cls, array) -> "Mat":
        return cls(FieldTag.COMPLEX, array)

    @classmethod
    def identity(cls, n: int, field: FieldTag = FieldTag.REAL) -> "Mat":
        return cls(field, np.eye(n))


def max_abs(values) -> float:
    """Largest entrywise magnitude; zero for an empty array."""
    arr = values.array if isinstance(values, Mat) else np.asarray(values)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product, (a.rows*b.rows) x (a.cols*b.cols); real when
    both factors are real, otherwise complex."""
    if a.field is FieldTag.REAL and b.field is FieldTag.REAL:
        return Mat(FieldTag.REAL, np.kron(a.working(), b.working()))
    return Mat(FieldTag.COMPLEX, np.kron(a.array, b.array))


def polar_unitary(a: Mat) -> Mat:
    """Unitary polar factor U V* of an invertible square matrix."""
    if a.rows != a.cols:
        raise ShapeError(f"polar factor needs a square matrix, got {a.shape}")
    try:
        u, s, vh = np.linalg.svd(a.working())
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge on {a.shape} input") from exc
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise SingularMatrixError(
            f"matrix is numerically singular (s_min/s_max = {s[-1]}/{s[0]})"
        )
    return Mat(a.field, u @ vh)


def nullspace(a: Mat, tol: float) -> Mat:
    """Orthonormal basis of the numerical null space.

    A column x is kept when its singular value is at most tol * s_max,
    i.e. ||a x|| <= tol ||a|| ||x||.  May legitimately have zero columns.
    """
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    u, s, vh = np.linalg.svd(a.working(), full_matrices=True)
    smax = float(s[0]) if s.size else 0.0
    padded = np.zeros(a.cols)
    padded[: s.size] = s
    keep = padded <= tol * smax
    return Mat(a.field, vh.conj().T[:, keep])


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
