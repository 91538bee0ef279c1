"""Regular simplices and their matrix avatars.

A regular m-simplex is m unit vectors with constant pairwise inner
product -1/(m-1); its Gram matrix is (mI - J)/(m-1).  The coefficient
matrix Psi_m encodes one in R^{m-1} and is the bridge between
anticommuting unitary families and the unitary simplices that generate
half-dimensional Grassmannian codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError, ShapeError
from .linalg import FieldTag, Mat, max_abs, relation_residual
from .radon_hurwitz import RhoOrthonormalSeq, verify_rho_orthonormal


@dataclass(frozen=True)
class SimplexMatrix:
    """(m-1) x m real matrix whose columns form a regular simplex.

    Upper triangular with positive diagonal and top-left entry 1, so it
    doubles as the coordinate chart of the canonical orthonormal basis.
    """

    m: int
    mat: Mat


@dataclass(frozen=True)
class RhoSimplex:
    """n-1 unitaries B_i with B_i* B_j + B_j* B_i = -2/(n-2) I for i != j."""

    field: FieldTag
    r: int
    n: int
    mats: tuple[Mat, ...]

    def __post_init__(self):
        object.__setattr__(self, "mats", tuple(self.mats))
        if self.n < 3:
            raise InvalidInputError(f"a unitary simplex needs n >= 3, got n={self.n}")
        if len(self.mats) != self.n - 1:
            raise ShapeError(
                f"expected {self.n - 1} members for n={self.n}, got {len(self.mats)}"
            )
        for m in self.mats:
            if m.shape != (self.r, self.r):
                raise ShapeError(f"expected {self.r}x{self.r} members, got {m.shape}")


def simplex_matrix(m: int) -> SimplexMatrix:
    """Coefficient matrix Psi_m, built by the standard recursion.

    Psi_2 = [1 -1]; for larger m the first row is (1, -1/(m-1), ...) and
    the trailing block is sqrt(m(m-2))/(m-1) times Psi_{m-1}.
    """
    if m < 2:
        raise DomainError(f"simplex needs m >= 2 vectors, got {m}")
    psi = np.array([[1.0, -1.0]])
    for k in range(3, m + 1):
        block = np.zeros((k - 1, k))
        block[0, 0] = 1.0
        block[0, 1:] = -1.0 / (k - 1)
        block[1:, 1:] = (np.sqrt(k * (k - 2)) / (k - 1)) * psi
        psi = block
    return SimplexMatrix(m, Mat.from_real(psi))


def rho_simplex_from_orthonormal(seq) -> RhoSimplex:
    """Unitary simplex B_j = sum_i Psi_{n-1}(i, j) C_i from an
    anticommuting family of length n-2."""
    if isinstance(seq, RhoOrthonormalSeq):
        mats, field, r = seq.mats, seq.field, seq.r
    else:
        mats = tuple(seq)
        if not mats:
            raise InvalidInputError("need at least one generator")
        field = (
            FieldTag.REAL
            if all(m.field is FieldTag.REAL for m in mats)
            else FieldTag.COMPLEX
        )
        r = mats[0].rows
    residual = verify_rho_orthonormal(mats)
    if residual > 1e-12:
        raise InvalidInputError(
            f"generators violate the Radon–Hurwitz relations (residual {residual:.2e})"
        )
    n = len(mats) + 2
    psi = simplex_matrix(n - 1).mat.working()
    stack = np.stack([m.working() for m in mats])
    combos = (psi.T @ stack.reshape(len(mats), -1)).reshape(-1, r, r)
    return RhoSimplex(field, r, n, tuple(Mat(field, b) for b in combos))


def normalize_rho_simplex(s: RhoSimplex) -> RhoSimplex:
    """Left-multiply every member by B_1* so the first member is exactly I."""
    b1h = s.mats[0].array.conj().T
    mats = [Mat.identity(s.r, s.field)]
    mats.extend(Mat(s.field, b1h @ b.array) for b in s.mats[1:])
    return RhoSimplex(s.field, s.r, s.n, tuple(mats))


def verify_rho_simplex(s) -> float:
    """Worst residual of the unitary-simplex relations.  With H = S* S for
    the stacked members S = [B_1 ... B_{n-1}] they are the block identity
    H_ii = I, H_ij + H_ji = -2/(n-2) I, checked by `relation_residual`."""
    if isinstance(s, RhoSimplex):
        mats, n = s.mats, s.n
    else:
        mats = tuple(s)
        n = len(mats) + 1
    if n < 3:
        raise InvalidInputError("a unitary simplex needs at least two members")
    size = mats[0].rows
    for m in mats:
        if m.shape != (size, size):
            raise ShapeError(f"mixed member shapes: {m.shape} vs {size}x{size}")
    stack = np.stack([m.working() for m in mats])
    return relation_residual(stack, -2.0 / (n - 2))[0]


def simplex_basis_recovery(vectors: Mat) -> Mat:
    """Orthonormal basis (v_i) with phi_j = sum_i Psi_m(i, j) v_i.

    Input columns must be a regular simplex in a real space (Gram within
    1e-8 of (mI - J)/(m-1)).  The basis is recovered by classical
    Gram–Schmidt on the first m-1 columns with one re-orthogonalization
    pass, which pins down the unique basis with v_1 = phi_1, v_j in the
    span of the first j columns, and v_{m-1} a positive multiple of
    phi_{m-1} - phi_m.
    """
    if vectors.field is not FieldTag.REAL:
        raise InvalidInputError("simplex vectors must live in a real space")
    v = vectors.working()
    m = v.shape[1]
    if m < 2:
        raise DomainError(f"simplex needs m >= 2 vectors, got {m}")
    gram = v.T @ v
    target = (m * np.eye(m) - np.ones((m, m))) / (m - 1)
    residual = max_abs(gram - target)
    if residual > 1e-8:
        raise InvalidInputError(
            f"columns are not a regular simplex (Gram residual {residual:.2e})"
        )
    basis: list[np.ndarray] = []
    for j in range(m - 1):
        col = v[:, j].copy()
        for _ in range(2):
            for u in basis:
                col -= (u @ col) * u
        norm = np.linalg.norm(col)
        if norm < 1e-8:
            raise InvalidInputError(f"column {j + 1} is degenerate after projection")
        basis.append(col / norm)
    return Mat.from_real(np.column_stack(basis))
