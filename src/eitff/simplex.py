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
from .linalg import FieldTag, max_abs, relation_residual, require_finite
from .radon_hurwitz import RhoOrthonormalSeq, verify_rho_orthonormal


@dataclass(frozen=True)
class RhoSimplex:
    """n-1 unitaries B_i with B_i* B_j + B_j* B_i = -2/(n-2) I for i != j,
    held as one (n-1, r, r) array in the field's dtype."""

    field: FieldTag
    r: int
    n: int
    blocks: np.ndarray

    def __post_init__(self):
        if self.n < 3:
            raise InvalidInputError(f"a unitary simplex needs n >= 3, got n={self.n}")
        blocks = np.asarray(self.blocks)
        if blocks.shape != (self.n - 1, self.r, self.r):
            raise ShapeError(
                f"expected {self.n - 1} members of size {self.r}x{self.r} for "
                f"n={self.n}, got shape {blocks.shape}"
            )
        if self.field is FieldTag.REAL and np.iscomplexobj(blocks):
            raise InvalidInputError("complex members in a real-tagged simplex")
        require_finite(blocks, "simplex")
        dtype = np.float64 if self.field is FieldTag.REAL else np.complex128
        object.__setattr__(self, "blocks", blocks.astype(dtype, copy=False))


def simplex_matrix(m: int) -> np.ndarray:
    """Coefficient matrix Psi_m, built by the standard recursion.

    Psi_m is (m-1) x m and real, and its columns form a regular simplex.
    It is upper triangular with positive diagonal and top-left entry 1,
    so it doubles as the coordinate chart of the canonical orthonormal
    basis.  Psi_2 = [1 -1]; for larger m the first row is
    (1, -1/(m-1), ...) and the trailing block is sqrt(m(m-2))/(m-1)
    times Psi_{m-1}.
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
    return psi


def rho_simplex_from_orthonormal(seq: RhoOrthonormalSeq) -> RhoSimplex:
    """Unitary simplex B_j = sum_i Psi_{n-1}(i, j) C_i from an
    anticommuting family of length n-2."""
    residual = verify_rho_orthonormal(seq)
    if residual > 1e-12:
        raise InvalidInputError(
            f"generators violate the Radon–Hurwitz relations (residual {residual:.2e})"
        )
    m, r = len(seq), seq.r
    psi = simplex_matrix(m + 1)
    blocks = (psi.T @ seq.stack().reshape(m, -1)).reshape(-1, r, r)
    return RhoSimplex(seq.field, r, m + 2, blocks)


def normalize_rho_simplex(s: RhoSimplex) -> RhoSimplex:
    """Left-multiply every member by B_1* so the first member is exactly I."""
    blocks = s.blocks[0].conj().T @ s.blocks
    blocks[0] = np.eye(s.r)
    return RhoSimplex(s.field, s.r, s.n, blocks)


def verify_rho_simplex(s: RhoSimplex) -> float:
    """Worst residual of the unitary-simplex relations.  With H = S* S for
    the stacked members S = [B_1 ... B_{n-1}] they are the block identity
    H_ii = I, H_ij + H_ji = -2/(n-2) I, checked by `relation_residual`."""
    return relation_residual(s.blocks, -2.0 / (s.n - 2))[0]


def simplex_basis_recovery(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (v_i) with phi_j = sum_i Psi_m(i, j) v_i.

    Input columns must be a regular simplex in a real space (Gram within
    1e-8 of (mI - J)/(m-1)).  The basis is recovered by classical
    Gram–Schmidt on the first m-1 columns with one re-orthogonalization
    pass, which pins down the unique basis with v_1 = phi_1, v_j in the
    span of the first j columns, and v_{m-1} a positive multiple of
    phi_{m-1} - phi_m.
    """
    v = np.asarray(vectors)
    if np.iscomplexobj(v):
        raise InvalidInputError("simplex vectors must live in a real space")
    if v.ndim != 2:
        raise ShapeError(f"expected a matrix of column vectors, got shape {v.shape}")
    require_finite(v, "simplex vector")
    v = v.astype(np.float64, copy=False)
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
    return np.column_stack(basis)
