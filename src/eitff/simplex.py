"""Regular simplices and their matrix avatars.

A regular m-simplex is m unit vectors with constant pairwise inner
product -1/(m-1); its Gram matrix is (mI - J)/(m-1).  The coefficient
matrix Psi_m encodes one in R^{m-1} and is the bridge between
anticommuting unitary families and the unitary simplices that generate
half-dimensional Grassmannian codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, InvalidInputError
from .linalg import FieldTag, field_array, max_abs, relation_residual
from .radon_hurwitz import RhoOrthonormalSeq, verify_rho_orthonormal


@dataclass(frozen=True, eq=False)
class RhoSimplex:
    """n-1 unitaries B_i with B_i* B_j + B_j* B_i = -2/(n-2) I for i != j,
    held as one read-only (n-1, r, r) array in the field's dtype
    (`field_array`)."""

    field: FieldTag
    r: int
    n: int
    blocks: np.ndarray

    def __post_init__(self):
        if self.n < 3:
            raise InvalidInputError(f"a unitary simplex needs n >= 3, got n={self.n}")
        shape = (self.n - 1, self.r, self.r)
        object.__setattr__(self, "blocks", field_array(self.field, self.blocks, shape, "simplex"))

    @cached_property
    def skew_residual(self) -> float:
        """Largest entry of B_i* + B_i over the members, 0 for a
        skew-Hermitian simplex: measured once, as the blocks are read-only."""
        return max_abs(self.blocks.conj().swapaxes(1, 2) + self.blocks)

    @classmethod
    def _adopt(cls, field: FieldTag, r: int, blocks: np.ndarray) -> "RhoSimplex":
        """The simplex whose members are `blocks`, a finite C-ordered
        (n-1, r, r) array in the field's dtype that the caller hands over:
        kept without a copy or a check, and made read-only."""
        blocks.setflags(write=False)
        simplex = object.__new__(cls)
        for name, value in (("field", field), ("r", r), ("n", len(blocks) + 1), ("blocks", blocks)):
            object.__setattr__(simplex, name, value)
        return simplex


@lru_cache(maxsize=16)
def simplex_matrix(m: int) -> np.ndarray:
    """Coefficient matrix Psi_m, built by the standard recursion and kept,
    read-only, for the next call with the same m.

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
    psi.setflags(write=False)
    return psi


def rho_simplex_from_orthonormal(seq: RhoOrthonormalSeq) -> RhoSimplex:
    """Unitary simplex B_j = sum_i Psi_{n-1}(i, j) C_i from an
    anticommuting family of length n-2."""
    residual = verify_rho_orthonormal(seq)
    if not residual <= 1e-12:
        raise InvalidInputError(
            f"generators violate the Radon–Hurwitz relations (residual {residual:.2e})"
        )
    m, r = len(seq), seq.r
    psi = simplex_matrix(m + 1)
    blocks = (psi.T @ seq.array.reshape(m, -1)).reshape(-1, r, r)
    return RhoSimplex._adopt(seq.field, r, blocks)


def verify_rho_simplex(s: RhoSimplex) -> float:
    """Worst residual of the unitary-simplex relations.  With H = S* S for
    the stacked members S = [B_1 ... B_{n-1}] they are the block identity
    H_ii = I, H_ij + H_ji = -2/(n-2) I, checked by `relation_residual`."""
    return relation_residual(s.blocks, -2.0 / (s.n - 2))[0]
