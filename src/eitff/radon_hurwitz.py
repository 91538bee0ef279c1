"""Radon–Hurwitz numbers and explicit anticommuting unitary families.

The Radon–Hurwitz number rho_F(r) is the largest m for which m unitaries
C_1..C_m in F^{r x r} satisfy C_i* C_j + C_j* C_i = 0 for all i != j.
This module computes rho_F(r) from the classical closed form and builds
explicit families of every admissible length over both fields:

* complex families come from a doubling recursion that turns a maximal
  family in C^{s x s} into one in C^{2s x 2s} with two extra members;
* real families come from transcribed tensor-product generators for
  sizes 2, 4, 8, 16 and an inflation step that trades size 16r for
  eight extra members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, InfeasibleParametersError, InvalidInputError, ShapeError
from .linalg import FieldTag, Mat, relation_residual, require_finite


@dataclass(frozen=True)
class RHDecomposition:
    """Exponents (a, b, c) with r = (2a+1) * 2^(4b+c) and 0 <= c <= 3."""

    a: int
    b: int
    c: int

    def reconstruct(self) -> int:
        return (2 * self.a + 1) * 2 ** (4 * self.b + self.c)


@dataclass(frozen=True)
class BaseGenerators:
    """The four 2x2 generator matrices behind every family built here,
    as read-only float64 arrays.

    R is skew-symmetric unitary; M and T are symmetric unitaries; M, T, R
    pairwise anticommute.
    """

    I: np.ndarray
    M: np.ndarray
    T: np.ndarray
    R: np.ndarray


GEN = BaseGenerators(
    I=np.eye(2),
    M=np.diag([1.0, -1.0]),
    T=np.array([[0.0, 1.0], [1.0, 0.0]]),
    R=np.array([[0.0, -1.0], [1.0, 0.0]]),
)
for _g in vars(GEN).values():
    _g.setflags(write=False)


def tensor(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of several factors, left to right."""
    return reduce(np.kron, mats)


@dataclass(frozen=True)
class RhoOrthonormalSeq:
    """Unitaries C_i with C_i* C_j + C_j* C_i = 0 for i != j.

    Structural facts (sizes, field, length <= rho_F(r)) are checked at
    construction; the numeric relations are the builder's business and
    can be re-measured with `verify_rho_orthonormal`.  Members are `Mat`s
    because the benchmark reads them; `from_stack` and `stack` convert
    from and to one (m, r, r) array in the field's dtype.
    """

    field: FieldTag
    r: int
    mats: tuple[Mat, ...]

    def __post_init__(self):
        object.__setattr__(self, "mats", tuple(self.mats))
        if len(self.mats) < 1:
            raise InvalidInputError("sequence needs at least one member")
        for m in self.mats:
            if m.shape != (self.r, self.r):
                raise ShapeError(f"expected {self.r}x{self.r} members, got {m.shape}")
            if self.field is FieldTag.REAL and m.field is not FieldTag.REAL:
                raise InvalidInputError("complex member in a real-tagged sequence")
        cap = rho_number(self.field, self.r)
        if len(self.mats) > cap:
            raise InvalidInputError(
                f"{len(self.mats)} members exceed rho({self.r}) = {cap}"
            )

    @classmethod
    def from_stack(cls, field: FieldTag, stack: np.ndarray) -> "RhoOrthonormalSeq":
        return cls(field, stack.shape[-1], tuple(Mat(field, c) for c in stack))

    def stack(self) -> np.ndarray:
        return np.stack([m.working() for m in self.mats])

    def __len__(self) -> int:
        return len(self.mats)


def decompose_r(r: int) -> RHDecomposition:
    """Unique (a, b, c) with r = (2a+1) * 2^(4b+c), c in [0, 3]."""
    if r < 1:
        raise DomainError(f"r must be a positive integer, got {r}")
    odd, k = int(r), 0
    while odd % 2 == 0:
        odd //= 2
        k += 1
    return RHDecomposition(a=(odd - 1) // 2, b=k // 4, c=k % 4)


def rho_number(field: FieldTag, r: int) -> int:
    """Radon–Hurwitz number: 8b + 2^c over R, 8b + 2c + 2 over C."""
    dec = decompose_r(r)
    if field is FieldTag.REAL:
        return 8 * dec.b + 2**dec.c
    return 8 * dec.b + 2 * dec.c + 2


def real_base_family(r: int) -> np.ndarray:
    """Transcribed real anticommuting skew-symmetric unitaries, r in {2,4,8,16}.

    The members are fixed tensor words in the base generators,
    transcribed rather than computed; the count is rho_R(r) - 1.
    Returned as one (rho_R(r) - 1, r, r) float64 stack.
    """
    I, M, T, R = GEN.I, GEN.M, GEN.T, GEN.R
    if r == 2:
        words = [(R,)]
    elif r == 4:
        words = [(I, R), (R, T), (R, M)]
    elif r == 8:
        words = [
            (M, M, R),
            (M, T, R),
            (M, R, I),
            (T, R, M),
            (T, R, T),
            (T, I, R),
            (R, I, I),
        ]
    elif r == 16:
        words = [
            (R, T, T, T),
            (T, R, T, M),
            (T, M, R, T),
            (T, T, M, R),
            (R, M, M, M),
            (M, R, M, T),
            (M, T, R, M),
            (M, M, T, R),
        ]
    else:
        raise DomainError(f"no transcribed family for r={r}; supported: 2, 4, 8, 16")
    return np.stack([tensor(*word) for word in words])


def inflate_real(stack: np.ndarray) -> np.ndarray:
    """Trade m anticommuting skew unitaries of size r for m+8 of size 16r.

    The input is an (m, r, r) stack; an empty (0, r, r) stack gives the
    eight new members alone.  The new family is (R4 x C_i) for each input
    member followed by (E_i x I_r) over the eight size-16 generators, R4
    being the fourfold tensor power of R.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ShapeError(f"expected an (m, r, r) stack, got shape {stack.shape}")
    require_finite(stack, "family")
    size = stack.shape[-1]
    if len(stack):
        # [I, C_1, ..., C_m] satisfies the Radon–Hurwitz relations exactly
        # when the C_i are anticommuting skew-Hermitian unitaries.
        residual, (i, j) = relation_residual(np.concatenate([np.eye(size)[None], stack]), 0.0)
        if residual > 1e-12:
            if i == 1:
                raise InvalidInputError(f"member {j - 1} is not skew-Hermitian")
            if i == j:
                raise InvalidInputError(f"member {i - 1} is not unitary")
            raise InvalidInputError(f"members {i - 1} and {j - 1} do not anticommute")
    r4 = tensor(GEN.R, GEN.R, GEN.R, GEN.R)
    return np.concatenate([np.kron(r4, stack), np.kron(real_base_family(16), np.eye(size))])


def _real_skew_tower(k: int) -> np.ndarray:
    """Anticommuting skew unitaries of size 2^k, rho_R(2^k) - 1 of them."""
    if k == 0:
        return np.empty((0, 1, 1))
    if k <= 3:
        return real_base_family(2**k)
    return inflate_real(_real_skew_tower(k - 4))


def skew_double(c: np.ndarray) -> np.ndarray:
    """The skew-Hermitian doubling [[0, -C*], [C, 0]], in C's dtype; a
    stack of matrices is doubled member by member."""
    zero = np.zeros_like(c)
    return np.block([[zero, -c.conj().swapaxes(-1, -2)], [c, zero]])


def _double_complex(stack: np.ndarray) -> np.ndarray:
    """One doubling step for complex families.

    Each member C becomes `skew_double(C)`, then i(M x I) and the
    identity are appended, giving two more members at twice the size.
    """
    s = stack.shape[-1]
    diag = np.zeros((2 * s, 2 * s), dtype=np.complex128)
    diag[:s, :s] = 1j * np.eye(s)
    diag[s:, s:] = -1j * np.eye(s)
    return np.concatenate([skew_double(stack), diag[None], np.eye(2 * s)[None]])


def build_rho_orthonormal(field: FieldTag, r: int, m: int) -> RhoOrthonormalSeq:
    """Explicit length-m family of r x r unitaries satisfying the
    Radon–Hurwitz equations, for any m up to rho_F(r).

    Over C the maximal family comes from doubling (i, 1) once per factor
    of 2 in r and ends with the identity; truncation keeps the last m
    members so the identity anchor survives.  Over R the identity comes
    first, followed by the transcribed/inflated skew generators; here
    truncation keeps the first m members for the same reason.  Odd
    factors of r enter as an identity tensor factor on the left.
    """
    if m < 1:
        raise DomainError(f"family length must be >= 1, got {m}")
    cap = rho_number(field, r)
    if m > cap:
        raise InfeasibleParametersError(
            f"m <= rho violated: m={m}, rho_{field.value}({r})={cap}",
            bound="m <= rho",
        )
    dec = decompose_r(r)
    eye_odd = np.eye(2 * dec.a + 1)
    k = 4 * dec.b + dec.c
    if field is FieldTag.COMPLEX:
        stack = np.array([[[1j]], [[1.0 + 0j]]])
        for _ in range(k):
            stack = _double_complex(stack)
        stack = np.kron(eye_odd, stack)[-m:]
    else:
        stack = np.concatenate([np.eye(r)[None], np.kron(eye_odd, _real_skew_tower(k))])[:m]
    return RhoOrthonormalSeq.from_stack(field, stack)


def verify_rho_orthonormal(seq: RhoOrthonormalSeq) -> float:
    """Worst residual of the Radon–Hurwitz relations; exact families
    measure ~1e-16.  With H = S* S for the stacked members S = [C_1 ... C_m]
    the relations are the block identity H_ij + H_ji = 2 delta_ij I,
    checked one block row at a time by `relation_residual`.
    """
    return relation_residual(seq.stack(), 0.0)[0]
