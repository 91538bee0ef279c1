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
from .linalg import FieldTag, Mat, kron, relation_residual


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
    """The four 2x2 generator matrices behind every family built here.

    R is skew-symmetric unitary; M and T are symmetric unitaries; M, T, R
    pairwise anticommute.
    """

    I: Mat
    M: Mat
    T: Mat
    R: Mat


GEN = BaseGenerators(
    I=Mat.from_real([[1.0, 0.0], [0.0, 1.0]]),
    M=Mat.from_real([[1.0, 0.0], [0.0, -1.0]]),
    T=Mat.from_real([[0.0, 1.0], [1.0, 0.0]]),
    R=Mat.from_real([[0.0, -1.0], [1.0, 0.0]]),
)


def tensor(*mats: Mat) -> Mat:
    """Kronecker product of several factors, left to right."""
    return reduce(kron, mats)


@dataclass(frozen=True)
class RhoOrthonormalSeq:
    """Unitaries C_i with C_i* C_j + C_j* C_i = 0 for i != j.

    Structural facts (sizes, field, length <= rho_F(r)) are checked at
    construction; the numeric relations are the builder's business and
    can be re-measured with `verify_rho_orthonormal`.
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


def rho_inner(a: Mat, b: Mat) -> float:
    """Normalized real trace inner product Re(Tr(a* b)) / r."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ShapeError(f"need equal square matrices, got {a.shape} and {b.shape}")
    return float(np.sum(np.conj(a.array) * b.array).real) / a.rows


def real_base_family(r: int) -> tuple[Mat, ...]:
    """Transcribed real anticommuting skew-symmetric unitaries, r in {2,4,8,16}.

    The members are fixed tensor words in the base generators,
    transcribed rather than computed; the count is rho_R(r) - 1.
    """
    I, M, T, R = GEN.I, GEN.M, GEN.T, GEN.R
    if r == 2:
        return (R,)
    if r == 4:
        return (tensor(I, R), tensor(R, T), tensor(R, M))
    if r == 8:
        return (
            tensor(M, M, R),
            tensor(M, T, R),
            tensor(M, R, I),
            tensor(T, R, M),
            tensor(T, R, T),
            tensor(T, I, R),
            tensor(R, I, I),
        )
    if r == 16:
        return (
            tensor(R, T, T, T),
            tensor(T, R, T, M),
            tensor(T, M, R, T),
            tensor(T, T, M, R),
            tensor(R, M, M, M),
            tensor(M, R, M, T),
            tensor(M, T, R, M),
            tensor(M, M, T, R),
        )
    raise DomainError(f"no transcribed family for r={r}; supported: 2, 4, 8, 16")


def inflate_real(mats, size: int | None = None) -> tuple[Mat, ...]:
    """Trade m anticommuting skew unitaries of size r for m+8 of size 16r.

    The new family is (R4 x C_i) for each input member followed by
    (E_i x I_r) over the eight size-16 generators, R4 being the fourfold
    tensor power of R.  `size` is only needed when `mats` is empty.
    """
    mats = tuple(mats)
    if mats:
        size = mats[0].rows
        for m in mats:
            if m.shape != (size, size):
                raise ShapeError(f"mixed sizes in input family: {m.shape}")
        # [I, C_1, ..., C_m] satisfies the Radon–Hurwitz relations exactly
        # when the C_i are anticommuting skew-Hermitian unitaries.
        stack = np.stack([np.eye(size)] + [m.working() for m in mats])
        residual, (i, j) = relation_residual(stack, 0.0)
        if residual > 1e-12:
            if i == 1:
                raise InvalidInputError(f"member {j - 1} is not skew-Hermitian")
            if i == j:
                raise InvalidInputError(f"member {i - 1} is not unitary")
            raise InvalidInputError(f"members {i - 1} and {j - 1} do not anticommute")
    else:
        size = size or 1
    r4 = tensor(GEN.R, GEN.R, GEN.R, GEN.R)
    eye = Mat.identity(size)
    out = [kron(r4, c) for c in mats]
    out.extend(kron(e, eye) for e in real_base_family(16))
    return tuple(out)


def _real_skew_tower(k: int) -> tuple[Mat, ...]:
    """Anticommuting skew unitaries of size 2^k, rho_R(2^k) - 1 of them."""
    if k == 0:
        return ()
    if k <= 3:
        return real_base_family(2**k)
    return inflate_real(_real_skew_tower(k - 4))


def skew_double(c: np.ndarray) -> np.ndarray:
    """The skew-Hermitian doubling [[0, -C*], [C, 0]], in C's dtype."""
    zero = np.zeros_like(c)
    return np.block([[zero, -c.conj().T], [c, zero]])


def _double_complex(seq: list[Mat]) -> list[Mat]:
    """One doubling step for complex families.

    Each member C becomes `skew_double(C)`, then i(M x I) and the
    identity are appended, giving two more members at twice the size.
    """
    s = seq[0].rows
    out = [Mat.from_complex(skew_double(c.array)) for c in seq]
    diag = np.zeros((2 * s, 2 * s), dtype=np.complex128)
    diag[:s, :s] = 1j * np.eye(s)
    diag[s:, s:] = -1j * np.eye(s)
    out.append(Mat.from_complex(diag))
    out.append(Mat.identity(2 * s, FieldTag.COMPLEX))
    return out


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
    odd = 2 * dec.a + 1
    k = 4 * dec.b + dec.c
    if field is FieldTag.COMPLEX:
        seq = [
            Mat.from_complex(np.array([[1j]])),
            Mat.from_complex(np.array([[1.0 + 0j]])),
        ]
        for _ in range(k):
            seq = _double_complex(seq)
        eye_odd = Mat.identity(odd, FieldTag.COMPLEX)
        mats = [kron(eye_odd, c) for c in seq][-m:]
    else:
        eye_odd = Mat.identity(odd)
        mats = [Mat.identity(r)]
        mats.extend(kron(eye_odd, d) for d in _real_skew_tower(k))
        mats = mats[:m]
    return RhoOrthonormalSeq(field, r, tuple(mats))


def verify_rho_orthonormal(seq) -> float:
    """Worst residual of the Radon–Hurwitz relations; exact families
    measure ~1e-16.  With H = S* S for the stacked members S = [C_1 ... C_m]
    the relations are the block identity H_ij + H_ji = 2 delta_ij I,
    checked one block row at a time by `relation_residual`.
    """
    mats = seq.mats if isinstance(seq, RhoOrthonormalSeq) else tuple(seq)
    if not mats:
        raise InvalidInputError("need at least one member")
    size = mats[0].rows
    for m in mats:
        if m.shape != (size, size):
            raise ShapeError(f"mixed member shapes: {m.shape} vs {size}x{size}")
    return relation_residual(np.stack([m.working() for m in mats]), 0.0)[0]
