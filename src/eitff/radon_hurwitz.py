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

Every half-dimension optimal code is built from such a family: this
module also picks the family of each code variant (`variant_family`) and
holds the one rule (`exists`) for whether a code, or a totally symmetric
one, exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, InfeasibleParametersError, InvalidInputError, ShapeError
from .linalg import FieldTag, Mat, field_array, relation_residual, require_finite

VARIANTS = ("generic", "skew", "totally_symmetric")


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


@dataclass(frozen=True, eq=False)
class RhoOrthonormalSeq:
    """Unitaries C_i with C_i* C_j + C_j* C_i = 0 for i != j.

    Structural facts (sizes, field, length <= rho_F(r)) are checked at
    construction; the numeric relations are the builder's business and
    can be re-measured with `verify_rho_orthonormal`.  `array` holds the
    members as one read-only (m, r, r) array in the field's dtype, from a
    sequence of r x r arrays or one stack (`field_array`); `stack`
    returns a writable copy.
    """

    field: FieldTag
    r: int
    array: np.ndarray

    def __post_init__(self):
        if len(self.array) < 1:
            raise InvalidInputError("sequence needs at least one member")
        arr = field_array(self.field, self.array, (None, self.r, self.r), "family members")
        object.__setattr__(self, "array", arr)
        cap = rho_number(self.field, self.r)
        if len(arr) > cap:
            raise InvalidInputError(f"{len(arr)} members exceed rho({self.r}) = {cap}")

    def stack(self) -> np.ndarray:
        return self.array.copy()

    @property
    def mats(self) -> tuple[Mat, ...]:
        """The members as `Mat`s, the benchmark's view."""
        return tuple(Mat(self.field, c) for c in self.array)

    def __len__(self) -> int:
        return len(self.array)


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
        if not residual <= 1e-12:
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
        tower = _real_skew_tower(k)
        if dec.a:  # for r a power of 2, I_1 (x) T would only copy T
            tower = np.kron(eye_odd, tower)
        stack = np.concatenate([np.eye(r)[None], tower])[:m]
    return RhoOrthonormalSeq(field, r, stack)


def verify_rho_orthonormal(seq: RhoOrthonormalSeq) -> float:
    """Worst residual of the Radon–Hurwitz relations; built families,
    whose members are generalized permutation matrices, measure exactly
    0.  With H = S* S for the stacked members S = [C_1 ... C_m] the
    relations are the block identity H_ij + H_ji = 2 delta_ij I, checked
    by `relation_residual`.
    """
    return relation_residual(seq.array, 0.0)[0]


def _skew_members(field: FieldTag, r: int, m: int) -> RhoOrthonormalSeq:
    """The m skew-Hermitian members of the built family of length m + 1,
    whose identity member is first over R and last over C
    (`build_rho_orthonormal`)."""
    stack = build_rho_orthonormal(field, r, m + 1).array
    return RhoOrthonormalSeq(field, r, stack[1:] if field is FieldTag.REAL else stack[:-1])


def exists(field: FieldTag, r: int, n: int, total: bool = False) -> tuple[str, str]:
    """Does an optimal code of n subspaces of dimension r in F^{2r} exist,
    totally symmetric when `total`?  Returns "yes" or "no" and the text of
    the rule that decides it.  n < 3 raises `DomainError`.

    Every code needs n <= rho_F(r) + 2, and the generic code exists
    wherever that holds.  A totally symmetric one exists over C exactly
    when n <= rho_C(r) + 1.  Over R the skew construction settles
    n <= rho_R(r) + 1; at n = rho_R(r) + 2 the answer depends on the dyadic
    type c of r = (2a+1) 2^(4b+c): yes for c in {0, 1}, no for c in {2, 3}.

    Each answer at n = rho + 2 reads the code's Clifford system.  A code
    carries m = n - 1 anticommuting Hermitian unitaries E_j on F^d, d = 2r
    (`symmetry.clifford_rule`), and it is totally symmetric exactly when
    m is even or omega = E_1 ... E_m has trace 0.  Over R, c = 0 gives
    m = 8b + 2, which is even, and c = 1 gives m = 8b + 3, where
    omega^2 = -I on a real space forces tr omega = 0; so the generic code
    is totally symmetric there.  Each "no" is a module count.  The E_j
    make F^d a module over the Clifford algebra on m generators that
    square to +1; where that algebra has two simple factors, their
    irreducible modules have one dimension D and omega is +-1 (or +-i) on
    them, so tr omega = (p - q) D with multiplicities p + q = d / D.  When
    d / D is odd, tr omega != 0:

    - R, c = 2: rho = 8b + 4, m = 8b + 5, the algebra is
      M(2 16^b, H) + M(2 16^b, H), D = 8 16^b and d / D = 2a + 1;
    - R, c = 3: rho = 8b + 8, m = 8b + 9, the algebra is
      M(16^(b+1), R) + M(16^(b+1), R), D = 16^(b+1) and d / D = 2a + 1;
    - C: rho = 8b + 2c + 2, m = 8b + 2c + 3, the algebra is
      M(2^k, C) + M(2^k, C) with k = 4b + c + 1, D = 2^k and
      d / D = 2a + 1.
    """
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    rho = rho_number(field, r)
    if not total or n > rho + 2:
        answer = "yes" if n <= rho + 2 else "no"
        return answer, f"existence bound n <= rho+2, rho={rho}"
    if field is FieldTag.COMPLEX:
        answer = "yes" if n <= rho + 1 else "no"
        return answer, f"complex total-symmetry bound n <= rho+1, rho={rho}"
    if n <= rho + 1:
        return "yes", f"skew-simplex construction at n <= rho+1, rho={rho}"
    c = decompose_r(r).c
    answer, rule = {
        0: ("yes", "generic code has tr omega = 0"),
        1: ("yes", "generic code has tr omega = 0"),
        2: ("no", "quaternionic module count"),
        3: ("no", "complex obstruction"),
    }[c]
    return answer, f"{rule} at n = rho+2 (c={c})"


def variant_family(field: FieldTag, r: int, n: int, variant: str) -> RhoOrthonormalSeq:
    """The length n - 2 family that `frames.build_eitff` builds a code of
    n subspaces of F^{2r} from, and the rule for whether that code exists.

    generic            the built family; rule: `exists`
    skew               its skew members; n <= rho_F(r) + 1
    totally_symmetric  the built family; rule: `exists(..., total=True)`,
                       which says yes only where the generic code is
                       totally symmetric

    Unknown variants and n < 3 raise `DomainError`, codes that do not
    exist `InfeasibleParametersError`.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if n < 3:
        raise DomainError(f"need n >= 3 subspaces, got n={n}")
    rho = rho_number(field, r)
    if variant == "skew":
        if n > rho + 1:
            raise InfeasibleParametersError(
                f"n <= rho+1 violated: n={n}, rho_{field.value}({r})={rho}",
                bound="n <= rho+1",
            )
        return _skew_members(field, r, n - 2)
    if variant == "totally_symmetric" and exists(field, r, n, total=True)[0] == "no":
        raise InfeasibleParametersError(
            f"no totally symmetric code for field={field.value}, r={r}, n={n}",
            bound="total symmetry",
        )
    if exists(field, r, n)[0] == "no":
        raise InfeasibleParametersError(
            f"n <= rho+2 violated: n={n}, rho_{field.value}({r})={rho}",
            bound="n <= rho+2",
        )
    return build_rho_orthonormal(field, r, n - 2)
