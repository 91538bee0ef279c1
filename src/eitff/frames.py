"""Fusion frames of half-dimension subspaces: construction, verification,
canonical forms, Naimark complements, and the block sparse-recovery demo.

The central object is an n-tuple of d x r isometries.  For d = 2r the
optimal configurations (equi-isoclinic tight fusion frames achieving the
spectral Welch bound) are exactly those equivalent to

    Phi_i = [alpha I; beta B_i]  (i < n),   Phi_n = [I; 0],

where (B_i) is a unitary simplex: B_i* B_j + B_j* B_i = -2/(n-2) I.
Everything here either builds that form from explicit anticommuting
families, reduces an arbitrary frame to it, or measures how far a frame
is from optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InfeasibleParametersError,
    InvalidInputError,
    NumericError,
    ShapeError,
)
from .linalg import DEFAULT_TOL, FieldTag, Mat, max_abs
from .radon_hurwitz import RhoOrthonormalSeq, build_rho_orthonormal, rho_number
from .simplex import RhoSimplex, rho_simplex_from_orthonormal

VARIANTS = ("generic", "skew", "totally_symmetric")

# Cross-Gram pairs whose smallest singular value exceeds this are treated
# as coming from identical subspaces.
_IDENTICAL_SUBSPACE_TOL = 1e-8


@dataclass(frozen=True)
class FusionFrame:
    """n isometries Phi_i in F^{d x r}; columns of each span one subspace.

    Members are `Mat`s because the benchmark reads them; `from_arrays`
    and `arrays` convert from and to arrays in the field's dtype.
    """

    field: FieldTag
    d: int
    r: int
    n: int
    isometries: tuple[Mat, ...]

    def __post_init__(self):
        object.__setattr__(self, "isometries", tuple(self.isometries))
        if self.r < 1 or self.d < self.r:
            raise DomainError(f"need d >= r >= 1, got d={self.d}, r={self.r}")
        if self.n < 2:
            raise DomainError(f"need n >= 2 subspaces, got n={self.n}")
        if len(self.isometries) != self.n:
            raise ShapeError(
                f"expected {self.n} isometries, got {len(self.isometries)}"
            )
        for phi in self.isometries:
            if phi.shape != (self.d, self.r):
                raise ShapeError(
                    f"expected {self.d}x{self.r} isometries, got {phi.shape}"
                )
            if self.field is FieldTag.REAL and phi.field is not FieldTag.REAL:
                raise InvalidInputError("complex isometry in a real-tagged frame")

    @classmethod
    def from_arrays(cls, field: FieldTag, arrays) -> "FusionFrame":
        """The frame of the d x r arrays Phi_1 ... Phi_n, n >= 1: a
        sequence of arrays or one (n, d, r) array."""
        d, r = arrays[0].shape
        return cls(field, d, r, len(arrays), tuple(Mat(field, a) for a in arrays))

    def arrays(self) -> list[np.ndarray]:
        return [phi.working() for phi in self.isometries]


@dataclass(frozen=True)
class EitffParams:
    """Scalars of the canonical form: alpha = sqrt((n-2)/(2n-2)),
    beta = sqrt(n/(2n-2)); sigma (the common cross-Gram singular value)
    equals alpha."""

    n: int
    alpha: float
    beta: float
    sigma: float


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of every optimality property, measured at `tolerance`."""

    isometry_residual: float
    tightness_residual: float
    equiisoclinic_residual: float
    welch_gap: float
    block_coherence: float
    gerzon_ok: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        residuals = (
            self.isometry_residual,
            self.tightness_residual,
            self.equiisoclinic_residual,
            self.welch_gap,
        )
        return all(res <= self.tolerance for res in residuals) and self.gerzon_ok


def eitff_params(n: int) -> EitffParams:
    if n < 3:
        raise DomainError(f"canonical form needs n >= 3, got {n}")
    alpha = math.sqrt((n - 2) / (2 * n - 2))
    beta = math.sqrt(n / (2 * n - 2))
    return EitffParams(n=n, alpha=alpha, beta=beta, sigma=alpha)


def frame_from_simplex(s: RhoSimplex) -> FusionFrame:
    """Assemble the canonical isometries [alpha I; beta B_i] and [I; 0]."""
    p = eitff_params(s.n)
    r = s.r
    phis = np.zeros((s.n, 2 * r, r), dtype=s.blocks.dtype)
    phis[:-1, :r] = p.alpha * np.eye(r)
    phis[:-1, r:] = p.beta * s.blocks
    phis[-1, :r] = np.eye(r)
    return FusionFrame.from_arrays(s.field, phis)


def build_eitff(
    field: FieldTag, r: int, n: int, variant: str = "generic"
) -> FusionFrame:
    """Optimal code of n subspaces of dimension r in F^{2r}.

    generic        exists iff n <= rho_F(r) + 2
    skew           all B_i skew-Hermitian; exists iff n <= rho_F(r) + 1
    totally_symmetric  every permutation is an automorphism; existence
                   depends on field and the dyadic type of r
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if n < 3:
        raise DomainError(f"need n >= 3 subspaces, got n={n}")
    rho = rho_number(field, r)
    if variant == "generic":
        if n > rho + 2:
            raise InfeasibleParametersError(
                f"n <= rho+2 violated: n={n}, rho_{field.value}({r})={rho}",
                bound="n <= rho+2",
            )
        simplex = rho_simplex_from_orthonormal(build_rho_orthonormal(field, r, n - 2))
    elif variant == "skew":
        if n > rho + 1:
            raise InfeasibleParametersError(
                f"n <= rho+1 violated: n={n}, rho_{field.value}({r})={rho}",
                bound="n <= rho+1",
            )
        skews = _drop_identity_member(build_rho_orthonormal(field, r, n - 1))
        simplex = rho_simplex_from_orthonormal(skews)
    else:
        from .symmetry import total_symmetry_seed, totally_symmetric_exists

        status = totally_symmetric_exists(field, r, n)
        if status == "no":
            raise InfeasibleParametersError(
                f"no totally symmetric code for field={field.value}, r={r}, n={n}",
                bound="total symmetry",
            )
        if n == 3:
            # Three subspaces are trivially totally symmetric; the generic
            # construction already delivers them.
            simplex = rho_simplex_from_orthonormal(
                build_rho_orthonormal(field, r, 1)
            )
        else:
            seed = total_symmetry_seed(field, r, n)
            simplex = rho_simplex_from_orthonormal(seed.seq)
    return frame_from_simplex(simplex)


def _drop_identity_member(seq: RhoOrthonormalSeq) -> RhoOrthonormalSeq:
    """Remove the (unique) identity member; the rest are skew-Hermitian."""
    eye = np.eye(seq.r)
    for i, m in enumerate(seq.mats):
        if max_abs(m.working() - eye) <= 1e-12:
            return RhoOrthonormalSeq(seq.field, seq.r, seq.mats[:i] + seq.mats[i + 1 :])
    raise NumericError("built family unexpectedly lacks an identity member")


def _complete_unitary(cols: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary, keeping them first.

    The new columns come from a complete QR of the input; an input of
    standard basis vectors completes to the exact identity.
    """
    q = np.linalg.qr(cols, mode="complete")[0]
    return np.hstack([cols, q[:, cols.shape[1] :]])


def canonicalize(frame: FusionFrame, tol: float = 1e-8):
    """Reduce a verified optimal frame with d = 2r to canonical form.

    Returns the equivalent frame in the [alpha I; beta B_i] / [I; 0]
    shape together with the extracted unitary simplex.  The procedure:
    rotate so the last subspace becomes the top coordinate block, then
    peel the per-subspace unitaries off the top blocks.
    """
    if frame.d != 2 * frame.r:
        raise DomainError(
            f"canonical form needs d = 2r, got d={frame.d}, r={frame.r}"
        )
    report = verify_eitff(frame, tol)
    if not report.passed:
        raise InvalidInputError(
            "frame does not verify as an optimal code at tolerance "
            f"{tol} (tightness {report.tightness_residual:.2e}, "
            f"equi-isoclinic {report.equiisoclinic_residual:.2e})"
        )
    r, p = frame.r, eitff_params(frame.n)
    stack = np.stack(frame.arrays())
    omegas = _complete_unitary(stack[-1]).conj().T @ stack[:-1]
    z = omegas[:, :r] / p.alpha
    blocks = (omegas[:, r:] @ z.conj().swapaxes(1, 2)) / p.beta
    simplex = RhoSimplex(frame.field, r, frame.n, blocks)
    return frame_from_simplex(simplex), simplex


def _cross_gram_rows(stack: np.ndarray):
    """Block rows G_i = Phi_i* [Phi_{i+1} ... Phi_n] of the fusion Gram,
    one (n-i-1, r, r) array per i < n, from the (n, d, r) isometry stack."""
    for i in range(len(stack) - 1):
        yield stack[i].conj().T @ stack[i + 1 :]


def block_coherence(frame: FusionFrame) -> float:
    """Largest operator norm among the cross-Gram matrices Phi_i* Phi_j."""
    rows = _cross_gram_rows(np.stack(frame.arrays()))
    return max(float(np.linalg.svd(g, compute_uv=False)[:, 0].max()) for g in rows)


def welch_bound(d: int, r: int, n: int) -> float:
    """Spectral lower bound sqrt((nr - d) / (d (n - 1))) on block coherence."""
    if n < 2:
        raise DomainError(f"bound needs n >= 2, got {n}")
    if n * r < d:
        raise DomainError(f"bound needs nr >= d, got nr={n * r}, d={d}")
    return math.sqrt((n * r - d) / (d * (n - 1)))


def principal_angles(frame: FusionFrame) -> np.ndarray:
    """Symmetric (n, n, r) array: entry [i, j] holds the nondecreasing
    principal angles between subspaces i+1 and j+1, the arccos of the
    (clamped) cross-Gram singular values.  The diagonal is zero."""
    angles = np.zeros((frame.n, frame.n, frame.r))
    for i, row in enumerate(_cross_gram_rows(np.stack(frame.arrays()))):
        theta = np.arccos(np.clip(np.linalg.svd(row, compute_uv=False), 0.0, 1.0))
        angles[i, i + 1 :] = angles[i + 1 :, i] = theta
    return angles


def gerzon_bound(field: FieldTag, d: int, r: int) -> int:
    """Dimension count bounding how many nonidentical equi-isoclinic
    subspaces fit: d(d+1)/2 - r(r+1)/2 + 1 over R, d^2 - r^2 + 1 over C."""
    if field is FieldTag.REAL:
        return d * (d + 1) // 2 - r * (r + 1) // 2 + 1
    return d * d - r * r + 1


def _tightness_residual(arrays, d: int, r: int) -> float:
    """Largest entry of sum_i Phi_i Phi_i* - (nr/d) I."""
    return max_abs(sum(a @ a.conj().T for a in arrays) - (len(arrays) * r / d) * np.eye(d))


def verify_eitff(frame: FusionFrame, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Measure every optimality property at once.

    Residuals: column orthonormality, tightness of the summed projections
    (target (nr/d) I), equi-isoclinism against sigma^2 = (nr-d)/(d(n-1)),
    and the gap between block coherence and the Welch bound.  In the
    fusion Gram H = S* S, S = [Phi_1 ... Phi_n], these ask H_ii = I and
    H_ij H_ij* = H_ij* H_ij = sigma^2 I; H is read one block row at a
    time.  Coherence is the largest sqrt(lambda_max(H_ij H_ij*)) from
    batched `eigvalsh`, eigenvalues clamped at 0.  The dimension-count
    check is vacuous when some pair of subspaces coincides, since it only
    speaks about nonidentical subspaces.
    """
    stack = np.stack(frame.arrays())
    d, r, n = frame.d, frame.r, frame.n
    eye_r = np.eye(r)

    iso = max_abs(stack.conj().swapaxes(1, 2) @ stack - eye_r)

    tight = _tightness_residual(stack, d, r)

    sigma2 = (n * r - d) / (d * (n - 1))
    equi = 0.0
    coherence = 0.0
    identical_pair = False
    for row in _cross_gram_rows(stack):
        row_h = row.conj().swapaxes(1, 2)
        ggh = row @ row_h
        equi = max(
            equi,
            max_abs(ggh - sigma2 * eye_r),
            max_abs(row_h @ row - sigma2 * eye_r),
        )
        s = np.sqrt(np.maximum(np.linalg.eigvalsh(ggh), 0.0))
        coherence = max(coherence, float(s[:, -1].max()))
        if float(s[:, 0].max()) >= 1.0 - _IDENTICAL_SUBSPACE_TOL:
            identical_pair = True

    gap = coherence - welch_bound(d, r, n)
    gerzon_ok = identical_pair or n <= gerzon_bound(frame.field, d, r)
    return VerificationReport(
        isometry_residual=float(iso),
        tightness_residual=float(tight),
        equiisoclinic_residual=float(equi),
        welch_gap=float(gap),
        block_coherence=float(coherence),
        gerzon_ok=bool(gerzon_ok),
        tolerance=tol,
    )


def naimark_complement(frame: FusionFrame) -> FusionFrame:
    """Companion tight frame in dimension nr - d.

    For a tight frame the columns of sqrt(d/nr) S*, S = [Phi_1 ... Phi_n]
    the synthesis operator, are orthonormal.  Their orthogonal completion
    (`_complete_unitary`) supplies nr - d further columns Q, and
    T = sqrt(nr/(nr-d)) Q* has T* T = (nr/(nr-d)) (I - (d/nr) S* S).  The
    n r-column blocks of T are isometries whose cross-Grams are the
    original ones scaled by -d/(nr-d).  The complement is unique up to a
    left unitary.
    """
    d, r, n = frame.d, frame.r, frame.n
    if n * r <= d:
        raise DomainError(f"complement needs nr > d, got nr={n * r}, d={d}")
    tight = _tightness_residual(frame.arrays(), d, r)
    if tight > 1e-8:
        raise InvalidInputError(f"frame is not tight (residual {tight:.2e})")
    rows = math.sqrt(d / (n * r)) * np.hstack(frame.arrays())
    q = _complete_unitary(rows.conj().T)[:, d:]
    tilde = math.sqrt(n * r / (n * r - d)) * q.conj().T
    return FusionFrame.from_arrays(frame.field, [tilde[:, i * r : (i + 1) * r] for i in range(n)])


def block_omp_recover(frame: FusionFrame, y, k: int):
    """Greedy block-sparse recovery of y against the frame's dictionary.

    Runs k rounds of block orthogonal matching pursuit: pick the block
    whose analysis coefficients have the largest norm (ties broken by the
    lowest index, already-selected blocks skipped), then least-squares
    refit on everything selected.  Returns (block index, coefficient
    vector) pairs in selection order, 1-indexed.  Recovery is exact
    whenever the number of active blocks is below (1/mu + 1)/2 for the
    frame's block coherence mu.
    """
    if k < 1:
        raise DomainError(f"sparsity level must be >= 1, got {k}")
    arrs = frame.arrays()
    y = np.asarray(y, dtype=arrs[0].dtype).reshape(frame.d)
    selected: list[int] = []
    residual = y.copy()
    coef = np.zeros(0, dtype=arrs[0].dtype)
    for _ in range(min(k, frame.n)):
        scores = np.array(
            [
                -1.0 if i in selected else np.linalg.norm(arrs[i].conj().T @ residual)
                for i in range(frame.n)
            ]
        )
        pick = int(np.argmax(scores))
        selected.append(pick)
        stacked = np.hstack([arrs[i] for i in selected])
        coef, *_ = np.linalg.lstsq(stacked, y, rcond=None)
        residual = y - stacked @ coef
    r = frame.r
    return [
        (idx + 1, coef[pos * r : (pos + 1) * r].copy())
        for pos, idx in enumerate(selected)
    ]
