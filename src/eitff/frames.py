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
    """n isometries Phi_i in F^{d x r}; columns of each span one subspace."""

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

    def arrays(self) -> list[np.ndarray]:
        if self.field is FieldTag.REAL:
            return [phi.working() for phi in self.isometries]
        return [phi.array for phi in self.isometries]


@dataclass(frozen=True)
class EitffParams:
    """Scalars of the canonical form: alpha = sqrt((n-2)/(2n-2)),
    beta = sqrt(n/(2n-2)); sigma (the common cross-Gram singular value)
    equals alpha."""

    n: int
    alpha: float
    beta: float
    sigma: float


@dataclass(frozen=True, eq=False)
class PrincipalAngles:
    """Nondecreasing principal angles per ordered pair of subspaces."""

    n: int
    r: int
    angles: dict

    def pair(self, i: int, j: int) -> np.ndarray:
        return self.angles[(i, j)]


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
    eye = np.eye(s.r)
    tops = p.alpha * eye
    phis = [
        Mat(s.field, np.vstack([tops, p.beta * b.array])) for b in s.mats
    ]
    phis.append(Mat(s.field, np.vstack([eye, np.zeros((s.r, s.r))])))
    return FusionFrame(s.field, 2 * s.r, s.r, s.n, tuple(phis))


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
        seq = build_rho_orthonormal(field, r, n - 1)
        skews = _drop_identity_member(seq)
        simplex = rho_simplex_from_orthonormal(
            RhoOrthonormalSeq(field, r, tuple(skews))
        )
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


def _drop_identity_member(seq: RhoOrthonormalSeq) -> list[Mat]:
    """Remove the (unique) identity member; the rest are skew-Hermitian."""
    eye = np.eye(seq.r)
    skews, found = [], False
    for m in seq.mats:
        if not found and max_abs(m.array - eye) <= 1e-12:
            found = True
            continue
        skews.append(m)
    if not found:
        raise NumericError("built family unexpectedly lacks an identity member")
    return skews


def _complete_unitary(cols: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary, keeping them first.

    New columns are drafted greedily from the standard basis (largest
    residual first) and re-orthogonalized, so an input of standard basis
    vectors completes to the exact identity.
    """
    d, k = cols.shape
    basis = [cols[:, j].copy() for j in range(k)]
    candidates = list(np.eye(d, dtype=cols.dtype).T)
    while len(basis) < d:
        best, best_norm = None, -1.0
        for cand in candidates:
            resid = cand.copy()
            for u in basis:
                resid -= (u.conj() @ resid) * u
            norm = np.linalg.norm(resid)
            if norm > best_norm + 1e-12:
                best, best_norm = resid, norm
        for u in basis:
            best -= (u.conj() @ best) * u
        basis.append(best / np.linalg.norm(best))
    return np.column_stack(basis)


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
    r, n = frame.r, frame.n
    arrs = frame.arrays()
    ups = _complete_unitary(arrs[-1])
    omegas = [ups.conj().T @ a for a in arrs]
    p = eitff_params(n)
    eye = np.eye(r)
    bs, phis = [], []
    for om in omegas[:-1]:
        z = om[:r] / p.alpha
        b = (om[r:] @ z.conj().T) / p.beta
        bs.append(Mat(frame.field, b))
        phis.append(Mat(frame.field, np.vstack([p.alpha * eye, p.beta * b])))
    phis.append(Mat(frame.field, np.vstack([eye, np.zeros((r, r))])))
    canonical = FusionFrame(frame.field, frame.d, r, n, tuple(phis))
    simplex = RhoSimplex(frame.field, r, n, tuple(bs))
    return canonical, simplex


def _cross_gram_rows(stack: np.ndarray):
    """Block rows G_i = Phi_i* [Phi_{i+1} ... Phi_n] of the fusion Gram,
    one (n-i-1, r, r) array per i < n, from the (n, d, r) isometry stack."""
    for i in range(len(stack) - 1):
        yield stack[i].conj().T @ stack[i + 1 :]


def block_coherence(frame: FusionFrame) -> float:
    """Largest operator norm among the cross-Gram matrices Phi_i* Phi_j."""
    if frame.n < 2:
        raise DomainError("block coherence needs at least two subspaces")
    rows = _cross_gram_rows(np.stack(frame.arrays()))
    return max(float(np.linalg.svd(g, compute_uv=False)[:, 0].max()) for g in rows)


def welch_bound(d: int, r: int, n: int) -> float:
    """Spectral lower bound sqrt((nr - d) / (d (n - 1))) on block coherence."""
    if n < 2:
        raise DomainError(f"bound needs n >= 2, got {n}")
    if n * r < d:
        raise DomainError(f"bound needs nr >= d, got nr={n * r}, d={d}")
    return math.sqrt((n * r - d) / (d * (n - 1)))


def principal_angles(frame: FusionFrame) -> PrincipalAngles:
    """arccos of the (clamped) cross-Gram singular values, per ordered pair."""
    if frame.n < 2:
        raise DomainError("principal angles need at least two subspaces")
    angles = {}
    for i, row in enumerate(_cross_gram_rows(np.stack(frame.arrays()))):
        s = np.clip(np.linalg.svd(row, compute_uv=False), 0.0, 1.0)
        for j, theta in enumerate(np.arccos(s), start=i + 2):
            angles[(i + 1, j)] = theta
            angles[(j, i + 1)] = theta.copy()
    return PrincipalAngles(frame.n, frame.r, angles)


def spectral_distance(frame: FusionFrame, i: int, j: int) -> float:
    """sqrt(1 - ||Phi_i* Phi_j||_op^2), the sine of the smallest angle."""
    if i == j:
        raise DomainError("spectral distance needs two distinct subspaces")
    if not (1 <= i <= frame.n and 1 <= j <= frame.n):
        raise DomainError(f"indices must lie in [1, {frame.n}], got ({i}, {j})")
    arrs = frame.arrays()
    gram = arrs[i - 1].conj().T @ arrs[j - 1]
    top = float(np.linalg.svd(gram, compute_uv=False)[0])
    return math.sqrt(max(0.0, 1.0 - top * top))


def gerzon_bound(field: FieldTag, d: int, r: int) -> int:
    """Dimension count bounding how many nonidentical equi-isoclinic
    subspaces fit: d(d+1)/2 - r(r+1)/2 + 1 over R, d^2 - r^2 + 1 over C."""
    if field is FieldTag.REAL:
        return d * (d + 1) // 2 - r * (r + 1) // 2 + 1
    return d * d - r * r + 1


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

    frame_op = sum(a @ a.conj().T for a in stack)
    tight = max_abs(frame_op - (n * r / d) * np.eye(d))

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
    gerzon_ok = n == 1 or identical_pair or n <= gerzon_bound(frame.field, d, r)
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

    Obtained by spectrally factoring (nr/(nr-d)) (I - (d/nr) G) where G is
    the fusion Gram matrix; the factor's blocks are isometries whose
    cross-Grams are the original ones scaled by -d/(nr-d).
    """
    d, r, n = frame.d, frame.r, frame.n
    if n * r <= d:
        raise DomainError(f"complement needs nr > d, got nr={n * r}, d={d}")
    report = verify_eitff(frame, 1e-8)
    if report.tightness_residual > 1e-8:
        raise InvalidInputError(
            f"frame is not tight (residual {report.tightness_residual:.2e})"
        )
    arrs = frame.arrays()
    synth = np.hstack(arrs)
    gram = synth.conj().T @ synth
    scale = n * r / (n * r - d)
    comp = scale * (np.eye(n * r) - (d / (n * r)) * gram)
    u, s, _ = np.linalg.svd(comp)
    keep = s > scale / 2
    if int(np.count_nonzero(keep)) != n * r - d:
        raise NumericError(
            "complement Gram does not split into the expected eigenvalue groups"
        )
    tilde = (u[:, keep] * np.sqrt(s[keep])).conj().T
    isometries = tuple(
        Mat(frame.field, tilde[:, i * r : (i + 1) * r]) for i in range(n)
    )
    return FusionFrame(frame.field, n * r - d, r, n, isometries)


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
