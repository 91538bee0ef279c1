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

from .errors import DomainError, InvalidInputError
from .linalg import DEFAULT_TOL, FieldTag, Mat, field_array, max_abs
from .radon_hurwitz import variant_family
from .simplex import RhoSimplex, rho_simplex_from_orthonormal

# Cross-Gram pairs whose smallest singular value exceeds this are treated
# as coming from identical subspaces.
_IDENTICAL_SUBSPACE_TOL = 1e-8


def _weyl_screen(r: int, sigma2: float) -> float:
    """Screen, not a verdict: `verify_eitff` skips the eigensolve of a
    pair whose ||G* G - sigma^2 I||_F is at most r eps sigma^2.

    Each entry of G* G is a length-r inner product of columns of norm
    about sigma, so forming it rounds by up to about r eps sigma^2, and an
    eigensolver's own backward error is of the same order: below the
    screen, eigvalsh has nothing left to decide.  A negative sigma^2
    (nr < d) gives a negative screen, so every pair is eigensolved.
    """
    return r * np.finfo(np.float64).eps * sigma2


# Block OMP scores within this fraction of ||y|| of a round's top score
# tie, and the lowest index among them is picked.  In a code with d = 2r
# every block left after the first scores the same in exact arithmetic,
# and once kr >= d the residual, and with it every score, is rounding
# noise; either way the pick would otherwise follow rounding.  The window
# scales with ||y|| because the residual's rounding error does; 1e-12 is
# far above that error and far below the gap between distinct scores.
_OMP_TIE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class FusionFrame:
    """n isometries Phi_i in F^{d x r}; columns of each span one subspace.

    `array` holds them as one read-only (n, d, r) array in the field's
    dtype, from any sequence of n d x r arrays or one (n, d, r) array
    (`field_array`); `arrays` returns a writable copy.
    """

    field: FieldTag
    d: int
    r: int
    n: int
    array: np.ndarray

    def __post_init__(self):
        if self.r < 1 or self.d < self.r:
            raise DomainError(f"need d >= r >= 1, got d={self.d}, r={self.r}")
        if self.n < 2:
            raise DomainError(f"need n >= 2 subspaces, got n={self.n}")
        shape = (self.n, self.d, self.r)
        object.__setattr__(self, "array", field_array(self.field, self.array, shape, "isometries"))

    @classmethod
    def from_arrays(cls, field: FieldTag, arrays) -> "FusionFrame":
        """The frame of the d x r arrays Phi_1 ... Phi_n, n >= 2: a
        sequence of arrays or one (n, d, r) array."""
        d, r = arrays[0].shape
        return cls(field, d, r, len(arrays), arrays)

    def arrays(self) -> np.ndarray:
        """The isometries as one fresh writable (n, d, r) array."""
        return self.array.copy()

    @property
    def isometries(self) -> tuple[Mat, ...]:
        """The isometries as `Mat`s, the benchmark's view."""
        return tuple(Mat(self.field, a) for a in self.array)


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
    # 1-indexed pair (i, j), i < j, of the largest equi-isoclinic residual.
    equiisoclinic_pair: tuple[int, int]

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


def build_eitff(field: FieldTag, r: int, n: int, variant: str = "generic") -> FusionFrame:
    """Optimal code of n subspaces of dimension r in F^{2r} of the given
    variant, built from the family `variant_family` picks and checks."""
    return frame_from_simplex(rho_simplex_from_orthonormal(variant_family(field, r, n, variant)))


def _complete_unitary(cols: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary, keeping them first.

    The new columns come from a complete QR of the input; an input of
    standard basis vectors completes to the exact identity.
    """
    q = np.linalg.qr(cols, mode="complete")[0]
    q[:, : cols.shape[1]] = cols
    return q


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
    stack = frame.array
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
    for i, row in enumerate(_cross_gram_rows(frame.array)):
        theta = np.arccos(np.clip(np.linalg.svd(row, compute_uv=False), 0.0, 1.0))
        angles[i, i + 1 :] = angles[i + 1 :, i] = theta
    return angles


def gerzon_bound(field: FieldTag, d: int, r: int) -> int:
    """Dimension count bounding how many nonidentical equi-isoclinic
    subspaces fit: d(d+1)/2 - r(r+1)/2 + 1 over R, d^2 - r^2 + 1 over C."""
    if field is FieldTag.REAL:
        return d * (d + 1) // 2 - r * (r + 1) // 2 + 1
    return d * d - r * r + 1


def _tightness_residual(stack: np.ndarray, d: int, r: int) -> float:
    """Largest entry of sum_i Phi_i Phi_i* - (nr/d) I, summed one subspace
    at a time: one d x nr product would round differently."""
    return max_abs(sum(a @ a.conj().T for a in stack) - (len(stack) * r / d) * np.eye(d))


def _less_diagonal(stack: np.ndarray, c: float) -> np.ndarray:
    """Subtract c from the diagonal of each matrix of the stack, in place."""
    np.einsum("kii->ki", stack)[...] -= c
    return stack


def _row_spectrum(row: np.ndarray, sigma2: float):
    """For the cross-Grams G of one (m, r, r) block row: each pair's
    s = ||G* G - sigma^2 I||_F, an upper bound on each lambda_max(G* G),
    and whether some pair is identical.  See `verify_eitff` for when
    `eigvalsh` runs.  The norm is read from the float64 view of the one
    G* G - sigma^2 I buffer, so a row holds at most two (m, r, r) arrays
    once that buffer is formed."""
    identical2 = (1.0 - _IDENTICAL_SUBSPACE_TOL) ** 2
    gram = _less_diagonal(row.conj().swapaxes(1, 2) @ row, sigma2)
    flat = gram.view(np.float64)
    spread = np.sqrt(np.einsum("kij,kij->k", flat, flat))
    low, high = sigma2 - spread, sigma2 + spread
    solve = (spread > _weyl_screen(row.shape[-1], sigma2)) | (
        (low < identical2) & (high >= identical2)
    )
    if solve.any():
        lam = np.linalg.eigvalsh(gram[solve]) + sigma2
        low[solve], high[solve] = lam[:, 0], lam[:, -1]
    return spread, high, bool((low >= identical2).any())


def verify_eitff(frame: FusionFrame, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Measure every optimality property at once.

    Residuals: column orthonormality, tightness of the summed projections
    (target (nr/d) I), equi-isoclinism against sigma^2 = (nr-d)/(d(n-1)),
    and the gap between block coherence and the Welch bound (0 when
    nr < d, where no frame is tight).  In the fusion Gram H = S* S,
    S = [Phi_1 ... Phi_n], these ask H_ii = I and H_ij* H_ij = sigma^2 I
    (H_ij H_ij* has the same spectrum); H is read one block row at a
    time.  The equi-isoclinic residual is max_ij s_ij with
    s_ij = ||H_ij* H_ij - sigma^2 I||_F, a bound on every
    |cos^2 theta - sigma^2| over the principal angles theta of the pair,
    and the report names the pair where it is largest.  By Weyl's
    inequality every eigenvalue of H_ij* H_ij lies within s_ij of
    sigma^2.  A pair with s_ij at most `_weyl_screen` takes
    sqrt(sigma^2 + s_ij) as its coherence and decides the identical-pair
    flag from sigma^2 +- s_ij; the others, and those whose interval
    straddles the identical threshold, get sqrt(lambda_max) from batched
    `eigvalsh`, eigenvalues clamped at 0.
    The dimension-count check is vacuous when some pair of subspaces
    coincides, since it only speaks about nonidentical subspaces.
    """
    stack = frame.array
    d, r, n = frame.d, frame.r, frame.n

    iso = max_abs(_less_diagonal(stack.conj().swapaxes(1, 2) @ stack, 1.0))

    tight = _tightness_residual(stack, d, r)

    sigma2 = (n * r - d) / (d * (n - 1))
    equi, pair = 0.0, (1, 2)
    lam_max = 0.0
    identical_pair = False
    for i, row in enumerate(_cross_gram_rows(stack)):
        spread, high, identical = _row_spectrum(row, sigma2)
        k = int(np.argmax(spread))
        if spread[k] > equi:
            equi, pair = float(spread[k]), (i + 1, i + 2 + k)
        lam_max = np.maximum(lam_max, high.max())  # unlike max, keeps a NaN
        identical_pair |= identical

    coherence = float(np.sqrt(np.maximum(lam_max, 0.0)))
    gap = coherence - (welch_bound(d, r, n) if n * r >= d else 0.0)
    gerzon_ok = identical_pair or n <= gerzon_bound(frame.field, d, r)
    return VerificationReport(
        isometry_residual=float(iso),
        tightness_residual=float(tight),
        equiisoclinic_residual=float(equi),
        welch_gap=float(gap),
        block_coherence=float(coherence),
        gerzon_ok=bool(gerzon_ok),
        tolerance=tol,
        equiisoclinic_pair=pair,
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
    stack = frame.array
    tight = _tightness_residual(stack, d, r)
    if not tight <= 1e-8:
        raise InvalidInputError(f"frame is not tight (residual {tight:.2e})")
    cols = (math.sqrt(d / (n * r)) * stack).conj().swapaxes(1, 2).reshape(n * r, d)
    # T* = conj(Q[:, d:]); over C the full Q is freed before the blocks are copied.
    tilde_h = _complete_unitary(cols)[:, d:].conj()
    tilde_h *= math.sqrt(n * r / (n * r - d))
    return FusionFrame.from_arrays(frame.field, tilde_h.reshape(n, r, -1).swapaxes(1, 2))


def _refit(stacked: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on the columns of `stacked`.

    Solves the normal equations on the small block Gram when Cholesky
    shows it positive definite.  A singular Gram (more columns than
    rows, or intersecting subspaces) falls back to lstsq, which returns
    the minimum-norm solution.  More columns than rows skips Cholesky,
    which can pass on such a Gram in floating point (C2 n=4, k = 3).
    """
    if stacked.shape[1] <= stacked.shape[0]:
        adjoint = stacked.conj().T
        gram = adjoint @ stacked
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            pass
        else:
            return np.linalg.solve(gram, adjoint @ y)
    return np.linalg.lstsq(stacked, y, rcond=None)[0]


def block_omp_recover(frame: FusionFrame, y, k: int):
    """Greedy block-sparse recovery of y against the frame's dictionary.

    Runs k rounds of block orthogonal matching pursuit: pick the block
    whose analysis coefficients have the largest norm (scores within
    `_OMP_TIE_RTOL` ||y|| of the top one tie and go to the lowest index,
    already-selected blocks skipped), then least-squares refit on
    everything selected.  Returns (block index, coefficient vector) pairs
    in selection order, 1-indexed.  Recovery is exact whenever the number
    of active blocks is below (1/mu + 1)/2 for the frame's block coherence
    mu.
    """
    if k < 1:
        raise DomainError(f"sparsity level must be >= 1, got {k}")
    arrs = frame.array
    y = np.asarray(y, dtype=arrs.dtype).reshape(frame.d)
    tie = _OMP_TIE_RTOL * np.linalg.norm(y)
    selected: list[int] = []
    residual = y.copy()
    coef = np.zeros(0, dtype=arrs.dtype)
    for _ in range(min(k, frame.n)):
        # Row i of the product is conj(Phi_i* residual), for every block at once.
        scores = np.linalg.norm(residual.conj() @ arrs, axis=1)
        scores[selected] = -1.0
        pick = int(np.argmax(scores >= scores.max() - tie))
        selected.append(pick)
        stacked = np.hstack([arrs[i] for i in selected])
        coef = _refit(stacked, y)
        residual = y - stacked @ coef
    r = frame.r
    return [
        (idx + 1, coef[pos * r : (pos + 1) * r].copy())
        for pos, idx in enumerate(selected)
    ]
