"""Fusion frames of half-dimension subspaces: construction, verification,
canonical forms, Naimark complements, and the block sparse-recovery demo.

The central object is an n-tuple of d x r isometries, held as the
synthesis operator S = [Phi_1 ... Phi_n]: tightness is S S* = (nr/d) I,
and equi-isoclinism asks every off-diagonal block of the fusion Gram
S* S to satisfy G* G = sigma^2 I.  For d = 2r the
optimal configurations (equi-isoclinic tight fusion frames achieving the
spectral Welch bound) are exactly those equivalent to

    Phi_i = [alpha I; beta B_i]  (i < n),   Phi_n = [I; 0],

where (B_i) is a unitary simplex: B_i* B_j + B_j* B_i = -2/(n-2) I.
Everything here either builds that form from explicit anticommuting
families, reduces an arbitrary frame to it, or measures how far a frame
is from optimality.  A check (`verify_eitff`, `principal_angles`) reads
S* S in tiles (`_gram_tiles`).  While several whole block rows fit in
`_TILE_BYTES` (128 KiB) a tile holds them, so a small code's Gram is one
product and its pairs one batch; past that a tile is one panel of a
block row of at most `linalg._PANEL_BYTES` (4 MiB).  So a check holds S
plus a few buffers of that size at every n and r.  Bases are completed
by a closed-form Schreiber-Parlett block reflector (`_complement_rows`),
never a complete QR, except a code's Naimark complement, which is read
off its own unitary simplex.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleParametersError, InvalidInputError
from .linalg import DEFAULT_TOL, FieldTag, Mat, field_array, panel_blocks
from .radon_hurwitz import build_rho_orthonormal, rho_number
from .simplex import RhoSimplex, rho_simplex_from_orthonormal, simplex_matrix

# Cross-Gram pairs whose smallest singular value exceeds this are treated
# as coming from identical subspaces.
_IDENTICAL_SUBSPACE_TOL = 1e-8

# The tolerance to which a frame must verify, or be tight, to be completed.
_COMPLETION_TOL = 1e-8


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


# Bytes of a tile of several block rows (`_gram_tiles`).  Such a tile
# also forms the blocks below its diagonal and gathers its pairs, so it
# pays only while the fixed cost of a product outweighs that work.  On a
# 2-vCPU machine it more than halved verify at R8 n=8 and R16 n=11, but
# one tile of the whole Gram read 20 % slower than one-row panels at
# C16 n=12 (576 KiB) and 2.2x at R32 n=12 (1.1 MiB), where its buffers
# fault in fresh pages on every call; tiles of 4 MiB doubled R64 n=14.
_TILE_BYTES = 128 << 10

# Block OMP scores within this fraction of ||y|| of a round's top score
# tie, and the lowest index among them is picked.  In a code with d = 2r
# every block left after the first scores the same in exact arithmetic,
# and once kr >= d the residual, and with it every score, is rounding
# noise; either way the pick would otherwise follow rounding.  The window
# scales with ||y|| because the residual's rounding error does; 1e-12 is
# far above that error and far below the gap between distinct scores.
_OMP_TIE_RTOL = 1e-12


def _blocks(synthesis: np.ndarray, n: int) -> np.ndarray:
    """The (n, d, r) view of a C-ordered (d, nr) array: entry [i] is its
    (i+1)-th block of r columns."""
    return synthesis.reshape(len(synthesis), n, -1).swapaxes(0, 1)


@dataclass(frozen=True, eq=False)
class FusionFrame:
    """n isometries Phi_i in F^{d x r}; columns of each span one subspace.

    `synthesis` holds S = [Phi_1 ... Phi_n] as one read-only C-ordered
    (d, nr) array in the field's dtype, and `array` is its zero-copy
    (n, d, r) view, `array[i]` = Phi_{i+1}.  The isometries come as any
    sequence of n d x r arrays or one (n, d, r) array, copied once into S
    (`field_array`); `arrays` returns a writable (n, d, r) copy.
    """

    field: FieldTag
    d: int
    r: int
    n: int
    array: np.ndarray
    synthesis: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if self.r < 1 or self.d < self.r:
            raise DomainError(f"need d >= r >= 1, got d={self.d}, r={self.r}")
        if self.n < 2:
            raise DomainError(f"need n >= 2 subspaces, got n={self.n}")
        synthesis = np.empty((self.d, self.n * self.r), self.field.dtype)
        shape = (self.n, self.d, self.r)
        field_array(self.field, self.array, shape, "isometries", _blocks(synthesis, self.n))
        self._hold(synthesis)

    def _hold(self, synthesis: np.ndarray) -> None:
        synthesis.setflags(write=False)
        object.__setattr__(self, "synthesis", synthesis)
        object.__setattr__(self, "array", _blocks(synthesis, self.n))

    @classmethod
    def _adopt(cls, field: FieldTag, r: int, synthesis: np.ndarray) -> "FusionFrame":
        """The frame whose synthesis operator is `synthesis`, a finite
        C-ordered (d, nr) array in the field's dtype that the caller hands
        over: kept without a copy or a check, and made read-only."""
        frame = object.__new__(cls)
        d, nr = synthesis.shape
        for name, value in (("field", field), ("d", d), ("r", r), ("n", nr // r)):
            object.__setattr__(frame, name, value)
        frame._hold(synthesis)
        return frame

    @classmethod
    def from_arrays(cls, field: FieldTag, arrays) -> "FusionFrame":
        """The frame of the d x r arrays Phi_1 ... Phi_n, n >= 2: a
        sequence of arrays or one (n, d, r) array."""
        d, r = arrays[0].shape
        return cls(field, d, r, len(arrays), arrays)

    def arrays(self) -> np.ndarray:
        """The isometries as one fresh writable C-ordered (n, d, r) array."""
        return self.array.copy()

    @property
    def isometries(self) -> tuple[Mat, ...]:
        """The isometries as `Mat`s, the benchmark's view."""
        return tuple(Mat(self.field, a) for a in self.array)


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


def eitff_params(n: int) -> tuple[float, float]:
    """(alpha, beta) of the canonical form: alpha = sqrt((n-2)/(2n-2)) equals
    sigma, the common cross-Gram singular value, and beta = sqrt(n/(2n-2))."""
    if n < 3:
        raise DomainError(f"canonical form needs n >= 3, got {n}")
    return math.sqrt((n - 2) / (2 * n - 2)), math.sqrt(n / (2 * n - 2))


def frame_from_simplex(s: RhoSimplex) -> FusionFrame:
    """Assemble the canonical synthesis operator
    [alpha I ... alpha I  I; beta B_1 ... beta B_{n-1}  0], written in
    place into the array the frame keeps."""
    alpha, beta = eitff_params(s.n)
    r, n = s.r, s.n
    synthesis = np.zeros((2 * r, n * r), dtype=s.blocks.dtype)
    top, bottom = _blocks(synthesis[:r], n), _blocks(synthesis[r:], n)
    top[:-1] = alpha * np.eye(r)
    top[-1] = np.eye(r)
    np.multiply(s.blocks, beta, out=bottom[:-1])
    return FusionFrame._adopt(s.field, r, synthesis)


def build_eitff(field: FieldTag, r: int, n: int) -> FusionFrame:
    """Optimal code of n subspaces of dimension r in F^{2r}, built from
    the family `build_rho_orthonormal(field, r, n - 2)`.  n < 3 raises
    `DomainError`, n > rho_F(r) + 2 `InfeasibleParametersError`; whether
    the code is totally symmetric is `exists(..., total=True)`'s answer."""
    if n < 3:
        raise DomainError(f"need n >= 3 subspaces, got n={n}")
    rho = rho_number(field, r)
    if n > rho + 2:
        raise InfeasibleParametersError(
            f"n <= rho+2 violated: n={n}, rho_{field.value}({r})={rho}",
            bound="n <= rho+2",
        )
    return frame_from_simplex(rho_simplex_from_orthonormal(build_rho_orthonormal(field, r, n - 2)))


def _complement_rows(w: np.ndarray) -> np.ndarray:
    """Orthonormal rows K, (k - p) x k, with K w = 0, for a k x p isometry w.

    With the SVD u s v* of w's top p x p block and x = -w[p:] v u*, K is
    [x, I - x (I + u s u*)^-1 x*], the last rows of the Schreiber-Parlett
    block reflector whose first columns are w (-v u*); no k x k unitary is
    formed.  I + u s u* >= I, so the inverse is well conditioned for every
    isometry, and w = [I; 0] gives exactly [0, I].
    """
    k, p = w.shape
    u, s, vh = np.linalg.svd(w[:p])
    y = w[p:] @ vh.conj().T  # x = -y u*, and x (I + u s u*)^-1 x* = y (I + s)^-1 y*
    rows = np.empty((k - p, k), w.dtype)
    np.matmul(y, -u.conj().T, out=rows[:, :p])
    y /= np.sqrt(1.0 + s)
    _less_diagonal(np.matmul(-y, y.conj().T, out=rows[:, p:])[None], -1.0)
    return rows


def canonicalize(frame: FusionFrame):
    """Reduce a verified optimal frame with d = 2r to canonical form.

    Returns the equivalent frame in the [alpha I; beta B_i] / [I; 0]
    shape together with the unitary simplex B that `_chart` reads off.
    """
    if frame.d != 2 * frame.r:
        raise DomainError(
            f"canonical form needs d = 2r, got d={frame.d}, r={frame.r}"
        )
    report = verify_eitff(frame, _COMPLETION_TOL)
    if not report.passed:
        raise InvalidInputError(
            "frame does not verify as an optimal code at tolerance "
            f"{_COMPLETION_TOL} (tightness {report.tightness_residual:.2e}, "
            f"equi-isoclinic {report.equiisoclinic_residual:.2e})"
        )
    simplex = RhoSimplex(frame.field, frame.r, frame.n, _chart(frame)[1])
    return frame_from_simplex(simplex), simplex


def _chart(frame: FusionFrame) -> tuple[np.ndarray, np.ndarray]:
    """(Z, B) with Z_i = Phi_n* Phi_i / alpha and B_i = Q Phi_i Z_i* / beta,
    i < n, Q = `_complement_rows`(Phi_n): so
    [Phi_n*; Q] Phi_i = [alpha I; beta B_i] Z_i, and for a code B is a
    unitary simplex and each Z_i unitary."""
    (alpha, beta), stack = eitff_params(frame.n), frame.array
    z = stack[-1].conj().T @ stack[:-1] / alpha
    return z, (_complement_rows(stack[-1]) @ stack[:-1] @ z.conj().swapaxes(1, 2)) / beta


def _gram_tiles(frame: FusionFrame):
    """The upper block triangle of the fusion Gram S* S in tiles: block
    rows [i0, i0 + p) against block columns [j0, j0 + k), each one product
    S[:, rows]* S[:, cols].  A tile spans a = max(1, m // n) rows, m the
    r x r blocks that fit in `_TILE_BYTES`.  When a > 1 each tile runs
    from its first row's diagonal block to column n, so a small code's
    whole Gram is one product.  When a = 1 a tile is one panel
    Phi_i* [Phi_j ... Phi_j+k-1] of a block row, of at most
    `linalg._PANEL_BYTES` (`panel_blocks`).

    Yields (first, diagonal, i, j, pairs), 0-indexed: the (p, r, r)
    diagonal blocks Phi_i* Phi_i of rows first ... first + p - 1 that the
    tile holds (none past a row's first panel), and the cross-Grams
    Phi_i* Phi_j of its pairs i < j as one (m, r, r) array, row by row,
    with their index arrays i and j.  A one-row tile yields views of its
    product, with no copy; a taller one gathers its diagonal and its
    pairs, and drops the blocks below its diagonal."""
    synthesis, r, n = frame.synthesis, frame.r, frame.n
    block = r * r * synthesis.itemsize
    a = max(1, _TILE_BYTES // block // n)
    b = n if a > 1 else panel_blocks(block)
    for i0 in range(0, n, a):
        p = min(a, n - i0)
        adjoint = synthesis[:, i0 * r : (i0 + p) * r].conj().T
        for j0 in range(i0, n, b):
            k = min(b, n - j0)
            product = adjoint @ synthesis[:, j0 * r : (j0 + k) * r]
            tile = product.reshape(p, r, k, r).swapaxes(1, 2)
            if p == 1:
                skip = int(j0 == i0)
                cols = np.arange(j0 + skip, j0 + k)
                yield i0, tile[0, :skip], np.full(len(cols), i0), cols, tile[0, skip:]
                continue
            rows, cols = np.nonzero(np.arange(k) > np.arange(p)[:, None])
            diagonal = np.arange(p)
            yield i0, tile[diagonal, diagonal], i0 + rows, j0 + cols, tile[rows, cols]


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
    (clamped) cross-Gram singular values.  The diagonal is zero.  The
    fusion Gram is read in tiles (`_gram_tiles`), one batched SVD of the
    pairs of each, so the call holds S, the angles and a few buffers of
    at most `linalg._PANEL_BYTES`."""
    angles = np.zeros((frame.n, frame.n, frame.r))
    for _, _, i, j, pairs in _gram_tiles(frame):
        theta = np.arccos(np.clip(np.linalg.svd(pairs, compute_uv=False), 0.0, 1.0))
        angles[i, j] = angles[j, i] = theta
    return angles


def gerzon_bound(field: FieldTag, d: int, r: int) -> int:
    """Dimension count bounding how many nonidentical equi-isoclinic
    subspaces fit: d(d+1)/2 - r(r+1)/2 + 1 over R, d^2 - r^2 + 1 over C."""
    if field is FieldTag.REAL:
        return d * (d + 1) // 2 - r * (r + 1) // 2 + 1
    return d * d - r * r + 1


def tightness_residual(frame: FusionFrame) -> float:
    """Largest entry of S S* - (nr/d) I, S the synthesis operator, formed
    in one d x d buffer; a real one also takes its magnitudes there.  A
    real S is its own conjugate and takes one product.  A complex S is
    conjugated one column panel of at most `linalg._PANEL_BYTES` at a
    time, each panel's product added into the buffer, so S is never
    conjugated whole."""
    s, d, r = frame.synthesis, frame.d, frame.r
    width = s.shape[1] if s.dtype == np.float64 else r * panel_blocks(d * r * s.itemsize)
    gram = s[:, :width] @ s[:, :width].conj().T
    for c in range(width, s.shape[1], width):
        panel = s[:, c : c + width]
        gram += panel @ panel.conj().T
    gram = _less_diagonal(gram[None], frame.n * r / d)
    return float(np.abs(gram, out=gram if gram.dtype == np.float64 else None).max())


def _less_diagonal(stack: np.ndarray, c: float) -> np.ndarray:
    """Subtract c from the diagonal of each matrix of the stack, in place."""
    diagonal = np.einsum("kii->ki", stack)
    diagonal -= c
    return stack


def _pair_spectrum(pairs: np.ndarray, sigma2: float, screen: float):
    """For the (m, r, r) cross-Grams G of one tile's pairs: each pair's
    s = ||G* G - sigma^2 I||_F, an upper bound on each lambda_max(G* G),
    and whether some pair is identical.  `screen` is `_weyl_screen`; see
    `verify_eitff` for when `eigvalsh` runs.  The norm is read from the
    float64 view of the one G* G - sigma^2 I buffer, so the pairs cost
    one more (m, r, r) array once that buffer is formed."""
    identical2 = (1.0 - _IDENTICAL_SUBSPACE_TOL) ** 2
    gram = _less_diagonal(pairs.conj().swapaxes(1, 2) @ pairs, sigma2)
    flat = gram.view(np.float64)
    spread = np.sqrt(np.einsum("kij,kij->k", flat, flat))
    low, high = sigma2 - spread, sigma2 + spread
    solve = (spread > screen) | (
        (low < identical2) & (high >= identical2)
    )
    if solve.any():
        lam = np.linalg.eigvalsh(gram[solve]) + sigma2
        low[solve], high[solve] = lam[:, 0], lam[:, -1]
    return spread, high, bool(low.max() >= identical2)


def verify_eitff(frame: FusionFrame, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Measure every optimality property at once.

    Residuals: column orthonormality, tightness of the summed projections
    (target (nr/d) I), equi-isoclinism against sigma^2 = (nr-d)/(d(n-1)),
    and the gap between block coherence and the Welch bound (0 when
    nr < d, where no frame is tight).  Tightness is S S*, one product
    over R and a sum over column panels of S over C.  In
    the fusion Gram H = S* S, S = [Phi_1 ... Phi_n], the others ask
    H_ii = I and H_ij* H_ij = sigma^2 I (H_ij H_ij* has the same
    spectrum); H is read in tiles (`_gram_tiles`): a small code's whole
    Gram in one product, a larger one's a panel Phi_i* [Phi_j ... Phi_j+k-1]
    of a block row of at most `linalg._PANEL_BYTES` at a time, so the call
    holds S plus a few buffers of that size at every n and r.  The
    isometry residual is taken on the diagonal blocks of each tile, in
    place, and the pairs of each tile are one batch.
    The equi-isoclinic residual is max_ij s_ij with
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
    d, r, n = frame.d, frame.r, frame.n
    tight = tightness_residual(frame)

    sigma2 = (n * r - d) / (d * (n - 1))
    screen, iso = _weyl_screen(r, sigma2), np.empty(n)
    equi, pair = 0.0, (1, 2)
    lam_max = 0.0
    identical_pair = False
    for first, diagonal, i, j, pairs in _gram_tiles(frame):
        iso[first : first + len(diagonal)] = np.abs(_less_diagonal(diagonal, 1.0)).max(axis=(1, 2))
        if not len(pairs):
            continue
        spread, high, identical = _pair_spectrum(pairs, sigma2, screen)
        k = int(np.argmax(spread))
        if spread[k] > equi:
            equi, pair = float(spread[k]), (int(i[k]) + 1, int(j[k]) + 1)
        lam_max = np.maximum(lam_max, high.max())  # unlike max, keeps a NaN
        identical_pair |= identical

    coherence = float(np.sqrt(np.maximum(lam_max, 0.0)))
    gap = coherence - (welch_bound(d, r, n) if n * r >= d else 0.0)
    gerzon_ok = identical_pair or n <= gerzon_bound(frame.field, d, r)
    return VerificationReport(
        isometry_residual=float(iso.max()),
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

    For a tight frame the columns of W = sqrt(d/nr) S*, S = [Phi_1 ... Phi_n]
    the synthesis operator, are orthonormal.  The complement's synthesis
    operator S' = sqrt(nr/(nr-d)) K, K any nr - d orthonormal rows with
    K W = 0, has S'* S' = (nr/(nr-d)) (I - (d/nr) S* S): its n r-column
    blocks are isometries whose cross-Grams are the original ones scaled
    by -d/(nr-d).  The complement is unique up to a left unitary.

    A code with d = 2r that verifies at `DEFAULT_TOL` has K in closed
    form.  By `_chart` its block i is the canonical code's times Z_i, and
    so is its complement's.  Let psi_i be column i of Psi = Psi_{n-1}
    (`simplex_matrix`) and C_k = ((n-2)/(n-1)) sum_i Psi(k, i) B_i (a
    built code's family).  As sum_k Psi(k, i) C_k = B_i and
    sum_i B_i = 0, the blocks x_i = B_i* (psi_i* (x) I), i < n, and
    x_n = -alpha sum_i x_i of an nr x (n-2)r matrix X span the canonical
    code's ker S.  X* X = lambda I + mu P, lambda = (n-1)/(n-2),
    mu = (n-1)/2, P = [C_k C_l*]_kl / (n-2) a projection, so
    (X* X)^-1/2 = a I + (a' - a) P, a = lambda^-1/2, a' = (lambda + mu)^-1/2,
    and with s = sqrt(n/(n-2)) block (k, i) of S' is
    s (a Psi(k, i) B_i + ((a' - a)/(n-2)) C_k) Z_i for i < n and
    -s a' alpha lambda C_k for i = n: a few scalars times B and C, so
    entries of a built code (Z_i = I) that are equal in exact arithmetic
    come out bit-equal.  Every other tight frame takes the block
    reflector (`_complement_rows`).
    """
    d, r, n = frame.d, frame.r, frame.n
    if n * r <= d:
        raise DomainError(f"complement needs nr > d, got nr={n * r}, d={d}")
    report = verify_eitff(frame, DEFAULT_TOL) if d == 2 * r else None
    tight = report.tightness_residual if report else tightness_residual(frame)
    if not tight <= _COMPLETION_TOL:
        raise InvalidInputError(f"frame is not tight (residual {tight:.2e})")
    if report and report.passed:
        z, b = _chart(frame)
        psi, lam, s = simplex_matrix(n - 1), (n - 1) / (n - 2), math.sqrt(n / (n - 2))
        a, a1 = lam**-0.5, (lam + (n - 1) / 2) ** -0.5
        c = np.tensordot(psi, b, 1)  # (n-1)/(n-2) C
        synthesis = np.empty(((n - 2) * r, n * r), frame.field.dtype)
        out = _blocks(synthesis, n)
        np.multiply(c.reshape(-1, r), -s * a1 * eitff_params(n)[0], out=out[-1])
        c *= s * (a1 - a) / (n - 1)
        for i in range(n - 1):
            t = np.multiply(s * a * psi[:, i, None, None], b[i])
            t += c
            np.matmul(t.reshape(-1, r), z[i], out=out[i])
        return FusionFrame._adopt(frame.field, r, synthesis)
    cols = math.sqrt(d / (n * r)) * frame.synthesis.T
    np.conjugate(cols, out=cols)
    synthesis = _complement_rows(cols)
    synthesis *= math.sqrt(n * r / (n * r - d))
    return FusionFrame._adopt(frame.field, r, synthesis)


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
    arrs, n, r = frame.array, frame.n, frame.r
    y = np.asarray(y, dtype=arrs.dtype).reshape(frame.d)
    tie = _OMP_TIE_RTOL * np.linalg.norm(y)
    selected: list[int] = []
    residual = y.copy()
    coef = np.zeros(0, dtype=arrs.dtype)
    for _ in range(min(k, n)):
        # Row i is conj(Phi_i* residual): one product with S for every block.
        scores = np.linalg.norm((residual.conj() @ frame.synthesis).reshape(n, r), axis=1)
        scores[selected] = -1.0
        pick = int(np.argmax(scores >= scores.max() - tie))
        selected.append(pick)
        stacked = np.hstack([arrs[i] for i in selected])
        coef = _refit(stacked, y)
        residual = y - stacked @ coef
    return [
        (idx + 1, coef[pos * r : (pos + 1) * r].copy())
        for pos, idx in enumerate(selected)
    ]
