"""Permutation symmetries of subspace sequences.

A permutation sigma is a symmetry of (U_i) when some unitary Upsilon
conjugates each projection onto U_i into the projection onto
U_{sigma(i)}.  This module checks such certificates, manufactures them
in closed form for the canonical half-dimension codes (transpositions
from skew simplices, even permutations via a doubling trick), searches
for them numerically through the intertwiner equations, and decides at
desk scale whether a frame's symmetry group is all of S_n, the
alternating group, or something smaller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InfeasibleParametersError,
    InvalidInputError,
    ShapeError,
    UnknownFeasibilityError,
)
from .linalg import FieldTag, Mat, max_abs, nullspace, polar_unitary, require_finite
from .frames import FusionFrame, _drop_identity_member, eitff_params, frame_from_simplex
from .radon_hurwitz import (
    GEN,
    RhoOrthonormalSeq,
    build_rho_orthonormal,
    decompose_r,
    inflate_real,
    real_base_family,
    rho_number,
    skew_double,
    tensor,
)
from .simplex import RhoSimplex


@dataclass(frozen=True)
class Permutation:
    """Permutation of [1, n] in one-line notation: image[i-1] = sigma(i)."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(int(v) for v in self.image))
        if len(self.image) != self.n or sorted(self.image) != list(
            range(1, self.n + 1)
        ):
            raise InvalidInputError(
                f"not a permutation of [1, {self.n}]: {self.image}"
            )

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, j: int, k: int) -> "Permutation":
        if not (1 <= j <= n and 1 <= k <= n and j != k):
            raise DomainError(f"transposition needs distinct indices in [1, {n}]")
        image = list(range(1, n + 1))
        image[j - 1], image[k - 1] = k, j
        return cls(n, tuple(image))

    @classmethod
    def cycle(cls, n: int, elements) -> "Permutation":
        """Cyclic permutation sending each listed element to the next."""
        elements = [int(e) for e in elements]
        image = list(range(1, n + 1))
        for pos, e in enumerate(elements):
            image[e - 1] = elements[(pos + 1) % len(elements)]
        return cls(n, tuple(image))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """One-line notation, 1-indexed, space-separated, e.g. "2 1 3"."""
        parts = text.split()
        if not parts:
            raise InvalidInputError("empty permutation string")
        try:
            image = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise InvalidInputError(f"bad permutation string {text!r}") from exc
        return cls(len(image), image)

    def to_one_line(self) -> str:
        return " ".join(str(v) for v in self.image)

    def apply(self, i: int) -> int:
        return self.image[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ShapeError("cannot compose permutations of different sizes")
        return Permutation(self.n, tuple(self.apply(other.apply(i)) for i in self._dom()))

    def inverse(self) -> "Permutation":
        image = [0] * self.n
        for i in self._dom():
            image[self.apply(i) - 1] = i
        return Permutation(self.n, tuple(image))

    def is_identity(self) -> bool:
        return all(self.apply(i) == i for i in self._dom())

    def _dom(self):
        return range(1, self.n + 1)


@dataclass(frozen=True)
class SymmetryCertificate:
    """A permutation together with a unitary witnessing it (a d x d array
    whose dtype gives its field), plus the measured conjugation residual
    against the target frame."""

    sigma: Permutation
    upsilon: np.ndarray
    residual: float


@dataclass(frozen=True)
class TotalSymmetrySeed:
    """Generators certifying full permutation symmetry.

    `seq` is an anticommuting unitary family of length n-2 whose first
    member is the identity; `u` is an r x r unitary array commuting with
    every member except the last, with which it anticommutes.  Such a
    pair upgrades the always-present even symmetries to all of S_n.
    """

    field: FieldTag
    r: int
    n: int
    seq: RhoOrthonormalSeq
    u: np.ndarray

    def __post_init__(self):
        mats = self.seq.stack()
        if len(mats) != self.n - 2:
            raise ShapeError(
                f"seed for n={self.n} needs {self.n - 2} generators, got {len(mats)}"
            )
        if max_abs(mats[0] - np.eye(self.r)) > 0.0:
            raise InvalidInputError("first generator must be exactly the identity")
        u = self.u
        require_finite(u, "witness")
        for i, c in enumerate(mats):
            want_anti = i == len(mats) - 1
            resid = max_abs(u @ c + c @ u) if want_anti else max_abs(u @ c - c @ u)
            if resid > 1e-12:
                kind = "anticommute with" if want_anti else "commute with"
                raise InvalidInputError(
                    f"witness fails to {kind} generator {i + 1} (residual {resid:.2e})"
                )


def _projections(frame: FusionFrame) -> list[np.ndarray]:
    return [a @ a.conj().T for a in frame.arrays()]


def _conjugation_residual(
    projections: list[np.ndarray], sigma: Permutation, upsilon: np.ndarray
) -> float:
    uh = upsilon.conj().T
    worst = 0.0
    for i, p in enumerate(projections):
        target = projections[sigma.apply(i + 1) - 1]
        worst = max(worst, max_abs(upsilon @ p @ uh - target))
    return worst


def check_certificate(frame: FusionFrame, cert: SymmetryCertificate) -> float:
    """Worst-case residual of Upsilon Pi_i Upsilon* = Pi_{sigma(i)}."""
    if cert.sigma.n != frame.n:
        raise ShapeError(
            f"certificate permutes [1, {cert.sigma.n}] but frame has n={frame.n}"
        )
    if cert.upsilon.shape != (frame.d, frame.d):
        raise ShapeError(
            f"witness must be {frame.d}x{frame.d}, got {cert.upsilon.shape}"
        )
    require_finite(cert.upsilon, "witness")
    return _conjugation_residual(_projections(frame), cert.sigma, cert.upsilon)


def transposition_witness(simplex: RhoSimplex, j: int, k: int) -> SymmetryCertificate:
    """Closed-form witness for the transposition (j k) of the frame built
    from a skew-Hermitian unitary simplex."""
    n = simplex.n
    if not (1 <= j < k <= n):
        raise DomainError(f"need 1 <= j < k <= {n}, got j={j}, k={k}")
    blocks = simplex.blocks
    skew_res = max_abs(blocks.conj().swapaxes(1, 2) + blocks)
    if skew_res > 1e-12:
        raise InvalidInputError(
            f"simplex members must be skew-Hermitian (residual {skew_res:.2e})"
        )
    ups = _transposition_matrix(blocks, j, k)
    sigma = Permutation.transposition(n, j, k)
    frame = frame_from_simplex(simplex)
    residual = _conjugation_residual(_projections(frame), sigma, ups)
    return SymmetryCertificate(sigma, ups, residual)


def _transposition_matrix(blocks: np.ndarray, j: int, k: int) -> np.ndarray:
    """Closed-form witness of the transposition (j k), j < k, for the frame
    of the skew-Hermitian simplex whose (n-1, r, r) members B_1 ... B_{n-1}
    are `blocks`.

    For k < n the witness is alpha * blkdiag(B_j - B_k, B_k - B_j); for
    k = n it is the block matrix [[alpha B_j, beta I], [-beta I, -alpha B_j]].
    """
    n = len(blocks) + 1
    p = eitff_params(n)
    if k < n:
        diff = blocks[j - 1] - blocks[k - 1]
        zero = np.zeros_like(diff)
        return np.block([[p.alpha * diff, zero], [zero, -p.alpha * diff]])
    bj, eye = blocks[j - 1], np.eye(len(blocks[j - 1]))
    return np.block([[p.alpha * bj, p.beta * eye], [-p.beta * eye, -p.alpha * bj]])


def _as_transposition(n: int, t) -> Permutation:
    if isinstance(t, Permutation):
        moved = [i for i in range(1, n + 1) if t.apply(i) != i]
        if len(moved) != 2:
            raise DomainError(f"{t.image} is not a transposition")
        return t
    j, k = t
    return Permutation.transposition(n, min(j, k), max(j, k))


def alternating_witness(frame: FusionFrame, sigma1, sigma2) -> SymmetryCertificate:
    """Witness for a product of two transpositions of a canonical frame.

    The frame's simplex blocks are doubled into skew-Hermitian form
    (`skew_double`), closed-form witnesses for the two transpositions are
    built there, their rhat-blocks reordered as (1, 4, 2, 3) and
    multiplied; the product is block diagonal and its upper-left corner
    acts on the original frame as a witness for sigma1 . sigma2.
    """
    n, rhat = frame.n, frame.r
    if n < 4:
        raise DomainError(f"even-permutation witnesses need n >= 4, got n={n}")
    if frame.d != 2 * rhat:
        raise DomainError("frame must have d = 2r")
    sigma1 = _as_transposition(n, sigma1)
    sigma2 = _as_transposition(n, sigma2)
    p = eitff_params(n)
    arrs = frame.arrays()
    eye = np.eye(rhat)
    canonical_res = max_abs(arrs[-1][:rhat] - eye)
    canonical_res = max(canonical_res, max_abs(arrs[-1][rhat:]))
    for a in arrs[:-1]:
        canonical_res = max(canonical_res, max_abs(a[:rhat] - p.alpha * eye))
    if canonical_res > 1e-8:
        raise InvalidInputError(
            f"frame is not in canonical form (residual {canonical_res:.2e})"
        )

    doubled = skew_double(np.stack(arrs[:-1])[:, rhat:] / p.beta)
    # Row and column indices reordering the four rhat-blocks as (1, 4, 2, 3).
    order = np.concatenate([np.arange(b * rhat, (b + 1) * rhat) for b in (0, 3, 1, 2)])

    def doubled_witness(sigma: Permutation) -> np.ndarray:
        (j, k) = sorted(i for i in range(1, n + 1) if sigma.apply(i) != i)
        return _transposition_matrix(doubled, j, k)[np.ix_(order, order)]

    corner = doubled_witness(sigma1)[: 2 * rhat] @ doubled_witness(sigma2)[:, : 2 * rhat]
    sigma = sigma1.compose(sigma2)
    residual = _conjugation_residual(_projections(frame), sigma, corner)
    return SymmetryCertificate(sigma, corner, residual)


def find_witness(
    frame: FusionFrame,
    sigma: Permutation,
    tol: float = 1e-10,
    seed: int = 0,
):
    """Search for a unitary witness of sigma by solving the intertwiner
    equations Upsilon Pi_i = Pi_{sigma(i)} Upsilon.

    The solutions are the eigenvectors with lambda <= 1e-10 lambda_max of
    a Hermitian PSD normal operator on the unknowns that subspace n leaves
    free (`_search`).  They only propose candidates: a random real
    combination of them, then each one.  The unitary polar factor of an
    invertible candidate is itself an intertwiner; it is returned once its
    conjugation residual clears `tol`, the only acceptance gate.  None
    means no witness was found at this tolerance, a numeric verdict, not a
    proof of asymmetry.  Frames with d > 32 are refused with
    `DomainError`, a rank-deficient Phi_n or Phi_sigma(n) with
    `InvalidInputError`.
    """
    if sigma.n != frame.n:
        raise ShapeError(f"permutation of [1, {sigma.n}] against n={frame.n}")
    return _search(frame, _projections(frame), sigma, tol, seed)


def _normal_operator(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """L = sum_i A_i* A_i for A_i = I (x) P_i^T - Q_i (x) I, given (n, d, d)
    stacks of Hermitian projections P_i and Q_i.  Both terms of A_i are
    commuting projections, so L = I (x) sum_i P_i^T + sum_i Q_i (x) I
    - 2 sum_i Q_i (x) P_i^T.  The cross term is one GEMM over i and a
    transpose, in the projections' dtype.  No tightness is assumed.
    """
    n, d = p.shape[:2]
    pt = p.swapaxes(1, 2)
    cross = (q.reshape(n, -1).T @ pt.reshape(n, -1)).reshape(d, d, d, d)
    cross = cross.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    eye = np.eye(d)
    return np.kron(eye, pt.sum(axis=0)) + np.kron(q.sum(axis=0), eye) - 2.0 * cross


def _search(
    frame: FusionFrame, projections: list[np.ndarray], sigma: Permutation, tol: float, seed: int
):
    """`find_witness` on projections the caller has already formed.

    Let U_k, U_m be the Q factors of complete QRs of Phi_k and Phi_m,
    k = n, m = sigma(n).  Equation k maps ran Pi_k into ran Pi_m and
    ker Pi_k into ker Pi_m, so every intertwiner is U_m W U_k* with W
    block diagonal: r^2 + (d-r)^2 unknowns.  W solves the equations for
    P_i = U_k* Pi_i U_k and Q_i = U_m* Pi_sigma(i) U_m; the block-diagonal
    rows and columns of their L (`_normal_operator`) have the nullity of L
    and, by Cauchy interlacing, no smaller gap.  Costs O(d^6) time and
    O(d^4) memory, so d > 32 is refused before L is formed.
    """
    d, n = frame.d, frame.n
    if d > 32:
        raise DomainError(f"witness search is limited to d <= 32, got d={d}")
    ends = (n, sigma.apply(n))
    ends_stack = np.stack(frame.arrays())[[i - 1 for i in ends]]
    (uk, um), rmat = np.linalg.qr(ends_stack, mode="complete")
    for i, diag in zip(ends, np.abs(np.diagonal(rmat, axis1=1, axis2=2))):
        if diag.min() <= 1e-8 * diag.max():
            raise InvalidInputError(f"subspace {i} is rank-deficient (|R_jj| {diag.min():.2e})")
    stack = np.stack(projections)
    p = uk.conj().T @ stack @ uk
    q = um.conj().T @ stack[[sigma.apply(i) - 1 for i in range(1, n + 1)]] @ um
    side = np.arange(d) < frame.r
    block = np.equal.outer(side, side).ravel()
    basis = nullspace(Mat(frame.field, _normal_operator(p, q)[np.ix_(block, block)]), 1e-10)
    nullity = basis.shape[1]
    if nullity == 0:
        return None
    lifted = np.zeros((nullity, d * d), dtype=p.dtype)
    lifted[:, block] = basis.T
    vecs = (um @ lifted.reshape(-1, d, d) @ uk.conj().T).reshape(nullity, d * d)
    rng = np.random.default_rng(seed)
    candidates = [rng.standard_normal(nullity) @ vecs, *vecs]
    for cand in candidates:
        x = cand.reshape(d, d)
        s = np.linalg.svd(x, compute_uv=False)
        if s[0] == 0.0 or s[-1] <= 1e-8 * s[0]:
            continue
        ups = polar_unitary(x)
        residual = _conjugation_residual(projections, sigma, ups)
        if residual <= tol:
            return SymmetryCertificate(sigma, ups, residual)
    return None


def totally_symmetric_exists(field: FieldTag, r: int, n: int) -> str:
    """Does an optimal code of n half-dimension subspaces with full
    permutation symmetry exist?  Returns "yes", "no", or "unknown".

    Over C the answer is yes exactly when n <= rho_C(r) + 1.  Over R the
    skew construction settles n <= rho_R(r) + 1; at n = rho_R(r) + 2 the
    answer depends on the dyadic type c of r: yes for c in {0, 1}, no for
    c = 3, and open for c = 2.
    """
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    rho = rho_number(field, r)
    if field is FieldTag.COMPLEX:
        return "yes" if n <= rho + 1 else "no"
    if n <= rho + 1:
        return "yes"
    if n == rho + 2:
        c = decompose_r(r).c
        return {0: "yes", 1: "yes", 2: "unknown", 3: "no"}[c]
    return "no"


def total_symmetry_seed(field: FieldTag, r: int, n: int) -> TotalSymmetrySeed:
    """Generators plus witness unitary certifying total symmetry.

    For n <= rho_F(r) + 1 the seed comes from a family of n - 2 skew
    anticommuting unitaries D_i: the generators are (I, D_1, ...,
    D_{n-3}) and the witness is the product D_{n-3} D_{n-2}, which
    commutes with the earlier D's and anticommutes with D_{n-3}.  The
    boundary real cases n = rho_R(r) + 2 use explicit tensor data: for r
    an odd multiple of 2 the witness M (x) I with generator R (x) I, for
    an odd multiple of 16 the witness I (x) M (x) M (x) M against the
    eight size-16 generators; larger powers of 16 inflate both.
    """
    status = totally_symmetric_exists(field, r, n)
    if status == "no":
        raise InfeasibleParametersError(
            f"no totally symmetric code for field={field.value}, r={r}, n={n}",
            bound="total symmetry",
        )
    if status == "unknown":
        raise UnknownFeasibilityError(
            f"existence is open for field={field.value}, r={r}, n={n} "
            "(dyadic type c=2 at n = rho+2)"
        )
    if n == 3:
        raise InfeasibleParametersError(
            "seed data needs n >= 4 (nothing can anticommute with the identity); "
            "3-subspace codes are trivially totally symmetric",
            bound="n >= 4",
        )
    rho = rho_number(field, r)
    eye = np.eye(r)[None]
    if n <= rho + 1:
        skews = _drop_identity_member(build_rho_orthonormal(field, r, n - 1)).stack()
        seq = RhoOrthonormalSeq.from_stack(field, np.concatenate([eye, skews[: n - 3]]))
        return TotalSymmetrySeed(field, r, n, seq, skews[n - 4] @ skews[n - 3])

    # Real boundary case n = rho + 2 with c in {0, 1}.
    dec = decompose_r(r)
    odd_eye = np.eye(2 * dec.a + 1)
    if dec.c == 1:
        u = np.kron(GEN.M, odd_eye)
        ds = np.kron(GEN.R, odd_eye)[None]
        inflations = dec.b
    else:
        u = np.kron(odd_eye, tensor(GEN.I, GEN.M, GEN.M, GEN.M))
        ds = np.kron(odd_eye, real_base_family(16))
        inflations = dec.b - 1
    for _ in range(inflations):
        ds = inflate_real(ds)
        u = np.kron(np.eye(16), u)
    # Stable sort: the one generator anticommuting with u goes last.
    # TotalSymmetrySeed checks the commutation pattern.
    anti = [max_abs(u @ c + c @ u) <= 1e-12 for c in ds]
    ds = ds[np.argsort(anti, kind="stable")]
    seq = RhoOrthonormalSeq.from_stack(field, np.concatenate([eye, ds]))
    return TotalSymmetrySeed(field, r, n, seq, u)


def probe_symmetry(frame: FusionFrame, tol: float = 1e-10, seed: int = 0):
    """Classify the symmetry group at desk scale.

    Runs the witness search over generating sets: all adjacent
    transpositions for the full symmetric group, then consecutive
    3-cycles for the alternating group.  Returns ("total" | "alternating"
    | "other", found certificates).  The verdict is numeric: a missing
    witness means none was found at this tolerance, not a nonexistence
    proof.  Frames with d > 32 are refused, as in `find_witness`.
    """
    n = frame.n
    projections = _projections(frame)
    transpositions = [Permutation.transposition(n, i, i + 1) for i in range(1, n)]
    three_cycles = [Permutation.cycle(n, (i, i + 1, i + 2)) for i in range(1, n - 1)]
    for label, generators in (("total", transpositions), ("alternating", three_cycles)):
        found = []
        for gen in generators:
            cert = _search(frame, projections, gen, tol, seed)
            if cert is None:
                break
            found.append(cert)
        else:
            return label, found
    return "other", found
