"""Permutation symmetries of subspace sequences.

A permutation sigma is a symmetry of (U_i) when some unitary Upsilon
conjugates each projection onto U_i into the projection onto
U_{sigma(i)}.  This module checks such certificates, manufactures them
in closed form for the half-dimension codes, searches for them
numerically through the intertwiner equations on every other frame,
and probes whether a frame's symmetry group is all of S_n, the
alternating group, or something smaller.  Whether a totally symmetric
code exists at all is decided by `radon_hurwitz.exists`; where it does,
the generic code is one.

Every closed-form witness comes from one identity: for a code with
d = 2r, V_ab = sqrt(2(n-1)/n) (Pi_a - Pi_b) is a Hermitian unitary with
V_ab Pi_i V_ab = I - Pi_(a b)(i).  A product of two transpositions of
any code is witnessed by -V_ab V_cd, and a transposition by J V_ab for
any unitary J with J Pi_i J* = I - Pi_i (S, the swap of the two
r-blocks, on skew codes).  The code's Clifford system (`clifford_rule`)
decides whether such a J exists and builds it when it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, InvalidInputError, ShapeError, SingularMatrixError
from .linalg import DEFAULT_TOL, Mat, max_abs, nullspace, polar_unitary, relation_residual, require_finite
from .frames import FusionFrame, frame_from_simplex
from .simplex import RhoSimplex, simplex_matrix

# |tr omega| is a whole multiple of the dimension (at least 1) of an
# irreducible module of the code's Clifford system, so 1/2 sits far from
# every value it can take.
TRACE_THRESHOLD = 0.5


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
        return Permutation(self.n, tuple(self.apply(j) for j in other.image))

    def transpositions(self) -> list[tuple[int, int]]:
        """Pairs (a, b), a < b, whose transpositions composed left to right
        give self: each cycle (c_1 ... c_k), c_1 its least element, is
        (c_1 c_k) ... (c_1 c_3)(c_1 c_2).  Its length has self's parity."""
        seen, steps = set(), []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cycle = [start]
            while self.apply(cycle[-1]) != start:
                cycle.append(self.apply(cycle[-1]))
            seen.update(cycle)
            steps += [(start, c) for c in reversed(cycle[1:])]
        return steps


@dataclass(frozen=True)
class SymmetryCertificate:
    """A permutation together with a unitary witnessing it (a d x d array
    whose dtype gives its field), plus the measured conjugation residual
    against the target frame."""

    sigma: Permutation
    upsilon: np.ndarray
    residual: float


def _projections(frame: FusionFrame) -> np.ndarray:
    """The (n, d, d) stack of projections Pi_i = Phi_i Phi_i*."""
    stack = frame.array
    return stack @ stack.conj().swapaxes(1, 2)


def _conjugation_residual(
    projections: np.ndarray, sigma: Permutation, upsilon: np.ndarray
) -> float:
    """Largest entry of Upsilon Pi_i Upsilon* - Pi_sigma(i) over all i."""
    moved = upsilon @ projections @ upsilon.conj().T
    return max_abs(moved - projections[np.array(sigma.image) - 1])


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


def _reflection(projections: np.ndarray, a: int, b: int) -> np.ndarray:
    """V_ab = sqrt(2(n-1)/n) (Pi_a - Pi_b) for the (n, d, d) projection
    stack of a code with d = 2r; a and b are 1-indexed.

    Set Gamma_i = 2 Pi_i - I.  Tightness at d = 2r gives sum_i Gamma_i = 0,
    and equi-isoclinism then gives Gamma_i Gamma_j + Gamma_j Gamma_i =
    -2/(n-1) I for i != j.  So V_ab = sqrt((n-1)/(2n)) (Gamma_a - Gamma_b)
    is a Hermitian unitary, and conjugating by it sends Pi_i to
    I - Pi_(a b)(i).  Every closed-form witness is built from it.
    """
    n = len(projections)
    return np.sqrt(2.0 * (n - 1) / n) * (projections[a - 1] - projections[b - 1])


def transposition_witness(simplex: RhoSimplex, j: int, k: int) -> SymmetryCertificate:
    """Closed-form witness S V_jk for the transposition (j k) of the frame
    built from a skew-Hermitian unitary simplex, where V_jk is
    `_reflection` and S = [[0, I], [I, 0]] swaps the two r-blocks.

    On a skew canonical frame S Pi_i S = I - Pi_i for every i, so S undoes
    the complement that V_jk introduces.  Non-skew simplices are refused
    with `InvalidInputError`.
    """
    n = simplex.n
    if not (1 <= j < k <= n):
        raise DomainError(f"need 1 <= j < k <= {n}, got j={j}, k={k}")
    blocks = simplex.blocks
    skew_res = max_abs(blocks.conj().swapaxes(1, 2) + blocks)
    if not skew_res <= 1e-12:
        raise InvalidInputError(
            f"simplex members must be skew-Hermitian (residual {skew_res:.2e})"
        )
    projections = _projections(frame_from_simplex(simplex))
    v = _reflection(projections, j, k)
    r = simplex.r
    ups = np.concatenate([v[r:], v[:r]])
    sigma = Permutation.transposition(n, j, k)
    residual = _conjugation_residual(projections, sigma, ups)
    return SymmetryCertificate(sigma, ups, residual)


def alternating_witness(frame: FusionFrame, sigma1, sigma2) -> SymmetryCertificate:
    """Witness -V_ab V_cd for the product (a b)(c d) of two transpositions,
    given as pairs, of a code with d = 2r, in any basis; V is `_reflection`.

    Two conjugations by reflections send Pi_i to Pi_(a b)(c d)(i).  Each
    pair is put in (min, max) order, and the sign -1 is a convention: on
    canonical frames it makes Upsilon the product of the block witnesses
    of the doubled skew simplex, restricted to the frame's space.

    Pairs that are not two distinct indices in [1, n] are refused with
    `DomainError`, frames for which Upsilon is not unitary within 1e-8
    with `InvalidInputError`; the conjugation residual is the verdict.
    """
    n = frame.n
    if n < 4:
        raise DomainError(f"even-permutation witnesses need n >= 4, got n={n}")
    if frame.d != 2 * frame.r:
        raise DomainError("frame must have d = 2r")
    (a, b), (c, d) = sorted(sigma1), sorted(sigma2)
    sigma = Permutation.transposition(n, a, b).compose(Permutation.transposition(n, c, d))
    projections = _projections(frame)
    ups = -_reflection(projections, a, b) @ _reflection(projections, c, d)
    defect = max_abs(ups @ ups.conj().T - np.eye(frame.d))
    if not defect <= 1e-8:
        raise InvalidInputError(
            f"frame is not an EITFF with d = 2r (witness unitarity defect {defect:.2e})"
        )
    residual = _conjugation_residual(projections, sigma, ups)
    return SymmetryCertificate(sigma, ups, residual)


def _clifford_system(frame: FusionFrame, projections: np.ndarray, tol: float):
    """The code's Clifford system E_1 ... E_m, m = n - 1, as one (m, d, d)
    stack, or None unless the frame is a code with d = 2r within `tol`.

    With Gamma_i = 2 Pi_i - I and Psi_n = `simplex_matrix(n)`, set
    E_j = ((n-1)/n) sum_i Psi_n(j, i) Gamma_i.  The frame is such a code
    exactly when sum_i Gamma_i = 0 and the E_j are anticommuting Hermitian
    unitaries (`relation_residual(E, 0)`): then Gamma_i = sum_j
    Psi_n(j, i) E_j, so Gamma_i is an involution of trace 0 and
    Gamma_i Gamma_k + Gamma_k Gamma_i = -2/(n-1) I for i != k.
    """
    n, d = frame.n, frame.d
    if n < 3 or d != 2 * frame.r:
        return None
    gammas = 2.0 * projections - np.eye(d)
    if not max_abs(gammas.sum(axis=0)) <= tol:
        return None
    e = ((n - 1) / n) * (simplex_matrix(n) @ gammas.reshape(n, -1)).reshape(n - 1, d, d)
    if not relation_residual(e, 0.0)[0] <= tol:
        return None
    return e


def _complement(e: np.ndarray, seed: int):
    """(J, m, |tr omega|) for a Clifford system E_1 ... E_m: omega =
    E_1 ... E_m, and J is a unitary anticommuting with every E_j, so
    J Pi_i J* = I - Pi_i, or None when none exists.

    For m even omega anticommutes with every E_j: J = omega.  For m odd
    omega commutes with every E_j and J omega J* = -omega, so J exists
    exactly when tr omega = 0; it is then the polar factor of a seeded
    random X projected onto the operators anticommuting with every E_j
    by X <- (X - E_j X E_j) / 2.  A singular projection raises
    `SingularMatrixError`.
    """
    m, d = e.shape[:2]
    omega = reduce(np.matmul, e)
    trace = float(abs(np.trace(omega)))
    if m % 2 == 0:
        return omega, m, trace
    if trace > TRACE_THRESHOLD:
        return None, m, trace
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, d))
    if np.iscomplexobj(e):
        x = x + 1j * rng.standard_normal((d, d))
    for ej in e:
        x = (x - ej @ x @ ej) / 2.0
    return polar_unitary(x), m, trace


def _closed_form(frame: FusionFrame, projections: np.ndarray, tol: float, seed: int):
    """`_complement` of the frame's Clifford system, or None (the search
    path) for a non-code or a singular projected X."""
    e = _clifford_system(frame, projections, tol)
    if e is None:
        return None
    try:
        return _complement(e, seed)
    except SingularMatrixError:
        return None


def _closed_witness(projections: np.ndarray, sigma: Permutation, j):
    """Witness of sigma on a code: of `sigma.transpositions()`, each
    consecutive pair (a b), (c d) becomes -V_ab V_cd and a leftover last
    one (a b) becomes J V_ab.  None when sigma is odd and J is None."""
    steps = sigma.transpositions()
    if len(steps) % 2 and j is None:
        return None
    ups = np.eye(projections.shape[1], dtype=projections.dtype)
    for first, second in zip(steps[0::2], steps[1::2]):
        ups = ups @ -_reflection(projections, *first) @ _reflection(projections, *second)
    if len(steps) % 2:
        ups = ups @ j @ _reflection(projections, *steps[-1])
    return SymmetryCertificate(sigma, ups, _conjugation_residual(projections, sigma, ups))


def clifford_rule(frame: FusionFrame, tol: float = DEFAULT_TOL, seed: int = 0):
    """(m, |tr omega|, total) of a code with d = 2r, or None for any other
    frame (`_clifford_system`, `_complement`).  The code is totally
    symmetric exactly when m is even or tr omega = 0.  The sign of
    tr omega flips with the order of the subspaces, so it is dropped."""
    closed = _closed_form(frame, _projections(frame), tol, seed)
    if closed is None:
        return None
    j, m, trace = closed
    return m, trace, j is not None


def find_witness(
    frame: FusionFrame,
    sigma: Permutation,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
):
    """A unitary witness of sigma, or None.

    A code with d = 2r (`_clifford_system`) gets the closed form
    `_closed_witness`, with J from `_complement` seeded by `seed`; when
    sigma is odd and the code has no J, None is a proof that sigma is no
    symmetry.  Every other frame, and a code whose closed-form witness
    misses `tol`, goes to the intertwiner search `_search`, where None
    is a numeric verdict and d > 32 is refused.  On either path a
    witness is returned only once its conjugation residual clears `tol`.
    """
    if sigma.n != frame.n:
        raise ShapeError(f"permutation of [1, {sigma.n}] against n={frame.n}")
    projections = _projections(frame)
    closed = _closed_form(frame, projections, tol, seed)
    if closed is not None:
        cert = _closed_witness(projections, sigma, closed[0])
        if cert is None or cert.residual <= tol:
            return cert
    return _search(frame, projections, sigma, tol, seed)


def _normal_operator(p: np.ndarray, q: np.ndarray, r: int) -> np.ndarray:
    """The block-diagonal compression of L = sum_i A_i* A_i for
    A_i = I (x) P_i^T - Q_i (x) I, given (n, d, d) stacks of Hermitian
    projections P_i and Q_i.

    Both terms of A_i are commuting projections, so
    L = I (x) sum_i P_i^T + sum_i Q_i (x) I - 2 sum_i Q_i (x) P_i^T.  Only
    the rows and columns of block-diagonal W = blkdiag(W_1, W_2), W_1 of
    size r and W_2 of size s = d - r, are formed, in the order vec(W_1),
    vec(W_2).  With P_ab, Q_ab the (r, s) blocks, block (a, b) of the
    result is delta_ab (I (x) sum_i P_i,aa^T + sum_i Q_i,aa (x) I)
    - 2 sum_i Q_i,ab (x) P_i,ba^T; each cross sum is one GEMM over i and a
    transpose, in the projections' dtype.  The result has
    (r^2 + s^2)^2 entries (d^4/4 when d = 2r) and no d^4 temporary is made.
    No tightness is assumed.
    """
    n, d = p.shape[:2]
    pt = p.swapaxes(1, 2)
    pt_sum, q_sum, eye = pt.sum(axis=0), q.sum(axis=0), np.eye(d)
    halves = (slice(0, r), slice(r, d))
    offsets = (0, r * r, r * r + (d - r) ** 2)
    out = np.empty((offsets[2], offsets[2]), dtype=np.result_type(p, q))
    for a, ha in enumerate(halves):
        for b, hb in enumerate(halves):
            ra, rb = ha.stop - ha.start, hb.stop - hb.start
            cross = q[:, ha, hb].reshape(n, -1).T @ pt[:, ha, hb].reshape(n, -1)
            cross = cross.reshape(ra, rb, ra, rb).transpose(0, 2, 1, 3).reshape(ra * ra, rb * rb)
            # eye[ha, hb] is I on the diagonal blocks and 0 off them, so each
            # entry is the same sum as in L, down to the sign of a zero.
            out[offsets[a] : offsets[a + 1], offsets[b] : offsets[b + 1]] = (
                np.kron(eye[ha, hb], pt_sum[ha, hb])
                + np.kron(q_sum[ha, hb], eye[ha, hb])
                - 2.0 * cross
            )
    return out


def _search(
    frame: FusionFrame, projections: np.ndarray, sigma: Permutation, tol: float, seed: int
):
    """Search for a witness of sigma through the intertwiner equations
    Upsilon Pi_i = Pi_{sigma(i)} Upsilon, on projections the caller has
    already formed.

    The solutions are the eigenvectors with lambda <= 1e-10 lambda_max
    of a Hermitian PSD normal operator; they only propose candidates: a
    random real combination of them, then each one.  The unitary polar
    factor of an invertible candidate is itself an intertwiner; it is
    returned once its conjugation residual clears `tol`.  None means no
    witness was found at this tolerance, a numeric verdict.

    Let U_k, U_m be the Q factors of complete QRs of Phi_k and Phi_m,
    k = n, m = sigma(n).  Equation k maps ran Pi_k into ran Pi_m and
    ker Pi_k into ker Pi_m, so every intertwiner is U_m W U_k* with W
    block diagonal: r^2 + (d-r)^2 unknowns.  W solves the equations for
    P_i = U_k* Pi_i U_k and Q_i = U_m* Pi_sigma(i) U_m; the block-diagonal
    compression of their L (`_normal_operator`, formed without L itself)
    has the nullity of L and, by Cauchy interlacing, no smaller gap.
    Costs O((r^2 + (d-r)^2)^3) time and (r^2 + (d-r)^2)^2 entries of
    memory (d^6/8 and d^4/4 when d = 2r), with no d^4 temporary; d > 32
    is refused with `DomainError` before the operator is formed, a
    rank-deficient Phi_n or Phi_sigma(n) with `InvalidInputError`.
    """
    d, n = frame.d, frame.n
    if d > 32:
        raise DomainError(f"witness search is limited to d <= 32, got d={d}")
    ends = (n, sigma.apply(n))
    ends_stack = frame.array[[i - 1 for i in ends]]
    (uk, um), rmat = np.linalg.qr(ends_stack, mode="complete")
    for i, diag in zip(ends, np.abs(np.diagonal(rmat, axis1=1, axis2=2))):
        if diag.min() <= 1e-8 * diag.max():
            raise InvalidInputError(f"subspace {i} is rank-deficient (|R_jj| {diag.min():.2e})")
    p = uk.conj().T @ projections @ uk
    q = um.conj().T @ projections[np.array(sigma.image) - 1] @ um
    basis = nullspace(Mat(frame.field, _normal_operator(p, q, frame.r)), 1e-10)
    nullity = basis.shape[1]
    if nullity == 0:
        return None
    side = np.arange(d) < frame.r
    lifted = np.zeros((nullity, d * d), dtype=p.dtype)
    lifted[:, np.equal.outer(side, side).ravel()] = basis.T
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


def probe_symmetry(frame: FusionFrame, tol: float = DEFAULT_TOL, seed: int = 0):
    """Classify the symmetry group: ("total" | "alternating" | "other",
    certificates of the generators).  These are the n - 1 adjacent
    transpositions for "total", the n - 2 consecutive 3-cycles for
    "alternating", and for "other" the 3-cycles found before the first
    one without a witness.

    On a code with d = 2r the label is the Clifford rule's (`clifford_rule`),
    a proof, and the certificates are closed-form (`_closed_witness`),
    from one projection stack, E and J; each must clear `tol`.  Every
    other frame, and a code whose certificates miss `tol`, runs the
    search `_search` over the generators: a missing witness there is a
    numeric verdict, and d > 32 is refused, as in `find_witness`.
    """
    n = frame.n
    projections = _projections(frame)
    transpositions = [Permutation.transposition(n, i, i + 1) for i in range(1, n)]
    three_cycles = [Permutation.cycle(n, (i, i + 1, i + 2)) for i in range(1, n - 1)]
    closed = _closed_form(frame, projections, tol, seed)
    if closed is not None:
        j = closed[0]
        label, generators = ("total", transpositions) if j is not None else ("alternating", three_cycles)
        certs = [_closed_witness(projections, gen, j) for gen in generators]
        if all(cert.residual <= tol for cert in certs):
            return label, certs
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
