"""Permutation symmetries of subspace sequences.

A permutation sigma is a symmetry of (U_i) when some unitary Upsilon
conjugates each projection onto U_i into the projection onto
U_{sigma(i)}.  This module checks such certificates, manufactures them
in closed form for the half-dimension codes, and probes whether a
code's symmetry group is all of S_n or the alternating group.  Whether
a totally symmetric code exists at all is decided by
`radon_hurwitz.exists`; where it does, the generic code is one.

Every closed-form witness comes from one identity: for a code with
d = 2r, V_ab = sqrt(2(n-1)/n) (Pi_a - Pi_b) is a Hermitian unitary with
V_ab Pi_i V_ab = I - Pi_(a b)(i).  A product of two transpositions of
any code is witnessed by -V_ab V_cd, and a transposition by J V_ab for
any unitary J with J Pi_i J* = I - Pi_i; `_closed_witness` multiplies
both from a projection stack.  On the canonical frame of a skew simplex
J = S, the swap of the two r-blocks, and `transposition_witness` reads
S V_ab in closed form from two simplex members, with no stack.

A certificate is (sigma, Upsilon) alone.  `check_certificate` is the one
reader of its residual, on any frame, and `find_witness` and the CLI
compare that residual with their own `tol`.

Only codes are answered.  `clifford_system` gates a frame on one
`verify_eitff` (the derivation is in its docstring) and forms the code's
Clifford system once, as one `CliffordSystem`: the projection stack, m,
omega, the label `total` and J (or None), from which `find_witness`,
`probe_symmetry`, the CLI and the frontier scan read every answer.
`total` (m even or tr omega = 0) is the one place the rule lives, and a
frame that is not a code with d = 2r is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import DomainError, InvalidInputError, ShapeError
from .linalg import DEFAULT_TOL, max_abs, panel_blocks, polar_unitary, require_finite
from .frames import FusionFrame, eitff_params, verify_eitff
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
        if len(set(elements)) != len(elements) or not all(1 <= e <= n for e in elements):
            raise DomainError(f"cycle needs distinct elements in [1, {n}], got {tuple(elements)}")
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
    whose dtype gives its field).  It holds no residual: `check_certificate`
    measures it against a frame."""

    sigma: Permutation
    upsilon: np.ndarray


def _projections(frame: FusionFrame) -> np.ndarray:
    """The (n, d, d) stack of projections Pi_i = Phi_i Phi_i*."""
    stack = frame.array
    return stack @ stack.conj().swapaxes(1, 2)


def check_certificate(frame: FusionFrame, cert: SymmetryCertificate) -> float:
    """Largest entry of Upsilon Pi_i Upsilon* - Pi_sigma(i) over all i, on
    any frame.  It is read from S one panel of subspaces at a time
    (`panel_blocks`), as Y Y* - Phi_sigma(i) Phi_sigma(i)* with
    Y = Upsilon Phi_i, so no projection stack is formed; a NaN in any
    panel reads as NaN.  A sigma or Upsilon of another size is refused
    with `ShapeError`, a non-finite Upsilon with `InvalidInputError`."""
    n, d, sigma, upsilon = frame.n, frame.d, cert.sigma, cert.upsilon
    if sigma.n != n:
        raise ShapeError(f"certificate permutes [1, {sigma.n}] but frame has n={n}")
    if upsilon.shape != (d, d):
        raise ShapeError(f"witness must be {d}x{d}, got {upsilon.shape}")
    require_finite(upsilon, "witness")
    phi, targets = frame.array, np.array(sigma.image) - 1
    step, worst = panel_blocks(d * d * phi.itemsize), 0.0
    for lo in range(0, n, step):
        # Y and then Phi_sigma(i) share one name, so one of them is held.
        block = upsilon @ phi[lo : lo + step]
        moved = block @ block.conj().swapaxes(1, 2)
        block = phi[targets[lo : lo + step]]
        moved -= block @ block.conj().swapaxes(1, 2)
        worst = np.maximum(worst, max_abs(moved))  # keeps a NaN
    return float(worst)


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
    """Closed-form witness S V_jk for the transposition (j k) of the
    canonical frame Phi_i = [alpha I; beta B_i], i < n, Phi_n = [I; 0] of
    a skew-Hermitian unitary simplex B_1 ... B_{n-1}, where
    S = [[0, I], [I, 0]] swaps the two r-blocks and (alpha, beta) =
    `eitff_params(n)`.

    On a skew canonical frame S Pi_i S = I - Pi_i for every i, so S undoes
    the complement that V_jk introduces.  Since V_jk = (Pi_j - Pi_k) / beta,
    the witness is read from the members with no frame or projection:
    alpha diag(D, D*), D = B_j - B_k, for k < n, and
    [[alpha B_j, beta I], [-beta I, alpha B_j*]] for k = n.  Both are
    unitary by the simplex relation B_j* B_k + B_k* B_j = -2/(n-2) I;
    `check_certificate` re-checks them.  Non-skew simplices are refused
    with `InvalidInputError`.  A skew simplex of n subspaces,
    n <= rho_F(r) + 1, is `rho_simplex_from_orthonormal` of the family
    `build_rho_orthonormal(F, r, n - 1)` with its identity member dropped,
    as the benchmark's symmetry workload builds it before calling this.
    """
    n, r = simplex.n, simplex.r
    if not (1 <= j < k <= n):
        raise DomainError(f"need 1 <= j < k <= {n}, got j={j}, k={k}")
    blocks, skew_res = simplex.blocks, simplex.skew_residual
    if not skew_res <= 1e-12:
        raise InvalidInputError(
            f"simplex members must be skew-Hermitian (residual {skew_res:.2e})"
        )
    alpha, beta = eitff_params(n)
    corner = alpha * (blocks[j - 1] - blocks[k - 1] if k < n else blocks[j - 1])
    upsilon = np.zeros((2 * r, 2 * r), dtype=blocks.dtype)
    upsilon[:r, :r], upsilon[r:, r:] = corner, corner.conj().T
    if k == n:
        diag = np.arange(r)
        upsilon[diag, diag + r], upsilon[diag + r, diag] = beta, -beta
    return SymmetryCertificate(Permutation.transposition(n, j, k), upsilon)


def alternating_witness(frame: FusionFrame, sigma1, sigma2) -> SymmetryCertificate:
    """Witness -V_ab V_cd for the product (a b)(c d) of two transpositions,
    given as pairs, of a code with d = 2r, in any basis (`_closed_witness`).

    Two conjugations by reflections send Pi_i to Pi_(a b)(c d)(i).  Each
    pair is put in (min, max) order, and the sign -1 is a convention: on
    canonical frames it makes Upsilon the product of the block witnesses
    of the doubled skew simplex, restricted to the frame's space.

    Pairs that are not two distinct indices in [1, n] are refused with
    `DomainError`, frames for which Upsilon is not unitary within 1e-8
    with `InvalidInputError`; `check_certificate` measures the verdict.
    """
    n = frame.n
    if n < 4:
        raise DomainError(f"even-permutation witnesses need n >= 4, got n={n}")
    if frame.d != 2 * frame.r:
        raise DomainError("frame must have d = 2r")
    (a, b), (c, d) = sorted(sigma1), sorted(sigma2)
    sigma = Permutation.transposition(n, a, b).compose(Permutation.transposition(n, c, d))
    cert = _closed_witness(_projections(frame), sigma, [(a, b), (c, d)], None)
    defect = max_abs(cert.upsilon @ cert.upsilon.conj().T - np.eye(frame.d))
    if not defect <= 1e-8:
        raise InvalidInputError(
            f"frame is not an EITFF with d = 2r (witness unitarity defect {defect:.2e})"
        )
    return cert


def _closed_witness(projections: np.ndarray, sigma: Permutation, steps, j):
    """The one builder of closed-form witnesses: of transpositions `steps`
    giving sigma left to right, each consecutive pair (a b), (c d) becomes
    -V_ab V_cd and a leftover last one (a b) becomes J V_ab, all multiplied
    left to right (no steps: I).  None when the steps are odd and J is None."""
    if len(steps) % 2 and j is None:
        return None
    factors = []
    for first, second in zip(steps[0::2], steps[1::2]):
        factors += [-_reflection(projections, *first), _reflection(projections, *second)]
    if len(steps) % 2:
        factors += [j, _reflection(projections, *steps[-1])]
    ups = reduce(np.matmul, factors or [np.eye(projections.shape[1], dtype=projections.dtype)])
    return SymmetryCertificate(sigma, ups)


def _generators(projections: np.ndarray) -> np.ndarray:
    """E_j = (2(n-1)/n) sum_i Psi_n(j, i) Pi_i, j = 1 ... n - 1, from the
    (n, d, d) projection stack of a code, as one (n - 1, d, d) stack: the
    rows of Psi_n sum to 0, so the -I of each Gamma_i = 2 Pi_i - I cancels
    in E = ((n-1)/n) Psi_n Gamma."""
    n, d = projections.shape[:2]
    e = (simplex_matrix(n) @ projections.reshape(n, -1)).reshape(n - 1, d, d)
    e *= 2.0 * (n - 1) / n
    return e


@dataclass(frozen=True)
class CliffordSystem:
    """What a code's Clifford system E_1 ... E_m decides (`clifford_system`):
    the (n, d, d) projection stack, m = n - 1, omega = E_1 ... E_m and the
    `seed` of J.  The code is totally symmetric exactly when `total`: m is
    even or tr omega = 0; J, a unitary with J Pi_i J* = I - Pi_i, exists
    exactly then."""

    projections: np.ndarray
    m: int
    omega: np.ndarray
    seed: int

    @property
    def trace(self) -> float:
        """|tr omega|: its sign flips with the order of the subspaces."""
        return float(abs(np.trace(self.omega)))

    @property
    def total(self) -> bool:
        """Whether the code is totally symmetric (has a J): the one rule,
        read from m and |tr omega| alone."""
        return self.m % 2 == 0 or self.trace <= TRACE_THRESHOLD

    @cached_property
    def j(self) -> np.ndarray | None:
        """J, or None when the code is not `total`.  For m even omega
        anticommutes with every E_j: J = omega.  For m odd omega commutes
        with every E_j and J omega J* = -omega, so J exists exactly when
        tr omega = 0; it is then the polar factor of a random X, seeded by
        `seed`, projected onto the operators anticommuting with every E_j
        by X <- (X - E_j X E_j) / 2.  Formed on first use, from E formed
        again from the projections."""
        if self.m % 2 == 0:
            return self.omega
        if not self.total:
            return None
        d = self.projections.shape[1]
        rng = np.random.default_rng(self.seed)
        x = rng.standard_normal((d, d))
        if np.iscomplexobj(self.projections):
            x = x + 1j * rng.standard_normal((d, d))
        for ej in _generators(self.projections):
            x = (x - ej @ x @ ej) / 2.0
        return polar_unitary(x)

    def witness(self, sigma: Permutation):
        """sigma's closed-form witness, from its transpositions
        (`_closed_witness`); None, a proof that sigma is no symmetry, when
        sigma is odd and the code is not `total`.  A sigma of another size
        is refused with `ShapeError`."""
        if sigma.n != len(self.projections):
            raise ShapeError(f"permutation of [1, {sigma.n}] against n={len(self.projections)}")
        steps = sigma.transpositions()
        return _closed_witness(self.projections, sigma, steps, self.j if len(steps) % 2 else None)


def clifford_system(frame: FusionFrame, tol: float = DEFAULT_TOL, seed: int = 0) -> CliffordSystem:
    """The `CliffordSystem` of a code with d = 2r, with J seeded by `seed`.
    A frame that is not such a code within `tol` is refused with
    `DomainError`, which names the condition that failed; a singular
    projection for J raises `SingularMatrixError` when J is first read.

    With Gamma_i = 2 Pi_i - I and Psi_n = `simplex_matrix(n)`, set
    E_j = ((n-1)/n) sum_i Psi_n(j, i) Gamma_i.  The frame is such a code
    exactly when sum_i Gamma_i = 0 and the E_j are anticommuting Hermitian
    unitaries: then Gamma_i = sum_j Psi_n(j, i) E_j, so Gamma_i is an
    involution of trace 0 and Gamma_i Gamma_k + Gamma_k Gamma_i =
    -2/(n-1) I for i != k.

    The E relations are read from `verify_eitff`, with no product of two
    E_j.  With X_il = Gamma_i Gamma_l + Gamma_l Gamma_i + (2/(n-1)) I for
    i != l and X_ii = 2 (Gamma_i^2 - I),
    {E_j, E_k} - 2 delta_jk I = ((n-1)/n)^2 sum_il Psi_n(j, i) Psi_n(k, l) X_il.
    Every row of Psi_n has absolute sum at most 2 (the first exactly 2),
    so each relation, in Frobenius norm and so in its largest entry, is
    at most c_n max_il ||X_il||_F, c_n = (2(n-1)/n)^2.  For isometries,
    ||X_il||_F = 4 sqrt(2) s_il, s_il the pair residual of `verify_eitff`
    (the two-subspace decomposition), and X_ii = 0.  Members within the
    isometry residual iota of isometries have ||Phi_i* Phi_i - I||_F <=
    eps = r iota, and comparing them with their polar factors bounds
    every ||X_il||_F by 4 sqrt(2) s_max / (1 - eps) + 30 eps when
    eps <= 1/4.  The frame is refused, with the worst pair named, unless
    c_n times that bound is at most tol, so a frame that passes has E
    relations within tol, up to the rounding of the residuals.
    """
    n, d, r = frame.n, frame.d, frame.r
    if d != 2 * r:
        raise DomainError(f"not a code: d = {d} is not 2r = {2 * r}")
    if n < 3:
        raise DomainError(f"not a code: n = {n} < 3")
    report = verify_eitff(frame, tol)
    residual = 2.0 * report.tightness_residual
    if not residual <= tol:
        raise DomainError(f"not a code: sum of Gamma_i residual {residual:.2e} exceeds tol {tol:.2e}")
    equi, eps = report.equiisoclinic_residual, r * report.isometry_residual
    bound = math.inf
    if eps <= 0.25:
        bound = (2.0 * (n - 1) / n) ** 2 * (4.0 * math.sqrt(2.0) * equi / (1.0 - eps) + 30.0 * eps)
    if not bound <= tol:
        raise DomainError(
            f"not a code: E relation bound {bound:.2e} exceeds tol {tol:.2e} (equi-isoclinic "
            f"residual {equi:.2e} at pair {report.equiisoclinic_pair}, isometry residual "
            f"{report.isometry_residual:.2e})"
        )
    projections = _projections(frame)
    return CliffordSystem(projections, n - 1, reduce(np.matmul, _generators(projections)), seed)


def find_witness(frame: FusionFrame, sigma: Permutation, tol: float = DEFAULT_TOL, seed: int = 0):
    """A unitary witness of sigma on a code with d = 2r, or None.

    The witness is the closed form `CliffordSystem.witness` of the code's
    `clifford_system`, with J seeded by `seed`; a frame that is not a
    code is refused with `DomainError`, and a sigma of another size with
    `ShapeError`.  When sigma is odd and the code has no J, None is a
    proof that sigma is no symmetry.  A witness is returned only when its
    `check_certificate` residual, measured once, clears `tol`; a near-code
    that passes the gate but whose witness misses `tol` gets None.
    """
    cert = clifford_system(frame, tol, seed).witness(sigma)
    return cert if cert is not None and check_certificate(frame, cert) <= tol else None


def probe_symmetry(frame: FusionFrame, tol: float = DEFAULT_TOL, seed: int = 0):
    """Classify the symmetry group of a code with d = 2r: ("total" |
    "alternating", certificates of the generators).  These are the n - 1
    adjacent transpositions for "total" and the n - 2 consecutive
    3-cycles for "alternating".

    The label reads `CliffordSystem.total`, a proof.  The
    certificates are closed-form (`CliffordSystem.witness`), from one
    `clifford_system`, with no residual measured: re-check them with
    `check_certificate`, as on a near-code a residual may miss `tol`.  A
    frame that is not a code is refused with `DomainError`, as in `find_witness`.
    """
    n, system = frame.n, clifford_system(frame, tol, seed)
    if system.total:
        label, generators = "total", [Permutation.transposition(n, i, i + 1) for i in range(1, n)]
    else:
        label, generators = "alternating", [Permutation.cycle(n, (i, i + 1, i + 2)) for i in range(1, n - 1)]
    return label, [system.witness(gen) for gen in generators]
