import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitff import symmetry
from eitff.errors import (
    DomainError,
    InfeasibleParametersError,
    InvalidInputError,
    ShapeError,
    UnknownFeasibilityError,
)
from eitff.frames import (
    FusionFrame,
    build_eitff,
    canonicalize,
    eitff_params,
    naimark_complement,
    verify_eitff,
)
from eitff.linalg import FieldTag, max_abs, nullspace
from eitff.radon_hurwitz import (
    GEN,
    RhoOrthonormalSeq,
    rho_number,
    tensor,
    verify_rho_orthonormal,
)
from eitff.simplex import RhoSimplex
from eitff.symmetry import (
    Permutation,
    SymmetryCertificate,
    TotalSymmetrySeed,
    _normal_operator,
    _projections,
    _transposition_matrix,
    alternating_witness,
    check_certificate,
    find_witness,
    probe_symmetry,
    total_symmetry_seed,
    totally_symmetric_exists,
    transposition_witness,
)

from conftest import random_orthogonal, random_subspace_frame, random_unitary

R, C = FieldTag.REAL, FieldTag.COMPLEX


def scalar_skew_simplex():
    """(i, -i) in C^{1x1}: a skew simplex for n = 3."""
    return RhoSimplex(C, 1, 3, np.array([[[1j]], [[-1j]]]))


class TestPermutation:
    def test_validates_bijection(self):
        with pytest.raises(InvalidInputError):
            Permutation(3, (1, 1, 2))

    def test_parse_and_format(self):
        sigma = Permutation.parse("2 1 3 4")
        assert sigma.n == 4
        assert sigma.apply(1) == 2
        assert sigma.to_one_line() == "2 1 3 4"

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            Permutation.parse("(1 2)")

    def test_cycle(self):
        sigma = Permutation.cycle(4, (1, 2, 3))
        assert sigma.image == (2, 3, 1, 4)

    def test_compose_order(self):
        t12 = Permutation.transposition(3, 1, 2)
        t23 = Permutation.transposition(3, 2, 3)
        assert t12.compose(t23).image == Permutation.cycle(3, (1, 2, 3)).image

    @given(st.permutations(list(range(1, 7))))
    def test_inverse_composes_to_identity(self, image):
        sigma = Permutation(6, tuple(image))
        assert sigma.compose(sigma.inverse()).is_identity()
        assert sigma.inverse().compose(sigma).is_identity()


class TestCheckCertificate:
    def test_block_m_witness_swaps_middle_pair(self, example_frame):
        cert = SymmetryCertificate(
            Permutation.transposition(4, 2, 3), np.kron(np.eye(2), GEN.M), 0.0
        )
        assert check_certificate(example_frame, cert) <= 1e-12

    def test_identity_certificate(self, example_frame):
        cert = SymmetryCertificate(Permutation.identity(4), np.eye(4), 0.0)
        assert check_certificate(example_frame, cert) == 0.0

    def test_wrong_witness_large_residual(self, example_frame):
        cert = SymmetryCertificate(
            Permutation.transposition(4, 1, 2), np.eye(4), 0.0
        )
        assert check_certificate(example_frame, cert) > 0.5

    def test_shape_mismatch(self, example_frame):
        cert = SymmetryCertificate(Permutation.identity(3), np.eye(4), 0.0)
        with pytest.raises(ShapeError):
            check_certificate(example_frame, cert)

    def test_non_finite_witness_refused(self, example_frame):
        upsilon = np.eye(4)
        upsilon[1, 2] = np.nan
        cert = SymmetryCertificate(Permutation.identity(4), upsilon, 0.0)
        with pytest.raises(InvalidInputError, match="must be finite"):
            check_certificate(example_frame, cert)


class TestTranspositionWitness:
    def test_scalar_simplex_inner_pair(self):
        cert = transposition_witness(scalar_skew_simplex(), 1, 2)
        expected = np.diag([1j, -1j])
        assert max_abs(cert.upsilon - expected) <= 1e-15
        assert cert.residual <= 1e-12

    def test_scalar_simplex_last_index(self):
        cert = transposition_witness(scalar_skew_simplex(), 1, 3)
        expected = np.array(
            [[0.5j, np.sqrt(3) / 2], [-np.sqrt(3) / 2, -0.5j]]
        )
        assert max_abs(cert.upsilon - expected) <= 1e-15
        assert cert.residual <= 1e-12

    def test_rejects_non_skew_simplex(self, example_frame):
        _, simplex = canonicalize(example_frame)
        with pytest.raises(InvalidInputError):
            transposition_witness(simplex, 1, 2)

    @pytest.mark.parametrize(
        "field,r,n", [(C, 1, 3), (R, 2, 3), (C, 2, 5), (R, 4, 5), (R, 8, 9), (C, 16, 11)]
    )
    def test_all_transpositions_of_skew_frames(self, field, r, n):
        frame = build_eitff(field, r, n, "skew")
        _, simplex = canonicalize(frame)
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                cert = transposition_witness(simplex, j, k)
                assert cert.residual <= 1e-10
                u = cert.upsilon
                assert u.dtype == simplex.blocks.dtype
                assert max_abs(u.conj().T @ u - np.eye(2 * r)) <= 1e-10


def permutation_matrix_alternating(frame, t1, t2):
    """Reference alternating witness: the doubled transposition witnesses
    conjugated by a dense (1, 4, 2, 3) block-permutation matrix."""
    n, rhat = frame.n, frame.r
    beta = eitff_params(n).beta
    doubled = []
    for a in frame.arrays()[:-1]:
        bhat = a[rhat:] / beta
        block = np.zeros((2 * rhat, 2 * rhat), dtype=np.complex128)
        block[:rhat, rhat:] = -bhat.conj().T
        block[rhat:, :rhat] = bhat
        doubled.append(block)
    perm = np.zeros((4 * rhat, 4 * rhat))
    for new, old in enumerate((0, 3, 1, 2)):
        perm[new * rhat : (new + 1) * rhat, old * rhat : (old + 1) * rhat] = np.eye(rhat)
    w1, w2 = (perm @ _transposition_matrix(doubled, *t) @ perm.T for t in (t1, t2))
    return (w1 @ w2)[: 2 * rhat, : 2 * rhat]


class TestAlternatingWitness:
    @pytest.mark.parametrize("field,r,n", [(R, 2, 4), (C, 1, 4), (R, 4, 6), (C, 4, 8), (R, 8, 10)])
    def test_matches_permutation_matrix_reference(self, field, r, n):
        frame = build_eitff(field, r, n)
        rng = np.random.default_rng(n)
        pairs = [((1, 2), (n - 1, n)), ((1, n), (2, 3)), ((2, 3), (2, 3))]
        for _ in range(6):
            j1, k1, j2, k2 = (
                *sorted(rng.choice(np.arange(1, n + 1), 2, replace=False)),
                *sorted(rng.choice(np.arange(1, n + 1), 2, replace=False)),
            )
            pairs.append(((int(j1), int(k1)), (int(j2), int(k2))))
        # The witness multiplies only the used corner, in the frame's dtype:
        # equal to the full complex product up to rounding of 4r-term sums.
        for t1, t2 in pairs:
            cert = alternating_witness(frame, t1, t2)
            want = permutation_matrix_alternating(frame, t1, t2)
            assert max_abs(cert.upsilon - want) <= 4 * r * np.finfo(float).eps

    def test_example_double_transposition(self, example_frame):
        cert = alternating_witness(example_frame, (1, 2), (3, 4))
        assert cert.sigma.image == (2, 1, 4, 3)
        assert cert.residual <= 1e-10

    def test_same_transposition_gives_identity_witness(self, example_frame):
        cert = alternating_witness(example_frame, (2, 4), (2, 4))
        assert cert.sigma.is_identity()
        assert cert.residual <= 1e-10
        u = cert.upsilon
        assert max_abs(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_three_cycle_from_two_transpositions(self, complex_etf_frame):
        cert = alternating_witness(complex_etf_frame, (1, 2), (2, 3))
        assert cert.sigma.image == Permutation.cycle(4, (1, 2, 3)).image
        assert cert.residual <= 1e-9

    def test_random_pairs_across_frames(self):
        rng = np.random.default_rng(7)
        for field, r, n in [(R, 2, 4), (C, 1, 4), (R, 4, 6), (C, 4, 8)]:
            frame = build_eitff(field, r, n)
            for _ in range(20):
                j1, k1 = sorted(rng.choice(np.arange(1, n + 1), 2, replace=False))
                j2, k2 = sorted(rng.choice(np.arange(1, n + 1), 2, replace=False))
                cert = alternating_witness(frame, (int(j1), int(k1)), (int(j2), int(k2)))
                assert cert.residual <= 1e-9

    def test_rejects_non_canonical_frame(self):
        frame = random_subspace_frame(R, 4, 2, 4, seed=3)
        with pytest.raises(InvalidInputError):
            alternating_witness(frame, (1, 2), (3, 4))

    def test_rejects_small_n(self):
        frame = build_eitff(R, 2, 3)
        with pytest.raises(DomainError):
            alternating_witness(frame, (1, 2), (1, 3))


class TestFindWitness:
    def test_finds_known_symmetry(self, example_frame):
        cert = find_witness(example_frame, Permutation.transposition(4, 2, 3))
        assert cert is not None
        assert cert.residual <= 1e-10
        assert cert.upsilon.dtype == np.float64
        assert check_certificate(example_frame, cert) <= 1e-10

    def test_complex_etf_has_no_transposition_witness(self, complex_etf_frame):
        for j, k in [(1, 2), (2, 3), (3, 4), (1, 4)]:
            sigma = Permutation.transposition(4, j, k)
            assert find_witness(complex_etf_frame, sigma) is None

    def test_complex_etf_has_three_cycle_witness(self, complex_etf_frame):
        cert = find_witness(complex_etf_frame, Permutation.cycle(4, (1, 2, 3)))
        assert cert is not None and cert.residual <= 1e-10

    def test_generic_subspaces_admit_nothing(self):
        frame = random_subspace_frame(R, 4, 2, 4, seed=8)
        sigma = Permutation.transposition(4, 1, 2)
        assert find_witness(frame, sigma) is None

    def test_large_d_refused(self):
        # Refused before the d^2 x d^2 normal operator is formed.
        frame = random_subspace_frame(R, 33, 2, 3, seed=1)
        with pytest.raises(DomainError, match="d <= 32"):
            find_witness(frame, Permutation.transposition(3, 1, 2))

    def test_deterministic_given_seed(self, example_frame):
        sigma = Permutation.transposition(4, 3, 4)
        a = find_witness(example_frame, sigma, seed=5)
        b = find_witness(example_frame, sigma, seed=5)
        assert max_abs(a.upsilon - b.upsilon) == 0.0


def kronecker_blocks(projections, sigma):
    """A_i = I (x) P_i^T - P_sigma(i) (x) I, one d^2 x d^2 block per subspace."""
    eye = np.eye(len(projections[0]))
    return [
        np.kron(eye, p.T) - np.kron(projections[sigma.apply(i + 1) - 1], eye)
        for i, p in enumerate(projections)
    ]


def dense_stack_search(frame, sigma, tol=1e-10, seed=0):
    """Reference search on the dense n d^2 x d^2 stack of Kronecker blocks and
    its SVD.  Returns the null-space dimension and whether a witness clearing
    `tol` was found."""
    d = frame.d
    projections = [a @ a.conj().T for a in frame.arrays()]
    stacked = np.vstack(kronecker_blocks(projections, sigma))
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    vecs = vh[s <= 1e-10 * s[0]].conj()
    if len(vecs) == 0:
        return 0, False
    rng = np.random.default_rng(seed)
    for cand in [rng.standard_normal(len(vecs)) @ vecs, *vecs]:
        u, sv, wh = np.linalg.svd(cand.reshape(d, d))
        if sv[0] == 0.0 or sv[-1] <= 1e-8 * sv[0]:
            continue
        ups = u @ wh
        residual = max(
            max_abs(ups @ projections[i] @ ups.conj().T - projections[sigma.apply(i + 1) - 1])
            for i in range(frame.n)
        )
        if residual <= tol:
            return len(vecs), True
    return len(vecs), False


def full_normal_operator(projections, sigma):
    """The uncompressed d^2 x d^2 L = sum_i A_i* A_i, cross term by einsum."""
    d = len(projections[0])
    pt = np.stack([p.T for p in projections])
    q = np.stack([projections[sigma.apply(i + 1) - 1] for i in range(len(projections))])
    cross = np.einsum("iab,icd->acbd", q, pt).reshape(d * d, d * d)
    eye = np.eye(d)
    return np.kron(eye, pt.sum(axis=0)) + np.kron(q.sum(axis=0), eye) - 2.0 * cross


def svd_nullity(gram, tol=1e-10):
    s = np.linalg.svd(gram, compute_uv=False)
    return int(np.sum(s <= tol * s[0]))


def searched_operators(monkeypatch, frame, sigma):
    """Run `find_witness` and return it with every matrix the search handed
    to `nullspace`, paired with the null-space dimension it got back."""
    seen = []

    def spy(a, tol):
        basis = nullspace(a, tol)
        seen.append((a.working(), basis.shape[1]))
        return basis

    monkeypatch.setattr(symmetry, "nullspace", spy)
    return find_witness(frame, sigma), seen


def orbit_frame(field, k, m, r, seed):
    """Non-tight frame (U, W U, ..., W^{k-1} U, V) in F^{k m}: W = Q (S (x) I_m) Q*
    for the cyclic shift S of k blocks and a random unitary Q, so W^k = I and
    W witnesses the cycle (1 ... k); V = Q (1_k / sqrt(k) (x) Y) is fixed by W."""
    d = k * m
    q = random_orthogonal(d, seed) if field is R else random_unitary(d, seed)
    w = q @ np.kron(np.roll(np.eye(k), 1, axis=0), np.eye(m)) @ q.conj().T
    u = random_subspace_frame(field, d, r, 2, seed + 1).arrays()[0]
    y = random_subspace_frame(field, m, r, 2, seed + 2).arrays()[0]
    isos = [np.linalg.matrix_power(w, j) @ u for j in range(k)]
    isos.append(q @ np.kron(np.ones((k, 1)) / np.sqrt(k), y))
    if field is R:
        isos = [a.real for a in isos]
    return FusionFrame.from_arrays(field, isos)


def direct_sum_frame(field, r, n, seed):
    """Subspaces F_i (+) G_i of a code F and a random frame G: intertwiners of
    F pad with zero, so symmetries of F alone have singular intertwiners only."""
    code = build_eitff(field, r, n).arrays()
    rand = random_subspace_frame(field, 2 * r, r, n, seed).arrays()
    isos = []
    for f, g in zip(code, rand):
        block = np.zeros((4 * r, 2 * r), dtype=np.result_type(f, g))
        block[: 2 * r, :r], block[2 * r :, r:] = f, g
        isos.append(block)
    return FusionFrame.from_arrays(field, isos)


def rotated_code(field, r, n, seed):
    q = random_orthogonal(2 * r, seed) if field is R else random_unitary(2 * r, seed)
    code = build_eitff(field, r, n)
    return FusionFrame.from_arrays(field, [q @ a for a in code.arrays()])


def oracle_frame(kind, field, *args):
    builder = {
        "code": build_eitff,
        "rotated": rotated_code,
        "random": random_subspace_frame,
        "orbit": orbit_frame,
        "sum": direct_sum_frame,
    }[kind]
    return builder(field, *args)


ORACLE_CASES = [
    (("code", R, 2, 4), (1, 2), True),
    (("code", R, 2, 4), (2, 3), True),
    (("code", R, 2, 4), (1, 4), True),
    (("code", R, 2, 4), (1, 2, 3), True),
    (("code", C, 1, 4), (1, 2), False),
    (("code", C, 1, 4), (1, 2, 3), True),
    (("code", R, 4, 6), (1, 2), False),
    (("code", R, 4, 6), (1, 2, 3), True),
    (("code", R, 4, 5), (4, 5), True),
    (("code", C, 2, 5), (1, 5), True),
    (("code", C, 2, 5), (2, 3, 4), True),
    (("code", C, 4, 8), (1, 2), False),
    (("code", C, 4, 8), (6, 7, 8), True),
    (("random", R, 4, 2, 4, 8), (1, 2), False),
    (("random", C, 4, 2, 4, 3), (1, 2, 3), False),
    (("orbit", R, 2, 2, 2, 5), (1, 2), True),
    (("orbit", C, 2, 2, 2, 6), (1, 2), True),
    (("orbit", R, 3, 2, 2, 7), (1, 2, 3), True),
    (("orbit", C, 3, 2, 2, 8), (1, 2, 3), True),
    (("orbit", R, 3, 2, 2, 7), (3, 4), False),
    (("sum", R, 2, 4, 8), (1, 2), False),
    (("sum", C, 1, 4, 9), (1, 2, 3), False),
    # sigma moves n, so U_m != U_k; on rotated codes U_k is not the identity.
    (("code", C, 2, 5), (1, 2, 3, 4, 5), True),
    (("code", R, 4, 6), (1, 2, 3, 4, 5, 6), False),
    (("rotated", R, 4, 6, 3), (6, 1, 2), True),
    (("rotated", C, 2, 5, 4), (1, 2, 3, 4, 5), True),
    (("rotated", C, 1, 4, 5), (4, 1), False),
]


def case_id(value):
    if isinstance(value, tuple):
        return "-".join(v.value if isinstance(v, FieldTag) else str(v) for v in value)
    return None


class TestNormalOperator:
    @pytest.mark.parametrize("spec,cycle,want", ORACLE_CASES, ids=case_id)
    def test_matches_dense_stack(self, monkeypatch, spec, cycle, want):
        frame = oracle_frame(*spec)
        sigma = Permutation.cycle(frame.n, cycle)
        nullity, found = dense_stack_search(frame, sigma)
        assert found == want
        gram = full_normal_operator(_projections(frame), sigma)
        assert svd_nullity(gram) == nullity
        cert, seen = searched_operators(monkeypatch, frame, sigma)
        # One compressed operator on the block-diagonal unknowns, with the
        # nullity of the full L.
        d, r = frame.d, frame.r
        assert [(a.shape, cols) for a, cols in seen] == [
            ((r * r + (d - r) ** 2,) * 2, nullity)
        ]
        assert (cert is not None) == found
        if cert is not None:
            assert check_certificate(frame, cert) <= 1e-10

    def test_orbit_frames_are_not_tight(self):
        for field, k in [(R, 2), (C, 2), (R, 3), (C, 3)]:
            frame = orbit_frame(field, k, 2, 2, seed=k)
            op = sum(_projections(frame))
            scale = np.trace(op).real / frame.d
            assert max_abs(op - scale * np.eye(frame.d)) > 0.1

    @pytest.mark.parametrize("field", [R, C])
    def test_equals_sum_of_block_normals(self, field):
        frame = orbit_frame(field, 3, 2, 2, seed=11)
        sigma = Permutation.cycle(4, (1, 2, 4))
        projections = _projections(frame)
        want = sum(a.conj().T @ a for a in kronecker_blocks(projections, sigma))
        q = np.stack([projections[sigma.apply(i) - 1] for i in range(1, 5)])
        got = _normal_operator(np.stack(projections), q)
        assert got.dtype == projections[0].dtype
        assert max_abs(got - want) <= 1e-12
        assert max_abs(full_normal_operator(projections, sigma) - want) <= 1e-12

    def test_spectral_gap_r8(self, monkeypatch):
        frame = build_eitff(R, 8, 8)
        sigma = Permutation.transposition(8, 1, 2)
        full = np.linalg.eigvalsh(full_normal_operator(_projections(frame), sigma))
        _, [(gram, nullity)] = searched_operators(monkeypatch, frame, sigma)
        lam = np.linalg.eigvalsh(gram)
        top = lam[-1]
        kept = lam[lam <= 1e-10 * top]
        dropped = lam[lam > 1e-10 * top]
        assert len(kept) == nullity > 0
        assert kept.max() <= 1e-12 * top
        assert dropped.min() >= 0.1 * top
        # Cauchy interlacing: the relative gap is no smaller than the full L's.
        assert dropped.min() / top >= full[nullity] / full[-1] * (1 - 1e-12)

    @pytest.mark.parametrize("which", [4, 2])
    def test_rank_deficient_subspace_refused(self, which):
        # Phi_n (k) or Phi_sigma(n) (m) of rank 1 < r.
        arrays = list(build_eitff(R, 2, 4).arrays())
        arrays[which - 1] = np.outer(arrays[which - 1][:, 0], [1.0, 1.0])
        frame = FusionFrame.from_arrays(R, arrays)
        with pytest.raises(InvalidInputError, match=f"subspace {which} is rank-deficient"):
            find_witness(frame, Permutation.transposition(4, 2, 4))


class TestTotallySymmetricExists:
    def test_spot_values(self):
        assert totally_symmetric_exists(C, 1, 4) == "no"
        assert totally_symmetric_exists(R, 2, 4) == "yes"
        assert totally_symmetric_exists(R, 4, 6) == "unknown"

    def test_complex_threshold(self):
        for r in (1, 2, 3, 4, 6, 8, 16):
            rho = rho_number(C, r)
            for n in range(3, rho + 4):
                want = "yes" if n <= rho + 1 else "no"
                assert totally_symmetric_exists(C, r, n) == want

    def test_real_truth_table(self):
        by_c = {0: "yes", 1: "yes", 2: "unknown", 3: "no"}
        for r in (1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48):
            rho = rho_number(R, r)
            from eitff.radon_hurwitz import decompose_r

            c = decompose_r(r).c
            for n in range(3, rho + 4):
                if n <= rho + 1:
                    want = "yes"
                elif n == rho + 2:
                    want = by_c[c]
                else:
                    want = "no"
                assert totally_symmetric_exists(R, r, n) == want

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            totally_symmetric_exists(R, 2, 2)


class TestTotalSymmetrySeed:
    def test_r2_boundary_case(self):
        seed = total_symmetry_seed(R, 2, 4)
        assert max_abs(seed.seq.stack() - np.stack([np.eye(2), GEN.R])) == 0.0
        assert max_abs(seed.u - GEN.M) == 0.0

    def test_r16_boundary_case(self):
        seed = total_symmetry_seed(R, 16, 11)
        assert len(seed.seq.mats) == 9
        want_u = tensor(GEN.I, GEN.M, GEN.M, GEN.M)
        assert max_abs(seed.u - want_u) == 0.0
        assert verify_rho_orthonormal(seed.seq) <= 1e-12

    def test_inflated_boundary_case(self):
        seed = total_symmetry_seed(R, 32, 12)
        assert len(seed.seq.mats) == 10
        assert verify_rho_orthonormal(seed.seq) <= 1e-12

    def test_odd_multiple_boundary_case(self):
        seed = total_symmetry_seed(R, 6, 4)
        assert seed.seq.mats[0].shape == (6, 6)
        assert verify_rho_orthonormal(seed.seq) <= 1e-12

    @pytest.mark.parametrize("field,r,n", [(C, 2, 5), (R, 4, 5), (C, 4, 7), (R, 16, 10)])
    def test_skew_branch(self, field, r, n):
        seed = total_symmetry_seed(field, r, n)
        assert len(seed.seq.mats) == n - 2
        assert verify_rho_orthonormal(seed.seq) <= 1e-12
        u = seed.u
        assert max_abs(u.conj().T @ u - np.eye(r)) <= 1e-12

    def test_direct_construction_rejects_wrong_length(self):
        seed = total_symmetry_seed(R, 2, 4)
        with pytest.raises(ShapeError, match="needs 3 generators"):
            TotalSymmetrySeed(R, 2, 5, seed.seq, seed.u)

    def test_direct_construction_rejects_non_identity_first(self):
        seq = RhoOrthonormalSeq.from_stack(R, np.stack([GEN.R, GEN.I]))
        with pytest.raises(InvalidInputError, match="exactly the identity"):
            TotalSymmetrySeed(R, 2, 4, seq, GEN.M)

    def test_direct_construction_rejects_commutation_failures(self):
        seed = total_symmetry_seed(C, 2, 5)
        TotalSymmetrySeed(C, 2, 5, seed.seq, seed.u)
        eye, _, d2 = seed.seq.stack()
        # d2 anticommutes with generator 2 where it should commute
        with pytest.raises(InvalidInputError, match="fails to commute with generator 2"):
            TotalSymmetrySeed(C, 2, 5, seed.seq, d2)
        # the identity commutes with the last generator where it should anticommute
        with pytest.raises(InvalidInputError, match="fails to anticommute with generator 3"):
            TotalSymmetrySeed(C, 2, 5, seed.seq, eye)

    def test_c3_case_infeasible(self):
        with pytest.raises(InfeasibleParametersError):
            total_symmetry_seed(R, 8, 10)

    def test_open_case_reports_unknown(self):
        with pytest.raises(UnknownFeasibilityError):
            total_symmetry_seed(R, 4, 6)

    def test_n3_has_no_seed_data(self):
        with pytest.raises(InfeasibleParametersError):
            total_symmetry_seed(R, 3, 3)


class TestProbe:
    def test_example_total(self, example_frame):
        label, certs = probe_symmetry(example_frame)
        assert label == "total"
        assert len(certs) == 3

    def test_complex_etf_alternating(self, complex_etf_frame):
        label, certs = probe_symmetry(complex_etf_frame)
        assert label == "alternating"
        assert all(cert.residual <= 1e-10 for cert in certs)

    def test_random_frame_other(self):
        frame = random_subspace_frame(R, 4, 2, 4, seed=13)
        assert probe_symmetry(frame)[0] == "other"

    @pytest.mark.parametrize("field", [R, C])
    def test_other_keeps_the_certificates_found(self, field):
        # (1 2 3) is a symmetry of the orbit frame, (2 3 4) is not.
        frame = orbit_frame(field, 3, 2, 2, seed=7)
        label, certs = probe_symmetry(frame)
        assert label == "other"
        assert [cert.sigma.image for cert in certs] == [(2, 3, 1, 4)]
        assert check_certificate(frame, certs[0]) <= 1e-10

    def test_totally_symmetric_builds_probe_total(self):
        for field, r, n in [(C, 2, 5), (R, 2, 4), (R, 4, 5)]:
            frame = build_eitff(field, r, n, "totally_symmetric")
            assert probe_symmetry(frame)[0] == "total"

    def test_large_d_rejected(self):
        frame = random_subspace_frame(R, 33, 2, 3, seed=1)
        with pytest.raises(DomainError, match="d <= 32"):
            probe_symmetry(frame)

    @pytest.mark.parametrize("field", [R, C])
    def test_even_symmetry_beyond_total_symmetry(self, field):
        # n = rho + 2 = 10 at r = 8: no totally symmetric code exists, but
        # every code has all even permutations as symmetries.
        frame = build_eitff(field, 8, 10)
        assert totally_symmetric_exists(field, 8, 10) == "no"
        label, certs = probe_symmetry(frame)
        assert label == "alternating"
        assert len(certs) == 8
        assert all(check_certificate(frame, cert) <= 1e-10 for cert in certs)


class TestCompositionAndTransfer:
    def test_certificates_compose(self, example_frame):
        c1 = find_witness(example_frame, Permutation.transposition(4, 1, 2))
        c2 = find_witness(example_frame, Permutation.transposition(4, 2, 3))
        sigma = c1.sigma.compose(c2.sigma)
        combined = SymmetryCertificate(sigma, c1.upsilon @ c2.upsilon, 0.0)
        eps = max(c1.residual, c2.residual)
        assert check_certificate(example_frame, combined) <= 2 * eps + 1e-12

    def test_witness_transfers_to_complement(self, example_frame):
        sigma = Permutation.transposition(4, 2, 3)
        original = find_witness(example_frame, sigma)
        comp = naimark_complement(example_frame)
        transferred = find_witness(comp, sigma)
        assert transferred is not None
        floor = max(original.residual, 1e-12)
        assert transferred.residual <= 10 * floor
