import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitff.errors import (
    DomainError,
    InfeasibleParametersError,
    InvalidInputError,
    ShapeError,
    UnknownFeasibilityError,
)
from eitff.frames import build_eitff, canonicalize, naimark_complement, verify_eitff
from eitff.linalg import FieldTag, Mat, max_abs
from eitff.radon_hurwitz import GEN, rho_number, tensor, verify_rho_orthonormal
from eitff.simplex import RhoSimplex
from eitff.symmetry import (
    Permutation,
    SymmetryCertificate,
    alternating_witness,
    check_certificate,
    find_witness,
    probe_symmetry,
    total_symmetry_seed,
    totally_symmetric_exists,
    transposition_witness,
)

from conftest import random_subspace_frame

R, C = FieldTag.REAL, FieldTag.COMPLEX


def scalar_skew_simplex():
    """(i, -i) in C^{1x1}: a skew simplex for n = 3."""
    return RhoSimplex(C, 1, 3, (Mat.from_complex([[1j]]), Mat.from_complex([[-1j]])))


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
            Permutation.transposition(4, 2, 3),
            Mat.from_real(np.kron(np.eye(2), GEN.M.working())),
            0.0,
        )
        assert check_certificate(example_frame, cert) <= 1e-12

    def test_identity_certificate(self, example_frame):
        cert = SymmetryCertificate(Permutation.identity(4), Mat.identity(4), 0.0)
        assert check_certificate(example_frame, cert) == 0.0

    def test_wrong_witness_large_residual(self, example_frame):
        cert = SymmetryCertificate(
            Permutation.transposition(4, 1, 2), Mat.identity(4), 0.0
        )
        assert check_certificate(example_frame, cert) > 0.5

    def test_shape_mismatch(self, example_frame):
        cert = SymmetryCertificate(Permutation.identity(3), Mat.identity(4), 0.0)
        with pytest.raises(ShapeError):
            check_certificate(example_frame, cert)


class TestTranspositionWitness:
    def test_scalar_simplex_inner_pair(self):
        cert = transposition_witness(scalar_skew_simplex(), 1, 2)
        expected = np.diag([1j, -1j])
        assert max_abs(cert.upsilon.array - expected) <= 1e-15
        assert cert.residual <= 1e-12

    def test_scalar_simplex_last_index(self):
        cert = transposition_witness(scalar_skew_simplex(), 1, 3)
        expected = np.array(
            [[0.5j, np.sqrt(3) / 2], [-np.sqrt(3) / 2, -0.5j]]
        )
        assert max_abs(cert.upsilon.array - expected) <= 1e-15
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
                u = cert.upsilon.array
                assert max_abs(u.conj().T @ u - np.eye(2 * r)) <= 1e-10


class TestAlternatingWitness:
    def test_example_double_transposition(self, example_frame):
        cert = alternating_witness(example_frame, (1, 2), (3, 4))
        assert cert.sigma.image == (2, 1, 4, 3)
        assert cert.residual <= 1e-10

    def test_same_transposition_gives_identity_witness(self, example_frame):
        cert = alternating_witness(example_frame, (2, 4), (2, 4))
        assert cert.sigma.is_identity()
        assert cert.residual <= 1e-10
        u = cert.upsilon.array
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

    def test_deterministic_given_seed(self, example_frame):
        sigma = Permutation.transposition(4, 3, 4)
        a = find_witness(example_frame, sigma, seed=5)
        b = find_witness(example_frame, sigma, seed=5)
        assert max_abs(a.upsilon.array - b.upsilon.array) == 0.0


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
        assert max_abs(seed.seq.mats[0].array - np.eye(2)) == 0.0
        assert max_abs(seed.seq.mats[1].array - GEN.R.array) == 0.0
        assert max_abs(seed.u.array - GEN.M.array) == 0.0

    def test_r16_boundary_case(self):
        seed = total_symmetry_seed(R, 16, 11)
        assert len(seed.seq.mats) == 9
        want_u = tensor(GEN.I, GEN.M, GEN.M, GEN.M)
        assert max_abs(seed.u.array - want_u.array) == 0.0
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
        u = seed.u.array
        assert max_abs(u.conj().T @ u - np.eye(r)) <= 1e-12

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

    def test_totally_symmetric_builds_probe_total(self):
        for field, r, n in [(C, 2, 5), (R, 2, 4), (R, 4, 5)]:
            frame = build_eitff(field, r, n, "totally_symmetric")
            assert probe_symmetry(frame)[0] == "total"

    def test_large_n_rejected(self):
        frame = random_subspace_frame(R, 18, 2, 9, seed=1)
        with pytest.raises(DomainError):
            probe_symmetry(frame)


class TestCompositionAndTransfer:
    def test_certificates_compose(self, example_frame):
        c1 = find_witness(example_frame, Permutation.transposition(4, 1, 2))
        c2 = find_witness(example_frame, Permutation.transposition(4, 2, 3))
        sigma = c1.sigma.compose(c2.sigma)
        product = Mat(
            example_frame.field, c1.upsilon.array @ c2.upsilon.array
        )
        combined = SymmetryCertificate(sigma, product, 0.0)
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
