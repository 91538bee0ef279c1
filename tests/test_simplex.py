import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitff.errors import DomainError, InvalidInputError, ShapeError
from eitff.linalg import FieldTag, max_abs
from eitff.radon_hurwitz import GEN, RhoOrthonormalSeq, build_rho_orthonormal, rho_number
from eitff.simplex import (
    RhoSimplex,
    normalize_rho_simplex,
    rho_simplex_from_orthonormal,
    simplex_basis_recovery,
    simplex_matrix,
    verify_rho_simplex,
)

R, C = FieldTag.REAL, FieldTag.COMPLEX


def gram_target(m):
    return (m * np.eye(m) - np.ones((m, m))) / (m - 1)


def seq_of(field, *arrays):
    return RhoOrthonormalSeq.from_stack(field, np.array(arrays))


class TestSimplexMatrix:
    def test_m2(self):
        psi = simplex_matrix(2)
        assert np.array_equal(psi, [[1.0, -1.0]])

    def test_m3_display(self):
        psi = simplex_matrix(3)
        expected = np.array(
            [[1.0, -0.5, -0.5], [0.0, math.sqrt(3) / 2, -math.sqrt(3) / 2]]
        )
        assert max_abs(psi - expected) <= 1e-15

    @pytest.mark.parametrize("m", range(2, 13))
    def test_gram_identity(self, m):
        psi = simplex_matrix(m)
        assert max_abs(psi.T @ psi - gram_target(m)) <= 1e-12

    @pytest.mark.parametrize("m", range(2, 13))
    def test_triangular_with_positive_diagonal(self, m):
        psi = simplex_matrix(m)
        assert psi.shape == (m - 1, m)
        assert psi[0, 0] == 1.0
        for i in range(m - 1):
            assert psi[i, i] > 0
            assert np.all(psi[i + 1 :, i] == 0.0)

    def test_rejects_small_m(self):
        with pytest.raises(DomainError):
            simplex_matrix(1)


class TestRhoSimplexFromOrthonormal:
    def test_real_pair_gives_displayed_simplex(self):
        s = rho_simplex_from_orthonormal(seq_of(R, GEN.I, GEN.R))
        assert s.blocks.dtype == np.float64
        b1, b2, b3 = s.blocks
        root3 = math.sqrt(3) / 2
        assert max_abs(b1 - np.eye(2)) == 0.0
        assert max_abs(b2 - (-0.5 * np.eye(2) + root3 * GEN.R)) <= 1e-15
        assert max_abs(b3 - (-0.5 * np.eye(2) - root3 * GEN.R)) <= 1e-15
        assert verify_rho_simplex(s) <= 1e-15

    def test_singleton_identity(self):
        s = rho_simplex_from_orthonormal(seq_of(R, GEN.I))
        assert s.n == 3
        assert max_abs(s.blocks[0] - np.eye(2)) == 0.0
        assert max_abs(s.blocks[1] + np.eye(2)) == 0.0
        anti = s.blocks[0].conj().T @ s.blocks[1]
        assert max_abs(anti + anti.conj().T + 2 * np.eye(2)) == 0.0

    def test_scalar_complex_sequence(self):
        s = rho_simplex_from_orthonormal(seq_of(C, [[1j]], [[1.0 + 0j]]))
        assert s.n == 4
        expected = [1j, -0.5j + math.sqrt(3) / 2, -0.5j - math.sqrt(3) / 2]
        assert max_abs(s.blocks[:, 0, 0] - expected) <= 1e-15
        assert verify_rho_simplex(s) <= 1e-15

    def test_rejects_invalid_generators(self):
        with pytest.raises(InvalidInputError):
            rho_simplex_from_orthonormal(seq_of(R, GEN.I, GEN.M))

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("r", [1, 2, 4, 8, 16, 32, 64])
    def test_built_families_give_valid_simplices(self, field, r):
        for m in range(1, rho_number(field, r) + 1):
            s = rho_simplex_from_orthonormal(build_rho_orthonormal(field, r, m))
            assert verify_rho_simplex(s) <= 1e-12


class TestNormalize:
    def test_already_normalized_unchanged(self):
        s = rho_simplex_from_orthonormal(seq_of(R, GEN.I, GEN.R))
        out = normalize_rho_simplex(s)
        assert max_abs(s.blocks - out.blocks) <= 1e-15

    def test_scalar_pair(self):
        s = RhoSimplex(C, 1, 3, np.array([[[1j]], [[-1j]]]))
        out = normalize_rho_simplex(s)
        assert out.blocks[0, 0, 0] == 1.0
        assert abs(out.blocks[1, 0, 0] + 1.0) <= 1e-15

    def test_residual_preserved(self):
        seq = build_rho_orthonormal(C, 4, 4)
        s = rho_simplex_from_orthonormal(seq)
        before = verify_rho_simplex(s)
        out = normalize_rho_simplex(s)
        assert max_abs(out.blocks[0] - np.eye(4)) == 0.0
        assert verify_rho_simplex(out) <= before + 1e-13


class TestVerifySimplex:
    def test_identity_pair_residual_four(self):
        assert verify_rho_simplex(RhoSimplex(R, 2, 3, np.stack([GEN.I, GEN.I]))) == 4.0

    def test_plus_minus_identity(self):
        assert verify_rho_simplex(RhoSimplex(R, 2, 3, np.stack([GEN.I, -GEN.I]))) == 0.0


class TestRhoSimplexContainer:
    def test_blocks_take_the_field_dtype(self):
        s = RhoSimplex(C, 2, 3, np.stack([GEN.I, -GEN.I]))
        assert s.blocks.dtype == np.complex128

    def test_rejects_complex_blocks_in_real_simplex(self):
        with pytest.raises(InvalidInputError, match="real-tagged"):
            RhoSimplex(R, 1, 3, np.array([[[1j]], [[-1j]]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            RhoSimplex(R, 2, 4, np.stack([GEN.I, -GEN.I]))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(InvalidInputError, match="must be finite"):
            RhoSimplex(R, 1, 3, np.array([[[1.0]], [[np.nan]]]))


class TestBasisRecovery:
    def test_psi_columns_give_standard_basis(self):
        basis = simplex_basis_recovery(simplex_matrix(5))
        assert max_abs(basis - np.eye(4)) <= 1e-12

    def test_two_vectors(self):
        phi = np.array([[0.6, -0.6], [0.8, -0.8]])
        basis = simplex_basis_recovery(phi)
        assert basis.shape == (2, 1)
        assert max_abs(basis[:, 0] - phi[:, 0]) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_rotated_simplex_properties(self, seed):
        m = 4
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((m + 1, m - 1)))
        phi = q @ simplex_matrix(m)
        basis = simplex_basis_recovery(phi)
        self._check_properties(phi, basis, m)

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_recovery_properties_random(self, m, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((m + 1, m - 1)))
        phi = q @ simplex_matrix(m)
        basis = simplex_basis_recovery(phi)
        self._check_properties(phi, basis, m)

    @staticmethod
    def _check_properties(phi, basis, m, tol=1e-10):
        psi = simplex_matrix(m)
        # (a) first basis vector is the first simplex vector
        assert np.max(np.abs(basis[:, 0] - phi[:, 0])) <= tol
        # (b) v_j lies in the span of the first j simplex vectors
        for j in range(m - 1):
            lead = phi[:, : j + 1]
            proj = lead @ np.linalg.lstsq(lead, basis[:, j], rcond=None)[0]
            assert np.max(np.abs(proj - basis[:, j])) <= tol
        # (c) last basis vector is a positive multiple of phi_{m-1} - phi_m
        diff = phi[:, m - 2] - phi[:, m - 1]
        assert basis[:, m - 2] @ diff > 0
        cross = diff - (basis[:, m - 2] @ diff) * basis[:, m - 2]
        assert np.max(np.abs(cross)) <= tol
        # reconstruction through the coefficient matrix
        recon = basis @ psi
        assert np.max(np.abs(recon - phi)) <= tol

    def test_rejects_non_simplex(self):
        with pytest.raises(InvalidInputError):
            simplex_basis_recovery(np.eye(3))

    def test_rejects_complex_vectors(self):
        with pytest.raises(InvalidInputError):
            simplex_basis_recovery(simplex_matrix(3).astype(np.complex128))

    def test_rejects_non_finite_vectors(self):
        phi = simplex_matrix(3)
        phi[0, 1] = np.inf
        with pytest.raises(InvalidInputError, match="must be finite"):
            simplex_basis_recovery(phi)
