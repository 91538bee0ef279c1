import math

import numpy as np
import pytest

from eitff.errors import DomainError, InvalidInputError, ShapeError
from eitff.linalg import FieldTag, max_abs
from eitff.radon_hurwitz import GEN, RhoOrthonormalSeq, build_rho_orthonormal, rho_number
from eitff.simplex import (
    RhoSimplex,
    rho_simplex_from_orthonormal,
    simplex_matrix,
    verify_rho_simplex,
)

from conftest import traced_peak

R, C = FieldTag.REAL, FieldTag.COMPLEX


def gram_target(m):
    return (m * np.eye(m) - np.ones((m, m))) / (m - 1)


def seq_of(field, *arrays):
    stack = np.array(arrays)
    return RhoOrthonormalSeq(field, stack.shape[-1], stack)


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

    @pytest.mark.parametrize("m", range(2, 65))
    def test_rows_sum_to_zero_and_are_orthogonal(self, m):
        """The identities behind E = (2(n-1)/n) Psi_n Pi: the -I of each
        Gamma_i = 2 Pi_i - I cancels, and the rows have norm^2 m/(m-1)."""
        psi = simplex_matrix(m)
        assert max_abs(psi.sum(axis=1)) <= 1e-14
        assert max_abs(psi @ psi.T - m / (m - 1) * np.eye(m - 1)) <= 1e-14

    def test_rejects_small_m(self):
        with pytest.raises(DomainError):
            simplex_matrix(1)

    @pytest.mark.parametrize("m", [2, 9])
    def test_kept_read_only(self, m):
        psi = simplex_matrix(m)
        assert simplex_matrix(m) is psi
        assert not psi.flags.writeable
        with pytest.raises(ValueError):
            psi[0, 0] = 2.0


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

    @pytest.mark.parametrize("field,r", [(R, 256), (C, 128)])
    def test_blocks_are_formed_once(self, field, r):
        # The simplex keeps the one product that forms its blocks, read-only:
        # copying it once more read about twice the blocks (R256: 19.1 MiB
        # for 9.0 MiB of blocks).
        family = build_rho_orthonormal(field, r, rho_number(field, r))
        s = rho_simplex_from_orthonormal(family)
        assert not s.blocks.flags.writeable and s.blocks.flags.c_contiguous
        assert s.blocks.dtype == field.dtype
        assert traced_peak(rho_simplex_from_orthonormal, family) <= 1.1 * s.blocks.nbytes


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
