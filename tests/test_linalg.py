import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitff.errors import (
    DomainError,
    InvalidInputError,
    ShapeError,
    SingularMatrixError,
)
from eitff.linalg import (
    FieldTag,
    Mat,
    kron,
    max_abs,
    nullspace,
    polar_unitary,
)
from eitff.radon_hurwitz import GEN

from conftest import random_orthogonal, random_unitary


def assert_close(a, b, tol=1e-12):
    arr_a = a.array if isinstance(a, Mat) else np.asarray(a)
    arr_b = b.array if isinstance(b, Mat) else np.asarray(b)
    assert np.max(np.abs(arr_a - arr_b)) <= tol


small_entries = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)


def mats(rows, cols):
    return st.lists(
        st.lists(small_entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(Mat.from_real)


class TestMat:
    def test_real_tag_rejects_imaginary(self):
        with pytest.raises(InvalidInputError):
            Mat(FieldTag.REAL, np.array([[1.0 + 1e-30j]]))

    def test_entries_must_be_finite(self):
        with pytest.raises(InvalidInputError):
            Mat.from_real([[np.inf, 0.0]])
        with pytest.raises(InvalidInputError):
            Mat.from_complex([[complex(0, np.nan)]])

    def test_must_be_two_dimensional(self):
        with pytest.raises(ShapeError):
            Mat.from_real([1.0, 2.0])

    def test_immutable_after_construction(self):
        m = Mat.from_real([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 3.0


class TestKron:
    def test_m_kron_identity(self):
        assert_close(kron(GEN.M, GEN.I), np.diag([1.0, 1.0, -1.0, -1.0]), 0.0)

    def test_scalar_identity_factor(self):
        one = Mat.identity(1)
        assert_close(kron(one, GEN.T), GEN.T, 0.0)

    def test_r_kron_t_block_structure(self):
        out = kron(GEN.R, GEN.T).array.real
        t = GEN.T.array.real
        assert np.array_equal(out[:2, 2:], -t)
        assert np.array_equal(out[2:, :2], t)
        assert np.array_equal(out[:2, :2], np.zeros((2, 2)))

    @given(mats(2, 2), mats(2, 3), mats(2, 2), mats(3, 2))
    @settings(max_examples=25)
    def test_mixed_product(self, a, b, c, d):
        lhs = kron(a, b).working() @ kron(c, d).working()
        ac = Mat.from_real(a.working() @ c.working())
        bd = Mat.from_real(b.working() @ d.working())
        rhs = kron(ac, bd).working()
        scale = max(1.0, max_abs(lhs))
        assert max_abs(lhs - rhs) <= 1e-12 * scale

    def test_field_of_product(self):
        c = Mat.from_complex([[1j]])
        assert kron(GEN.M, GEN.T).field is FieldTag.REAL
        assert kron(GEN.M, c).field is FieldTag.COMPLEX
        assert kron(c, GEN.M).field is FieldTag.COMPLEX


class TestPolarUnitary:
    def test_scaled_identity(self):
        assert_close(polar_unitary(Mat.from_real(2.0 * np.eye(3))), np.eye(3))

    def test_unitary_fixed_point(self):
        q = Mat.from_complex(random_unitary(4, seed=5))
        assert max_abs(polar_unitary(q).array - q.array) <= 1e-12

    def test_complex_diagonal(self):
        m = Mat.from_complex(np.diag([2.0, 1.0 + 1.0j]))
        expected = np.diag([1.0, (1.0 + 1.0j) / math.sqrt(2)])
        assert max_abs(polar_unitary(m).array - expected) <= 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(SingularMatrixError):
            polar_unitary(Mat.from_real([[1.0, 0.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            polar_unitary(Mat.from_real(np.zeros((2, 3))))

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20)
    def test_recovers_q_from_qp(self, seed):
        q = random_orthogonal(4, seed=seed)
        p = np.diag([1.0, 0.5, 2.0, 3.0])
        recovered = polar_unitary(Mat.from_real(q @ p))
        assert max_abs(recovered.array - q) <= 1e-10


class TestNullspace:
    def test_zero_matrix_full_basis(self):
        basis = nullspace(Mat.from_real(np.zeros((3, 3))), 1e-10)
        assert basis.cols == 3
        assert max_abs(basis.array.conj().T @ basis.array - np.eye(3)) <= 1e-12

    def test_invertible_empty_basis(self):
        basis = nullspace(Mat.from_real(np.diag([1.0, 2.0])), 1e-10)
        assert basis.cols == 0

    def test_rank_one_symmetric(self):
        basis = nullspace(Mat.from_real([[1.0, 1.0], [1.0, 1.0]]), 1e-10)
        assert basis.cols == 1
        direction = np.array([1.0, -1.0]) / math.sqrt(2)
        overlap = abs(direction @ basis.array[:, 0])
        assert abs(overlap - 1.0) <= 1e-12

    def test_wide_matrix_nullspace(self):
        basis = nullspace(Mat.from_real([[1.0, 0.0, 0.0]]), 1e-10)
        assert basis.cols == 2

    def test_tolerance_must_be_positive(self):
        with pytest.raises(DomainError):
            nullspace(Mat.identity(2), 0.0)
