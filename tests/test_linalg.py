import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitff import linalg, symmetry
from eitff.errors import (
    DomainError,
    InvalidInputError,
    ShapeError,
    SingularMatrixError,
)
from eitff.linalg import (
    FieldTag,
    Mat,
    max_abs,
    nullspace,
    polar_unitary,
    relation_residual,
)
from eitff.frames import FusionFrame, build_eitff
from eitff.radon_hurwitz import GEN, RhoOrthonormalSeq, build_rho_orthonormal, rho_number, tensor
from eitff.simplex import RhoSimplex, rho_simplex_from_orthonormal

from conftest import clifford_e, random_orthogonal, random_unitary, traced_peak


def assert_close(a, b, tol=1e-12):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol


small_entries = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)


def mats(rows, cols):
    return st.lists(
        st.lists(small_entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(np.array)


class TestMat:
    def test_real_tag_rejects_imaginary(self):
        with pytest.raises(InvalidInputError):
            Mat(FieldTag.REAL, np.array([[1.0 + 1e-30j]]))

    def test_entries_must_be_finite(self):
        with pytest.raises(InvalidInputError):
            Mat(FieldTag.REAL, [[np.inf, 0.0]])
        with pytest.raises(InvalidInputError):
            Mat(FieldTag.COMPLEX, [[complex(0, np.nan)]])

    def test_must_be_two_dimensional(self):
        with pytest.raises(ShapeError):
            Mat(FieldTag.REAL, [1.0, 2.0])

    def test_immutable_after_construction(self):
        m = Mat(FieldTag.REAL, [[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 3.0


class Container(NamedTuple):
    member: tuple  # shape of one member
    make: Callable  # (field, members) -> container
    stored: Callable  # container -> its read-only array
    copy: Callable | None  # container -> a writable copy
    view: Callable | None  # container -> its members as Mats
    real_dtype: type


CONTAINERS = {
    "frame": Container(
        (4, 2), lambda f, ms: FusionFrame(f, 4, 2, len(ms), ms), lambda c: c.array,
        FusionFrame.arrays, lambda c: c.isometries, np.float64,
    ),
    "family": Container(
        (2, 2), lambda f, ms: RhoOrthonormalSeq(f, 2, ms), lambda c: c.array,
        RhoOrthonormalSeq.stack, lambda c: c.mats, np.float64,
    ),
    "simplex": Container(
        (2, 2), lambda f, ms: RhoSimplex(f, 2, len(ms) + 1, ms), lambda c: c.blocks,
        None, None, np.float64,
    ),
    # A Mat's members are its rows, and it stores complex128 under either
    # tag, so that the benchmark can read its float64 view.
    "matrix": Container((2,), Mat, lambda c: c.array, None, None, np.complex128),
}


def members(shape, dtype=np.float64):
    rng = np.random.default_rng(7)
    return [rng.standard_normal(shape).astype(dtype) for _ in range(2)]


@pytest.mark.parametrize("kind", CONTAINERS)
class TestContainers:
    """One validator (`linalg.field_array`) checks every container."""

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_ragged_members(self, kind, field):
        spec = CONTAINERS[kind]
        first, _ = members(spec.member)
        longer = np.zeros(spec.member[:-1] + (spec.member[-1] + 1,))
        with pytest.raises(ShapeError):
            spec.make(field, [first, longer])

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_nan_refused(self, kind, field):
        spec = CONTAINERS[kind]
        ms = members(spec.member)
        ms[1].flat[0] = np.nan
        with pytest.raises(InvalidInputError, match="must be finite"):
            spec.make(field, ms)

    def test_imaginary_part_under_real_refused(self, kind):
        spec = CONTAINERS[kind]
        ms = members(spec.member, np.complex128)
        ms[1].flat[-1] += 1e-30j
        with pytest.raises(InvalidInputError, match="real-tagged"):
            spec.make(FieldTag.REAL, ms)

    def test_zero_imaginary_part_under_real_dropped(self, kind):
        spec = CONTAINERS[kind]
        ms = members(spec.member)
        stored = spec.stored(spec.make(FieldTag.REAL, [m + 0j for m in ms]))
        assert stored.dtype == spec.real_dtype
        assert np.array_equal(stored, np.stack(ms))

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_stored_array_is_read_only(self, kind, field):
        spec = CONTAINERS[kind]
        ms = members(spec.member)
        want = np.stack(ms)
        container = spec.make(field, ms)
        ms[0][...] = 0.0
        stored = spec.stored(container)
        assert np.array_equal(stored, want)  # the container holds its own copy
        # A frame's (n, d, r) array is a view of its C-ordered (d, nr) synthesis operator.
        storage = container.synthesis if kind == "frame" else stored
        assert not stored.flags.writeable and storage.flags.c_contiguous
        with pytest.raises(ValueError):
            stored[0] = 1.0
        if spec.copy is not None:
            copy = spec.copy(container)
            before = stored.tobytes()
            copy[...] = 0.0
            assert stored.tobytes() == before

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_mats_round_trip(self, kind, field):
        # The benchmark builds frames and families from tuples of Mats and
        # reads them back through `isometries` and `mats`.
        spec = CONTAINERS[kind]
        ms = members(spec.member)
        wrapped = Mat(field, ms) if kind == "matrix" else tuple(Mat(field, m) for m in ms)
        container = spec.make(field, wrapped)
        assert np.array_equal(spec.stored(container), np.stack(ms))
        if spec.view is not None:
            view = spec.view(container)
            assert all(isinstance(m, Mat) and m.field is field for m in view)
            assert all(np.array_equal(m.array, w.array) for m, w in zip(view, wrapped, strict=True))

class TestKron:
    """`tensor` puts the left factor outermost, as the transcribed words
    of the real families assume."""

    def test_m_kron_identity(self):
        assert_close(tensor(GEN.M, GEN.I), np.diag([1.0, 1.0, -1.0, -1.0]), 0.0)

    def test_scalar_identity_factor(self):
        assert_close(tensor(np.eye(1), GEN.T), GEN.T, 0.0)

    def test_r_kron_t_block_structure(self):
        out = tensor(GEN.R, GEN.T)
        assert np.array_equal(out[:2, 2:], -GEN.T)
        assert np.array_equal(out[2:, :2], GEN.T)
        assert np.array_equal(out[:2, :2], np.zeros((2, 2)))

    @given(mats(2, 2), mats(2, 3), mats(2, 2), mats(3, 2))
    @settings(max_examples=25)
    def test_mixed_product(self, a, b, c, d):
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        scale = max(1.0, max_abs(lhs))
        assert max_abs(lhs - rhs) <= 1e-12 * scale


class TestPolarUnitary:
    def test_scaled_identity(self):
        assert_close(polar_unitary(2.0 * np.eye(3)), np.eye(3))

    def test_unitary_fixed_point(self):
        q = random_unitary(4, seed=5)
        assert max_abs(polar_unitary(q) - q) <= 1e-12

    def test_complex_diagonal(self):
        m = np.diag([2.0, 1.0 + 1.0j])
        expected = np.diag([1.0, (1.0 + 1.0j) / math.sqrt(2)])
        assert max_abs(polar_unitary(m) - expected) <= 1e-12

    def test_real_input_gives_real_factor(self):
        assert polar_unitary(random_orthogonal(3, seed=2)).dtype == np.float64

    def test_rank_deficient_rejected(self):
        with pytest.raises(SingularMatrixError):
            polar_unitary(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            polar_unitary(np.zeros((2, 3)))

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20)
    def test_recovers_q_from_qp(self, seed):
        q = random_orthogonal(4, seed=seed)
        p = np.diag([1.0, 0.5, 2.0, 3.0])
        recovered = polar_unitary(q @ p)
        assert max_abs(recovered - q) <= 1e-10


class TestNullspace:
    def test_zero_matrix_full_basis(self):
        basis = nullspace(Mat(FieldTag.REAL, np.zeros((3, 3))), 1e-10)
        assert basis.shape == (3, 3) and basis.dtype == np.float64
        assert max_abs(basis.T @ basis - np.eye(3)) <= 1e-12

    def test_invertible_empty_basis(self):
        basis = nullspace(Mat(FieldTag.REAL, np.diag([1.0, 2.0])), 1e-10)
        assert basis.shape == (2, 0)

    def test_rank_one_symmetric(self):
        basis = nullspace(Mat(FieldTag.REAL, [[1.0, 1.0], [1.0, 1.0]]), 1e-10)
        assert basis.shape == (2, 1)
        direction = np.array([1.0, -1.0]) / math.sqrt(2)
        overlap = abs(direction @ basis[:, 0])
        assert abs(overlap - 1.0) <= 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            nullspace(Mat(FieldTag.REAL, [[1.0, 0.0, 0.0]]), 1e-10)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize(
        "spectrum",
        [
            [0.0] * 5 + [1.0, 2.0, 3.0],
            # Clustered: a near-null cluster, and repeated and nearly equal
            # eigenvalues on both sides of the threshold.
            [0.0, 1e-15, -1e-15, 5e-12, 1.0, 1.0, 1.0 + 1e-9, 1.0 - 1e-9, 4.0, 4.0],
            [1e-13] * 3 + [1e-8] * 3 + [1.0] * 6,
        ],
        ids=["plain", "clustered", "two-clusters"],
    )
    def test_projector_matches_svd_oracle(self, field, spectrum):
        d = len(spectrum)
        q = random_orthogonal(d, seed=d) if field is FieldTag.REAL else random_unitary(d, seed=d)
        a = q @ np.diag(spectrum) @ q.conj().T
        a = (a + a.conj().T) / 2
        _, s, vh = np.linalg.svd(a)
        null = vh[s <= 1e-10 * s[0]].conj().T
        basis = nullspace(Mat(field, a), 1e-10)
        assert basis.shape == null.shape
        assert max_abs(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-12
        # Davis-Kahan: both projectors are within ~eps ||a|| / gap of the true one.
        lam = np.sort(np.abs(spectrum))
        gap = lam[null.shape[1]] - lam[null.shape[1] - 1]
        bound = 100 * np.finfo(float).eps * lam[-1] / gap
        assert max_abs(basis @ basis.conj().T - null @ null.conj().T) <= bound

    def test_tolerance_must_be_positive(self):
        with pytest.raises(DomainError):
            nullspace(Mat(FieldTag.REAL, np.eye(2)), 0.0)


def dense_stack(field, r, kind):
    """A stack that takes the dense branch of relation_residual, with the
    offdiag its relations use: a built family or unitary simplex with
    noise 1e-3, the family with two equal members, or with one NaN."""
    family = build_rho_orthonormal(field, r, rho_number(field, r))
    stack, offdiag = family.stack(), 0.0
    if kind == "simplex":
        simplex = rho_simplex_from_orthonormal(family)
        stack, offdiag = simplex.blocks.copy(), -2.0 / (simplex.n - 2)
    rng = np.random.default_rng(r)
    stack = stack + 1e-3 * rng.standard_normal(stack.shape)
    if kind == "equal":
        stack[-1] = stack[1]
    elif kind == "nan":
        stack[-2, 0, 1] = np.nan
    return stack, offdiag


class TestDenseResidualPanels:
    """The dense branch of relation_residual forms each block row in
    panels of at most `linalg._PANEL_BYTES`."""

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("kind", ["family", "simplex", "equal", "nan"])
    @pytest.mark.parametrize("field,r", [(FieldTag.REAL, 8), (FieldTag.COMPLEX, 4), (FieldTag.REAL, 16)])
    def test_small_panels_give_the_same_result(self, field, r, kind, blocks, monkeypatch):
        stack, offdiag = dense_stack(field, r, kind)
        want = relation_residual(stack, offdiag)
        monkeypatch.setattr(linalg, "_PANEL_BYTES", blocks * r * r * stack.itemsize)
        got = relation_residual(stack, offdiag)
        assert repr(got) == repr(want)
        assert (kind == "nan") == math.isnan(got[0])

    def test_clifford_gate_peak_is_bounded(self):
        # The Clifford system E of R128 n=18 is 17 dense 256 x 256 members
        # (8.5 MiB).  Forming its first block row whole, with the sum
        # H_ij + H_ij*, peaked at 17.6 MiB beyond E; 4 MiB panels read 9.1.
        frame = build_eitff(FieldTag.REAL, 128, 18)
        e = clifford_e(symmetry.clifford_system(frame).projections)
        assert e.shape == (17, 256, 256)
        assert traced_peak(relation_residual, e, 0.0) <= 10 * 2**20
