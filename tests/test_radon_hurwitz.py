import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitff.errors import (
    DomainError,
    InfeasibleParametersError,
    InvalidInputError,
    ShapeError,
)
from eitff.linalg import FieldTag, Mat, max_abs, relation_residual
from eitff.radon_hurwitz import (
    GEN,
    RhoOrthonormalSeq,
    build_rho_orthonormal,
    decompose_r,
    inflate_real,
    real_base_family,
    rho_inner,
    rho_number,
    tensor,
    verify_rho_orthonormal,
)
from eitff.simplex import rho_simplex_from_orthonormal, verify_rho_simplex

R, C = FieldTag.REAL, FieldTag.COMPLEX


def reference_relation_residual(mats, offdiag):
    """Per-pair reference for the block relations: the worst entry of
    C_i* C_i - I and of C_i* C_j + C_j* C_i - offdiag I, and the first
    1-indexed pair where it occurs."""
    arrs = [m.array for m in mats]
    eye = np.eye(arrs[0].shape[0])
    worst, where = 0.0, (1, 1)
    for i, a in enumerate(arrs):
        res = max_abs(a.conj().T @ a - eye)
        if res > worst:
            worst, where = res, (i + 1, i + 1)
        for j in range(i + 1, len(arrs)):
            b = arrs[j]
            res = max_abs(a.conj().T @ b + b.conj().T @ a - offdiag * eye)
            if res > worst:
                worst, where = res, (i + 1, j + 1)
    return worst, where


def stack_of(mats):
    return np.stack([m.working() for m in mats])


def noisy(mats, scale, seed):
    rng = np.random.default_rng(seed)
    out = []
    for m in mats:
        noise = rng.standard_normal(m.shape)
        if m.field is C:
            noise = noise + 1j * rng.standard_normal(m.shape)
        out.append(Mat(m.field, m.array + scale * noise))
    return out


class TestDecompose:
    @pytest.mark.parametrize(
        "r,expected",
        [(16, (0, 1, 0)), (2, (0, 0, 1)), (24, (1, 0, 3)), (1, (0, 0, 0))],
    )
    def test_known_values(self, r, expected):
        dec = decompose_r(r)
        assert (dec.a, dec.b, dec.c) == expected

    @given(st.integers(min_value=1, max_value=10000))
    def test_roundtrip(self, r):
        dec = decompose_r(r)
        assert dec.reconstruct() == r
        assert 0 <= dec.c <= 3

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            decompose_r(0)


class TestRhoNumber:
    def test_spot_values(self):
        assert rho_number(R, 2) == 2
        assert rho_number(C, 2) == 4
        assert rho_number(R, 8) == 8
        assert rho_number(C, 8) == 8
        assert rho_number(R, 1) == 1
        assert rho_number(R, 16) == 9
        assert rho_number(C, 16) == 10

    def test_complex_doubling_law(self):
        for r in range(1, 129):
            assert rho_number(C, 2 * r) == rho_number(C, r) + 2

    def test_real_at_most_complex_with_equality_iff_c3(self):
        for r in range(1, 257):
            rr, rc = rho_number(R, r), rho_number(C, r)
            assert rr <= rc
            assert (rr == rc) == (decompose_r(r).c == 3)


class TestRhoInner:
    def test_identity_normalized(self):
        assert rho_inner(GEN.I, GEN.I) == 1.0

    def test_traceless_orthogonal(self):
        assert rho_inner(GEN.I, GEN.R) == 0.0

    def test_r_unit_norm(self):
        assert rho_inner(GEN.R, GEN.R) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rho_inner(GEN.I, Mat.identity(3))


class TestBaseGenerators:
    def test_r_skew_symmetric_unitary(self):
        r = GEN.R.array.real
        assert np.array_equal(r.T, -r)
        assert np.array_equal(r.T @ r, np.eye(2))

    def test_m_t_symmetric_unitaries(self):
        for g in (GEN.M, GEN.T):
            a = g.array.real
            assert np.array_equal(a.T, a)
            assert np.array_equal(a @ a, np.eye(2))

    def test_pairwise_anticommutation(self):
        gens = [GEN.M.array.real, GEN.T.array.real, GEN.R.array.real]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.array_equal(gens[i] @ gens[j], -gens[j] @ gens[i])


class TestRealBaseFamily:
    @pytest.mark.parametrize("r", [2, 4, 8, 16])
    def test_count_and_relations(self, r):
        fam = real_base_family(r)
        assert len(fam) == rho_number(R, r) - 1
        for m in fam:
            assert m.shape == (r, r)
            assert max_abs(m.array + m.array.conj().T) == 0.0
        seq = [Mat.identity(r)] + list(fam)
        assert verify_rho_orthonormal(seq) <= 1e-12

    def test_first_members(self):
        assert max_abs(real_base_family(2)[0].array - GEN.R.array) == 0.0
        assert max_abs(real_base_family(4)[0].array - tensor(GEN.I, GEN.R).array) == 0.0
        expected16 = tensor(GEN.R, GEN.T, GEN.T, GEN.T)
        assert max_abs(real_base_family(16)[0].array - expected16.array) == 0.0

    def test_unsupported_size(self):
        with pytest.raises(DomainError):
            real_base_family(3)
        with pytest.raises(DomainError):
            real_base_family(32)


class TestInflateReal:
    def test_single_seed_gives_nine(self):
        out = inflate_real([GEN.R])
        assert len(out) == 9
        assert out[0].shape == (32, 32)
        seq = [Mat.identity(32)] + list(out)
        assert verify_rho_orthonormal(seq) <= 1e-12

    def test_empty_input_reproduces_base(self):
        out = inflate_real([], size=1)
        assert len(out) == 8
        for got, want in zip(out, real_base_family(16)):
            assert max_abs(got.array - want.array) == 0.0

    def test_double_inflation(self):
        out = inflate_real(inflate_real([GEN.R]))
        assert len(out) == 17
        assert out[0].shape == (512, 512)
        assert len(out) == rho_number(R, 512) - 1
        seq = [Mat.identity(512)] + list(out)
        assert verify_rho_orthonormal(seq) <= 1e-12

    def test_rejects_non_skew_input(self):
        with pytest.raises(InvalidInputError, match="member 1 is not skew-Hermitian"):
            inflate_real([GEN.M])

    def test_rejects_non_anticommuting_input(self):
        a = tensor(GEN.R, GEN.I)
        b = tensor(GEN.R, GEN.M)
        # a and b commute: both words share the R factor in slot one.
        with pytest.raises(InvalidInputError, match="members 1 and 2 do not anticommute"):
            inflate_real([a, b])


class TestBuildRhoOrthonormal:
    def test_complex_r2_maximal(self):
        seq = build_rho_orthonormal(C, 2, 4)
        expected = [
            1j * GEN.T.array,
            GEN.R.array,
            1j * GEN.M.array,
            np.eye(2),
        ]
        for got, want in zip(seq.mats, expected):
            assert max_abs(got.array - want) == 0.0

    def test_complex_r4_maximal(self):
        seq = build_rho_orthonormal(C, 4, 6)
        words = [
            1j * tensor(GEN.T, GEN.T).array,
            tensor(GEN.T, GEN.R).array,
            1j * tensor(GEN.T, GEN.M).array,
            tensor(GEN.R, GEN.I).array,
            1j * tensor(GEN.M, GEN.I).array,
            np.eye(4),
        ]
        for got, want in zip(seq.mats, words):
            assert max_abs(got.array - want) == 0.0

    def test_real_trivial(self):
        seq = build_rho_orthonormal(R, 1, 1)
        assert len(seq.mats) == 1
        assert max_abs(seq.mats[0].array - np.eye(1)) == 0.0

    def test_real_r2_matches_generators(self):
        seq = build_rho_orthonormal(R, 2, 2)
        assert max_abs(seq.mats[0].array - np.eye(2)) == 0.0
        assert max_abs(seq.mats[1].array - GEN.R.array) == 0.0

    def test_infeasible_length(self):
        with pytest.raises(InfeasibleParametersError):
            build_rho_orthonormal(R, 2, 3)
        with pytest.raises(DomainError):
            build_rho_orthonormal(R, 2, 0)

    def test_truncation_keeps_identity_anchor(self):
        for field, r in [(R, 8), (C, 8), (R, 12), (C, 12)]:
            for m in range(1, rho_number(field, r) + 1):
                seq = build_rho_orthonormal(field, r, m)
                assert len(seq.mats) == m
                hits = [
                    x for x in seq.mats if max_abs(x.array - np.eye(r)) <= 1e-12
                ]
                assert len(hits) == 1

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64])
    def test_maximal_families_to_r64(self, field, r):
        seq = build_rho_orthonormal(field, r, rho_number(field, r))
        assert verify_rho_orthonormal(seq) <= 1e-12

    def test_built_members_are_rho_orthonormal_in_inner_product(self):
        seq = build_rho_orthonormal(C, 8, rho_number(C, 8))
        for i, a in enumerate(seq.mats):
            for j, b in enumerate(seq.mats):
                want = 1.0 if i == j else 0.0
                assert abs(rho_inner(a, b) - want) <= 1e-12


class TestVerify:
    def test_valid_pair_zero_residual(self):
        assert verify_rho_orthonormal([GEN.I, GEN.R]) == 0.0

    def test_symmetric_pair_residual_two(self):
        assert verify_rho_orthonormal([GEN.I, GEN.M]) == 2.0

    def test_singleton_identity(self):
        assert verify_rho_orthonormal([GEN.I]) == 0.0

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ShapeError):
            verify_rho_orthonormal([GEN.I, Mat.identity(3)])

    def test_seq_type_enforces_cap(self):
        with pytest.raises(InvalidInputError):
            RhoOrthonormalSeq(R, 2, (GEN.I, GEN.R, GEN.M))

    @pytest.mark.parametrize("verify", [verify_rho_orthonormal, verify_rho_simplex])
    def test_empty_input_rejected(self, verify):
        with pytest.raises(InvalidInputError):
            verify([])


class TestRelationKernel:
    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("r", [1, 2, 4, 8, 12, 16, 32])
    def test_exact_families_match_reference(self, field, r):
        mats = build_rho_orthonormal(field, r, rho_number(field, r)).mats
        got, _ = relation_residual(stack_of(mats), 0.0)
        want, _ = reference_relation_residual(mats, 0.0)
        assert abs(got - want) <= 1e-12
        assert verify_rho_orthonormal(mats) == got

    @pytest.mark.parametrize("field,r", [(R, 8), (C, 8), (R, 16), (C, 4)])
    @pytest.mark.parametrize("seed", range(3))
    def test_noisy_families_match_reference(self, field, r, seed):
        mats = noisy(build_rho_orthonormal(field, r, rho_number(field, r)).mats, 1e-3, seed)
        got = relation_residual(stack_of(mats), 0.0)
        want = reference_relation_residual(mats, 0.0)
        assert got[0] > 1e-4
        assert abs(got[0] - want[0]) <= 1e-12
        assert got[1] == want[1]
        assert verify_rho_orthonormal(mats) == got[0]

    @pytest.mark.parametrize("field,r", [(R, 2), (C, 2), (R, 8), (C, 16)])
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_simplices_match_reference(self, field, r, noise):
        family = build_rho_orthonormal(field, r, rho_number(field, r))
        simplex = rho_simplex_from_orthonormal(family)
        mats = noisy(simplex.mats, noise, seed=r)
        offdiag = -2.0 / (simplex.n - 2)
        got = relation_residual(stack_of(mats), offdiag)
        want = reference_relation_residual(mats, offdiag)
        assert abs(got[0] - want[0]) <= 1e-12
        assert verify_rho_simplex(mats) == got[0]
        if noise:
            assert got[0] > 1e-4
            assert got[1] == want[1]
        else:
            assert got[0] <= 1e-12

    @pytest.mark.parametrize("field", [R, C])
    def test_equal_members_name_their_pair(self, field):
        mats = list(build_rho_orthonormal(field, 8, 8).mats)
        mats[5] = mats[2]
        residual, pair = relation_residual(stack_of(mats), 0.0)
        assert pair == (3, 6)
        assert abs(residual - 2.0) <= 1e-12
        assert reference_relation_residual(mats, 0.0)[1] == pair

    def test_inflate_names_equal_members(self):
        fam = list(real_base_family(8))
        with pytest.raises(InvalidInputError, match=r"members 2 and 5 do not anticommute"):
            inflate_real(fam[:4] + [fam[1]])

    def test_inflate_names_non_unitary_member(self):
        fam = list(real_base_family(4))
        fam[1] = Mat.from_real(2.0 * fam[1].working())
        with pytest.raises(InvalidInputError, match=r"member 2 is not unitary"):
            inflate_real(fam)
