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
from eitff import linalg
from eitff.frames import build_eitff
from eitff.linalg import FieldTag, Mat, max_abs, relation_residual
from eitff.radon_hurwitz import (
    GEN,
    RhoOrthonormalSeq,
    build_rho_orthonormal,
    decompose_r,
    exists,
    rho_number,
    tensor,
    verify_rho_orthonormal,
)
from eitff.simplex import RhoSimplex, rho_simplex_from_orthonormal, verify_rho_simplex

R, C = FieldTag.REAL, FieldTag.COMPLEX


def reference_relation_residual(arrs, offdiag):
    """Per-pair reference for the block relations: the worst entry of
    C_i* C_i - I and of C_i* C_j + C_j* C_i - offdiag I, and the first
    1-indexed pair where it occurs."""
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


def dense_relation_residual(stack, offdiag):
    """Copy of the dense branch of relation_residual: one batched product
    per block row, NaN returned with the first pair that holds it."""
    eye = np.eye(stack.shape[-1])
    worst, where = 0.0, (1, 1)
    for i in range(len(stack)):
        row = stack[i].conj().T @ stack[i:]
        row[1:] += row[1:].conj().swapaxes(1, 2) - offdiag * eye
        row[0] -= eye
        errs = np.abs(row).max(axis=(1, 2))
        k = int(np.argmax(errs))
        if np.isnan(errs[k]):
            return float(errs[k]), (i + 1, i + 1 + k)
        if errs[k] > worst:
            worst, where = float(errs[k]), (i + 1, i + 1 + k)
    return worst, where


def generalized_permutation_stack(field, r, m, base, rng):
    """m generalized permutation matrices of size r: the built family of
    length min(m, rho), or random permutations with random phases
    (+-1, and +-i over C) or random normal values."""
    if base == "family":
        return build_rho_orthonormal(field, r, min(m, rho_number(field, r))).array.copy()
    stack = np.zeros((m, r, r), dtype=np.complex128 if field is FieldTag.COMPLEX else np.float64)
    for member in stack:
        if base == "phases":
            values = rng.choice([1, -1, 1j, -1j] if field is FieldTag.COMPLEX else [1, -1], r)
        else:
            values = rng.standard_normal(r)
            if field is FieldTag.COMPLEX:
                values = values + 1j * rng.standard_normal(r)
        member[np.arange(r), rng.permutation(r)] = values
    return stack


def with_identity(stack):
    """The stack with the identity prepended."""
    return np.concatenate([np.eye(stack.shape[-1])[None], stack])


def noisy(stack, scale, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(stack.shape)
    if np.iscomplexobj(stack):
        noise = noise + 1j * rng.standard_normal(stack.shape)
    return stack + scale * noise


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
        assert (2 * dec.a + 1) * 2 ** (4 * dec.b + dec.c) == r
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


class TestBaseGenerators:
    def test_r_skew_symmetric_unitary(self):
        r = GEN.R
        assert np.array_equal(r.T, -r)
        assert np.array_equal(r.T @ r, np.eye(2))

    def test_m_t_symmetric_unitaries(self):
        for a in (GEN.M, GEN.T):
            assert np.array_equal(a.T, a)
            assert np.array_equal(a @ a, np.eye(2))

    def test_read_only_float64(self):
        for g in (GEN.I, GEN.M, GEN.T, GEN.R):
            assert g.dtype == np.float64
            with pytest.raises(ValueError):
                g[0, 0] = 2.0

    def test_pairwise_anticommutation(self):
        gens = [GEN.M, GEN.T, GEN.R]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.array_equal(gens[i] @ gens[j], -gens[j] @ gens[i])


def real_skew_members(r):
    """The members after the identity of the maximal real family."""
    return build_rho_orthonormal(R, r, rho_number(R, r)).array[1:]


class TestRealWords:
    """At r in {2, 4, 8, 16} the maximal real family is the identity
    followed by the transcribed skew tensor words."""

    @pytest.mark.parametrize("r", [2, 4, 8, 16])
    def test_count_and_relations(self, r):
        fam = real_skew_members(r)
        assert fam.shape == (rho_number(R, r) - 1, r, r)
        assert fam.dtype == np.float64
        assert max_abs(fam + fam.swapaxes(1, 2)) == 0.0
        assert relation_residual(with_identity(fam), 0.0)[0] == 0.0

    def test_first_members(self):
        assert max_abs(real_skew_members(2)[0] - GEN.R) == 0.0
        assert max_abs(real_skew_members(4)[0] - tensor(GEN.I, GEN.R)) == 0.0
        expected16 = tensor(GEN.R, GEN.T, GEN.T, GEN.T)
        assert max_abs(real_skew_members(16)[0] - expected16) == 0.0


R4 = tensor(GEN.R, GEN.R, GEN.R, GEN.R)


class TestRealInflation:
    """Past r = 8 the real family inflates m skew members C_i of size s to
    m + 8 of size 16s: (R4 x C_i), then (E_j x I_s) over the r = 16 words."""

    def test_single_seed_gives_nine(self):
        seq = build_rho_orthonormal(R, 32, 10)
        want = np.concatenate([np.kron(R4, GEN.R[None]), np.kron(real_skew_members(16), np.eye(2))])
        assert np.array_equal(seq.array[1:], want)
        assert verify_rho_orthonormal(seq) == 0.0

    def test_empty_input_reproduces_base(self):
        # Inflating the empty stack of size 1 gives the eight words alone.
        M, T, Rg = GEN.M, GEN.T, GEN.R
        words = [(Rg, T, T, T), (T, Rg, T, M), (T, M, Rg, T), (T, T, M, Rg),
                 (Rg, M, M, M), (M, Rg, M, T), (M, T, Rg, M), (M, M, T, Rg)]
        seq = build_rho_orthonormal(R, 16, 9)
        assert np.array_equal(seq.array, np.stack([np.eye(16)] + [tensor(*w) for w in words]))
        assert verify_rho_orthonormal(seq) == 0.0

    def test_double_inflation(self):
        seq = build_rho_orthonormal(R, 512, rho_number(R, 512))
        assert seq.array.shape == (18, 512, 512)
        want = np.concatenate([np.kron(R4, real_skew_members(32)), np.kron(real_skew_members(16), np.eye(32))])
        assert np.array_equal(seq.array[1:], want)
        assert verify_rho_orthonormal(seq) == 0.0


class TestBuildRhoOrthonormal:
    def test_complex_r2_maximal(self):
        seq = build_rho_orthonormal(C, 2, 4)
        expected = [1j * GEN.T, GEN.R, 1j * GEN.M, np.eye(2)]
        assert max_abs(seq.array - np.stack(expected)) == 0.0

    def test_complex_r4_maximal(self):
        seq = build_rho_orthonormal(C, 4, 6)
        words = [
            1j * tensor(GEN.T, GEN.T),
            tensor(GEN.T, GEN.R),
            1j * tensor(GEN.T, GEN.M),
            tensor(GEN.R, GEN.I),
            1j * tensor(GEN.M, GEN.I),
            np.eye(4),
        ]
        assert max_abs(seq.array - np.stack(words)) == 0.0

    def test_real_trivial(self):
        seq = build_rho_orthonormal(R, 1, 1)
        assert len(seq.mats) == 1
        assert max_abs(seq.array - np.eye(1)) == 0.0

    def test_real_r2_matches_generators(self):
        seq = build_rho_orthonormal(R, 2, 2)
        assert max_abs(seq.array - np.stack([np.eye(2), GEN.R])) == 0.0

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
                hits = [x for x in seq.array if max_abs(x - np.eye(r)) <= 1e-12]
                assert len(hits) == 1

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("r", [1, 2, 3, 8, 16])
    def test_identity_slot(self, field, r):
        """The identity is exactly the first member over R and the last over
        C, for every length; the other members are skew-Hermitian."""
        for m in range(1, rho_number(field, r) + 1):
            stack = build_rho_orthonormal(field, r, m).array
            slot = 0 if field is R else m - 1
            assert max_abs(stack[slot] - np.eye(r)) == 0.0
            others = np.delete(stack, slot, axis=0)
            assert max_abs(others.conj().swapaxes(1, 2) + others) == 0.0

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64])
    def test_maximal_families_to_r64(self, field, r):
        seq = build_rho_orthonormal(field, r, rho_number(field, r))
        assert seq.array.dtype == (np.float64 if field is R else np.complex128)
        assert verify_rho_orthonormal(seq) <= 1e-12

    def test_built_members_are_rho_orthonormal_in_inner_product(self):
        # Re Tr(C_i* C_j) / r, the normalized real trace inner product.
        stack = build_rho_orthonormal(C, 8, rho_number(C, 8)).array
        gram = np.einsum("iab,jab->ij", stack.conj(), stack).real / 8
        assert max_abs(gram - np.eye(len(stack))) <= 1e-12


def seq_of(field, *arrays):
    return RhoOrthonormalSeq(field, arrays[0].shape[-1], np.stack(arrays))


class TestVerify:
    def test_valid_pair_zero_residual(self):
        assert verify_rho_orthonormal(seq_of(R, GEN.I, GEN.R)) == 0.0

    def test_symmetric_pair_residual_two(self):
        assert verify_rho_orthonormal(seq_of(R, GEN.I, GEN.M)) == 2.0

    def test_singleton_identity(self):
        assert verify_rho_orthonormal(seq_of(R, GEN.I)) == 0.0

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ShapeError):
            RhoOrthonormalSeq(R, 2, (Mat(R, GEN.I), Mat(R, np.eye(3))))

    def test_seq_type_enforces_cap(self):
        with pytest.raises(InvalidInputError):
            seq_of(R, GEN.I, GEN.R, GEN.M)

    @pytest.mark.parametrize(
        "make",
        [lambda: RhoOrthonormalSeq(R, 2, ()), lambda: RhoSimplex(R, 2, 2, np.eye(2)[None])],
        ids=["family", "simplex"],
    )
    def test_empty_container_rejected(self, make):
        with pytest.raises(InvalidInputError):
            make()


class TestRelationKernel:
    @given(
        field=st.sampled_from([R, C]),
        r=st.sampled_from([1, 2, 3, 4, 8, 16]),
        m=st.integers(min_value=2, max_value=8),
        base=st.sampled_from(["family", "phases", "values"]),
        corruption=st.sampled_from(["sign", "swap", "scale", "nan"]),
        simplex=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_generalized_permutation_stacks_match_dense_loop(
        self, field, r, m, base, corruption, simplex, seed
    ):
        rng = np.random.default_rng(seed)
        stack = generalized_permutation_stack(field, r, m, base, rng)
        k, a = rng.integers(len(stack)), rng.integers(r)
        col = np.flatnonzero(stack[k, a])[0]
        if corruption == "sign":
            stack[k, a, col] *= -1
        elif corruption == "swap":
            stack[k, [a, (a + 1) % r]] = stack[k, [(a + 1) % r, a]]
        elif corruption == "scale":
            stack[k, a, col] *= 1.0 + rng.random()
        else:
            stack[k, a, col] = np.nan
        offdiag = -2.0 / (len(stack) - 1) if simplex and len(stack) > 1 else 0.0
        got, pair = relation_residual(stack, offdiag)
        want, want_pair = dense_relation_residual(stack, offdiag)
        assert pair == want_pair
        if corruption == "nan":
            assert np.isnan(got) and np.isnan(want)
        else:
            assert abs(got - want) <= 4 * np.finfo(np.float64).eps * np.abs(stack).max() ** 2

    @pytest.mark.parametrize("field", [R, C])
    def test_built_families_hold_exactly(self, field):
        for r in range(1, 65):
            seq = build_rho_orthonormal(field, r, rho_number(field, r))
            assert relation_residual(seq.array, 0.0) == (0.0, (1, 1)), r

    def test_built_code_never_takes_the_dense_branch(self, monkeypatch):
        def refuse(stack, offdiag):
            raise AssertionError("dense relation check")

        monkeypatch.setattr(linalg, "_dense_residual", refuse)
        assert build_eitff(R, 256, 19).n == 19
        # A unitary simplex is not a generalized permutation stack.
        simplex = rho_simplex_from_orthonormal(build_rho_orthonormal(R, 16, 9))
        with pytest.raises(AssertionError, match="dense relation check"):
            verify_rho_simplex(simplex)

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("r", [1, 2, 4, 8, 12, 16, 32])
    def test_exact_families_match_reference(self, field, r):
        seq = build_rho_orthonormal(field, r, rho_number(field, r))
        got, _ = relation_residual(seq.array, 0.0)
        want, _ = reference_relation_residual(seq.array, 0.0)
        assert abs(got - want) <= 1e-12
        assert verify_rho_orthonormal(seq) == got

    @pytest.mark.parametrize("field,r", [(R, 8), (C, 8), (R, 16), (C, 4)])
    @pytest.mark.parametrize("seed", range(3))
    def test_noisy_families_match_reference(self, field, r, seed):
        stack = noisy(build_rho_orthonormal(field, r, rho_number(field, r)).array, 1e-3, seed)
        got = relation_residual(stack, 0.0)
        want = reference_relation_residual(stack, 0.0)
        assert got[0] > 1e-4
        assert abs(got[0] - want[0]) <= 1e-12
        assert got[1] == want[1]
        assert verify_rho_orthonormal(RhoOrthonormalSeq(field, r, stack)) == got[0]

    @pytest.mark.parametrize("field,r", [(R, 2), (C, 2), (R, 8), (C, 16)])
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_simplices_match_reference(self, field, r, noise):
        family = build_rho_orthonormal(field, r, rho_number(field, r))
        simplex = rho_simplex_from_orthonormal(family)
        blocks = noisy(simplex.blocks, noise, seed=r)
        offdiag = -2.0 / (simplex.n - 2)
        got = relation_residual(blocks, offdiag)
        want = reference_relation_residual(blocks, offdiag)
        assert abs(got[0] - want[0]) <= 1e-12
        assert verify_rho_simplex(RhoSimplex(field, r, simplex.n, blocks)) == got[0]
        if noise:
            assert got[0] > 1e-4
            assert got[1] == want[1]
        else:
            assert got[0] <= 1e-12

    @pytest.mark.parametrize("field", [R, C])
    def test_equal_members_name_their_pair(self, field):
        stack = build_rho_orthonormal(field, 8, 8).array.copy()
        stack[5] = stack[2]
        residual, pair = relation_residual(stack, 0.0)
        assert pair == (3, 6)
        assert abs(residual - 2.0) <= 1e-12
        assert reference_relation_residual(stack, 0.0)[1] == pair

    @pytest.mark.parametrize("field", [R, C])
    def test_nan_entry_reads_as_nan_with_its_pair(self, field):
        # One NaN entry in the second member must not read as a pass.
        stack = build_rho_orthonormal(field, 4, 2).array.copy()
        stack[1, 0, 1] = np.nan
        residual, pair = relation_residual(stack, 0.0)
        assert np.isnan(residual)
        assert pair == (1, 2)

    def test_relation_residual_names_equal_members(self):
        # Members 2 and 5 of the skew words are equal, so the pair
        # (3, 6) of [I, C_1, ..., C_5] reads 2 C_2* C_2 = 2 I.
        fam = real_skew_members(8)[[0, 1, 2, 3, 1]]
        assert relation_residual(with_identity(fam), 0.0) == (2.0, (3, 6))

    def test_relation_residual_names_non_unitary_member(self):
        # Doubling skew member 2 gives C_2* C_2 = 4 I at the pair (3, 3).
        fam = real_skew_members(4).copy()
        fam[1] *= 2.0
        assert relation_residual(with_identity(fam), 0.0) == (3.0, (3, 3))


class TestTotallySymmetricExists:
    def test_spot_values(self):
        assert exists(C, 1, 4, total=True)[0] == "no"
        assert exists(R, 2, 4, total=True)[0] == "yes"
        assert exists(R, 4, 6, total=True)[0] == "no"

    def test_complex_threshold(self):
        for r in (1, 2, 3, 4, 6, 8, 16):
            rho = rho_number(C, r)
            for n in range(3, rho + 4):
                want = "yes" if n <= rho + 1 else "no"
                assert exists(C, r, n, total=True)[0] == want

    def test_real_truth_table(self):
        by_c = {0: "yes", 1: "yes", 2: "no", 3: "no"}
        for r in (1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48):
            rho = rho_number(R, r)
            c = decompose_r(r).c
            for n in range(3, rho + 4):
                if n <= rho + 1:
                    want = "yes"
                elif n == rho + 2:
                    want = by_c[c]
                else:
                    want = "no"
                assert exists(R, r, n, total=True)[0] == want

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            exists(R, 2, 2, total=True)
