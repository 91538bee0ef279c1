import dataclasses
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitff import linalg, symmetry
from eitff import simplex as simplex_module
from eitff.errors import DomainError, InvalidInputError, ShapeError
from eitff.frames import (
    FusionFrame,
    build_eitff,
    canonicalize,
    eitff_params,
    frame_from_simplex,
    naimark_complement,
    tightness_residual,
    verify_eitff,
)
from eitff.linalg import DEFAULT_TOL, FieldTag, Mat, max_abs, nullspace, polar_unitary
from eitff.radon_hurwitz import (
    GEN,
    RhoOrthonormalSeq,
    build_rho_orthonormal,
    exists,
    rho_number,
)
from eitff.simplex import RhoSimplex, rho_simplex_from_orthonormal, simplex_matrix
from eitff.symmetry import (
    Permutation,
    SymmetryCertificate,
    _projections,
    alternating_witness,
    check_certificate,
    clifford_system,
    find_witness,
    probe_symmetry,
    transposition_witness,
)

from conftest import (
    clifford_e,
    loop_conjugation_residual,
    near_code,
    random_orthogonal,
    random_subspace_frame,
    random_unitary,
    skew_simplex,
    traced_peak,
)

R, C = FieldTag.REAL, FieldTag.COMPLEX


def scalar_skew_simplex():
    """(i, -i) in C^{1x1}: a skew simplex for n = 3."""
    return RhoSimplex(C, 1, 3, np.array([[[1j]], [[-1j]]]))


# Every skew simplex `skew_simplex` builds at r <= 8: n <= rho_F(r) + 1.
SKEW_CODES = [
    (field, r, n)
    for field in (R, C)
    for r in (1, 2, 4, 8)
    for n in range(3, rho_number(field, r) + 2)
]


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

    @pytest.mark.parametrize(
        "n,elements", [(3, (1, 2, 7)), (3, (0, 1, 2)), (4, (1, 1, 2))], ids=["above-n", "zero", "repeated"]
    )
    def test_cycle_refuses_bad_elements(self, n, elements):
        """An element outside [1, n], or one listed twice, is refused as
        `transposition` refuses it, not read as an index or a shorter cycle."""
        with pytest.raises(DomainError, match=rf"cycle needs distinct elements in \[1, {n}\]"):
            Permutation.cycle(n, elements)

    def test_compose_order(self):
        t12 = Permutation.transposition(3, 1, 2)
        t23 = Permutation.transposition(3, 2, 3)
        assert t12.compose(t23).image == Permutation.cycle(3, (1, 2, 3)).image


class TestCheckCertificate:
    def test_block_m_witness_swaps_middle_pair(self, example_frame):
        cert = SymmetryCertificate(
            Permutation.transposition(4, 2, 3), np.kron(np.eye(2), GEN.M)
        )
        assert check_certificate(example_frame, cert) <= 1e-12

    def test_identity_certificate(self, example_frame):
        cert = SymmetryCertificate(Permutation.identity(4), np.eye(4))
        assert check_certificate(example_frame, cert) == 0.0

    def test_wrong_witness_large_residual(self, example_frame):
        cert = SymmetryCertificate(
            Permutation.transposition(4, 1, 2), np.eye(4)
        )
        assert check_certificate(example_frame, cert) > 0.5

    def test_shape_mismatch(self, example_frame):
        cert = SymmetryCertificate(Permutation.identity(3), np.eye(4))
        with pytest.raises(ShapeError):
            check_certificate(example_frame, cert)

    def test_nan_in_witness_refused_on_the_witness_path(self, example_frame, monkeypatch):
        """`check_certificate` is the one reader, so a NaN witness that
        reached `find_witness` is refused there as it is on its own
        (`test_non_finite_witness_refused`)."""
        upsilon = np.eye(4)
        upsilon[1, 2] = np.nan
        cert = SymmetryCertificate(Permutation.identity(4), upsilon)
        monkeypatch.setattr(symmetry.CliffordSystem, "witness", lambda system, sigma: cert)
        with pytest.raises(InvalidInputError, match="witness entries must be finite"):
            find_witness(example_frame, cert.sigma)

    @pytest.mark.parametrize("blocks", [1, 2, 3, 4, 6])
    def test_residual_is_the_same_in_any_panels(self, monkeypatch, blocks):
        """The residual is read from S one panel of subspaces at a time: at
        every panel size it is the one-panel value, within 4 d eps of the
        dense stack's, and a NaN in S in a later panel than the largest
        finite entry still reads as NaN."""
        frame = build_eitff(C, 4, 6)
        p, sigma = _projections(frame), Permutation.cycle(6, (1, 2, 3))
        cert = SymmetryCertificate(sigma, find_witness(frame, sigma).upsilon @ random_unitary(8, seed=2))
        want = max_abs(cert.upsilon @ p @ cert.upsilon.conj().T - p[np.array(sigma.image) - 1])
        monkeypatch.setattr(linalg, "_PANEL_BYTES", 6 * p[0].nbytes)
        whole = check_certificate(frame, cert)
        assert abs(whole - want) <= 4 * frame.d * np.finfo(np.float64).eps
        monkeypatch.setattr(linalg, "_PANEL_BYTES", blocks * p[0].nbytes)
        assert check_certificate(frame, cert) == whole
        synthesis = frame.synthesis.copy()
        synthesis[2, 5 * frame.r + 3] = np.nan
        assert np.isnan(check_certificate(FusionFrame._adopt(C, frame.r, synthesis), cert))

    def test_non_finite_witness_refused(self, example_frame):
        upsilon = np.eye(4)
        upsilon[1, 2] = np.nan
        cert = SymmetryCertificate(Permutation.identity(4), upsilon)
        with pytest.raises(InvalidInputError, match="must be finite"):
            check_certificate(example_frame, cert)


def block_transposition_matrix(blocks, j, k):
    """Reference witness of (j k), j < k, for the frame of the skew simplex
    B_1 ... B_{n-1} = `blocks`: alpha * blkdiag(B_j - B_k, B_k - B_j) for
    k < n, [[alpha B_j, beta I], [-beta I, -alpha B_j]] for k = n."""
    n = len(blocks) + 1
    alpha, beta = eitff_params(n)
    if k < n:
        diff = blocks[j - 1] - blocks[k - 1]
        zero = np.zeros_like(diff)
        return np.block([[alpha * diff, zero], [zero, -alpha * diff]])
    bj, eye = blocks[j - 1], np.eye(len(blocks[j - 1]))
    return np.block([[alpha * bj, beta * eye], [-beta * eye, -alpha * bj]])


def block_swap_defect(frame):
    """max_i |S Pi_i S - (I - Pi_i)| on a canonical frame, where
    S = [[0, I], [I, 0]] swaps the two r-blocks."""
    projections, r = _projections(frame), frame.r
    swapped = np.roll(projections, r, axis=(1, 2))
    return max_abs(swapped - (np.eye(2 * r) - projections))


class TestTranspositionWitness:
    def test_scalar_simplex_inner_pair(self):
        simplex = scalar_skew_simplex()
        cert = transposition_witness(simplex, 1, 2)
        expected = np.diag([1j, -1j])
        assert max_abs(cert.upsilon - expected) <= 1e-15
        assert check_certificate(frame_from_simplex(simplex), cert) <= 1e-12

    def test_scalar_simplex_last_index(self):
        simplex = scalar_skew_simplex()
        cert = transposition_witness(simplex, 1, 3)
        expected = np.array(
            [[0.5j, np.sqrt(3) / 2], [-np.sqrt(3) / 2, -0.5j]]
        )
        assert max_abs(cert.upsilon - expected) <= 1e-15
        assert check_certificate(frame_from_simplex(simplex), cert) <= 1e-12

    def test_rejects_non_skew_simplex(self, example_frame):
        # On every call, though the residual is measured once.
        _, simplex = canonicalize(example_frame)
        for j, k in [(1, 2), (1, 2), (2, 3)]:
            with pytest.raises(InvalidInputError, match=r"^simplex members must be skew-Hermitian"):
                transposition_witness(simplex, j, k)

    @pytest.mark.parametrize("skew,accepted", [(5e-13, True), (2e-12, False)])
    def test_skew_gate_is_1e_12(self, skew, accepted):
        """A Hermitian part of (skew / 2) I in one member reads
        `skew_residual` = skew: 5e-13 is accepted, 2e-12 refused."""
        blocks = skew_simplex(C, 4, 6).blocks.copy()
        blocks[2] += 0.5 * skew * np.eye(4)
        simplex = RhoSimplex(C, 4, 6, blocks)
        assert abs(simplex.skew_residual - skew) <= 1e-15
        if accepted:
            cert = transposition_witness(simplex, 1, 3)
            assert check_certificate(frame_from_simplex(simplex), cert) <= 1e-11
        else:
            with pytest.raises(InvalidInputError, match=r"^simplex members must be skew-Hermitian \(residual 2.00e-12\)"):
                transposition_witness(simplex, 1, 3)

    def test_skew_residual_is_measured_once(self, monkeypatch):
        # The gate reads `RhoSimplex.skew_residual`, formed on the first
        # call from the read-only members and kept.
        simplex = skew_simplex(R, 8, 8)
        calls, measure = [], simplex_module.max_abs
        monkeypatch.setattr(simplex_module, "max_abs", lambda a: calls.append(a.shape) or measure(a))
        for j, k in [(1, 2), (3, 8), (1, 2)]:
            transposition_witness(simplex, j, k)
        assert calls == [(7, 8, 8)]
        assert simplex.skew_residual == 0.0

    @pytest.mark.parametrize("j,k", [(2, 2), (3, 1), (2, 1), (0, 2), (1, 4), (-1, 3)])
    def test_rejects_unordered_or_outside_indices(self, j, k):
        with pytest.raises(DomainError, match=r"need 1 <= j < k <= 3"):
            transposition_witness(scalar_skew_simplex(), j, k)

    @settings(max_examples=40, deadline=None)
    @given(code=st.sampled_from(SKEW_CODES), seed=st.integers(0, 2**32 - 1))
    def test_dense_skew_simplices(self, code, seed):
        """B_i -> W B_i W* for a seeded random unitary W is again a skew
        unitary simplex, with dense members: every transposition witness
        is unitary and clears the re-check on its canonical frame."""
        field, r, n = code
        w = random_orthogonal(r, seed) if field is R else random_unitary(r, seed)
        simplex = RhoSimplex(field, r, n, w @ skew_simplex(field, r, n).blocks @ w.conj().T)
        frame = frame_from_simplex(simplex)
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                cert = transposition_witness(simplex, j, k)
                u = cert.upsilon
                assert max_abs(u.conj().T @ u - np.eye(2 * r)) <= 1e-12
                assert check_certificate(frame, cert) <= 1e-10

    @pytest.mark.parametrize(
        "field,r,n",
        [(C, 1, 3), (R, 2, 3), (C, 2, 5), (R, 4, 5), (R, 8, 8), (R, 8, 9), (C, 16, 11), (R, 64, 13)],
    )
    def test_all_transpositions_of_skew_frames(self, field, r, n):
        """S V_jk equals the two-branch block formula and clears the
        re-check on the frame, also past the search cap (R64 n=13,
        d = 128); R8 n=8 is the benchmark's closed-form operation."""
        simplex = skew_simplex(field, r, n)
        frame = frame_from_simplex(simplex)
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                cert = transposition_witness(simplex, j, k)
                assert check_certificate(frame, cert) <= 1e-10
                u = cert.upsilon
                assert u.dtype == simplex.blocks.dtype
                assert max_abs(u.conj().T @ u - np.eye(2 * r)) <= 1e-10
                want = block_transposition_matrix(simplex.blocks, j, k)
                assert max_abs(u - want) <= 4 * r * np.finfo(float).eps

    @pytest.mark.parametrize("field,r,n", [(R, 8, 9), (C, 4, 5)])
    def test_block_swap_complements_skew_frames(self, field, r, n):
        """S Pi_i S = I - Pi_i on a canonical skew frame: the premise of
        the witness S V_jk."""
        assert block_swap_defect(frame_from_simplex(skew_simplex(field, r, n))) <= 1e-12

    @pytest.mark.parametrize("field,r,n", [(R, 2, 4), (C, 4, 6)])
    def test_block_swap_fails_on_generic_frames(self, field, r, n):
        """On canonical generic frames S Pi_i S is far from I - Pi_i, which
        is why non-skew simplices are refused."""
        assert block_swap_defect(canonicalize(build_eitff(field, r, n))[0]) > 0.5


def permutation_matrix_alternating(frame, t1, t2):
    """Reference alternating witness: the doubled transposition witnesses
    conjugated by a dense (1, 4, 2, 3) block-permutation matrix."""
    n, rhat = frame.n, frame.r
    _, beta = eitff_params(n)
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
    w1, w2 = (perm @ block_transposition_matrix(doubled, *t) @ perm.T for t in (t1, t2))
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
        # The reference takes the used corner of a complex product of
        # doubled witnesses: equal up to rounding of 4r-term sums.
        for t1, t2 in pairs:
            cert = alternating_witness(frame, t1, t2)
            want = permutation_matrix_alternating(frame, t1, t2)
            assert max_abs(cert.upsilon - want) <= 4 * r * np.finfo(float).eps

    def test_example_double_transposition(self, example_frame):
        cert = alternating_witness(example_frame, (1, 2), (3, 4))
        assert cert.sigma.image == (2, 1, 4, 3)
        assert check_certificate(example_frame, cert) <= 1e-10

    def test_same_transposition_gives_identity_witness(self, example_frame):
        cert = alternating_witness(example_frame, (2, 4), (2, 4))
        assert cert.sigma == Permutation.identity(4)
        assert check_certificate(example_frame, cert) <= 1e-10
        u = cert.upsilon
        assert max_abs(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_three_cycle_from_two_transpositions(self, complex_etf_frame):
        cert = alternating_witness(complex_etf_frame, (1, 2), (2, 3))
        assert cert.sigma.image == Permutation.cycle(4, (1, 2, 3)).image
        assert check_certificate(complex_etf_frame, cert) <= 1e-9

    def test_random_pairs_across_frames(self):
        rng = np.random.default_rng(7)
        for field, r, n in [(R, 2, 4), (C, 1, 4), (R, 4, 6), (C, 4, 8)]:
            frame = build_eitff(field, r, n)
            for _ in range(20):
                j1, k1 = sorted(rng.choice(np.arange(1, n + 1), 2, replace=False))
                j2, k2 = sorted(rng.choice(np.arange(1, n + 1), 2, replace=False))
                cert = alternating_witness(frame, (int(j1), int(k1)), (int(j2), int(k2)))
                assert check_certificate(frame, cert) <= 1e-9

    @pytest.mark.parametrize("field,r,n", [(R, 2, 4), (C, 4, 8), (R, 16, 11), (C, 32, 14)])
    def test_rotated_codes_at_any_d(self, field, r, n):
        """A random change of basis, also past the d <= 32 search cap: every
        consecutive 3-cycle and (1 2)(n-1 n), including those moving n."""
        frame = rotated_code(field, r, n, seed=n)
        cases = [
            ((i, i + 1), (i + 1, i + 2), Permutation.cycle(n, (i, i + 1, i + 2)))
            for i in range(1, n - 1)
        ]
        swap_ends = (2, 1, *range(3, n - 1), n, n - 1)
        cases.append(((1, 2), (n - 1, n), Permutation(n, swap_ends)))
        for t1, t2, sigma in cases:
            cert = alternating_witness(frame, t1, t2)
            u = cert.upsilon
            assert cert.sigma == sigma
            assert check_certificate(frame, cert) <= 1e-10
            assert max_abs(u.conj().T @ u - np.eye(2 * r)) <= 1e-12

    @pytest.mark.parametrize("field,r,n", [(R, 2, 4), (C, 4, 8), (R, 16, 11), (C, 32, 14)])
    def test_reflection_identities(self, field, r, n):
        """The derivation behind the formula, on a rotated code: with
        Gamma_i = 2 Pi_i - I, sum Gamma_i = 0, the anticommutators are
        -2/(n-1) I, and V_ab = sqrt((n-1)/(2n)) (Gamma_a - Gamma_b) is a
        Hermitian unitary sending Pi_i to I - Pi_(a b)(i)."""
        frame = rotated_code(field, r, n, seed=n)
        eye = np.eye(2 * r)
        projections = _projections(frame)
        gammas = 2 * projections - eye
        assert max_abs(gammas.sum(axis=0)) <= 1e-10
        for i, j in [(0, 1), (0, n - 1), (n - 2, n - 1)]:
            anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
            assert max_abs(anti + 2.0 / (n - 1) * eye) <= 1e-10
        for a, b in [(1, 2), (1, n), (n - 1, n)]:
            v = np.sqrt((n - 1) / (2 * n)) * (gammas[a - 1] - gammas[b - 1])
            assert max_abs(v - v.conj().T) <= 1e-12
            assert max_abs(v @ v - eye) <= 1e-10
            swap = Permutation.transposition(n, a, b)
            for i in range(1, n + 1):
                image = projections[swap.apply(i) - 1]
                assert max_abs(v @ projections[i - 1] @ v - (eye - image)) <= 1e-10

    @pytest.mark.parametrize("field,r,n", [(R, 2, 4), (C, 1, 4), (R, 8, 10), (C, 32, 14)])
    def test_covariant_under_change_of_basis(self, field, r, n):
        """Rotating the code by Q conjugates every witness by Q."""
        code = build_eitff(field, r, n)
        q = random_orthogonal(2 * r, n) if field is R else random_unitary(2 * r, n)
        rotated = rotated_code(field, r, n, seed=n)
        for t1, t2 in [((1, 2), (2, 3)), ((1, n), (2, n - 1)), ((2, n), (n - 1, n))]:
            want = q @ alternating_witness(code, t1, t2).upsilon @ q.conj().T
            cert = alternating_witness(rotated, t1, t2)
            assert max_abs(cert.upsilon - want) <= 1e-10
            assert check_certificate(rotated, cert) <= 1e-10

    @pytest.mark.parametrize(
        "field,r,n,seed",
        [(R, 2, 4, 3), (C, 2, 4, 0), (R, 4, 6, 1), (C, 8, 5, 2), (R, 32, 14, 3)],
    )
    def test_rejects_random_frames(self, field, r, n, seed):
        """Random d = 2r frames, also past the search cap, are not EITFFs."""
        frame = random_subspace_frame(field, 2 * r, r, n, seed=seed)
        with pytest.raises(InvalidInputError, match="not an EITFF"):
            alternating_witness(frame, (1, 2), (2, 3))

    @pytest.mark.parametrize("pair", [(1, 1), (0, 2), (2, 5)])
    def test_rejects_bad_pairs(self, example_frame, pair):
        with pytest.raises(DomainError):
            alternating_witness(example_frame, pair, (1, 2))
        with pytest.raises(DomainError):
            alternating_witness(example_frame, (1, 2), pair)

    def test_reversed_pair_keeps_sign(self, example_frame):
        want = alternating_witness(example_frame, (1, 2), (3, 4))
        for t1, t2 in [((2, 1), (3, 4)), ((1, 2), (4, 3)), ((2, 1), (4, 3))]:
            cert = alternating_witness(example_frame, t1, t2)
            assert cert.sigma == want.sigma
            assert max_abs(cert.upsilon - want.upsilon) == 0.0

    def test_rejects_small_n(self):
        frame = build_eitff(R, 2, 3)
        with pytest.raises(DomainError):
            alternating_witness(frame, (1, 2), (1, 3))


class TestFindWitness:
    def test_finds_known_symmetry(self, example_frame):
        cert = find_witness(example_frame, Permutation.transposition(4, 2, 3))
        assert cert is not None
        assert cert.upsilon.dtype == np.float64
        assert check_certificate(example_frame, cert) <= 1e-10

    def test_complex_etf_has_no_transposition_witness(self, complex_etf_frame):
        for j, k in [(1, 2), (2, 3), (3, 4), (1, 4)]:
            sigma = Permutation.transposition(4, j, k)
            assert find_witness(complex_etf_frame, sigma) is None

    def test_complex_etf_has_three_cycle_witness(self, complex_etf_frame):
        cert = find_witness(complex_etf_frame, Permutation.cycle(4, (1, 2, 3)))
        assert cert is not None and check_certificate(complex_etf_frame, cert) <= 1e-10

    def test_deterministic_given_seed(self, example_frame):
        sigma = Permutation.transposition(4, 3, 4)
        a = find_witness(example_frame, sigma, seed=5)
        b = find_witness(example_frame, sigma, seed=5)
        assert max_abs(a.upsilon - b.upsilon) == 0.0


def reflection(projections, a, b):
    n = len(projections)
    return np.sqrt(2.0 * (n - 1) / n) * (projections[a - 1] - projections[b - 1])


def reflection_chain(projections, steps, j):
    """-V V for each consecutive pair of steps and J V for a leftover one,
    multiplied left to right from the identity."""
    factors = []
    for first, second in zip(steps[0::2], steps[1::2]):
        factors += [-reflection(projections, *first), reflection(projections, *second)]
    if len(steps) % 2:
        factors += [j, reflection(projections, *steps[-1])]
    return reduce(np.matmul, factors, np.eye(projections.shape[1], dtype=projections.dtype))


class TestClosedFormBuilder:
    """Every closed-form entry point returns the explicit product of
    reflections, equal entry for entry (the skew transposition witness,
    read from the simplex members, to 1e-12), and it clears the re-check."""

    @staticmethod
    def assert_certificate(frame, cert, want):
        assert np.array_equal(cert.upsilon, want)
        assert check_certificate(frame, cert) <= 1e-10

    @pytest.mark.parametrize("field,r,n", [(R, 2, 4), (C, 8, 8)])
    def test_alternating_witness_is_minus_v_v(self, field, r, n):
        frame = build_eitff(field, r, n)
        p = _projections(frame)
        for t1, t2 in [((1, 2), (3, 4)), ((2, 1), (3, 2)), ((1, n), (2, 3)), ((2, 4), (2, 4))]:
            (a, b), (c, d) = sorted(t1), sorted(t2)
            want = -reflection(p, a, b) @ reflection(p, c, d)
            self.assert_certificate(frame, alternating_witness(frame, t1, t2), want)

    @pytest.mark.parametrize(
        "make",
        [scalar_skew_simplex, lambda: skew_simplex(R, 8, 8), lambda: skew_simplex(C, 32, 13)],
        ids=["C1n3", "R8n8", "C32n13"],
    )
    def test_transposition_witness_is_s_v(self, make):
        """The oracle is S V_jk formed from the canonical frame's
        projection stack: the block swap of the reflection's rows."""
        simplex = make()
        n, r = simplex.n, simplex.r
        frame = frame_from_simplex(simplex)
        p = _projections(frame)
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                v = reflection(p, j, k)
                want = np.concatenate([v[r:], v[:r]])
                cert = transposition_witness(simplex, j, k)
                assert cert.sigma == Permutation.transposition(n, j, k)
                assert max_abs(cert.upsilon - want) <= 1e-12
                assert check_certificate(frame, cert) <= 1e-10

    @pytest.mark.parametrize(
        "make",
        [lambda: build_eitff(R, 8, 8), lambda: build_eitff(C, 8, 8), lambda: rotated_code(C, 16, 10, 4)],
        ids=["R8n8", "C8n8", "rotated-C16n10"],
    )
    def test_find_witness_and_probe_are_the_left_to_right_chain(self, make):
        frame = make()
        n, p = frame.n, _projections(frame)
        j = clifford_system(frame).j
        assert j is not None
        sigmas = [
            Permutation.identity(n),
            Permutation.transposition(n, 1, 2),
            Permutation.cycle(n, (1, 2, 3)),
            Permutation.cycle(n, (2, 5, 3, 1)),
            Permutation.cycle(n, range(1, n + 1)),
        ]
        for sigma in sigmas:
            want = reflection_chain(p, sigma.transpositions(), j)
            self.assert_certificate(frame, find_witness(frame, sigma), want)
        label, certs = probe_symmetry(frame)
        assert label == "total"
        assert [c.sigma for c in certs] == [Permutation.transposition(n, i, i + 1) for i in range(1, n)]
        for cert in certs:
            self.assert_certificate(frame, cert, reflection_chain(p, cert.sigma.transpositions(), j))


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
        if check_certificate(frame, SymmetryCertificate(sigma, ups)) <= tol:
            return SymmetryCertificate(sigma, ups)
    return None


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
    """Run the intertwiner search `_search` and return its result with every
    matrix it handed to `nullspace`, paired with the null-space dimension it
    got back."""
    seen = []
    solve = nullspace

    def spy(a, tol):
        basis = solve(a, tol)
        seen.append((a.array.real if a.field is R else a.array, basis.shape[1]))
        return basis

    monkeypatch.setitem(globals(), "nullspace", spy)
    return _search(frame, _projections(frame), sigma, 1e-10, 0), seen


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
    if isinstance(value, FieldTag):
        return value.value
    if isinstance(value, tuple):
        return "-".join(v.value if isinstance(v, FieldTag) else str(v) for v in value)
    return None


def loop_projections(frame):
    """Per-subspace oracle for `_projections`: one product per isometry."""
    return [a @ a.conj().T for a in frame.arrays()]


class TestProjectionStack:
    @pytest.mark.parametrize(
        "spec",
        [("code", R, 4, 6), ("code", C, 4, 8), ("rotated", R, 4, 6, 3),
         ("rotated", C, 2, 5, 4), ("orbit", R, 3, 2, 2, 7), ("orbit", C, 3, 2, 2, 8)],
        ids=case_id,
    )
    def test_matches_per_subspace_loops(self, spec):
        frame = oracle_frame(*spec)
        n, d = frame.n, frame.d
        tol = 4 * d * np.finfo(np.float64).eps
        got = _projections(frame)
        want = loop_projections(frame)
        assert got.shape == (n, d, d)
        assert got.dtype == frame.arrays().dtype
        assert max_abs(got - np.stack(want)) <= tol
        unitary = random_orthogonal(d, 5) if frame.field is R else random_unitary(d, 5)
        sigmas = [Permutation.identity(n), Permutation.cycle(n, (1, 2, 3)),
                  Permutation.transposition(n, 1, n)]
        for upsilon in (np.eye(d), unitary):
            for sigma in sigmas:
                assert abs(
                    check_certificate(frame, SymmetryCertificate(sigma, upsilon))
                    - loop_conjugation_residual(want, sigma, upsilon)
                ) <= tol


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

    @pytest.mark.parametrize(
        "spec,cycle",
        [
            (("orbit", R, 3, 2, 2, 11), (1, 2, 4)),
            (("orbit", C, 3, 2, 2, 11), (1, 2, 4)),
            # Orbit frames have r = 2 < d/2 (d = 6 above, d = 8 here); a
            # direct sum of a code of r-subspaces with a random frame has
            # d = 4r and subspaces of dimension 2r.
            (("orbit", R, 4, 2, 2, 12), (1, 2, 3, 5)),
            (("orbit", C, 4, 2, 2, 13), (2, 5)),
            (("sum", R, 2, 4, 14), (1, 2)),
            (("sum", C, 1, 4, 15), (1, 2, 3)),
        ],
        ids=case_id,
    )
    def test_equals_sum_of_block_normals(self, spec, cycle):
        frame = oracle_frame(*spec)
        n, d, r = frame.n, frame.d, frame.r
        sigma = Permutation.cycle(n, cycle)
        projections = _projections(frame)
        side = np.arange(d) < r
        block = np.equal.outer(side, side).ravel()
        compress = np.ix_(block, block)
        want = sum(a.conj().T @ a for a in kronecker_blocks(projections, sigma))
        q = projections[np.array(sigma.image) - 1]
        got = _normal_operator(projections, q, r)
        assert got.dtype == projections.dtype
        assert got.shape == ((r * r + (d - r) ** 2,) * 2)
        assert max_abs(got - want[compress]) <= 1e-12
        full = full_normal_operator(projections, sigma)
        assert max_abs(full - want) <= 1e-12
        assert max_abs(got - full[compress]) <= 1e-12

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


class TestProbe:
    def test_example_total(self, example_frame):
        label, certs = probe_symmetry(example_frame)
        assert label == "total"
        assert len(certs) == 3

    def test_complex_etf_alternating(self, complex_etf_frame):
        label, certs = probe_symmetry(complex_etf_frame)
        assert label == "alternating"
        assert all(check_certificate(complex_etf_frame, cert) <= 1e-10 for cert in certs)

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64])
    def test_generic_codes_probe_total_where_the_table_says_yes(self, field, r):
        # The existence rule names exactly the generic codes whose Clifford
        # system has a complementing J; the probe agrees where it is cheap.
        for n in range(3, rho_number(field, r) + 3):
            frame = build_eitff(field, r, n)
            answer = exists(field, r, n, total=True)[0]
            assert clifford_system(frame).total == (answer == "yes"), (field, r, n, answer)
            if r <= 8:
                label = probe_symmetry(frame)[0]
                assert (label == "total") == (answer == "yes"), (field, r, n, label, answer)

    @pytest.mark.parametrize("field", [R, C])
    def test_even_symmetry_beyond_total_symmetry(self, field):
        # n = rho + 2 = 10 at r = 8: no totally symmetric code exists, but
        # every code has all even permutations as symmetries.
        frame = build_eitff(field, 8, 10)
        assert exists(field, 8, 10, total=True)[0] == "no"
        label, certs = probe_symmetry(frame)
        assert label == "alternating"
        assert len(certs) == 8
        assert all(check_certificate(frame, cert) <= 1e-10 for cert in certs)


def rank_deficient_code(which):
    """The real code with r = 2 and n = 4, member `which` of rank 1."""
    arrays = build_eitff(R, 2, 4).arrays()
    arrays[which - 1] = np.outer(arrays[which - 1][:, 0], [1.0, 1.0])
    return FusionFrame.from_arrays(R, arrays)


def tight_lines():
    """Lines of R^2 at 0, 45, 90 and 135 degrees: tight, so sum Gamma_i = 0,
    but not equiangular, so not a code."""
    angles = np.arange(4) * np.pi / 4
    return FusionFrame.from_arrays(R, np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, :, None])


class TestRefusal:
    """Only codes with d = 2r are answered: every other frame is refused
    with `DomainError`, which names the condition that failed, and has no
    Clifford system."""

    @pytest.mark.parametrize(
        "make,cycle,reason",
        [
            pytest.param(lambda: random_subspace_frame(R, 4, 2, 4, seed=8), (1, 2),
                         "sum of Gamma_i residual", id="random-seed8"),
            pytest.param(lambda: random_subspace_frame(R, 4, 2, 4, seed=13), (1, 2, 3),
                         "sum of Gamma_i residual", id="random-seed13"),
            pytest.param(lambda: random_subspace_frame(R, 33, 2, 3, seed=1), (1, 2),
                         "d = 33 is not 2r = 4", id="large-d"),
            pytest.param(lambda: rank_deficient_code(2), (2, 4), "sum of Gamma_i residual",
                         id="rank-deficient-2"),
            pytest.param(lambda: rank_deficient_code(4), (2, 4), "sum of Gamma_i residual",
                         id="rank-deficient-4"),
            pytest.param(lambda: orbit_frame(R, 3, 2, 2, seed=7), (1, 2, 3), "d = 6 is not 2r = 4",
                         id="orbit-R"),
            pytest.param(lambda: orbit_frame(C, 3, 2, 2, seed=7), (1, 2, 3), "d = 6 is not 2r = 4",
                         id="orbit-C"),
            pytest.param(lambda: direct_sum_frame(R, 2, 4, 8), (1, 2), "sum of Gamma_i residual",
                         id="direct-sum"),
            pytest.param(lambda: naimark_complement(build_eitff(R, 8, 10)), (1, 2),
                         "d = 64 is not 2r = 16", id="complement-R8n10"),
            pytest.param(lambda: naimark_complement(build_eitff(R, 4, 5)), (1, 2),
                         "d = 12 is not 2r = 8", id="complement-R4n5"),
            pytest.param(lambda: random_subspace_frame(C, 4, 2, 2, seed=2), (1, 2), "n = 2 < 3",
                         id="n2"),
            pytest.param(tight_lines, (1, 2),
                         r"E relation bound 4.24e\+00 exceeds tol 1.00e-10 \(equi-isoclinic residual "
                         r"3.33e-01 at pair \(1, 3\), isometry residual 0.00e\+00\)$",
                         id="tight-lines"),
            pytest.param(lambda: near_code(221, 1e-6), (1, 2),
                         "sum of Gamma_i residual .* exceeds tol 1.00e-10", id="noisy-code"),
        ],
    )
    def test_non_code_refused(self, make, cycle, reason):
        frame = make()
        sigma = Permutation.cycle(frame.n, cycle)
        with pytest.raises(DomainError, match=f"^not a code: {reason}"):
            find_witness(frame, sigma)
        with pytest.raises(DomainError, match=f"^not a code: {reason}"):
            probe_symmetry(frame)
        with pytest.raises(DomainError, match=f"^not a code: {reason}"):
            clifford_system(frame)


class TestNearCode:
    """R8 n=8 with member 3 re-orthonormalized after a perturbation of
    1e-11: its E relations read 7.0e-11, and the gate bounds them by
    1.09e-9 from the equi-isoclinic residual 6.3e-11 of pair (3, 6).  So
    it is refused at `DEFAULT_TOL` and answered at 2e-9, where its
    closed-form witnesses read 2.2e-10 to 2.3e-10."""

    def test_refused_at_tol_and_answered_above_the_bound(self):
        frame = near_code(221, 1e-11)
        with pytest.raises(DomainError, match=r"^not a code: E relation bound 1.09e-09 exceeds tol "
                           r"1.00e-10 \(equi-isoclinic residual 6.32e-11 at pair \(3, 6\), "):
            clifford_system(frame)
        n = frame.n
        system = clifford_system(frame, 2e-9)
        assert (system.m, system.total) == (n - 1, True)
        label, certs = probe_symmetry(frame, 2e-9)
        assert label == "total"
        assert [c.sigma for c in certs] == [Permutation.transposition(n, i, i + 1) for i in range(1, n)]
        residuals = [check_certificate(frame, cert) for cert in certs]
        assert DEFAULT_TOL < max(residuals) <= 2e-9

    @pytest.mark.parametrize("tol,found", [(DEFAULT_TOL, False), (2e-9, True)])
    def test_find_witness_reads_the_residual(self, tol, found, monkeypatch):
        """A witness is found when its `check_certificate` residual clears
        `tol`.  No near code that passes the gate has been seen with a
        witness that misses it (witnesses read at most a quarter of the
        bound), so the system is gated at 2e-9 and then asked for `tol`."""
        frame = near_code(221, 1e-11)
        sigma = Permutation.transposition(frame.n, 1, 2)
        gated = clifford_system(frame, 2e-9)
        monkeypatch.setattr(symmetry, "clifford_system", lambda *args: gated)
        upsilon = reflection_chain(gated.projections, sigma.transpositions(), gated.j)
        assert (check_certificate(frame, SymmetryCertificate(sigma, upsilon)) <= tol) == found
        assert (find_witness(frame, sigma, tol) is not None) == found


def gamma_e(projections):
    """Oracle of the Gamma-free E: E_j = ((n-1)/n) sum_i Psi_n(j, i) Gamma_i,
    with the (n, d, d) stack of Gamma_i = 2 Pi_i - I formed whole."""
    n, d = projections.shape[:2]
    return ((n - 1) / n) * np.tensordot(simplex_matrix(n), 2.0 * projections - np.eye(d), 1)


class TestCliffordSystem:
    """`clifford_system` gates on the two identities that need no Gamma
    stack: sum_i Gamma_i = 2 (S S* - (n/2) I) and E = (2(n-1)/n) Psi_n Pi."""

    @pytest.mark.parametrize(
        "make",
        [lambda: build_eitff(R, 8, 8), lambda: build_eitff(C, 8, 9), lambda: rotated_code(C, 16, 10, 4)],
        ids=["R8n8", "C8n9", "rotated-C16n10"],
    )
    def test_gamma_free_e_and_sum(self, make):
        frame = make()
        system = clifford_system(frame)
        p, d = system.projections, frame.d
        assert np.array_equal(p, _projections(frame))
        want = gamma_e(p)
        assert max_abs(clifford_e(p) - want) <= 1e-14
        assert all(max_abs(system.j @ e + e @ system.j) <= 1e-14 for e in want)
        gamma_sum = max_abs((2.0 * p - np.eye(d)).sum(axis=0))
        assert abs(2.0 * tightness_residual(frame) - gamma_sum) <= 1e-14
        assert (system.m, system.total) == (frame.n - 1, True)

    @pytest.mark.parametrize(
        "make", [lambda: near_code(221, 1e-6), lambda: random_subspace_frame(R, 4, 2, 4, seed=8)],
        ids=["noisy-code", "random-seed8"],
    )
    def test_refusal_reads_the_gamma_sum(self, make):
        frame = make()
        gamma_sum = max_abs((2.0 * _projections(frame) - np.eye(frame.d)).sum(axis=0))
        with pytest.raises(DomainError, match=re.escape(f"sum of Gamma_i residual {gamma_sum:.2e} exceeds")):
            clifford_system(frame)

    @pytest.mark.parametrize("scale", [0.0, 1e-9, 1e-3, 1e-1])
    @pytest.mark.parametrize("field,r,n", [(R, 16, 11), (C, 8, 10), (C, 4, 8)], ids=case_id)
    def test_anticommutator_residuals_are_the_pair_residuals(self, field, r, n, scale):
        # With X_il = Gamma_i Gamma_l + Gamma_l Gamma_i + (2/(n-1)) I for
        # i != l and X_ii = 2 (Gamma_i^2 - I), every pair of isometries
        # with d = 2r has ||X_il||_F = 4 sqrt(2) ||G_il* G_il - sigma^2 I||_F,
        # sigma^2 = (n-2)/(2(n-1)), and {E_j, E_k} - 2 delta_jk I =
        # ((n-1)/n)^2 sum_il Psi_n(j, i) Psi_n(k, l) X_il: so the E
        # relations hold exactly when every pair is equi-isoclinic.  Member
        # 3 is perturbed by `scale` and re-orthonormalized.
        arrays = build_eitff(field, r, n).arrays()
        rng = np.random.default_rng(n)
        noise = rng.standard_normal(arrays[2].shape)
        if field is C:
            noise = noise + 1j * rng.standard_normal(arrays[2].shape)
        arrays[2] = np.linalg.qr(arrays[2] + scale * noise)[0]
        frame = FusionFrame.from_arrays(field, arrays)
        eye = np.eye(2 * r)
        gamma = 2.0 * _projections(frame) - eye
        x = np.einsum("iab,lbc->ilac", gamma, gamma)
        x += x.swapaxes(0, 1)
        x += (2.0 / (n - 1)) * eye
        x[range(n), range(n)] = 2.0 * (gamma @ gamma - eye)
        g = np.einsum("iab,lac->ilbc", arrays.conj(), arrays)
        pair = g.conj().swapaxes(2, 3) @ g - (n - 2) / (2.0 * (n - 1)) * np.eye(r)
        off = ~np.eye(n, dtype=bool)
        lhs = np.linalg.norm(x[off], axis=(1, 2))
        rhs = 4.0 * np.sqrt(2.0) * np.linalg.norm(pair[off], axis=(1, 2))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13
        e = gamma_e(_projections(frame))
        anti = np.einsum("jab,kbc->jkac", e, e)
        anti += anti.swapaxes(0, 1)
        anti[range(n - 1), range(n - 1)] -= 2.0 * eye
        psi = simplex_matrix(n)
        want = ((n - 1) / n) ** 2 * np.einsum("ji,kl,ilac->jkac", psi, psi, x)
        assert max_abs(anti - want) <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(field=st.sampled_from([R, C]), r=st.integers(1, 8), n=st.integers(3, 20),
           seed=st.integers(0, 2**32 - 1))
    def test_pair_identity_on_random_subspaces(self, field, r, n, seed):
        # The pair identity above needs no code: any two r-dimensional
        # subspaces of F^{2r}, here the column spans of two random
        # isometries, have ||X_il||_F = 4 sqrt(2) ||G_il* G_il - sigma^2 I||_F.
        draw = random_orthogonal if field is R else random_unitary
        phi_i, phi_l = draw(2 * r, seed)[:, :r], draw(2 * r, seed + 1)[:, :r]
        eye = np.eye(2 * r)
        gamma_i, gamma_l = (2.0 * p @ p.conj().T - eye for p in (phi_i, phi_l))
        x = gamma_i @ gamma_l + gamma_l @ gamma_i + (2.0 / (n - 1)) * eye
        g = phi_i.conj().T @ phi_l
        pair = g.conj().T @ g - (n - 2) / (2.0 * (n - 1)) * np.eye(r)
        assert abs(np.linalg.norm(x) - 4.0 * np.sqrt(2.0) * np.linalg.norm(pair)) <= 1e-12

    @pytest.mark.parametrize(
        "make", [lambda: build_eitff(R, 8, 8), lambda: rotated_code(C, 8, 9, 3)], ids=["R8n8", "rotated-C8n9"]
    )
    def test_gate_multiplies_no_generators(self, make, monkeypatch):
        # The E relations are read from verify_eitff: neither kernel of
        # relation_residual runs.
        def refuse(*args):
            raise AssertionError("relation_residual ran")

        frame = make()
        monkeypatch.setattr(linalg, "_dense_residual", refuse)
        monkeypatch.setattr(linalg, "_monomial_residual", refuse)
        assert clifford_system(frame).m == frame.n - 1

    @settings(max_examples=40, deadline=None)
    @given(field=st.sampled_from([R, C]), r=st.sampled_from([1, 2, 4, 8]), data=st.data(),
           exponent=st.floats(-12.0, -6.0), isometries=st.booleans(), tol_exponent=st.integers(-10, -4),
           seed=st.integers(0, 2**32 - 1))
    def test_gate_is_sound_on_rotated_near_codes(
        self, field, r, data, exponent, isometries, tol_exponent, seed
    ):
        # Every member of a built code is perturbed at 10^exponent, and
        # re-orthonormalized when `isometries`, then the frame is rotated
        # by a random unitary.  No E relation, formed as in
        # `symmetry._generators`, exceeds in Frobenius norm the bound the
        # gate reads from verify_eitff; so when the gate passes,
        # relation_residual(E, 0) is within tol.
        n = data.draw(st.integers(3, rho_number(field, r) + 2), label="n")
        tol = 10.0**tol_exponent
        arrays = build_eitff(field, r, n).arrays()
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(arrays.shape)
        if field is C:
            noise = noise + 1j * rng.standard_normal(arrays.shape)
        arrays = arrays + 10.0**exponent * noise
        if isometries:
            arrays = np.linalg.qr(arrays)[0]
        q = (random_orthogonal if field is R else random_unitary)(2 * r, seed)
        frame = FusionFrame.from_arrays(field, q @ arrays)
        e = clifford_e(_projections(frame))
        anti = np.einsum("jab,kbc->jkac", e, e)
        anti += anti.swapaxes(0, 1)
        anti[range(n - 1), range(n - 1)] -= 2.0 * np.eye(2 * r)
        report = verify_eitff(frame)
        eps = r * report.isometry_residual
        pairs = 4.0 * np.sqrt(2.0) * report.equiisoclinic_residual / (1.0 - eps)
        bound = (2.0 * (n - 1) / n) ** 2 * (pairs + 30.0 * eps)
        assert np.linalg.norm(anti, axis=(2, 3)).max() <= bound + 1e-13
        try:
            clifford_system(frame, tol)
        except DomainError:
            return
        assert linalg.relation_residual(e, 0.0)[0] <= tol

    def test_witness_is_the_closed_form_of_the_transpositions(self):
        frame = build_eitff(R, 4, 6)
        system = clifford_system(frame)
        assert (system.total, system.j) == (False, None)
        for sigma in [Permutation.transposition(6, 1, 2), Permutation.cycle(6, (1, 2, 3, 4))]:
            assert system.witness(sigma) is None
        sigma = Permutation.cycle(6, (2, 5, 3))
        cert = system.witness(sigma)
        want = reflection_chain(system.projections, sigma.transpositions(), None)
        assert np.array_equal(cert.upsilon, want)
        assert check_certificate(frame, cert) <= 1e-10

    def test_sigma_of_another_size_refused(self, example_frame):
        sigma = Permutation.transposition(5, 1, 2)
        with pytest.raises(ShapeError, match=r"permutation of \[1, 5\] against n=4"):
            clifford_system(example_frame).witness(sigma)
        with pytest.raises(ShapeError, match=r"permutation of \[1, 5\] against n=4"):
            find_witness(example_frame, sigma)

    def test_clifford_system_peak_is_bounded(self):
        # R128 n=18: the projection stack (9.0 MiB) and E (8.5 MiB) beside
        # verify's panels read 18.5 MiB; gating on relation_residual(E, 0),
        # one panel of a block row of E at a time, read 26.6, and forming
        # the Gamma stack and the sum of Gamma_i read 35.6.  The bound
        # leaves about 8 % over the measured peak for numpy's temporaries.
        frame = build_eitff(R, 128, 18)
        assert traced_peak(clifford_system, frame) <= 20 * 2**20

    def test_probe_peak_is_bounded(self):
        # R128 n=18: the probe measures no residual of its 16 certificates,
        # so it peaks at the Clifford system and read 18.5 MiB, the bound
        # above (26.6 with the relation_residual gate); measuring each
        # residual, one panel of subspaces at a time, read 30.5 with that
        # gate, and the whole conjugated stack read 45.0.
        frame = build_eitff(R, 128, 18)
        assert traced_peak(probe_symmetry, frame) <= 20 * 2**20

    def test_transposition_witness_peak_is_bounded(self):
        # Skew C128 n=17: the witness is read from two members and read
        # 8.1 MiB, almost all of it the skew gate's (n - 1, r, r)
        # temporaries; forming the canonical frame and its (n, d, d)
        # projection stack for S V_jk read 34.5.
        simplex = skew_simplex(C, 128, 17)
        assert traced_peak(transposition_witness, simplex, 1, 2) <= 12 * 2**20


def negated_code(field, r, n):
    """The code of the built family with one non-identity generator negated."""
    stack = build_rho_orthonormal(field, r, n - 2).array.copy()
    stack[1 if field is R else 0] *= -1
    seq = RhoOrthonormalSeq(field, r, stack)
    return frame_from_simplex(rho_simplex_from_orthonormal(seq))


def block_sum(*frames):
    """Subspaces U_i (+) U'_i (+) ... of codes with one n: a code with
    d = 2r again, whose Clifford module is the sum of theirs."""
    stacks = [f.arrays() for f in frames]
    n, d, r = stacks[0].shape
    out = np.zeros((n, len(stacks) * d, len(stacks) * r), dtype=np.result_type(*stacks))
    for k, a in enumerate(stacks):
        out[:, k * d : (k + 1) * d, k * r : (k + 1) * r] = a
    return FusionFrame.from_arrays(frames[0].field, out)


GENERIC_CODES = [
    (field, r, n)
    for field in (R, C)
    for r in (1, 2, 4, 8)
    for n in range(3, rho_number(field, r) + 3)
]

# (field, r, n, copies of the code, copies of its negated twin); all d <= 32.
MIXED_SUMS = [
    (R, 4, 6, 1, 1), (R, 4, 6, 2, 0), (R, 8, 10, 1, 1), (R, 8, 10, 2, 0),
    (R, 2, 4, 1, 1), (R, 4, 4, 1, 1), (C, 1, 4, 1, 1), (C, 1, 4, 2, 0),
    (C, 1, 4, 2, 1), (C, 2, 6, 1, 1), (C, 2, 6, 2, 1), (C, 4, 8, 1, 1),
    (C, 4, 8, 2, 0), (C, 8, 10, 1, 1), (C, 2, 4, 1, 1),
]


class TestClosedFormOracle:
    """On codes, `find_witness` and `probe_symmetry` answer in closed form;
    the intertwiner search `_search` above is their oracle."""

    def check_against_search(self, frame):
        n = frame.n
        projections = _projections(frame)
        generators = [Permutation.transposition(n, i, i + 1) for i in range(1, n)]
        generators += [Permutation.cycle(n, (i, i + 1, i + 2)) for i in range(1, n - 1)]
        oracle = [_search(frame, projections, g, 1e-10, 0) is not None for g in generators]
        label, certs = probe_symmetry(frame)
        found = [find_witness(frame, g) for g in generators]
        assert [cert is not None for cert in found] == oracle
        for cert in found + certs:
            if cert is not None:
                assert check_certificate(frame, cert) <= 1e-10
        total = all(oracle[: n - 1])
        assert all(oracle[n - 1 :])
        assert label == ("total" if total else "alternating")
        system = clifford_system(frame)
        assert (system.m, system.total, system.j is not None) == (n - 1, total, total)
        assert total == (system.m % 2 == 0 or system.trace <= 1e-8)
        want = generators[: n - 1] if total else generators[n - 1 :]
        assert [cert.sigma for cert in certs] == want
        return label

    @pytest.mark.parametrize("field,r,n", GENERIC_CODES, ids=case_id)
    @pytest.mark.parametrize("rotated", [False, True])
    def test_generic_codes(self, field, r, n, rotated):
        frame = rotated_code(field, r, n, seed=n) if rotated else build_eitff(field, r, n)
        label = self.check_against_search(frame)
        answer = exists(field, r, n, total=True)[0]
        assert (label == "total") == (answer == "yes")

    @pytest.mark.parametrize("field,r,n,plain,twin", MIXED_SUMS, ids=case_id)
    def test_mixed_module_sums(self, field, r, n, plain, twin):
        parts = [build_eitff(field, r, n)] * plain + [negated_code(field, r, n)] * twin
        frame = block_sum(*parts)
        d = frame.d
        q = random_orthogonal(d, d) if field is R else random_unitary(d, d)
        rotated = FusionFrame.from_arrays(field, q @ frame.arrays())
        assert d <= 32
        self.check_against_search(rotated)

    def test_transpositions_decompose_sigma(self):
        rng = np.random.default_rng(3)
        for n in range(1, 8):
            for _ in range(20):
                sigma = Permutation(n, tuple(rng.permutation(n) + 1))
                steps = sigma.transpositions()
                product = Permutation.identity(n)
                for a, b in steps:
                    assert a < b
                    product = product.compose(Permutation.transposition(n, a, b))
                assert product == sigma
                cycles = len({frozenset(c) for c in _cycles(sigma)})
                assert len(steps) == n - cycles

    def test_odd_witness_none_is_a_proof(self):
        # R4 n=6 has no transposition witness: m = 5 is odd and tr omega != 0.
        frame = build_eitff(R, 4, 6)
        assert find_witness(frame, Permutation.transposition(6, 1, 2)) is None
        assert find_witness(frame, Permutation.cycle(6, (1, 2, 3, 4))) is None
        cert = find_witness(frame, Permutation.cycle(6, (1, 2, 3, 4, 5)))
        assert check_certificate(frame, cert) <= 1e-10

    @pytest.mark.parametrize(
        "field,r,n,total", [(C, 32, 13, True), (C, 32, 14, False), (R, 64, 14, False)], ids=case_id
    )
    def test_past_the_search_cap(self, field, r, n, total):
        # d = 64 and 128, past the oracle search's d <= 32 limit; R64 n=14
        # is the c = 2 case of `exists(..., total=True)`.
        frame = build_eitff(field, r, n)
        assert clifford_system(frame).total is total
        sigma = Permutation.transposition(n, 1, n)
        cert = find_witness(frame, sigma)
        assert (cert is not None) is total
        label, certs = probe_symmetry(frame)
        assert label == ("total" if total else "alternating")
        for c in ([cert] if cert else []) + certs:
            assert check_certificate(frame, c) <= 1e-10


class TestBasisInvariance:
    @settings(max_examples=50, deadline=None)
    @given(code=st.sampled_from(GENERIC_CODES), seed=st.integers(0, 2**32 - 1))
    def test_rule_and_label_under_a_unitary_change_of_basis(self, code, seed):
        field, r, n = code
        frame = build_eitff(field, r, n)
        q = random_orthogonal(2 * r, seed) if field is R else random_unitary(2 * r, seed)
        rotated = FusionFrame.from_arrays(field, q @ frame.arrays())
        system, system_rot = clifford_system(frame), clifford_system(rotated)
        assert (system_rot.m, system_rot.total) == (system.m, system.total)
        assert abs(system_rot.trace - system.trace) <= 1e-8
        assert probe_symmetry(rotated)[0] == probe_symmetry(frame)[0]

    @settings(max_examples=50, deadline=None)
    @given(code=st.sampled_from(GENERIC_CODES), seed=st.integers(0, 2**32 - 1))
    def test_certificates_transfer_through_conjugation(self, code, seed):
        """(sigma, Upsilon) on Phi gives (sigma, Q Upsilon Q*) on Q Phi,
        with the same residual, for every generator certificate of the probe."""
        field, r, n = code
        frame = build_eitff(field, r, n)
        q = random_orthogonal(2 * r, seed) if field is R else random_unitary(2 * r, seed)
        rotated = FusionFrame.from_arrays(field, q @ frame.arrays())
        for cert in probe_symmetry(frame)[1]:
            moved = SymmetryCertificate(cert.sigma, q @ cert.upsilon @ q.conj().T)
            assert abs(check_certificate(rotated, moved) - check_certificate(frame, cert)) <= 1e-12


def _cycles(sigma):
    """The orbits of sigma on [1, n], one per point."""
    orbits = []
    for start in range(1, sigma.n + 1):
        orbit, i = {start}, sigma.apply(start)
        while i != start:
            orbit.add(i)
            i = sigma.apply(i)
        orbits.append(orbit)
    return orbits


class TestCompositionAndTransfer:
    def test_certificates_compose(self, example_frame):
        c1 = find_witness(example_frame, Permutation.transposition(4, 1, 2))
        c2 = find_witness(example_frame, Permutation.transposition(4, 2, 3))
        sigma = c1.sigma.compose(c2.sigma)
        combined = SymmetryCertificate(sigma, c1.upsilon @ c2.upsilon)
        eps = max(check_certificate(example_frame, c) for c in (c1, c2))
        assert check_certificate(example_frame, combined) <= 2 * eps + 1e-12

    def test_witness_transfers_to_complement(self, example_frame):
        sigma = Permutation.transposition(4, 2, 3)
        original = find_witness(example_frame, sigma)
        comp = naimark_complement(example_frame)
        transferred = find_witness(comp, sigma)
        assert transferred is not None
        floor = max(check_certificate(example_frame, original), 1e-12)
        assert check_certificate(comp, transferred) <= 10 * floor


class TestOneResidual:
    """A certificate is (sigma, Upsilon).  Its conjugation residual is
    measured only where it is read, by `check_certificate`, the one reader."""

    def test_certificate_is_sigma_and_upsilon(self):
        assert [f.name for f in dataclasses.fields(SymmetryCertificate)] == ["sigma", "upsilon"]

    @pytest.mark.parametrize("field", [R, C])
    def test_only_find_witness_measures_a_residual(self, monkeypatch, field):
        calls, kernel = [], symmetry.check_certificate
        monkeypatch.setattr(symmetry, "check_certificate", lambda *a: calls.append(a) or kernel(*a))
        frame, simplex = build_eitff(field, 8, 8), skew_simplex(field, 8, 8)
        system = clifford_system(frame)
        sigma = Permutation.transposition(8, 1, 2)
        runs = {
            "probe_symmetry": lambda: probe_symmetry(frame),
            "CliffordSystem.witness": lambda: system.witness(sigma),
            "alternating_witness": lambda: alternating_witness(frame, (1, 2), (2, 3)),
            "transposition_witness": lambda: transposition_witness(simplex, 1, 2),
            "find_witness": lambda: find_witness(frame, sigma),
        }
        counts = {}
        for name, call in runs.items():
            before = len(calls)
            assert call() is not None
            counts[name] = len(calls) - before
        assert counts == {name: int(name == "find_witness") for name in runs}
