import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitff.errors import DomainError, InfeasibleParametersError, InvalidInputError
from eitff.frames import (
    FusionFrame,
    block_coherence,
    block_omp_recover,
    build_eitff,
    canonicalize,
    eitff_params,
    frame_from_simplex,
    gerzon_bound,
    naimark_complement,
    principal_angles,
    spectral_distance,
    verify_eitff,
    welch_bound,
)
from eitff.linalg import FieldTag, Mat, max_abs
from eitff.radon_hurwitz import GEN, rho_number
from eitff.simplex import verify_rho_simplex

from conftest import random_subspace_frame, random_orthogonal, random_unitary

R, C = FieldTag.REAL, FieldTag.COMPLEX


def reference_report(frame):
    """Per-pair reference for verify_eitff: one cross-Gram and one SVD
    per pair of subspaces."""
    arrs = frame.arrays()
    d, r, n = frame.d, frame.r, frame.n
    eye_r = np.eye(r)
    sigma2 = (n * r - d) / (d * (n - 1))
    equi = coherence = 0.0
    identical = False
    for i in range(n):
        for j in range(i + 1, n):
            g = arrs[i].conj().T @ arrs[j]
            equi = max(
                equi,
                max_abs(g @ g.conj().T - sigma2 * eye_r),
                max_abs(g.conj().T @ g - sigma2 * eye_r),
            )
            s = np.linalg.svd(g, compute_uv=False)
            coherence = max(coherence, float(s[0]))
            identical = identical or float(s[-1]) >= 1.0 - 1e-8
    return {
        "isometry_residual": max(max_abs(a.conj().T @ a - eye_r) for a in arrs),
        "tightness_residual": max_abs(
            sum(a @ a.conj().T for a in arrs) - (n * r / d) * np.eye(d)
        ),
        "equiisoclinic_residual": equi,
        "welch_gap": coherence - welch_bound(d, r, n),
        "block_coherence": coherence,
        "gerzon_ok": identical or n <= gerzon_bound(frame.field, d, r),
    }


def reference_angles(frame):
    arrs = frame.arrays()
    return {
        (i + 1, j + 1): np.arccos(
            np.clip(np.linalg.svd(arrs[i].conj().T @ arrs[j], compute_uv=False), 0.0, 1.0)
        )
        for i in range(frame.n)
        for j in range(frame.n)
        if i != j
    }


def perturbed(frame, scale, seed):
    rng = np.random.default_rng(seed)
    isos = []
    for a in frame.arrays():
        noise = rng.standard_normal(a.shape)
        if frame.field is C:
            noise = noise + 1j * rng.standard_normal(a.shape)
        isos.append(Mat(frame.field, a + scale * noise))
    return FusionFrame(frame.field, frame.d, frame.r, frame.n, tuple(isos))


def with_duplicate(frame, k):
    """The frame with its k-th subspace (1-indexed) appended once more."""
    isos = frame.isometries + (frame.isometries[k - 1],)
    return FusionFrame(frame.field, frame.d, frame.r, frame.n + 1, isos)


def lines_frame(degrees):
    """Lines in R^2 at the given angles, as 2x1 isometries."""
    isos = tuple(
        Mat.from_real([[math.cos(math.radians(t))], [math.sin(math.radians(t))]])
        for t in degrees
    )
    return FusionFrame(R, 2, 1, len(isos), isos)


ORACLE_FRAMES = {
    "R2n4": lambda: build_eitff(R, 2, 4),
    "C2n6": lambda: build_eitff(C, 2, 6),
    "R8n10": lambda: build_eitff(R, 8, 10),
    "C4n7-skew": lambda: build_eitff(C, 4, 7, "skew"),
    "R16n11": lambda: build_eitff(R, 16, 11),
    "R4n6-noisy": lambda: perturbed(build_eitff(R, 4, 6), 1e-6, 1),
    "C4n8-noisy": lambda: perturbed(build_eitff(C, 4, 8), 1e-4, 2),
    "R4n6-random": lambda: random_subspace_frame(R, 8, 4, 6, seed=3),
    "C2n5-random": lambda: random_subspace_frame(C, 4, 2, 5, seed=4),
    "R2n4-duplicate": lambda: with_duplicate(build_eitff(R, 2, 4), 2),
    "C2n6-duplicate": lambda: with_duplicate(build_eitff(C, 2, 6), 6),
    "lines-duplicate": lambda: lines_frame([0, 60, 120, 0]),
    "lines-no-duplicate": lambda: lines_frame([0, 45, 90, 135]),
}


def orthogonal_blocks_frame(field, r, n):
    """n mutually orthogonal subspaces: slices of the identity."""
    eye = np.eye(n * r)
    isos = tuple(Mat(field, eye[:, i * r : (i + 1) * r]) for i in range(n))
    return FusionFrame(field, n * r, r, n, isos)


class TestParams:
    def test_n4(self):
        p = eitff_params(4)
        assert abs(p.alpha - 1 / math.sqrt(3)) <= 1e-15
        assert abs(p.beta - math.sqrt(2) / math.sqrt(3)) <= 1e-15
        assert p.sigma == p.alpha

    def test_n3(self):
        p = eitff_params(3)
        assert abs(p.alpha - 0.5) <= 1e-15
        assert abs(p.beta - math.sqrt(3) / 2) <= 1e-15

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            eitff_params(2)

    @given(st.integers(min_value=3, max_value=500))
    def test_pythagorean_identity(self, n):
        p = eitff_params(n)
        assert abs(p.alpha**2 + p.beta**2 - 1.0) <= 1e-15


class TestBuild:
    def test_real_r2_n4_exact_entries(self, example_frame):
        a = 1 / math.sqrt(3)
        b = math.sqrt(2) / math.sqrt(3)
        c = 1 / math.sqrt(6)
        d = 1 / math.sqrt(2)
        eye = np.eye(2)
        rmat = GEN.R.array.real
        expected = [
            np.vstack([a * eye, b * eye]),
            np.vstack([a * eye, -c * eye + d * rmat]),
            np.vstack([a * eye, -c * eye - d * rmat]),
            np.vstack([eye, np.zeros((2, 2))]),
        ]
        for phi, want in zip(example_frame.isometries, expected):
            assert max_abs(phi.array - want) <= 1e-12

    def test_complex_etf_sigma(self, complex_etf_frame):
        report = verify_eitff(complex_etf_frame)
        assert report.passed
        # equal cross-Gram magnitude sigma^2 = 1/3 for (d, r, n) = (2, 1, 4)
        arrs = complex_etf_frame.arrays()
        for i in range(4):
            for j in range(i + 1, 4):
                val = abs((arrs[i].conj().T @ arrs[j])[0, 0]) ** 2
                assert abs(val - 1 / 3) <= 1e-12

    def test_infeasible_r2_n5(self):
        with pytest.raises(InfeasibleParametersError) as err:
            build_eitff(R, 2, 5)
        assert err.value.bound == "n <= rho+2"

    def test_skew_variant_members_are_skew(self):
        frame = build_eitff(C, 2, 5, "skew")
        p = eitff_params(5)
        for phi in frame.isometries[:-1]:
            b = phi.array[2:] / p.beta
            assert max_abs(b + b.conj().T) <= 1e-12
        assert verify_eitff(frame).passed

    def test_skew_bound_is_tighter(self):
        with pytest.raises(InfeasibleParametersError):
            build_eitff(C, 2, 6, "skew")

    def test_totally_symmetric_variant(self):
        frame = build_eitff(R, 2, 4, "totally_symmetric")
        assert verify_eitff(frame).passed
        frame3 = build_eitff(R, 3, 3, "totally_symmetric")
        assert verify_eitff(frame3).passed

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            build_eitff(R, 2, 4, "fancy")

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 6, 8, 16, 32])
    def test_feasible_range_verifies(self, field, r):
        rho = rho_number(field, r)
        for n in range(3, rho + 3):
            report = verify_eitff(build_eitff(field, r, n))
            assert report.tightness_residual <= 1e-10
            assert report.equiisoclinic_residual <= 1e-10
            assert report.welch_gap <= 1e-10
            assert report.passed


class TestCanonicalize:
    def test_canonical_input_unchanged(self, example_frame):
        canon, simplex = canonicalize(example_frame)
        for a, b in zip(example_frame.isometries, canon.isometries):
            assert max_abs(a.array - b.array) <= 1e-12
        p = eitff_params(4)
        for phi, b in zip(example_frame.isometries, simplex.mats):
            assert max_abs(phi.array[2:] / p.beta - b.array) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_rotated_frame_recovers_canonical_form(self, example_frame, seed):
        q = random_orthogonal(4, seed=seed)
        rng = np.random.default_rng(seed + 100)
        rotated = []
        for phi in example_frame.isometries:
            z, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            rotated.append(Mat(R, q @ phi.array.real @ z))
        frame = FusionFrame(R, 4, 2, 4, tuple(rotated))
        canon, simplex = canonicalize(frame)
        assert verify_eitff(canon, 1e-9).passed
        assert verify_rho_simplex(simplex) <= 1e-9
        p = eitff_params(4)
        for phi in canon.isometries[:-1]:
            assert max_abs(phi.array[:2] - p.alpha * np.eye(2)) <= 1e-12

    def test_canonical_frame_is_equivalent_to_input(self, example_frame):
        from eitff.frames import _complete_unitary

        q = random_orthogonal(4, seed=21)
        frame = FusionFrame(
            R, 4, 2, 4,
            tuple(Mat(R, q @ p.array.real) for p in example_frame.isometries),
        )
        canon, _ = canonicalize(frame)
        ups = _complete_unitary(frame.arrays()[-1])
        for orig, new in zip(frame.arrays(), canon.arrays()):
            pi_orig = orig @ orig.conj().T
            pi_new = new @ new.conj().T
            assert max_abs(ups @ pi_new @ ups.conj().T - pi_orig) <= 1e-12

    def test_complex_frame_roundtrip(self):
        frame = build_eitff(C, 2, 6)
        q = random_unitary(4, seed=9)
        rotated = FusionFrame(
            C, 4, 2, 6, tuple(Mat(C, q @ p.array) for p in frame.isometries)
        )
        canon, simplex = canonicalize(rotated)
        assert verify_eitff(canon, 1e-9).passed
        assert verify_rho_simplex(simplex) <= 1e-9

    def test_noisy_frame_rejected(self, example_frame):
        rng = np.random.default_rng(0)
        noisy = tuple(
            Mat(R, phi.array.real + 1e-3 * rng.standard_normal((4, 2)))
            for phi in example_frame.isometries
        )
        with pytest.raises(InvalidInputError):
            canonicalize(FusionFrame(R, 4, 2, 4, noisy))

    def test_wrong_shape_rejected(self):
        frame = orthogonal_blocks_frame(R, 2, 3)
        with pytest.raises(DomainError):
            canonicalize(frame)


class TestCoherenceAndBounds:
    def test_example_coherence(self, example_frame):
        assert abs(block_coherence(example_frame) - 1 / math.sqrt(3)) <= 1e-12

    def test_orthogonal_blocks_zero(self):
        assert block_coherence(orthogonal_blocks_frame(R, 2, 3)) == 0.0

    def test_duplicated_subspace_one(self):
        phi = Mat.from_real(np.vstack([np.eye(2), np.zeros((2, 2))]))
        frame = FusionFrame(R, 4, 2, 2, (phi, phi))
        assert abs(block_coherence(frame) - 1.0) <= 1e-12

    def test_cross_gram_of_displayed_isometries(self):
        # Entries read off the explicit 4x2 display: the cross-Gram of the
        # first two isometries has both singular values equal to 1/sqrt(3).
        a = math.sqrt(1 / 3)
        b = math.sqrt(2 / 3)
        phi1 = np.vstack([a * np.eye(2), b * np.eye(2)])
        low = -np.eye(2) / math.sqrt(6) + GEN.R.working() / math.sqrt(2)
        phi2 = np.vstack([a * np.eye(2), low])
        s = np.linalg.svd(phi1.T @ phi2, compute_uv=False)
        assert np.max(np.abs(s - a)) <= 1e-12

    def test_welch_values(self):
        assert abs(welch_bound(4, 2, 4) - math.sqrt(1 / 3)) <= 1e-15
        assert welch_bound(8, 2, 4) == 0.0
        assert welch_bound(3, 3, 5) == 1.0
        with pytest.raises(DomainError):
            welch_bound(8, 1, 4)
        with pytest.raises(DomainError):
            welch_bound(2, 2, 1)

    def test_gerzon_bounds(self):
        assert gerzon_bound(R, 4, 2) == 8
        for r in (1, 2, 3):
            assert gerzon_bound(C, 2 * r, r) == 3 * r * r + 1


class TestAngles:
    def test_example_angles(self, example_frame):
        table = principal_angles(example_frame)
        want = math.acos(1 / math.sqrt(3))
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    assert np.max(np.abs(table.pair(i, j) - want)) <= 1e-12

    def test_built_frames_have_constant_angles(self):
        for field, r, n in [(C, 2, 6), (R, 4, 6)]:
            frame = build_eitff(field, r, n)
            table = principal_angles(frame)
            want = math.acos(math.sqrt((n - 2) / (2 * n - 2)))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        assert np.max(np.abs(table.pair(i, j) - want)) <= 1e-9

    def test_identical_subspaces_zero_angles(self):
        phi = Mat.from_real(np.vstack([np.eye(2), np.zeros((2, 2))]))
        frame = FusionFrame(R, 4, 2, 2, (phi, phi))
        assert np.max(principal_angles(frame).pair(1, 2)) <= 1e-12

    def test_orthogonal_subspaces_right_angles(self):
        frame = orthogonal_blocks_frame(R, 2, 3)
        assert np.max(np.abs(principal_angles(frame).pair(1, 2) - math.pi / 2)) <= 1e-12

    def test_spectral_distance(self, example_frame):
        assert abs(spectral_distance(example_frame, 1, 2) - math.sqrt(2 / 3)) <= 1e-12
        ortho = orthogonal_blocks_frame(R, 2, 3)
        assert spectral_distance(ortho, 1, 3) == 1.0
        phi = Mat.from_real(np.vstack([np.eye(2), np.zeros((2, 2))]))
        dup = FusionFrame(R, 4, 2, 2, (phi, phi))
        assert spectral_distance(dup, 1, 2) <= 1e-8
        with pytest.raises(DomainError):
            spectral_distance(example_frame, 2, 2)


class TestVerify:
    def test_example_report(self, example_frame):
        report = verify_eitff(example_frame)
        assert report.isometry_residual <= 1e-12
        assert report.tightness_residual <= 1e-12
        assert report.equiisoclinic_residual <= 1e-12
        assert report.welch_gap <= 1e-12
        assert report.gerzon_ok
        assert report.passed

    def test_random_subspaces_fail(self):
        frame = random_subspace_frame(R, 4, 2, 4, seed=11)
        report = verify_eitff(frame)
        assert report.equiisoclinic_residual > 1e-3
        assert not report.passed

    def test_welch_equality_chain(self):
        # passing tightness + equi-isoclinism forces a vanishing Welch gap
        for field, r, n in [(R, 2, 4), (C, 2, 6), (C, 4, 8), (R, 4, 6)]:
            report = verify_eitff(build_eitff(field, r, n))
            assert report.passed
            assert report.welch_gap <= 1e-10
        bad = random_subspace_frame(C, 4, 2, 4, seed=5)
        report = verify_eitff(bad)
        assert report.welch_gap > 1e-6

    def test_identical_subspaces_skip_dimension_count(self):
        # three copies of the whole space: fine as a tight frame even though
        # the nonidentical-subspace count bound would read 1
        phi = Mat.identity(2)
        frame = FusionFrame(R, 2, 2, 3, (phi, phi, phi))
        report = verify_eitff(frame)
        assert report.gerzon_ok
        assert report.passed


class TestVerifyAgainstReference:
    @pytest.mark.parametrize("name", sorted(ORACLE_FRAMES))
    def test_report_matches_pairwise_reference(self, name):
        frame = ORACLE_FRAMES[name]()
        report = verify_eitff(frame)
        want = reference_report(frame)
        assert report.gerzon_ok == want["gerzon_ok"]
        for key, value in want.items():
            if key != "gerzon_ok":
                assert abs(getattr(report, key) - value) <= 1e-12, key
        assert abs(block_coherence(frame) - want["block_coherence"]) <= 1e-12
        if name.endswith(("-noisy", "-random")):
            assert not report.passed

    @pytest.mark.parametrize("name", sorted(ORACLE_FRAMES))
    def test_angles_match_pairwise_reference(self, name):
        frame = ORACLE_FRAMES[name]()
        got = principal_angles(frame).angles
        want = reference_angles(frame)
        assert got.keys() == want.keys()
        for pair, theta in want.items():
            assert np.max(np.abs(got[pair] - theta)) <= 1e-12, pair

    def test_identical_pair_decides_dimension_count(self):
        # Four lines in R^2 exceed the count bound of 3 for nonidentical
        # lines; only the repeated line keeps the check vacuous.
        assert gerzon_bound(R, 2, 1) == 3
        assert verify_eitff(lines_frame([0, 60, 120, 0])).gerzon_ok
        assert not verify_eitff(lines_frame([0, 45, 90, 135])).gerzon_ok

    @given(
        field=st.sampled_from([R, C]),
        r=st.sampled_from([2, 4, 8]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_unitary_change_of_basis(self, field, r, seed, data):
        n = data.draw(st.integers(min_value=3, max_value=rho_number(field, r) + 2))
        frame = build_eitff(field, r, n)
        q = random_orthogonal(2 * r, seed) if field is R else random_unitary(2 * r, seed)
        rotated = FusionFrame(
            field, 2 * r, r, n, tuple(Mat(field, q @ a) for a in frame.arrays())
        )
        report = verify_eitff(rotated)
        assert report.passed
        residuals = (
            report.isometry_residual,
            report.tightness_residual,
            report.equiisoclinic_residual,
            abs(report.welch_gap),
        )
        assert max(residuals) <= 1e-10


class TestNaimark:
    def test_complement_of_r2_n4(self, example_frame):
        comp = naimark_complement(example_frame)
        assert (comp.d, comp.r, comp.n) == (4, 2, 4)
        assert verify_eitff(comp, 1e-9).passed
        a0, a1 = example_frame.arrays(), comp.arrays()
        for i in range(4):
            for j in range(4):
                if i != j:
                    g0 = a0[i].conj().T @ a0[j]
                    g1 = a1[i].conj().T @ a1[j]
                    assert max_abs(g1 + g0) <= 1e-10

    @pytest.mark.parametrize("field,r,n", [(R, 4, 5), (C, 4, 5), (R, 4, 6), (C, 4, 6)])
    def test_complement_dimensions_and_verification(self, field, r, n):
        frame = build_eitff(field, r, n)
        comp = naimark_complement(frame)
        assert (comp.d, comp.r, comp.n) == ((n - 2) * r, r, n)
        assert verify_eitff(comp, 1e-9).passed
        scale = frame.d / (n * r - frame.d)
        a0, a1 = frame.arrays(), comp.arrays()
        g0 = a0[0].conj().T @ a0[1]
        g1 = a1[0].conj().T @ a1[1]
        assert max_abs(g1 + scale * g0) <= 1e-10

    def test_trivial_complement_full_spaces(self):
        frame = build_eitff(R, 3, 3)
        comp = naimark_complement(frame)
        assert (comp.d, comp.r, comp.n) == (3, 3, 3)
        for phi in comp.isometries:
            assert max_abs(phi.array.conj().T @ phi.array - np.eye(3)) <= 1e-12
        assert verify_eitff(comp, 1e-9).passed

    def test_double_complement_equivalent(self, example_frame):
        comp2 = naimark_complement(naimark_complement(example_frame))
        canon, _ = canonicalize(comp2)
        assert verify_eitff(canon, 1e-9).passed
        # same invariants as the original
        assert abs(block_coherence(comp2) - block_coherence(example_frame)) <= 1e-10

    def test_rejects_untight_input(self):
        frame = random_subspace_frame(R, 4, 2, 4, seed=2)
        with pytest.raises(InvalidInputError):
            naimark_complement(frame)

    def test_rejects_square_synthesis(self):
        # nr = d leaves no room for a complement
        frame = orthogonal_blocks_frame(R, 2, 3)
        with pytest.raises(DomainError):
            naimark_complement(frame)


class TestBlockOmp:
    def test_single_block_recovery(self, example_frame):
        x = np.array([0.3, -1.2])
        y = example_frame.arrays()[1] @ x
        result = block_omp_recover(example_frame, y, 1)
        assert len(result) == 1
        idx, coeffs = result[0]
        assert idx == 2
        assert np.max(np.abs(coeffs - x)) <= 1e-12
        mu = block_coherence(example_frame)
        assert 1 < (1 / mu + 1) / 2

    def test_orthogonal_dictionary_recovers_everything(self):
        frame = orthogonal_blocks_frame(R, 2, 4)
        rng = np.random.default_rng(1)
        planted = {1: rng.standard_normal(2), 3: rng.standard_normal(2)}
        y = sum(frame.arrays()[i - 1] @ v for i, v in planted.items())
        result = dict(block_omp_recover(frame, y, 4))
        for i, v in planted.items():
            assert np.max(np.abs(result[i] - v)) <= 1e-12
        for i, v in result.items():
            if i not in planted:
                assert np.max(np.abs(v)) <= 1e-12

    def test_guarantee_threshold_for_two_blocks(self, example_frame):
        mu = block_coherence(example_frame)
        assert 2 >= (1 / mu + 1) / 2  # two active blocks exceed the guarantee

    def test_complex_dictionary(self, complex_etf_frame):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        y = complex_etf_frame.arrays()[2] @ x
        idx, coeffs = block_omp_recover(complex_etf_frame, y, 1)[0]
        assert idx == 3
        assert np.max(np.abs(coeffs - x)) <= 1e-12

    def test_rejects_bad_sparsity(self, example_frame):
        with pytest.raises(DomainError):
            block_omp_recover(example_frame, np.zeros(4), 0)
