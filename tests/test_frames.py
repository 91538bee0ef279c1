import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitff import linalg
from eitff.errors import DomainError, InfeasibleParametersError, InvalidInputError
from eitff.frames import (
    _OMP_TIE_RTOL,
    FusionFrame,
    block_omp_recover,
    build_eitff,
    canonicalize,
    eitff_params,
    frame_from_simplex,
    gerzon_bound,
    naimark_complement,
    principal_angles,
    tightness_residual,
    verify_eitff,
    welch_bound,
)
from eitff.linalg import DEFAULT_TOL, FieldTag, Mat, max_abs
from eitff.radon_hurwitz import GEN, exists, rho_number
from eitff.simplex import verify_rho_simplex

from conftest import random_orthogonal, random_subspace_frame, random_unitary, traced_peak

R, C = FieldTag.REAL, FieldTag.COMPLEX


def block_coherence(frame):
    """Reference coherence: the largest singular value of any cross-Gram
    Phi_i* Phi_j, from one batched SVD per block row."""
    arrs = frame.arrays()
    return max(
        float(np.linalg.svd(arrs[i].conj().T @ arrs[i + 1 :], compute_uv=False).max())
        for i in range(frame.n - 1)
    )


def sigma_squared(frame):
    d, r, n = frame.d, frame.r, frame.n
    return (n * r - d) / (d * (n - 1))


def cross_grams(frame):
    """(i, j, Phi_i* Phi_j) for every pair i < j, 1-indexed."""
    arrs = frame.arrays()
    for i in range(frame.n):
        for j in range(i + 1, frame.n):
            yield i + 1, j + 1, arrs[i].conj().T @ arrs[j]


def pair_residual(frame, i, j):
    """Reference s_ij = ||g* g - sigma^2 I||_F of the 1-indexed pair (i, j)."""
    arrs = frame.arrays()
    g = arrs[i - 1].conj().T @ arrs[j - 1]
    return float(np.linalg.norm(g.conj().T @ g - sigma_squared(frame) * np.eye(frame.r)))


def equiisoclinic_reference(frame, entrywise=False):
    """The equi-isoclinic residual, the largest ||g* g - sigma^2 I||_F over
    the cross-Grams g, and the first pair where it occurs.  With
    `entrywise`, the residual verify_eitff used to report instead: the
    largest entry of |g g* - sigma^2 I| and |g* g - sigma^2 I|."""
    eye_r, sigma2 = np.eye(frame.r), sigma_squared(frame)
    worst, where = 0.0, (1, 2)
    for i, j, g in cross_grams(frame):
        if entrywise:
            res = max(max_abs(g @ g.conj().T - sigma2 * eye_r), max_abs(g.conj().T @ g - sigma2 * eye_r))
        else:
            res = float(np.linalg.norm(g.conj().T @ g - sigma2 * eye_r))
        if res > worst:
            worst, where = res, (i, j)
    return worst, where


def reference_report(frame):
    """Per-pair reference for verify_eitff: one cross-Gram and one SVD
    per pair of subspaces."""
    arrs = frame.arrays()
    d, r, n = frame.d, frame.r, frame.n
    eye_r = np.eye(r)
    coherence = 0.0
    identical = False
    for _, _, g in cross_grams(frame):
        s = np.linalg.svd(g, compute_uv=False)
        coherence = max(coherence, float(s[0]))
        identical = identical or float(s[-1]) >= 1.0 - 1e-8
    return {
        "isometry_residual": max(max_abs(a.conj().T @ a - eye_r) for a in arrs),
        "tightness_residual": max_abs(
            sum(a @ a.conj().T for a in arrs) - (n * r / d) * np.eye(d)
        ),
        "equiisoclinic_residual": equiisoclinic_reference(frame)[0],
        "welch_gap": coherence - welch_bound(d, r, n),
        "block_coherence": coherence,
        "gerzon_ok": identical or n <= gerzon_bound(frame.field, d, r),
    }


def reference_angles(frame):
    """One SVD per ordered pair; zero on the diagonal."""
    arrs = frame.arrays()
    angles = np.zeros((frame.n, frame.n, frame.r))
    for i in range(frame.n):
        for j in range(frame.n):
            if i != j:
                s = np.linalg.svd(arrs[i].conj().T @ arrs[j], compute_uv=False)
                angles[i, j] = np.arccos(np.clip(s, 0.0, 1.0))
    return angles


def perturbed(frame, scale, seed):
    rng = np.random.default_rng(seed)
    isos = []
    for a in frame.arrays():
        noise = rng.standard_normal(a.shape)
        if frame.field is C:
            noise = noise + 1j * rng.standard_normal(a.shape)
        isos.append(a + scale * noise)
    return FusionFrame.from_arrays(frame.field, isos)


def with_duplicate(frame, k):
    """The frame with its k-th subspace (1-indexed) appended once more."""
    arrs = frame.arrays()
    return FusionFrame.from_arrays(frame.field, np.concatenate([arrs, arrs[k - 1 : k]]))


def with_random_member(frame, k, seed):
    """The frame with its k-th isometry (1-indexed) spanning a random subspace."""
    arrs = frame.arrays()
    arrs[k - 1] = random_subspace_frame(frame.field, frame.d, frame.r, 2, seed).arrays()[0]
    return FusionFrame.from_arrays(frame.field, arrs)


def graded_perturbation(frame, top, seed):
    """The frame with isometry i perturbed at top * 10^(-4(i-1)/(n-1)), so
    the pairs' spreads ||G G* - sigma^2 I||_F run across the eigensolve
    screen."""
    rng = np.random.default_rng(seed)
    arrs = frame.arrays()
    for a, scale in zip(arrs, top * np.logspace(0, -4, frame.n)):
        a += scale * rng.standard_normal(a.shape)
    return FusionFrame.from_arrays(frame.field, arrs)


def rotated(frame, seed):
    """The frame under a seeded random unitary change of basis."""
    d = frame.d
    q = random_orthogonal(d, seed) if frame.field is R else random_unitary(d, seed)
    return FusionFrame.from_arrays(frame.field, q @ frame.arrays())


def lines_frame(degrees):
    """Lines in R^2 at the given angles, as 2x1 isometries."""
    isos = [
        np.array([[math.cos(math.radians(t))], [math.sin(math.radians(t))]]) for t in degrees
    ]
    return FusionFrame.from_arrays(R, isos)


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
    # Past verify_eitff's eigensolve screen on some pairs and under it on others.
    "R16n11-one-random": lambda: with_random_member(build_eitff(R, 16, 11), 5, seed=6),
    "R16n11-graded": lambda: graded_perturbation(build_eitff(R, 16, 11), 1e-14, 7),
    "R16n11-rotated": lambda: rotated(build_eitff(R, 16, 11), 8),
}
MIXED_PATH_FRAMES = ["R16n11-one-random", "R16n11-graded", "R16n11-rotated"]
# Built codes whose largest equi-isoclinic residuals tie at rounding level
# (C2n6: 2.369e-16 at (4, 5) and 2.355e-16 at (1, 3), r eps sigma^2 =
# 1.78e-16), so the named worst pair depends on how the Grams are rounded.
ROUNDING_TIE_FRAMES = {"C2n6"}


@pytest.fixture
def eigensolved(monkeypatch):
    """The number of matrices of each `np.linalg.eigvalsh` call, in order."""
    calls = []
    solve = np.linalg.eigvalsh

    def counting(a):
        calls.append(len(a))
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def orthogonal_blocks_frame(field, r, n):
    """n mutually orthogonal subspaces: slices of the identity."""
    eye = np.eye(n * r)
    return FusionFrame.from_arrays(field, [eye[:, i * r : (i + 1) * r] for i in range(n)])


class TestSynthesisOperator:
    """A frame holds S = [Phi_1 ... Phi_n] as one (d, nr) array, and its
    (n, d, r) array is a view of S."""

    @pytest.mark.parametrize("field,r,n", [(R, 4, 6), (C, 4, 8)])
    def test_array_is_a_read_only_view_of_synthesis(self, field, r, n):
        frame = build_eitff(field, r, n)
        s = frame.synthesis
        assert s.shape == (2 * r, n * r) and s.flags.c_contiguous
        assert np.shares_memory(frame.array, s)
        assert not s.flags.writeable and not frame.array.flags.writeable
        assert np.array_equal(s, np.hstack(frame.arrays()))
        assert not np.shares_memory(frame.arrays(), s)

    @pytest.mark.parametrize("name", ["R16n11-rotated", "C4n8-noisy", "C2n5-random"])
    def test_report_does_not_depend_on_input_layout(self, name):
        frame = ORACLE_FRAMES[name]()
        stack = frame.arrays()
        inputs = {
            "list": list(stack),
            "array": stack,
            "fortran": np.asfortranarray(stack),
            "mats": tuple(Mat(frame.field, a) for a in stack),
        }
        want = verify_eitff(frame)
        for kind, values in inputs.items():
            built = FusionFrame(frame.field, frame.d, frame.r, frame.n, values)
            assert built.synthesis.tobytes() == frame.synthesis.tobytes(), kind
            assert verify_eitff(built) == want, kind

    def test_members_are_copied_once(self):
        # Each member of a list is written straight into S, so the traced
        # peak stays within 1.1 times S (the R64 n=14 complement, 5.5 MB);
        # stacking the list first and copying the stack reads about 2.
        comp = naimark_complement(build_eitff(R, 64, 14))
        members = list(comp.arrays())
        assert traced_peak(FusionFrame.from_arrays, R, members) <= 1.1 * comp.synthesis.nbytes


class TestPanels:
    """The fusion Gram is read in panels of at most `linalg._PANEL_BYTES`,
    so a check holds S plus a few panel-sized buffers at every size."""

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("name", sorted(ORACLE_FRAMES))
    def test_small_panels_give_the_same_result(self, name, blocks, monkeypatch):
        # A budget of one or three r x r blocks sends every row of these
        # frames through several panels.
        frame = ORACLE_FRAMES[name]()
        want, want_angles = verify_eitff(frame), principal_angles(frame)
        monkeypatch.setattr(linalg, "_PANEL_BYTES", blocks * frame.r**2 * frame.synthesis.itemsize)
        got, angles = verify_eitff(frame), principal_angles(frame)
        if frame.field is R:
            assert repr(got) == repr(want)
            assert np.array_equal(angles, want_angles)
            return
        # Over C, tightness sums one product per column panel, and zgemm
        # rounds a block of Phi_i* S by its column position in the product
        # (seen at r = 2): equal to rounding, with every verdict unchanged.
        eps = np.finfo(np.float64).eps
        for field in ("isometry_residual", "tightness_residual", "equiisoclinic_residual",
                      "welch_gap", "block_coherence"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 8 * eps, field
        assert (got.passed, got.gerzon_ok) == (want.passed, want.gerzon_ok)
        if name not in ROUNDING_TIE_FRAMES:
            assert got.equiisoclinic_pair == want.equiisoclinic_pair
        assert np.abs(np.cos(angles) - np.cos(want_angles)).max() <= 8 * eps

    # Traced peaks beyond S, in MiB.  At the parent, which formed each whole
    # block row and a G* G buffer of its size, and conjugated all of a
    # complex S for tightness, they read: R256 n=19 verify 19.1, angles
    # 19.2; C128 n=18 verify 13.1, angles 9.6, tightness 10.0.  With 4 MiB
    # panels they read 8.0, 8.7; 12.0, 8.6, 6.0.
    @pytest.mark.parametrize(
        "field,r,n,check,limit",
        [
            (R, 256, 19, verify_eitff, 9.0),
            (R, 256, 19, principal_angles, 9.5),
            (C, 128, 18, verify_eitff, 12.5),
            (C, 128, 18, principal_angles, 9.0),
            (C, 128, 18, tightness_residual, 7.0),
        ],
    )
    def test_peak_beyond_synthesis_is_bounded(self, field, r, n, check, limit):
        assert traced_peak(check, build_eitff(field, r, n)) <= limit * 2**20


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
    @pytest.mark.parametrize("field,r,n", [(R, 4, 6), (C, 4, 8)])
    def test_arrays_is_one_fresh_stack(self, field, r, n):
        frame = build_eitff(field, r, n)
        stack = frame.arrays()
        assert stack.shape == (n, 2 * r, r) and stack.flags.c_contiguous
        assert stack.dtype == (np.float64 if field is R else np.complex128)
        for a, phi in zip(stack, frame.isometries):
            want = phi.array.real if field is R else phi.array
            assert a.tobytes() == np.ascontiguousarray(want).tobytes()
        before = stack.tobytes()
        stack[:] = 0.0
        assert frame.arrays().tobytes() == before

    def test_real_r2_n4_exact_entries(self, example_frame):
        a = 1 / math.sqrt(3)
        b = math.sqrt(2) / math.sqrt(3)
        c = 1 / math.sqrt(6)
        d = 1 / math.sqrt(2)
        eye = np.eye(2)
        rmat = GEN.R
        expected = [
            np.vstack([a * eye, b * eye]),
            np.vstack([a * eye, -c * eye + d * rmat]),
            np.vstack([a * eye, -c * eye - d * rmat]),
            np.vstack([eye, np.zeros((2, 2))]),
        ]
        for phi, want in zip(example_frame.arrays(), expected):
            assert max_abs(phi - want) <= 1e-12

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
        for phi in frame.arrays()[:-1]:
            b = phi[2:] / p.beta
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

    @pytest.mark.parametrize("field,r,n", [(C, 1, 4), (C, 2, 6), (C, 4, 8), (R, 8, 10)])
    def test_totally_symmetric_infeasible_rejected(self, field, r, n):
        # A code exists (n <= rho + 2) but no totally symmetric one does.
        assert verify_eitff(build_eitff(field, r, n)).passed
        with pytest.raises(InfeasibleParametersError, match="no totally symmetric code") as info:
            build_eitff(field, r, n, "totally_symmetric")
        assert info.value.bound == "total symmetry"

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            build_eitff(R, 2, 4, "fancy")

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 6, 8, 12, 16])
    def test_totally_symmetric_is_the_generic_code(self, r):
        # Wherever a totally symmetric code exists the generic one is
        # totally symmetric, so the two variants write the same isometries.
        for field in (R, C):
            for n in range(3, rho_number(field, r) + 3):
                if exists(field, r, n, total=True)[0] == "no":
                    continue
                generic = build_eitff(field, r, n).arrays()
                total = build_eitff(field, r, n, "totally_symmetric").arrays()
                assert generic.tobytes() == total.tobytes(), (field, r, n)

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
        for a, b in zip(example_frame.arrays(), canon.arrays()):
            assert max_abs(a - b) <= 1e-12
        p = eitff_params(4)
        assert simplex.blocks.shape == (3, 2, 2)
        for phi, b in zip(example_frame.arrays(), simplex.blocks):
            assert max_abs(phi[2:] / p.beta - b) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_rotated_frame_recovers_canonical_form(self, example_frame, seed):
        q = random_orthogonal(4, seed=seed)
        rng = np.random.default_rng(seed + 100)
        rotated = []
        for phi in example_frame.arrays():
            z, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            rotated.append(q @ phi @ z)
        frame = FusionFrame.from_arrays(R, rotated)
        canon, simplex = canonicalize(frame)
        assert verify_eitff(canon, 1e-9).passed
        assert verify_rho_simplex(simplex) <= 1e-9
        p = eitff_params(4)
        for phi in canon.arrays()[:-1]:
            assert max_abs(phi[:2] - p.alpha * np.eye(2)) <= 1e-12

    def test_canonical_frame_is_equivalent_to_input(self, example_frame):
        from eitff.frames import _complete_unitary

        q = random_orthogonal(4, seed=21)
        frame = FusionFrame.from_arrays(R, [q @ p for p in example_frame.arrays()])
        canon, _ = canonicalize(frame)
        ups = _complete_unitary(frame.arrays()[-1])
        for orig, new in zip(frame.arrays(), canon.arrays()):
            pi_orig = orig @ orig.conj().T
            pi_new = new @ new.conj().T
            assert max_abs(ups @ pi_new @ ups.conj().T - pi_orig) <= 1e-12

    def test_complex_frame_roundtrip(self):
        frame = build_eitff(C, 2, 6)
        q = random_unitary(4, seed=9)
        rotated = FusionFrame.from_arrays(C, [q @ p for p in frame.arrays()])
        canon, simplex = canonicalize(rotated)
        assert verify_eitff(canon, 1e-9).passed
        assert verify_rho_simplex(simplex) <= 1e-9

    def test_noisy_frame_rejected(self, example_frame):
        rng = np.random.default_rng(0)
        noisy = [phi + 1e-3 * rng.standard_normal((4, 2)) for phi in example_frame.arrays()]
        with pytest.raises(InvalidInputError):
            canonicalize(FusionFrame.from_arrays(R, noisy))

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
        phi = np.vstack([np.eye(2), np.zeros((2, 2))])
        frame = FusionFrame.from_arrays(R, [phi, phi])
        assert abs(block_coherence(frame) - 1.0) <= 1e-12

    def test_cross_gram_of_displayed_isometries(self):
        # Entries read off the explicit 4x2 display: the cross-Gram of the
        # first two isometries has both singular values equal to 1/sqrt(3).
        a = math.sqrt(1 / 3)
        b = math.sqrt(2 / 3)
        phi1 = np.vstack([a * np.eye(2), b * np.eye(2)])
        low = -np.eye(2) / math.sqrt(6) + GEN.R / math.sqrt(2)
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
        angles = principal_angles(example_frame)
        assert angles.shape == (4, 4, 2)
        off = ~np.eye(4, dtype=bool)
        assert np.max(np.abs(angles[off] - math.acos(1 / math.sqrt(3)))) <= 1e-12
        assert not angles[~off].any()

    def test_built_frames_have_constant_angles(self):
        for field, r, n in [(C, 2, 6), (R, 4, 6)]:
            frame = build_eitff(field, r, n)
            angles = principal_angles(frame)
            want = math.acos(math.sqrt((n - 2) / (2 * n - 2)))
            off = ~np.eye(n, dtype=bool)
            assert np.max(np.abs(angles[off] - want)) <= 1e-9

    def test_identical_subspaces_zero_angles(self):
        phi = np.vstack([np.eye(2), np.zeros((2, 2))])
        frame = FusionFrame.from_arrays(R, [phi, phi])
        assert np.max(principal_angles(frame)[0, 1]) <= 1e-12

    def test_orthogonal_subspaces_right_angles(self):
        frame = orthogonal_blocks_frame(R, 2, 3)
        assert np.max(np.abs(principal_angles(frame)[0, 1] - math.pi / 2)) <= 1e-12


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
        phi = np.eye(2)
        frame = FusionFrame.from_arrays(R, [phi, phi, phi])
        report = verify_eitff(frame)
        assert report.gerzon_ok
        assert report.passed

    def test_screened_pairs_skip_the_eigensolve(self, eigensolved):
        assert verify_eitff(build_eitff(R, 16, 11)).passed
        # sigma = 1: the copies of the whole space are identical by the screen.
        assert verify_eitff(FusionFrame.from_arrays(R, [np.eye(2)] * 3)).gerzon_ok
        assert eigensolved == []

    def test_fewer_dimensions_than_ambient_fails(self, eigensolved):
        # Two lines in R^3 (nr < d) cannot be tight; the gap is measured
        # against a bound of 0, and sigma^2 < 0 sends every pair to eigvalsh.
        frame = FusionFrame.from_arrays(R, [np.eye(3)[:, :1], np.ones((3, 1)) / math.sqrt(3)])
        with pytest.raises(DomainError):
            welch_bound(3, 1, 2)
        report = verify_eitff(frame)
        assert not report.passed
        assert abs(report.block_coherence - 1 / math.sqrt(3)) <= 1e-12
        assert report.welch_gap == report.block_coherence
        assert eigensolved == [1]

    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_worst_pair_contains_perturbed_member(self, k):
        arrs = build_eitff(R, 8, 10).arrays()
        arrs[k - 1] += 1e-6 * np.random.default_rng(k).standard_normal(arrs[k - 1].shape)
        i, j = verify_eitff(FusionFrame.from_arrays(R, arrs)).equiisoclinic_pair
        assert 1 <= i < j <= 10 and k in (i, j)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_gram_reads_nan_not_the_bound(self):
        # Member 2 scaled by 1e200 overflows every Gram it enters, and
        # eigvalsh of an infinite Gram returns NaN: coherence and gap must
        # keep it, not read exactly sigma and 0.
        arrs = build_eitff(R, 2, 4).arrays()
        arrs[1] *= 1e200
        report = verify_eitff(FusionFrame.from_arrays(R, arrs))
        assert math.isnan(report.block_coherence)
        assert math.isnan(report.welch_gap)
        assert not report.passed


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
    def test_frobenius_residual_is_no_looser(self, name):
        # g g* - sigma^2 I has the Frobenius norm of g* g - sigma^2 I, which
        # bounds each of its r^2 entries: the residual can only grow, by at
        # most a factor r, so no frame that failed before passes now.  The
        # worst pair is the worst under the new norm, which on noisy frames
        # need not be the pair with the worst entry.
        frame = ORACLE_FRAMES[name]()
        r, eps = frame.r, np.finfo(np.float64).eps
        new, new_pair = equiisoclinic_reference(frame)
        old, _ = equiisoclinic_reference(frame, entrywise=True)
        assert new >= old - r * eps * abs(sigma_squared(frame))
        assert new <= r * old
        report, want = verify_eitff(frame), reference_report(frame)
        residuals = (want["isometry_residual"], want["tightness_residual"], old, want["welch_gap"])
        assert report.passed == (max(residuals) <= DEFAULT_TOL and want["gerzon_ok"])
        assert report.gerzon_ok == want["gerzon_ok"]
        if name in ROUNDING_TIE_FRAMES:
            # Any pair within r eps sigma^2 of the largest reference residual ties.
            got = pair_residual(frame, *report.equiisoclinic_pair)
            assert got >= new - r * eps * sigma_squared(frame)
        else:
            assert report.equiisoclinic_pair == new_pair

    @pytest.mark.parametrize("name", MIXED_PATH_FRAMES)
    def test_both_coherence_paths_taken(self, name, eigensolved):
        frame = ORACLE_FRAMES[name]()
        verify_eitff(frame)
        assert 0 < sum(eigensolved) < frame.n * (frame.n - 1) // 2

    @pytest.mark.parametrize("name", sorted(ORACLE_FRAMES))
    def test_angles_match_pairwise_reference(self, name):
        frame = ORACLE_FRAMES[name]()
        got = principal_angles(frame)
        want = reference_angles(frame)
        assert got.shape == want.shape
        assert np.array_equal(got, got.swapaxes(0, 1))
        assert np.max(np.abs(got - want)) <= 1e-12

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
        rotated = FusionFrame.from_arrays(field, [q @ a for a in frame.arrays()])
        report = verify_eitff(rotated)
        assert report.passed
        residuals = (
            report.isometry_residual,
            report.tightness_residual,
            report.equiisoclinic_residual,
            abs(report.welch_gap),
        )
        assert max(residuals) <= 1e-10


def svd_complement(frame):
    """Reference Naimark complement: spectral factor of the complement
    Gram (nr/(nr-d)) (I - (d/nr) H), H the fusion Gram, from a full SVD."""
    d, r, n = frame.d, frame.r, frame.n
    synth = np.hstack(frame.arrays())
    scale = n * r / (n * r - d)
    comp = scale * (np.eye(n * r) - (d / (n * r)) * (synth.conj().T @ synth))
    u, s, _ = np.linalg.svd(comp)
    keep = s > scale / 2
    assert int(np.count_nonzero(keep)) == n * r - d
    tilde = (u[:, keep] * np.sqrt(s[keep])).conj().T
    return FusionFrame.from_arrays(frame.field, [tilde[:, i * r : (i + 1) * r] for i in range(n)])


def fusion_gram(frame):
    synth = np.hstack(frame.arrays())
    return synth.conj().T @ synth


def rotated(frame, seed):
    """The frame after a random orthogonal / unitary change of basis."""
    if frame.field is R:
        u = random_orthogonal(frame.d, seed)
    else:
        u = random_unitary(frame.d, seed)
    return FusionFrame.from_arrays(frame.field, [u @ a for a in frame.arrays()])


class TestNaimark:
    @pytest.mark.parametrize(
        "field,r,n,rotate",
        [
            (R, 2, 4, False),
            (C, 1, 4, False),
            (R, 4, 6, False),
            (C, 4, 8, False),
            (R, 8, 10, False),
            (C, 4, 6, False),
            (R, 4, 5, True),
            (C, 2, 5, True),
        ],
    )
    def test_gram_matches_svd_oracle(self, field, r, n, rotate):
        frame = build_eitff(field, r, n)
        if rotate:
            frame = rotated(frame, seed=r + n)
        nr, d = n * r, frame.d
        want = nr / (nr - d) * (np.eye(nr) - (d / nr) * fusion_gram(frame))
        comp = naimark_complement(frame)
        assert max_abs(fusion_gram(svd_complement(frame)) - want) <= 1e-12
        assert max_abs(fusion_gram(comp) - want) <= 1e-12
        assert verify_eitff(comp, 1e-10).passed
        # complement of the complement: same Gram as the oracle's, and the
        # original frame's Gram again
        double = naimark_complement(comp)
        assert max_abs(fusion_gram(double) - fusion_gram(svd_complement(comp))) <= 1e-12
        assert max_abs(fusion_gram(double) - fusion_gram(frame)) <= 1e-12
        assert verify_eitff(double, 1e-10).passed

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
        for phi in comp.arrays():
            assert max_abs(phi.conj().T @ phi - np.eye(3)) <= 1e-12
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


def check_omp_against_lstsq(frame, y, k, result):
    """Replay `result` with a plain lstsq refit and per-block scores.

    Each pick must be the lowest index whose score is within
    `_OMP_TIE_RTOL` ||y|| of its round's top score: in a code with d = 2r
    every block left after the first scores the same in exact arithmetic,
    and once kr >= d every score is rounding noise; the window turns
    both into the lowest-index pick.  The returned coefficients must
    match lstsq on all picked blocks within 1e-12.
    """
    arrs = frame.arrays()
    y = np.asarray(y, dtype=arrs.dtype)
    picks = [i - 1 for i, _ in result]
    assert len(picks) == min(k, frame.n) and len(set(picks)) == len(picks)
    residual = y
    tie = _OMP_TIE_RTOL * np.linalg.norm(y)
    for rnd, pick in enumerate(picks):
        scores = {i: np.linalg.norm(arrs[i].conj().T @ residual)
                  for i in range(frame.n) if i not in picks[:rnd]}
        top = max(scores.values())
        assert pick == min(i for i, s in scores.items() if s >= top - tie)
        stacked = np.hstack([arrs[i] for i in picks[: rnd + 1]])
        coef = np.linalg.lstsq(stacked, y, rcond=None)[0]
        residual = y - stacked @ coef
    got = np.concatenate([c for _, c in result])
    assert np.max(np.abs(got - coef)) <= 1e-12


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

    @pytest.mark.parametrize(
        "field,r,n,k",
        [
            (R, 8, 10, 1), (R, 8, 10, 2), (C, 4, 6, 1), (C, 4, 6, 2), (R, 64, 14, 2),
            # kr > d: the block Gram is singular and the refit falls back
            # to lstsq's minimum-norm solution.
            (R, 2, 4, 4), (C, 2, 4, 3), (R, 64, 14, 3),
        ],
    )
    def test_code_matches_lstsq_reference(self, field, r, n, k):
        frame = build_eitff(field, r, n)
        rng = np.random.default_rng(r + n + k)
        arrs = frame.arrays()
        for trial in range(4):
            if trial % 2:
                y = rng.standard_normal(frame.d)
                if field is C:
                    y = y + 1j * rng.standard_normal(frame.d)
            else:
                blocks = rng.choice(frame.n, size=min(k, 2), replace=False)
                y = sum(arrs[b] @ rng.standard_normal(r) for b in blocks)
            check_omp_against_lstsq(frame, y, k, block_omp_recover(frame, y, k))

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_frame_matches_lstsq_reference(self, field, k):
        # Random subspaces have no tied scores, so the picks are the
        # reference's own.
        frame = random_subspace_frame(field, 12, 3, 7, seed=k)
        rng = np.random.default_rng(k)
        for _ in range(4):
            y = rng.standard_normal(12) + (1j * rng.standard_normal(12) if field is C else 0)
            check_omp_against_lstsq(frame, y, k, block_omp_recover(frame, y, k))
