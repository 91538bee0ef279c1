"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from eitff.cli import main
from eitff.errors import InfeasibleParametersError
from eitff.frames import (
    block_omp_recover,
    build_eitff,
    canonicalize,
    naimark_complement,
    verify_eitff,
    welch_bound,
)
from eitff.linalg import FieldTag, max_abs, relation_residual
from eitff.radon_hurwitz import (
    GEN,
    build_rho_orthonormal,
    exists,
    inflate_real,
    real_base_family,
    rho_number,
    verify_rho_orthonormal,
)
from eitff.simplex import simplex_matrix
from eitff.symmetry import alternating_witness, probe_symmetry, transposition_witness

from test_frames import block_coherence

R, C = FieldTag.REAL, FieldTag.COMPLEX
FRONTIER_RS = (1, 2, 3, 4, 6, 8, 12, 16)


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_c01_example_reproduction(tmp_path, capsys):
    out = tmp_path / "example.json"
    start = time.perf_counter()
    code = main(["build", "--field", "R", "--r", "2", "--n", "4", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out.read_text())
    a, b = 1 / math.sqrt(3), math.sqrt(2) / math.sqrt(3)
    c, d = 1 / math.sqrt(6), 1 / math.sqrt(2)
    eye = np.eye(2)
    rmat = np.array([[0.0, -1.0], [1.0, 0.0]])
    expected = [
        np.vstack([a * eye, b * eye]),
        np.vstack([a * eye, -c * eye + d * rmat]),
        np.vstack([a * eye, -c * eye - d * rmat]),
        np.vstack([eye, np.zeros((2, 2))]),
    ]
    assert payload["field"] == "R" and payload["n"] == 4
    for matrix, want in zip(payload["isometries"], expected):
        got = np.array([re for re, _ in matrix["data"]]).reshape(4, 2)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert all(im == 0.0 for _, im in matrix["data"])
    assert elapsed < 0.1, f"build took {elapsed:.3f}s"
    report("1 example-reproduction")


def test_c02_existence_frontier():
    start = time.perf_counter()
    for field in (R, C):
        for r in FRONTIER_RS:
            rho = rho_number(field, r)
            for n in range(3, rho + 3):
                rep = verify_eitff(build_eitff(field, r, n))
                assert rep.tightness_residual <= 1e-10, (field, r, n)
                assert rep.equiisoclinic_residual <= 1e-10, (field, r, n)
                assert rep.welch_gap <= 1e-10, (field, r, n)
                assert rep.isometry_residual <= 1e-10, (field, r, n)
            with pytest.raises(InfeasibleParametersError):
                build_eitff(field, r, rho + 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"frontier sweep took {elapsed:.1f}s"
    report("2 existence-frontier")


def test_c03_rho_table():
    assert rho_number(R, 2) == 2
    assert rho_number(C, 2) == 4
    assert rho_number(R, 8) == 8
    assert rho_number(C, 8) == 8
    for r in range(1, 129):
        assert rho_number(C, 2 * r) == rho_number(C, r) + 2
    report("3 rho-table")


def test_c04_radon_hurwitz_equations():
    start = time.perf_counter()
    for field in (R, C):
        for r in range(1, 65):
            seq = build_rho_orthonormal(field, r, rho_number(field, r))
            assert verify_rho_orthonormal(seq) <= 1e-12, (field, r)
    fam16 = real_base_family(16)
    assert relation_residual(np.concatenate([np.eye(16)[None], fam16]), 0.0)[0] <= 1e-12
    fam256 = inflate_real(fam16)
    assert fam256.shape == (16, 256, 256)
    assert relation_residual(np.concatenate([np.eye(256)[None], fam256]), 0.0)[0] <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"family sweep took {elapsed:.1f}s"
    report("4 radon-hurwitz-equations")


def test_c05_naimark():
    for r, n in [(2, 4), (4, 5), (4, 6)]:
        frame = build_eitff(R, r, n)
        comp = naimark_complement(frame)
        assert (comp.d, comp.r, comp.n) == ((n - 2) * r, r, n)
        rep = verify_eitff(comp, 1e-9)
        assert rep.passed, (r, n, rep)
        scale = frame.d / (n * r - frame.d)
        a0, a1 = frame.arrays(), comp.arrays()
        for i in range(n):
            for j in range(n):
                if i != j:
                    g0 = a0[i].conj().T @ a0[j]
                    g1 = a1[i].conj().T @ a1[j]
                    assert max_abs(g1 + scale * g0) <= 1e-10
        double = naimark_complement(comp)
        canon, _ = canonicalize(double)
        assert verify_eitff(canon, 1e-9).passed
    report("5 naimark")


def test_c06_symmetry_positive():
    for field, r, n in [(C, 1, 3), (R, 2, 3), (C, 2, 5), (R, 4, 5)]:
        frame = build_eitff(field, r, n, "skew")
        _, simplex = canonicalize(frame)
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                cert = transposition_witness(simplex, j, k)
                assert cert.residual <= 1e-10, (field, r, n, j, k)
    rng = np.random.default_rng(2024)
    for field, r, n in [(R, 2, 4), (C, 1, 4), (R, 4, 6), (C, 4, 8)]:
        frame = build_eitff(field, r, n)
        for _ in range(20):
            j1, k1 = sorted(rng.choice(np.arange(1, n + 1), 2, replace=False))
            j2, k2 = sorted(rng.choice(np.arange(1, n + 1), 2, replace=False))
            cert = alternating_witness(frame, (int(j1), int(k1)), (int(j2), int(k2)))
            assert cert.residual <= 1e-9, (field, r, n)
    report("6 symmetry-positive")


def test_c07_symmetry_classification():
    assert probe_symmetry(build_eitff(R, 2, 4))[0] == "total"
    assert probe_symmetry(build_eitff(C, 1, 4))[0] == "alternating"
    # full decision table; c = 2 at n = rho + 2 is a "no" by a module count
    assert exists(R, 4, 6, total=True)[0] == "no"
    from eitff.radon_hurwitz import decompose_r

    by_c = {0: "yes", 1: "yes", 2: "no", 3: "no"}
    for r in (1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32):
        for field in (R, C):
            rho = rho_number(field, r)
            for n in range(3, rho + 4):
                got = exists(field, r, n, total=True)[0]
                if field is C:
                    want = "yes" if n <= rho + 1 else "no"
                elif n <= rho + 1:
                    want = "yes"
                elif n == rho + 2:
                    want = by_c[decompose_r(r).c]
                else:
                    want = "no"
                assert got == want, (field, r, n, got, want)
    report("7 symmetry-classification")


def test_c08_welch_coherence():
    for field in (R, C):
        for r in FRONTIER_RS:
            for n in range(3, rho_number(field, r) + 3):
                frame = build_eitff(field, r, n)
                mu = block_coherence(frame)
                closed_form = math.sqrt((n - 2) / (2 * n - 2))
                assert abs(mu - closed_form) <= 1e-10, (field, r, n)
                assert abs(mu - welch_bound(2 * r, r, n)) <= 1e-10, (field, r, n)
    report("8 welch-coherence")


def test_c09_block_omp():
    frame = build_eitff(R, 2, 4)
    mu = block_coherence(frame)
    assert 1 < (1 / mu + 1) / 2 < 2
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    recovered = 0
    for _ in range(200):
        block = int(rng.integers(1, 5))
        coeffs = rng.standard_normal(2)
        y = frame.arrays()[block - 1] @ coeffs
        result = block_omp_recover(frame, y, 1)
        idx, values = result[0]
        if idx == block and np.max(np.abs(values - coeffs)) <= 1e-8:
            recovered += 1
    elapsed = time.perf_counter() - start
    assert recovered == 200
    assert elapsed < 1.0, f"trials took {elapsed:.2f}s"
    report("9 block-omp")


def test_c10_simplex_suite():
    for m in range(2, 13):
        psi = simplex_matrix(m)
        target = (m * np.eye(m) - np.ones((m, m))) / (m - 1)
        assert max_abs(psi.T @ psi - target) <= 1e-12
    report("10 simplex-suite")
