import tracemalloc

import numpy as np
import pytest

from eitff.frames import FusionFrame, build_eitff
from eitff.linalg import FieldTag
from eitff.simplex import simplex_matrix


@pytest.fixture
def example_frame():
    """The 4-subspace real code in dimension 4 with r = 2."""
    return build_eitff(FieldTag.REAL, 2, 4)


@pytest.fixture
def complex_etf_frame():
    """The 4-vector equiangular tight frame in C^2 (r = 1)."""
    return build_eitff(FieldTag.COMPLEX, 1, 4)


def random_subspace_frame(field, d, r, n, seed=0):
    """n random r-dimensional subspaces of F^d as orthonormal columns."""
    rng = np.random.default_rng(seed)
    isos = []
    for _ in range(n):
        raw = rng.standard_normal((d, r))
        if field is FieldTag.COMPLEX:
            raw = raw + 1j * rng.standard_normal((d, r))
        q, _ = np.linalg.qr(raw)
        isos.append(q[:, :r])
    return FusionFrame.from_arrays(field, isos)


def near_code(seed, scale):
    """The real code with r = 8 and n = 8, its member 3 re-orthonormalized
    after a seeded Gaussian perturbation of size `scale`."""
    arrays = build_eitff(FieldTag.REAL, 8, 8).arrays()
    rng = np.random.default_rng(seed)
    arrays[2] = np.linalg.qr(arrays[2] + scale * rng.standard_normal(arrays[2].shape))[0]
    return FusionFrame.from_arrays(FieldTag.REAL, arrays)


def random_orthogonal(d, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


def random_unitary(d, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def traced_peak(call, *args) -> int:
    """Bytes `call(*args)` allocates at its peak under tracemalloc, above
    what was allocated when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def clifford_e(projections):
    """E_j = (2(n-1)/n) sum_i Psi_n(j, i) Pi_i, j = 1 ... n - 1: the
    Clifford system of a code's (n, d, d) projection stack, formed
    without Gamma_i = 2 Pi_i - I (the rows of Psi_n sum to 0)."""
    n = len(projections)
    return (2.0 * (n - 1) / n) * np.tensordot(simplex_matrix(n), projections, 1)
