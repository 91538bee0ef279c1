"""Optimal Grassmannian codes with half-dimensional subspaces.

Constructs equi-isoclinic tight fusion frames with d = 2r over R and C
from explicit anticommuting unitary families, verifies every optimality
property numerically, produces Naimark complements, and generates and
checks permutation-symmetry certificates.
"""

from .errors import (
    DomainError,
    EitffError,
    FormatError,
    InfeasibleParametersError,
    InvalidInputError,
    NumericError,
    ShapeError,
    SingularMatrixError,
    UnknownFeasibilityError,
)
from .linalg import FieldTag, Mat
from .radon_hurwitz import (
    GEN,
    BaseGenerators,
    RHDecomposition,
    RhoOrthonormalSeq,
    build_rho_orthonormal,
    decompose_r,
    inflate_real,
    real_base_family,
    rho_number,
    verify_rho_orthonormal,
)
from .simplex import (
    RhoSimplex,
    normalize_rho_simplex,
    rho_simplex_from_orthonormal,
    simplex_basis_recovery,
    simplex_matrix,
    verify_rho_simplex,
)
from .frames import (
    EitffParams,
    FusionFrame,
    VerificationReport,
    block_coherence,
    block_omp_recover,
    build_eitff,
    canonicalize,
    eitff_params,
    frame_from_simplex,
    gerzon_bound,
    naimark_complement,
    principal_angles,
    verify_eitff,
    welch_bound,
)
from .symmetry import (
    Permutation,
    SymmetryCertificate,
    TotalSymmetrySeed,
    alternating_witness,
    check_certificate,
    find_witness,
    probe_symmetry,
    total_symmetry_seed,
    totally_symmetric_exists,
    transposition_witness,
)
from .frame_io import load_frame, save_frame

__version__ = "0.1.0"

__all__ = [
    "BaseGenerators",
    "DomainError",
    "EitffError",
    "EitffParams",
    "FieldTag",
    "FormatError",
    "FusionFrame",
    "GEN",
    "InfeasibleParametersError",
    "InvalidInputError",
    "Mat",
    "NumericError",
    "Permutation",
    "RHDecomposition",
    "RhoOrthonormalSeq",
    "RhoSimplex",
    "ShapeError",
    "SingularMatrixError",
    "SymmetryCertificate",
    "TotalSymmetrySeed",
    "UnknownFeasibilityError",
    "VerificationReport",
    "alternating_witness",
    "block_coherence",
    "block_omp_recover",
    "build_eitff",
    "build_rho_orthonormal",
    "canonicalize",
    "check_certificate",
    "decompose_r",
    "eitff_params",
    "find_witness",
    "frame_from_simplex",
    "gerzon_bound",
    "inflate_real",
    "load_frame",
    "naimark_complement",
    "normalize_rho_simplex",
    "principal_angles",
    "probe_symmetry",
    "real_base_family",
    "rho_number",
    "rho_simplex_from_orthonormal",
    "save_frame",
    "simplex_basis_recovery",
    "simplex_matrix",
    "total_symmetry_seed",
    "totally_symmetric_exists",
    "transposition_witness",
    "verify_eitff",
    "verify_rho_orthonormal",
    "verify_rho_simplex",
    "welch_bound",
]
