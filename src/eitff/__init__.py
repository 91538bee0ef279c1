"""Optimal Grassmannian codes with half-dimensional subspaces.

Constructs equi-isoclinic tight fusion frames with d = 2r over R and C
from explicit anticommuting unitary families, verifies every optimality
property numerically, produces Naimark complements, and generates and
checks permutation-symmetry certificates.  The root exports only the
names callers reach through it; import the rest from their modules.
"""

from .linalg import FieldTag
from .radon_hurwitz import RhoOrthonormalSeq, build_rho_orthonormal
from .simplex import rho_simplex_from_orthonormal, verify_rho_simplex
from .frames import FusionFrame, build_eitff, canonicalize, frame_from_simplex, verify_eitff
from .symmetry import (
    alternating_witness,
    check_certificate,
    find_witness,
    probe_symmetry,
    transposition_witness,
)

__version__ = "0.1.0"
