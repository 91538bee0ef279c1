"""Field tags, the decompositions the package needs, and the
block-relation kernel.

Matrices are plain numpy arrays in the field's dtype (`FieldTag.dtype`):
float64 over R, complex128 over C; a stack of m matrices of size r x r
is one (m, r, r) array, and the field tag lives on the container that
holds it.  A frame is its synthesis operator S = [Phi_1 ... Phi_n], one
(d, nr) array, read as n isometries through a zero-copy (n, d, r) view.
Polar factors come from the SVD, null spaces of Hermitian matrices from
`eigh`.  `relation_residual` measures the block-Gram identity of
anticommuting families and simplices: by index arithmetic when every
member is a generalized permutation matrix, as every built family is,
and by dense block rows otherwise.  Every Gram block row of a stack
here is formed in panels of at most `_PANEL_BYTES` (4 MiB,
`panel_blocks`), so checking an input holds it plus a few such buffers
at every size.  A frame's fusion Gram is read in tiles (`frames`): the
same panels, or, where several whole block rows fit in a far smaller
budget, one product for all of them.  The Clifford gate of `symmetry`
takes no relation residual: it reads its bound from `verify_eitff`.

`field_array` is the one check of shape, field and finiteness behind
every container of such arrays.  `Mat`, a field-tagged complex128
matrix, is the benchmark's view and nothing else: `perfbench/` reads
frames and families through `FusionFrame.isometries` and
`RhoOrthonormalSeq.mats`, builds them from tuples of `Mat`s, and traces
the `Mat` argument of `nullspace`.  It goes once the benchmark reads
plain arrays.  No package path calls `nullspace` either: it is kept for
the intertwiner search that the symmetry tests use as their oracle, and
for the benchmark's tracer, which looks it up by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DomainError,
    InvalidInputError,
    NumericError,
    ShapeError,
    SingularMatrixError,
)

DEFAULT_TOL = 1e-10

# Bytes of one panel product.  A block row of a Gram, C_i* [C_j ... C_j+k-1],
# is formed one panel of at most this many bytes at a time (one block at
# least), so a check holds its input plus a few panel-sized buffers at
# every size.  At 4 MiB, verifying R256 n=19 holds 8 MiB beyond S, less
# than building it does; budgets of 2 to 8 MiB time alike there.
_PANEL_BYTES = 4 << 20


class FieldTag(Enum):
    REAL = "R"
    COMPLEX = "C"

    @property
    def dtype(self) -> np.dtype:
        """float64 over R, complex128 over C."""
        return np.dtype(np.float64 if self is FieldTag.REAL else np.complex128)


@dataclass(frozen=True, eq=False)
class Mat:
    """Immutable dense matrix over R or C, kept only as the benchmark's
    view (see the module docstring): a read-only C-ordered complex128
    array, checked by `field_array`, so it always has a float64 view."""

    field: FieldTag
    array: np.ndarray

    def __post_init__(self):
        arr = field_array(self.field, self.array, (None, None), "matrix")
        arr = arr.astype(np.complex128, copy=False)
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.array, dtype=dtype, copy=copy)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape


def field_array(field: FieldTag, values, shape: tuple, what: str, out=None) -> np.ndarray:
    """`values` copied into `out`, or else into a fresh C-ordered array,
    in the field's dtype, and returned read-only.

    A list or tuple of members is checked and copied one member at a
    time, so it is never stacked on the way; any other input is taken as
    one array.  `shape` gives every extent, None for any; ragged input or
    another shape raises `ShapeError`.  A non-finite entry, or under R a
    nonzero imaginary part, raises `InvalidInputError`; a zero imaginary
    part is dropped.
    """
    if isinstance(values, (list, tuple)):
        try:
            members = [np.asarray(m) for m in values]
        except ValueError as exc:
            raise ShapeError(f"{what} members differ in shape") from exc
        if any(m.shape != members[0].shape for m in members):
            raise ShapeError(f"{what} members differ in shape")
        got = (len(members), *members[0].shape) if members else (0,)
        parts = list(enumerate(members))
    else:
        values = np.asarray(values)
        got, parts = values.shape, [(Ellipsis, values)]
    if len(got) != len(shape) or any(k not in (None, g) for k, g in zip(shape, got)):
        raise ShapeError(f"expected {what} of shape {shape}, got {got}")
    if out is None:
        out = np.empty(got, field.dtype)
    for where, part in parts:
        require_finite(part, what)
        if field is FieldTag.REAL and np.iscomplexobj(part):
            if part.imag.any():
                raise InvalidInputError(f"real-tagged {what} has a nonzero imaginary part")
            part = part.real
        out[where] = part
    out.setflags(write=False)
    return out


def max_abs(values) -> float:
    """Largest entrywise magnitude; zero for an empty array."""
    arr = np.asarray(values)
    return float(np.abs(arr).max()) if arr.size else 0.0


def panel_blocks(block_bytes: int) -> int:
    """How many blocks of `block_bytes` each one panel holds: as many as
    fit in `_PANEL_BYTES`, and one at least."""
    return max(1, _PANEL_BYTES // block_bytes)


def require_finite(a: np.ndarray, what: str) -> None:
    """Refuse NaN and infinite entries, which every residual test here
    would otherwise read as a pass."""
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{what} entries must be finite")


def polar_unitary(a: np.ndarray) -> np.ndarray:
    """Unitary polar factor U V* of an invertible square matrix, in its dtype."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"polar factor needs a square matrix, got {a.shape}")
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge on {a.shape} input") from exc
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise SingularMatrixError(
            f"matrix is numerically singular (s_min/s_max = {s[-1]}/{s[0]})"
        )
    return u @ vh


def nullspace(a: Mat, tol: float) -> np.ndarray:
    """Orthonormal basis of the numerical null space of a Hermitian matrix.

    The basis comes from `eigh`, so only the lower triangle is read.  An
    eigenvector is kept when |lambda| <= tol * max |lambda|, the singular
    value rule ||a x|| <= tol ||a|| ||x||; for the PSD matrices of the
    witness search that is lambda <= tol * lambda_max.  May legitimately
    have zero columns.  The basis is in the field's dtype.
    """
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if a.rows != a.cols:
        raise ShapeError(f"null space needs a square Hermitian matrix, got {a.shape}")
    lam, vecs = np.linalg.eigh(a.array.real if a.field is FieldTag.REAL else a.array)
    size = np.abs(lam)
    return vecs[:, size <= tol * np.max(size, initial=0.0)]


def relation_residual(
    stack: np.ndarray, offdiag: float
) -> tuple[float, tuple[int, int]]:
    """Worst violation of the block-Gram identity of an (m, r, r) stack.

    With H_ij = C_i* C_j the identity reads H_ii = I and
    H_ij + H_ji = offdiag * I for i != j: offdiag = 0 for an
    anticommuting unitary family, -2/(n-2) for a unitary simplex.
    Returns the largest entrywise residual and the 1-indexed pair (i, j),
    i <= j, where it first occurs; (1, 1) when every relation holds
    exactly, and NaN with the first pair that holds a NaN entry.

    A stack of generalized permutation matrices (exactly one entry that
    is not 0 in every row and every column of every member; NaN is not
    0) is checked by index arithmetic in O(m^2 r): H_ij is then one too
    (`_monomial_residual`).  Any other stack takes one batched product
    per panel C_i* [C_j ... C_j+k-1] of a block row in its own dtype
    (`panel_blocks`), so it holds the stack plus a few panel-sized
    buffers.  Both give the same result up to the rounding of each
    entry's single product.
    """
    cols = _monomial_columns(stack)
    if cols is None:
        return _dense_residual(stack, offdiag)
    return _monomial_residual(stack, cols, offdiag)


def _monomial_columns(stack: np.ndarray) -> np.ndarray | None:
    """For a nonempty stack of generalized permutation matrices, the
    column of the one entry that is not 0 in each row of each member, as
    an (m, r) int array; None for any other stack."""
    m, r = stack.shape[:2]
    if not m or np.count_nonzero(stack) != m * r:
        return None
    nonzero = stack != 0
    if not (nonzero.any(axis=2).all() and nonzero.any(axis=1).all()):
        return None
    return nonzero.argmax(axis=2)


def _monomial_residual(
    stack: np.ndarray, cols: np.ndarray, offdiag: float
) -> tuple[float, tuple[int, int]]:
    """`relation_residual` of a stack of generalized permutation matrices
    whose member C_i has its one entry of row a in column cols[i, a].

    Row x of H_ij = C_i* C_j holds conj(C_i[a, x]) C_j[a, q(x)] at column
    q(x) = cols[j, a], a the row of C_i whose entry sits in column x.  So
    H_ij + H_ij* - offdiag I has at (x, q(x)) that entry plus
    conj(H_ij[q(x), x]) when q(q(x)) = x, and the entry alone otherwise
    (the lone entries of H_ij* mirror these), less offdiag where
    q(x) = x; every diagonal position that H_ij misses holds -offdiag.
    The sums are taken in the dense loop's order.
    """
    m, r = cols.shape
    x = np.arange(r)
    vals = np.take_along_axis(stack, cols[..., None], 2)[..., 0]
    rows = np.argsort(cols, axis=1)
    other, a = np.arange(m)[None, :, None], rows[:, None, :]
    q = cols[other, a]
    h = np.take_along_axis(vals, rows, 1).conj()[:, None, :] * vals[other, a]
    on_diag = q == x
    mirrored = np.take_along_axis(h, q, 2).conj() - offdiag * on_diag
    err = np.where(np.take_along_axis(q, q, 2) == x, np.abs(h + mirrored), np.abs(h))
    err = np.maximum(err, np.where(on_diag, 0.0, abs(offdiag))).max(axis=2)
    diag = np.arange(m)
    err[diag, diag] = np.abs(h[diag, diag] - 1.0).max(axis=1)
    err[np.tril_indices(m, -1)] = -1.0
    k = int(np.argmax(err))  # the first NaN, if there is one
    i, j = divmod(k, m)
    return float(err[i, j]), (i + 1, j + 1)


def _dense_residual(stack: np.ndarray, offdiag: float) -> tuple[float, tuple[int, int]]:
    """`relation_residual` of any stack, one batched product per panel
    C_i* [C_j ... C_j+k-1] of a block row (`panel_blocks`)."""
    m, r = stack.shape[:2]
    step = panel_blocks(r * r * stack.itemsize)
    eye = np.eye(r)
    shift = offdiag * eye
    worst, where = 0.0, (1, 1)
    for i in range(m):
        adjoint = stack[i].conj().T
        for j in range(i, m, step):
            panel = adjoint @ stack[j : j + step]
            off = panel[1:] if j == i else panel  # the first panel of a row starts with H_ii
            off += off.conj().swapaxes(1, 2) - shift
            if j == i:
                panel[0] -= eye
            errs = np.abs(panel).max(axis=(1, 2))
            k = int(np.argmax(errs))  # the first NaN, if there is one
            if np.isnan(errs[k]):
                return float(errs[k]), (i + 1, j + 1 + k)
            if errs[k] > worst:
                worst, where = float(errs[k]), (i + 1, j + 1 + k)
    return worst, where
