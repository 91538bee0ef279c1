"""JSON file formats for matrices, frames, and symmetry certificates.

Matrices serialize as row-major [re, im] pairs under a field code taken
from the array's dtype; real matrices must carry literal zero imaginary
parts and read back as float64, complex ones as complex128.  Files are
compact JSON whose floats go through Python's shortest round-trip repr,
so writing and re-reading a file reproduces every binary64 entry
bit-exactly.  Any malformed file raises `FormatError`.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from itertools import chain

import numpy as np

from .errors import DomainError, FormatError
from .frames import FusionFrame
from .linalg import FieldTag, Mat

_encode = json.JSONEncoder(separators=(",", ":")).encode


def _matrix_payload(a: np.ndarray) -> dict:
    pairs = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return {
        "field": "C" if np.iscomplexobj(a) else "R",
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": pairs.reshape(-1, 2).tolist(),
    }


def _write(path: str, payload: dict) -> None:
    """Write `payload` as compact JSON to `path`, or to stdout for "-".

    A tuple value holds arrays and is written one matrix at a time, so
    the entry lists of only one matrix are in memory at once.
    """
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8") as fp:
        for pos, (key, value) in enumerate(payload.items()):
            fp.write(("," if pos else "{") + _encode(key) + ":")
            if isinstance(value, tuple):
                fp.write("[")
                for i, m in enumerate(value):
                    fp.write(("," if i else "") + _encode(_matrix_payload(m)))
                fp.write("]")
            else:
                fp.write(_encode(value))
        fp.write("}\n")


def _read(path: str):
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and over-long integers.
            raise FormatError(f"not valid UTF-8 JSON: {exc}") from exc


def _require(obj, what: str, keys) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} payload must be an object")
    for key in keys:
        if key not in obj:
            raise FormatError(f"{what} payload missing key {key!r}")


def _field(code) -> FieldTag:
    try:
        return FieldTag(code)
    except ValueError:
        raise FormatError(f"unknown field code {code!r}") from None


def _matrix(obj) -> tuple[FieldTag, np.ndarray]:
    """The field code and the entries of one matrix payload, as float64
    for a real matrix and complex128 for a complex one."""
    _require(obj, "matrix", ("field", "rows", "cols", "data"))
    field = _field(obj["field"])
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (type(rows) is int and type(cols) is int and rows >= 1 and cols >= 1):
        raise FormatError(f"bad dimensions rows={rows!r}, cols={cols!r}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(f"data does not hold {rows}x{cols} entries")
    # The json module yields exact int and float, never a subclass other
    # than bool, so comparing types refuses bool, str, null and nesting.
    if set(map(type, data)) != {list}:
        raise FormatError("entries must be [re, im] pairs")
    if not set(map(type, chain.from_iterable(data))) <= {int, float}:
        raise FormatError("entries must be numbers")
    try:
        pairs = np.array(data, dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"entries are not binary64 [re, im] pairs: {exc}") from exc
    if pairs.shape != (rows * cols, 2):
        raise FormatError("entries must be [re, im] pairs")
    finite = np.isfinite(pairs).all(axis=1)
    if not finite.all():
        raise FormatError(f"entry {int(np.argmin(finite))} is not finite")
    if field is FieldTag.REAL and pairs[:, 1].any():
        pos = int(np.flatnonzero(pairs[:, 1])[0])
        raise FormatError(f"entry {pos} of a real matrix has im={pairs[pos, 1]}")
    if field is FieldTag.REAL:
        return field, pairs[:, 0].reshape(rows, cols)
    return field, pairs.view(np.complex128).reshape(rows, cols)


def save_frame(frame: FusionFrame, path: str, metadata: dict | None = None) -> None:
    """Write `frame` and its metadata to `path` ("-" for stdout)."""
    _write(path, {
        "field": frame.field.value,
        "d": frame.d,
        "r": frame.r,
        "n": frame.n,
        "isometries": tuple(frame.arrays()),
        "metadata": dict(metadata or {}),
    })


def load_frame(path: str) -> tuple[FusionFrame, dict]:
    obj = _read(path)
    _require(obj, "frame", ("field", "d", "r", "n", "isometries", "metadata"))
    field = _field(obj["field"])
    d, r, n = obj["d"], obj["r"], obj["n"]
    if not all(type(v) is int and v >= 1 for v in (d, r, n)):
        raise FormatError(f"bad frame dimensions d={d!r}, r={r!r}, n={n!r}")
    payloads, metadata = obj["isometries"], obj["metadata"]
    if not isinstance(payloads, list) or len(payloads) != n:
        raise FormatError(f"expected {n} isometries")
    if not isinstance(metadata, dict):
        raise FormatError("metadata must be an object")
    # Each isometry is wrapped as soon as it is decoded, so that only one
    # decoded copy is alive at a time.
    isometries = []
    for pos, payload in enumerate(payloads, 1):
        code, a = _matrix(payload)
        if a.shape != (d, r) or code is not field:
            raise FormatError(
                f"isometry {pos} is {code.value} {a.shape[0]}x{a.shape[1]}, want {field.value} {d}x{r}"
            )
        isometries.append(Mat(field, a))
    try:
        return FusionFrame(field, d, r, n, tuple(isometries)), metadata
    except DomainError as exc:
        raise FormatError(f"bad frame header: {exc}") from exc


def save_certificate(
    path: str, sigma_one_line: str, upsilon: np.ndarray, residual: float
) -> None:
    _write(path, {
        "perm": sigma_one_line,
        "upsilon": _matrix_payload(upsilon),
        "residual": float(residual),
    })


def load_certificate(path: str) -> tuple[str, np.ndarray, float]:
    obj = _read(path)
    _require(obj, "certificate", ("perm", "upsilon", "residual"))
    if not isinstance(obj["perm"], str):
        raise FormatError("perm must be a one-line notation string")
    residual = obj["residual"]
    if type(residual) not in (int, float) or not abs(residual) <= sys.float_info.max:
        raise FormatError("residual must be a finite number")
    return obj["perm"], _matrix(obj["upsilon"])[1], float(residual)
