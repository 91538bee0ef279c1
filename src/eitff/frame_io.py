"""JSON file formats for matrices, frames, and symmetry certificates.

Matrices serialize as row-major [re, im] pairs under a field code taken
from the array's dtype; real matrices must carry literal zero imaginary
parts and read back as float64, complex ones as complex128.  Files are
compact JSON whose floats go through Python's shortest round-trip repr,
so writing and re-reading a file reproduces every binary64 entry
bit-exactly.  Any malformed file raises `FormatError`.

Reading streams the file `_CHUNK` bytes at a time.  It parses the
top-level object one member at a time, and a top-level array (the
isometries) one element at a time, and decodes each matrix payload as
soon as its text has been read, dropping that text before it reads on.
So a load holds the decoded members, then the frame's copy S of them,
and the text and [re, im] lists of one matrix, never the file text.  A
duplicate top-level key is a `FormatError`.  An object with the keys
field, rows, cols and data is read as a matrix wherever it sits, so a
matrix payload anywhere but where the format puts one (frame metadata,
say) is a `FormatError`.
"""

from __future__ import annotations

import codecs
import json
import re
import sys
from contextlib import nullcontext
from itertools import chain

import numpy as np

from .errors import DomainError, FormatError
from .frames import FusionFrame
from .linalg import FieldTag, require_finite

_encode = json.JSONEncoder(separators=(",", ":")).encode


def _matrix_text(a: np.ndarray) -> str:
    """One matrix payload as compact JSON text.

    Entries are formatted with `float.__repr__`, the function the json
    encoder calls for a float, so the text equals the encoding of the
    [[re, im], ...] list without that list being built.  A real matrix
    writes its imaginary parts as the fixed text 0.0.
    """
    if np.iscomplexobj(a):
        parts = map(float.__repr__, np.asarray(a, np.complex128).ravel().view(np.float64).tolist())
        field, sep, tail = "C", "],[", "]"
        items = map(",".join, zip(parts, parts))
    else:
        items = map(float.__repr__, np.asarray(a, np.float64).ravel().tolist())
        field, sep, tail = "R", ",0.0],[", ",0.0]"
    head = _encode({"field": field, "rows": a.shape[0], "cols": a.shape[1]})
    return head[:-1] + ',"data":[[' + sep.join(items) + tail + "]}"


def _write(path: str, payload: dict) -> None:
    """Write `payload` as compact JSON to `path`, or to stdout for "-".

    An ndarray value is one matrix (2-D) or a stack of matrices (3-D),
    written one matrix at a time.  Non-finite entries are refused before
    the file is opened, because JSON has no literal for them.
    """
    for key, value in payload.items():
        if isinstance(value, (np.ndarray, float)):
            require_finite(np.asarray(value), key)
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8") as fp:
        for pos, (key, value) in enumerate(payload.items()):
            fp.write(("," if pos else "{") + _encode(key) + ":")
            if isinstance(value, np.ndarray) and value.ndim == 3:
                fp.write("[")
                for i, m in enumerate(value):
                    fp.write(("," if i else "") + _matrix_text(m))
                fp.write("]")
            elif isinstance(value, np.ndarray):
                fp.write(_matrix_text(value))
            else:
                fp.write(_encode(value))
        fp.write("}\n")


_MATRIX_KEYS = frozenset(("field", "rows", "cols", "data"))

# Bytes per read of a frame or certificate file.
_CHUNK = 1 << 16

_WHITESPACE = re.compile(r"[ \t\n\r]*")
_NUMBER_TAIL = re.compile(r"[0-9.eE+-]*")  # what can continue a number
_CLOSER = {"{": "}", "[": "]"}


class _Stream:
    """The JSON text of one file, read `_CHUNK` bytes at a time.

    `text[pos:]` is the unread text.  Reading more drops the text before
    `pos`; `offset` counts the characters dropped, so an error names its
    place in the file.  `decoded` counts the matrix payloads decoded.
    """

    def __init__(self, fp):
        self.fp = fp
        self.utf8 = codecs.getincrementaldecoder("utf-8")()
        self.raw_decode = json.JSONDecoder(object_hook=self.hook).raw_decode
        self.text, self.pos, self.offset, self.nbytes, self.eof = "", 0, 0, 0, False
        self.decoded = 0

    def hook(self, obj: dict):
        if obj.keys() >= _MATRIX_KEYS:
            self.decoded += 1
            return _matrix(obj)
        return obj

    def fail(self, msg: str, pos: int):
        raise FormatError(f"not valid UTF-8 JSON: {msg} at char {self.offset + pos}")

    def extend(self, want: int, closer: str | None = None) -> None:
        """Read until the unread text holds `want` characters and, if
        given, a `closer`, or the file ends."""
        size = len(self.text) - self.pos
        found = closer is None or self.text.find(closer, self.pos) >= 0
        if self.eof or (size >= want and found):
            return
        self.offset += self.pos
        parts, self.text, self.pos = [self.text[self.pos :]], "", 0  # drops the read text
        while not self.eof and (size < want or not found):
            data = self.fp.read(_CHUNK)
            self.eof = not data
            held = len(self.utf8.getstate()[0])  # bytes of a character split by the last read
            try:
                parts.append(self.utf8.decode(data, final=self.eof))
            except UnicodeDecodeError as exc:
                at = self.nbytes - held + exc.start
                raise FormatError(f"not valid UTF-8 JSON: {exc.reason} at byte {at}") from None
            self.nbytes += len(data)
            size += len(parts[-1])
            found = found or closer in parts[-1]
        self.text = "".join(parts)

    def peek(self) -> str:
        """The next character after whitespace; "" at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos : self.pos + 1]
            self.extend(1)

    def expect(self, chars: str, msg: str) -> str:
        """Consume the next character, one of `chars`."""
        char = self.peek()
        if not char or char not in chars:
            self.fail(msg, self.pos)
        self.pos += 1
        return char

    def value(self):
        """Decode the next value.  A value that ends with an object or array
        is first tried once its closing character has been read, and a
        failed try is retried only once the unread text has doubled, so
        the text is decoded O(1) times over."""
        want, closer = 1, _CLOSER.get(self.peek())
        while True:
            self.extend(want, closer)
            try:
                value, end = self.raw_decode(self.text, self.pos)
            except json.JSONDecodeError as exc:
                if self.eof:
                    self.fail(exc.msg, exc.pos)
                want = 2 * (len(self.text) - self.pos)
                continue
            # A number that reaches the end of the text may go on in the next read.
            if self.eof or type(value) not in (int, float) or (
                _NUMBER_TAIL.match(self.text, end).end() < len(self.text)
            ):
                self.pos = end
                return value
            want = len(self.text) - self.pos + 1

    def items(self, close: str):
        """Step through the object or array that opens at the read
        position; the caller reads one item per step."""
        self.pos += 1
        if self.peek() == close:
            self.pos += 1
            return
        while True:
            yield
            if self.expect("," + close, "Expecting ',' delimiter") == close:
                return

    def document(self):
        """The file's one value.  A top-level object is read one member at
        a time, and an array in it one element at a time."""
        if self.peek() != "{":
            doc = self.value()
        else:
            doc = {}
            for _ in self.items("}"):
                if self.peek() != '"':
                    self.fail("Expecting property name enclosed in double quotes", self.pos)
                key = self.value()
                if key in doc:
                    raise FormatError(f"duplicate key {key!r}")
                self.expect(":", "Expecting ':' delimiter")
                if self.peek() == "[":
                    doc[key] = [self.value() for _ in self.items("]")]
                else:
                    doc[key] = self.value()
            doc = self.hook(doc)
        if self.peek():
            self.fail("Extra data", self.pos)
        return doc


def _read(path: str) -> tuple[object, int]:
    """The parsed file and the number of matrix payloads in it."""
    with open(path, "rb") as fp:
        stream = _Stream(fp)
        try:
            return stream.document(), stream.decoded
        except FormatError:
            raise
        except (ValueError, RecursionError) as exc:
            # ValueError covers over-long integers.
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


def _matrix(obj: dict) -> tuple[FieldTag, np.ndarray]:
    """The field code and the entries of one matrix payload (an object
    with the `_MATRIX_KEYS`), as a fresh C-contiguous float64 array for a
    real matrix and complex128 for a complex one."""
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
    if set(map(len, data)) != {2}:
        raise FormatError("entries must be [re, im] pairs")
    try:
        flat = np.fromiter(chain.from_iterable(data), np.float64, 2 * len(data))
    except OverflowError as exc:
        raise FormatError(f"entries are not binary64 [re, im] pairs: {exc}") from exc
    pairs = flat.reshape(-1, 2)
    finite = np.isfinite(pairs).all(axis=1)
    if not finite.all():
        raise FormatError(f"entry {int(np.argmin(finite))} is not finite")
    if field is FieldTag.REAL and pairs[:, 1].any():
        pos = int(np.flatnonzero(pairs[:, 1])[0])
        raise FormatError(f"entry {pos} of a real matrix has im={pairs[pos, 1]}")
    if field is FieldTag.REAL:
        return field, pairs[:, 0].copy().reshape(rows, cols)
    return field, pairs.view(np.complex128).reshape(rows, cols)


def save_frame(frame: FusionFrame, path: str, metadata: dict | None = None) -> None:
    """Write `frame` and its metadata to `path` ("-" for stdout)."""
    _write(path, {
        "field": frame.field.value,
        "d": frame.d,
        "r": frame.r,
        "n": frame.n,
        "isometries": frame.array,
        "metadata": dict(metadata or {}),
    })


def load_frame(path: str) -> tuple[FusionFrame, dict]:
    obj, decoded = _read(path)
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
    # `_read` has decoded every isometry, and no payload's pair lists are
    # alive while the frame stacks the n arrays.
    for pos, payload in enumerate(payloads, 1):
        if not isinstance(payload, tuple):
            raise FormatError(f"isometry {pos} is not a matrix payload")
        code, a = payload
        if a.shape != (d, r) or code is not field:
            raise FormatError(
                f"isometry {pos} is {code.value} {a.shape[0]}x{a.shape[1]}, want {field.value} {d}x{r}"
            )
    if decoded != n:
        raise FormatError("a matrix payload lies outside the isometries")
    try:
        return FusionFrame(field, d, r, n, [a for _, a in payloads]), metadata
    except DomainError as exc:
        raise FormatError(f"bad frame header: {exc}") from exc


def save_certificate(
    path: str, sigma_one_line: str, upsilon: np.ndarray, residual: float
) -> None:
    _write(path, {
        "perm": sigma_one_line,
        "upsilon": upsilon,
        "residual": float(residual),
    })


def load_certificate(path: str) -> tuple[str, np.ndarray, float]:
    obj, decoded = _read(path)
    _require(obj, "certificate", ("perm", "upsilon", "residual"))
    if not isinstance(obj["upsilon"], tuple):
        raise FormatError("upsilon is not a matrix payload")
    if decoded != 1:
        raise FormatError("a matrix payload lies outside upsilon")
    if not isinstance(obj["perm"], str):
        raise FormatError("perm must be a one-line notation string")
    residual = obj["residual"]
    if type(residual) not in (int, float) or not abs(residual) <= sys.float_info.max:
        raise FormatError("residual must be a finite number")
    return obj["perm"], obj["upsilon"][1], float(residual)
