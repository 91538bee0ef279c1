import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import pkgutil
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import eitff
from eitff import cli, frame_io, symmetry
from eitff.cli import main
from eitff.errors import InvalidInputError
from eitff.frame_io import (
    _CHUNK,
    _MATRIX_KEYS,
    _matrix_text,
    load_certificate,
    load_frame,
    save_certificate,
    save_frame,
)
from eitff.frames import FusionFrame, build_eitff, naimark_complement
from eitff.linalg import DEFAULT_TOL, FieldTag
from eitff.symmetry import SymmetryCertificate

from conftest import near_code, random_subspace_frame


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRho:
    def test_real_eight(self, capsys):
        code, out, _ = run(capsys, "rho", "--field", "R", "--r", "8")
        assert code == 0
        assert out.strip() == "rho=8 a=0 b=0 c=3"

    def test_complex_two(self, capsys):
        code, out, _ = run(capsys, "rho", "--field", "C", "--r", "2")
        assert code == 0
        assert out.strip() == "rho=4 a=0 b=0 c=1"

    def test_unknown_field_usage_error(self, capsys):
        code, _, _ = run(capsys, "rho", "--field", "Q", "--r", "2")
        assert code == 2

    def test_nonpositive_r_usage_error(self, capsys):
        code, _, _ = run(capsys, "rho", "--field", "R", "--r", "0")
        assert code == 2


class TestBuild:
    def test_emits_expected_entries(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        code, _, _ = run(
            capsys, "build", "--field", "R", "--r", "2", "--n", "4", "--out", str(path)
        )
        assert code == 0
        frame, metadata = load_frame(str(path))
        assert metadata["variant"] == "generic"
        values = {1 / math.sqrt(3), math.sqrt(2 / 3), -1 / math.sqrt(6),
                  1 / math.sqrt(2), -1 / math.sqrt(2), 1.0, 0.0}
        seen = np.concatenate([phi.reshape(-1) for phi in frame.arrays()])
        for entry in seen:
            assert min(abs(entry - v) for v in values) <= 1e-12

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "build", "--field", "R", "--r", "2", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4 and payload["field"] == "R"

    def test_infeasible_exit_three(self, capsys):
        code, _, err = run(capsys, "build", "--field", "R", "--r", "2", "--n", "5")
        assert code == 3
        assert "n <= rho+2" in err

    def test_complex_r4_n8_verifies(self, capsys, tmp_path):
        path = tmp_path / "c48.json"
        code, _, _ = run(
            capsys,
            "build", "--field", "C", "--r", "4", "--n", "8",
            "--variant", "generic", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_unwritable_path_exit_four(self, capsys, tmp_path):
        path = tmp_path / "missing_dir" / "frame.json"
        code, _, _ = run(
            capsys, "build", "--field", "R", "--r", "2", "--n", "4", "--out", str(path)
        )
        assert code == 4

    def test_totally_symmetric_c2_case_exit_three(self, capsys):
        code, _, err = run(
            capsys,
            "build", "--field", "R", "--r", "4", "--n", "6",
            "--variant", "totally_symmetric",
        )
        assert code == 3
        assert "no totally symmetric code" in err


class TestVerify:
    @pytest.fixture
    def frame_path(self, tmp_path):
        path = tmp_path / "frame.json"
        save_frame(build_eitff(FieldTag.REAL, 2, 4), str(path), {"variant": "generic"})
        return path

    def test_pass(self, capsys, frame_path):
        code, out, _ = run(capsys, "verify", str(frame_path))
        assert code == 0
        assert out.startswith("tightness=")
        assert "gerzon=ok" in out

    def test_report_grammar(self, capsys, frame_path):
        _, out, _ = run(capsys, "verify", str(frame_path))
        keys = [token.split("=")[0] for token in out.split()]
        assert keys == ["tightness", "equiisoclinic", "welch_gap", "coherence", "gerzon"]

    def test_corrupted_entry_fails(self, capsys, frame_path):
        payload = json.loads(frame_path.read_text())
        payload["isometries"][0]["data"][0][0] += 0.05
        frame_path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", str(frame_path))
        assert code == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_member_prints_nan_gap(self, capsys, frame_path):
        payload = json.loads(frame_path.read_text())
        for pair in payload["isometries"][1]["data"]:
            pair[0] *= 1e200
        frame_path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", str(frame_path))
        assert code == 1
        assert "welch_gap=nan coherence=nan" in out

    def test_missing_file_exit_four(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 4

    def test_fewer_dimensions_than_ambient_exit_one(self, capsys, tmp_path):
        # Two lines in R^3 (nr < d): a well-formed file that fails verification.
        path = tmp_path / "lines.json"
        lines = [np.eye(3)[:, :1], np.ones((3, 1)) / math.sqrt(3)]
        save_frame(FusionFrame.from_arrays(FieldTag.REAL, lines), str(path))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert out.startswith("tightness=")


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        frame = build_eitff(FieldTag.COMPLEX, 2, 6)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        metadata = {"variant": "generic", "field": "C", "r": 2, "n": 6, "seed": None}
        save_frame(frame, str(first), metadata)
        loaded, meta = load_frame(str(first))
        assert meta == metadata
        for a, b in zip(frame.isometries, loaded.isometries):
            assert np.array_equal(a.array, b.array)
        assert loaded.arrays()[0].dtype == np.complex128
        save_frame(loaded, str(second), meta)
        assert first.read_text() == second.read_text()

    def test_extreme_entries_bit_exact(self, tmp_path):
        a = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -5e-324]])
        frame = FusionFrame.from_arrays(FieldTag.COMPLEX, [a - 1j * a[::-1], 1j * a])
        path = tmp_path / "extreme.json"
        save_frame(frame, str(path))
        loaded, _ = load_frame(str(path))
        for want, got in zip(frame.isometries, loaded.isometries):
            assert want.array.tobytes() == got.array.tobytes()

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_transposed_arrays_round_trip(self, tmp_path, field):
        # Transposes and their slices are not C-contiguous; both file
        # writers must still view them as float pairs.
        from conftest import random_orthogonal, random_unitary

        u = random_orthogonal(4, 3) if field is FieldTag.REAL else random_unitary(4, 3)
        inverse = u.conj().T
        assert not inverse.flags["C_CONTIGUOUS"]
        frame = FusionFrame.from_arrays(field, [inverse[:, :2], inverse[:, 2:]])
        frame_path = tmp_path / "frame.json"
        save_frame(frame, str(frame_path))
        loaded, _ = load_frame(str(frame_path))
        for want, got in zip(frame.isometries, loaded.isometries):
            assert np.array_equal(want.array, got.array)
        cert_path = tmp_path / "cert.json"
        save_certificate(str(cert_path), "1 2", inverse, 0.0)
        perm, upsilon, residual = load_certificate(str(cert_path))
        assert (perm, residual) == ("1 2", 0.0)
        assert upsilon.dtype == inverse.dtype
        assert np.array_equal(upsilon, inverse)

    def test_compact_and_indented_files_load_alike(self, tmp_path):
        frame = build_eitff(FieldTag.REAL, 2, 4)
        compact = tmp_path / "compact.json"
        save_frame(frame, str(compact), {"variant": "generic"})
        text = compact.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, separators=(",", ":")) + "\n"
        for phi, matrix in zip(frame.isometries, payload["isometries"]):
            assert matrix["data"] == [[z.real, z.imag] for z in phi.array.reshape(-1).tolist()]
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(payload, indent=1) + "\n")
        loaded, meta = load_frame(str(indented))
        assert meta == {"variant": "generic"}
        for want, got in zip(frame.isometries, loaded.isometries):
            assert want.array.tobytes() == got.array.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_reformatted_files_load_as_json_reads_them(self, tmp_path_factory, data):
        # Any layout json can write reads as json.load reads it, whatever
        # read size splits the text; a proper prefix of it exits 4.
        field = data.draw(st.sampled_from(FieldTag))
        d = data.draw(st.integers(1, 4))
        r, n = data.draw(st.integers(1, d)), data.draw(st.integers(2, 4))
        parts = data.draw(hnp.arrays(np.float64, (2, n, d, r), elements=entries))
        frame = FusionFrame.from_arrays(field, parts[0] + 1j * parts[1] if field is FieldTag.COMPLEX else parts[0])
        metadata = data.draw(st.dictionaries(st.text(max_size=3), json_values, max_size=4))
        path = tmp_path_factory.mktemp("reformat") / "frame.json"
        save_frame(frame, str(path), metadata)
        payload = json.loads(path.read_text())
        order = data.draw(st.permutations(sorted(_MATRIX_KEYS)))
        payload["isometries"] = [{key: m[key] for key in order} for m in payload["isometries"]]
        payload = {key: payload[key] for key in data.draw(st.permutations(list(payload)))}
        ws = st.text(" \t\n\r", max_size=2)
        raw = (data.draw(ws) + json.dumps(
            payload,
            indent=data.draw(st.one_of(st.none(), st.integers(0, 2), st.just("\t"))),
            separators=(data.draw(ws) + "," + data.draw(ws), data.draw(ws) + ":" + data.draw(ws)),
            ensure_ascii=data.draw(st.booleans()),
        ) + data.draw(ws)).encode()
        path.write_bytes(raw)
        with mock.patch.object(frame_io, "_CHUNK", data.draw(st.integers(1, 64))):
            loaded, meta = load_frame(str(path))
            reference = json.loads(raw)
            pairs = np.array([m["data"] for m in reference["isometries"]], np.float64)
            want = pairs.view(np.complex128)[..., 0] if field is FieldTag.COMPLEX else pairs[..., 0]
            assert (loaded.field.value, loaded.d, loaded.r, loaded.n) == (
                reference["field"], reference["d"], reference["r"], reference["n"]
            )
            assert loaded.array.tobytes() == want.reshape(n, d, r).tobytes() == frame.array.tobytes()
            assert meta == reference["metadata"] == metadata
            path.write_bytes(raw[: data.draw(st.integers(0, raw.rindex(b"}")))])
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["verify", str(path)]) == 4
            assert err.getvalue().startswith("format error: ") and err.getvalue().count("\n") == 1


def list_payload(a):
    """A matrix payload as the json encoder writes the [[re, im], ...] list."""
    pairs = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return json.JSONEncoder(separators=(",", ":")).encode({
        "field": "C" if np.iscomplexobj(a) else "R",
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": pairs.reshape(-1, 2).tolist(),
    })


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, -1e16, 1.7976931348623157e308, 0.1]
entries = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# Metadata values; keys of at most 3 characters never spell a matrix payload.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | entries | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def matrices(draw):
    """Float64 or complex128 matrices, as given or as a strided slice."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    parts = draw(hnp.arrays(np.float64, (2, 2 * rows, 2 * cols), elements=entries))
    a = parts[0] + 1j * parts[1] if draw(st.booleans()) else parts[0]
    view = draw(st.sampled_from(["whole", "strided", "transposed"]))
    if view == "strided":
        return a[::2, 1::2]
    if view == "transposed":
        return a[:rows, :cols].T
    return a[:rows, :cols]


class TestWriter:
    """The writer formats entries itself; its bytes are the json encoder's."""

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_matrix_text_equals_list_encoding(self, a):
        assert _matrix_text(a) == list_payload(a)

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_one_by_one(self, value, dtype):
        a = np.array([[value]], dtype=dtype)
        if dtype is np.complex128:
            a = a + 1j * np.array([[-value]])
        assert _matrix_text(a) == list_payload(a)

    def test_complement_and_certificate_files_are_canonical(self, capsys, tmp_path):
        from conftest import random_unitary

        src, comp = tmp_path / "r16.json", tmp_path / "comp.json"
        save_frame(build_eitff(FieldTag.REAL, 16, 11), str(src), {"variant": "generic"})
        assert run(capsys, "naimark", str(src), "--out", str(comp))[0] == 0
        cert = tmp_path / "cert.json"
        save_certificate(str(cert), "2 1 3", random_unitary(6, 2), 3.5e-16)
        for path in (src, comp, cert):
            with open(path, encoding="utf-8") as fp:
                text = fp.read()
            assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_witness_refused(self, tmp_path, bad):
        upsilon = np.eye(4)
        upsilon[1, 2] = bad
        path = tmp_path / "cert.json"
        with pytest.raises(InvalidInputError):
            save_certificate(str(path), "1 2 3 4", upsilon, 0.0)
        with pytest.raises(InvalidInputError):
            save_certificate(str(path), "1 2 3 4", np.eye(4), float(bad))
        assert not path.exists()

    def test_cli_refuses_nan_witness(self, capsys, tmp_path, monkeypatch):
        frame_path, cert_path = tmp_path / "frame.json", tmp_path / "cert.json"
        save_frame(build_eitff(FieldTag.REAL, 2, 4), str(frame_path))
        upsilon = np.full((4, 4), np.nan)

        def nan_witness(system, sigma):
            return SymmetryCertificate(sigma, upsilon, 0.0)

        monkeypatch.setattr(symmetry.CliffordSystem, "witness", nan_witness)
        code, _, err = run(
            capsys, "sym", "witness", str(frame_path), "--perm", "2 1 3 4", "--out", str(cert_path)
        )
        assert code == 1
        assert err.startswith("invalid input: ")
        assert not cert_path.exists()


DEEP = "[" * 200_000 + "]" * 200_000
RAW = "@RAW@"  # stands for text that json.dumps cannot write


def _entry(value, part=0):
    def edit(matrix):
        matrix["data"][0][part] = value

    return edit


def _set(key, value):
    def edit(payload):
        payload[key] = value

    return edit


def _bare_number(matrix):
    matrix["data"][0] = 0.5


def _all_triples(matrix):
    for pair in matrix["data"]:
        pair.append(0.0)


# Defects of one matrix payload, given as (edit, text replacing RAW).  Each
# is put into an isometry of a frame file and into the witness of a
# certificate file.
MATRIX_DEFECTS = {
    "unhashable-field": (_set("field", ["R"]), None),
    "int-overflow": (_entry(10**400), None),
    "int-too-many-digits": (_entry(RAW), "9" * 5000),
    "deep-nesting": (_entry(RAW), DEEP),
    "bool-entry": (_entry(True), None),
    "numeric-string": (_entry("0.5"), None),
    "null-entry": (_entry(None), None),
    "nested-entry": (_entry([0.5, 0.0]), None),
    "bare-number-pair": (_bare_number, None),
    "three-element-pair": (lambda m: m["data"][0].append(0.0), None),
    "all-triples": (_all_triples, None),
    "nan-literal": (_entry(float("nan")), None),
    "infinity-literal": (_entry(float("inf"), part=1), None),
    "imaginary-in-real": (_entry(0.25, part=1), None),
    "short-data": (lambda m: m["data"].pop(), None),
}

# Matrix defects whose message must survive the JSON parse that finds them.
OWN_MESSAGES = {
    "nan-literal": "entry 0 is not finite",
    "short-data": "data does not hold",
}

# Whole-file defects, as edits of the file's text.
FILE_DEFECTS = {
    "not-utf8": lambda text: b"\xff" + text.encode(),
    "truncated": lambda text: text[: len(text) // 2].encode(),
    "deep-document": lambda text: DEEP.encode(),
    "extra-data": lambda text: (text + "{}").encode(),
}


def _isometry(rows, cols):
    data = [[1.0 if i == j else 0.0, 0.0] for i in range(rows) for j in range(cols)]
    return {"field": "R", "rows": rows, "cols": cols, "data": data}


# Frame headers that are incomplete or that no frame can have.
HEADER_DEFECTS = {
    "missing-isometries": lambda p: p.pop("isometries"),
    "unhashable-frame-field": lambda p: p.update(field=["R"]),
    "d-below-r": lambda p: p.update(d=1, r=2, isometries=[_isometry(1, 2)] * p["n"]),
    "single-subspace": lambda p: p.update(n=1, isometries=p["isometries"][:1]),
    "bool-dimension": lambda p: p.update(n=True),
    "metadata-list": lambda p: p.update(metadata=[]),
    "isometry-number": lambda p: p["isometries"].__setitem__(0, 0.5),
    "isometry-missing-data": lambda p: p["isometries"][0].pop("data"),
    "metadata-matrix": lambda p: p.update(metadata={"m": _isometry(1, 1)}),
}

# Certificates whose witness is missing, not a matrix, or not alone.
CERTIFICATE_DEFECTS = {
    "missing-upsilon": lambda p: p.pop("upsilon"),
    "upsilon-number": lambda p: p.update(upsilon=0.5),
    "second-matrix": lambda p: p.update(extra=_isometry(1, 1)),
}

# Certificate residuals, as JSON text.
RESIDUAL_DEFECTS = {
    "nan-literal": "NaN",
    "infinity-literal": "Infinity",
    "int-overflow": "1" + "0" * 400,
    "bool": "true",
    "string": '"0"',
}


class TestLoaderFuzz:
    """Every malformed file exits 4 with a one-line format error."""

    @pytest.fixture
    def paths(self, tmp_path):
        frame_path = tmp_path / "frame.json"
        cert_path = tmp_path / "cert.json"
        save_frame(build_eitff(FieldTag.REAL, 2, 4), str(frame_path))
        save_certificate(str(cert_path), "1 3 2 4", np.eye(4), 0.0)
        return frame_path, cert_path

    @staticmethod
    def assert_format_error(capsys, target, paths):
        frame_path, cert_path = paths
        if target == "frame":
            code, _, err = run(capsys, "verify", str(frame_path))
        else:
            code, _, err = run(capsys, "sym", "check", str(frame_path), "--cert", str(cert_path))
        assert code == 4
        assert err.startswith("format error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("target", ["frame", "certificate"])
    @pytest.mark.parametrize("defect", MATRIX_DEFECTS)
    def test_matrix_defect(self, capsys, paths, target, defect):
        path = paths[0] if target == "frame" else paths[1]
        payload = json.loads(path.read_text())
        edit, raw = MATRIX_DEFECTS[defect]
        edit(payload["isometries"][0] if target == "frame" else payload["upsilon"])
        text = json.dumps(payload)
        if raw is not None:
            text = text.replace(f'"{RAW}"', raw)
        path.write_text(text)
        err = self.assert_format_error(capsys, target, paths)
        if defect in OWN_MESSAGES:
            # A matrix is decoded inside json's parse; its own error must
            # not be reported as a JSON syntax error.
            assert OWN_MESSAGES[defect] in err and "not valid UTF-8 JSON" not in err

    @pytest.mark.parametrize("target", ["frame", "certificate"])
    @pytest.mark.parametrize("defect", FILE_DEFECTS)
    def test_file_defect(self, capsys, paths, target, defect):
        path = paths[0] if target == "frame" else paths[1]
        path.write_bytes(FILE_DEFECTS[defect](path.read_text()))
        self.assert_format_error(capsys, target, paths)

    @pytest.mark.parametrize("defect", HEADER_DEFECTS)
    def test_frame_header_defect(self, capsys, paths, defect):
        payload = json.loads(paths[0].read_text())
        HEADER_DEFECTS[defect](payload)
        paths[0].write_text(json.dumps(payload))
        self.assert_format_error(capsys, "frame", paths)

    @pytest.mark.parametrize("defect", CERTIFICATE_DEFECTS)
    def test_certificate_defect(self, capsys, paths, defect):
        payload = json.loads(paths[1].read_text())
        CERTIFICATE_DEFECTS[defect](payload)
        paths[1].write_text(json.dumps(payload))
        self.assert_format_error(capsys, "certificate", paths)

    @pytest.mark.parametrize("defect", RESIDUAL_DEFECTS)
    def test_certificate_residual_defect(self, capsys, paths, defect):
        payload = json.loads(paths[1].read_text())
        payload["residual"] = RAW
        paths[1].write_text(json.dumps(payload).replace(f'"{RAW}"', RESIDUAL_DEFECTS[defect]))
        self.assert_format_error(capsys, "certificate", paths)

    @pytest.fixture
    def big(self, tmp_path):
        """A frame file each of whose two payloads spans several reads."""
        frame = random_subspace_frame(FieldTag.REAL, 96, 48, 2, seed=5)
        path = tmp_path / "big.json"
        save_frame(frame, str(path), {"note": "é"})
        return path, frame

    @staticmethod
    def assert_loads_alike(path, frame):
        loaded, metadata = load_frame(str(path))
        assert loaded.array.tobytes() == frame.array.tobytes()
        assert metadata == {"note": "é"}

    def test_payload_longer_than_a_chunk_loads_alike(self, big):
        path, frame = big
        assert all(len(json.dumps(m)) > 2 * _CHUNK for m in json.loads(path.read_text())["isometries"])
        self.assert_loads_alike(path, frame)

    @pytest.mark.parametrize("defect", MATRIX_DEFECTS)
    def test_matrix_defect_past_the_first_chunk(self, capsys, big, defect):
        path, _ = big
        payload = json.loads(path.read_text())
        edit, raw = MATRIX_DEFECTS[defect]
        edit(payload["isometries"][1])
        text = json.dumps(payload)
        if raw is not None:
            text = text.replace(f'"{RAW}"', raw)
        path.write_text(text)
        err = self.assert_format_error(capsys, "frame", (path, None))
        if defect in OWN_MESSAGES:
            assert OWN_MESSAGES[defect] in err and "not valid UTF-8 JSON" not in err

    @pytest.mark.parametrize("where", ["entry", "dimension", "utf8-character"])
    def test_text_split_at_a_chunk_boundary(self, capsys, big, where):
        # Leading spaces put byte `at` at the start of a read: the file loads
        # alike, and cut there it exits 4.
        path, frame = big
        payload = json.loads(path.read_text())
        payload["d"] = payload.pop("d")  # last, so the file ends with d=96
        raw = json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode()
        if where == "entry":
            at = next(i for i in range(_CHUNK // 2, len(raw)) if raw[i - 1 : i + 1].isdigit())
        elif where == "dimension":
            at = raw.rindex(b"96") + 1
        else:
            at = raw.index("é".encode()) + 1
        raw = b" " * (-at % _CHUNK) + raw
        path.write_bytes(raw)
        self.assert_loads_alike(path, frame)
        path.write_bytes(raw[: at + (-at % _CHUNK)])
        self.assert_format_error(capsys, "frame", (path, None))

    @pytest.mark.parametrize("at", range(1, len("1.2345e-17")))
    def test_residual_split_at_a_chunk_boundary(self, paths, at):
        # A number whose text stops at the end of a read may go on in the
        # next one, even after a "." or an exponent's "e" or sign.
        save_certificate(str(paths[1]), "1 3 2 4", np.eye(4), 1.2345e-17)
        raw = paths[1].read_bytes()
        at += raw.index(b"1.2345e-17")
        paths[1].write_bytes(b" " * (-at % _CHUNK) + raw)
        assert load_certificate(str(paths[1]))[2] == 1.2345e-17

    @pytest.mark.parametrize("where", ["in-a-payload", "after-a-split-character"])
    def test_non_utf8_byte_after_the_first_chunk(self, capsys, big, where):
        # The message names the byte's place in the file, also when a read
        # began inside the character before it.
        path, _ = big
        raw = bytearray(json.dumps(json.loads(path.read_text()), ensure_ascii=False).encode())
        if where == "in-a-payload":
            at = _CHUNK + 1000
        else:
            split = raw.index("é".encode()) + 1
            raw[:0] = b" " * (-split % _CHUNK)
            at = split + (-split % _CHUNK) + 1
        raw[at] = 0xFF
        path.write_bytes(raw)
        err = self.assert_format_error(capsys, "frame", (path, None))
        assert f"invalid start byte at byte {at}" in err

    def test_isometries_before_the_header_load_alike(self, big):
        path, frame = big
        payload = json.loads(path.read_text())
        order = ["isometries", "metadata", "n", "r", "d", "field"]
        path.write_text(json.dumps({key: payload[key] for key in order}))
        self.assert_loads_alike(path, frame)

    def test_duplicate_top_level_key_is_refused(self, capsys, paths):
        text = paths[0].read_text().rstrip()
        paths[0].write_text(text[:-1] + ',"d":4}')
        err = self.assert_format_error(capsys, "frame", paths)
        assert "duplicate key 'd'" in err


class TestNaimark:
    def test_complement_verifies(self, capsys, tmp_path):
        src = tmp_path / "frame.json"
        dst = tmp_path / "comp.json"
        save_frame(build_eitff(FieldTag.REAL, 4, 6), str(src))
        code, _, _ = run(capsys, "naimark", str(src), "--out", str(dst))
        assert code == 0
        frame, _ = load_frame(str(dst))
        assert (frame.d, frame.r, frame.n) == (16, 4, 6)
        code, _, _ = run(capsys, "verify", str(dst), "--tol", "1e-9")
        assert code == 0

    @pytest.mark.parametrize("field, r, n", [(FieldTag.REAL, 16, 11), (FieldTag.COMPLEX, 8, 8)])
    def test_load_peak_memory_is_near_file_size(self, tmp_path, field, r, n):
        # A load reads the file a chunk at a time and decodes each matrix as
        # soon as its text is read, so it holds the decoded members, their
        # copy S, and one matrix's text and [re, im] lists, never the file
        # text: at R16 n=11 it peaks at 3.2 S, and holding the text read 6.9 S.
        path = tmp_path / "comp.json"
        comp = naimark_complement(build_eitff(field, r, n))
        save_frame(comp, str(path))
        tracemalloc.start()
        try:
            load_frame(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * comp.synthesis.nbytes + _CHUNK

    def test_untight_input_exit_one(self, capsys, tmp_path):
        src = tmp_path / "loose.json"
        save_frame(random_subspace_frame(FieldTag.REAL, 4, 2, 4, seed=4), str(src))
        code, _, _ = run(capsys, "naimark", str(src), "--out", str(tmp_path / "x.json"))
        assert code == 1


class TestAngles:
    def test_lists_every_pair(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        save_frame(build_eitff(FieldTag.REAL, 2, 4), str(path))
        code, out, _ = run(capsys, "angles", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        want = math.acos(1 / math.sqrt(3))
        first = lines[0].split("theta=")[1].split()
        assert all(abs(float(tok) - want) <= 1e-6 for tok in first)


def zero_last_member():
    """The real code with r = 2 and n = 4, its last member zero."""
    arrays = build_eitff(FieldTag.REAL, 2, 4).arrays()
    arrays[-1] = 0.0
    return FusionFrame.from_arrays(FieldTag.REAL, arrays)


class TestSym:
    @pytest.fixture
    def frame_path(self, tmp_path):
        path = tmp_path / "frame.json"
        save_frame(build_eitff(FieldTag.REAL, 2, 4), str(path))
        return path

    def test_witness_found_and_checked(self, capsys, frame_path, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys,
            "sym", "witness", str(frame_path),
            "--perm", "1 3 2 4", "--out", str(cert_path),
        )
        assert code == 0
        assert out.startswith("witness=found")
        code, out, _ = run(
            capsys, "sym", "check", str(frame_path), "--cert", str(cert_path)
        )
        assert code == 0
        assert "result=pass" in out

    def test_witness_none(self, capsys, tmp_path):
        path = tmp_path / "etf.json"
        save_frame(build_eitff(FieldTag.COMPLEX, 1, 4), str(path))
        code, out, _ = run(capsys, "sym", "witness", str(path), "--perm", "2 1 3 4")
        assert code == 0
        assert out.strip() == "witness=none (closed form, m=3, tr_omega=2.00)"

    @pytest.mark.parametrize(
        "field,r,n,argv,line",
        [
            (FieldTag.REAL, 4, 6, ["witness", "--perm", "2 1 3 4 5 6"],
             "witness=none (closed form, m=5, tr_omega=8.00)"),
            (FieldTag.COMPLEX, 4, 8, ["witness", "--perm", "2 1 3 4 5 6 7 8"],
             "witness=none (closed form, m=7, tr_omega=8.00)"),
            (FieldTag.COMPLEX, 32, 14, ["witness", "--perm", " ".join(["2", "1", *map(str, range(3, 15))])],
             "witness=none (closed form, m=13, tr_omega=64.00)"),
            (FieldTag.REAL, 8, 8, ["witness", "--perm", "2 1 3 4 5 6 7 8"], "witness=found residual="),
            (FieldTag.REAL, 4, 6, ["probe"], "symmetry=alternating (closed form, m=5, tr_omega=8.00)"),
            (FieldTag.COMPLEX, 16, 10, ["probe"], "symmetry=total (closed form, m=9, tr_omega=0.00)"),
        ],
    )
    def test_sym_forms_the_clifford_system_once(
        self, capsys, tmp_path, formations, field, r, n, argv, line
    ):
        """Each answer, and the proof note, comes from one `clifford_system`."""
        path = tmp_path / "code.json"
        save_frame(build_eitff(field, r, n), str(path))
        command, *rest = argv
        code, out, _ = run(capsys, "sym", command, str(path), *rest)
        assert code == 0
        if line == "witness=found residual=":
            # The residual may move in its last digits; it must clear --tol.
            assert out.startswith(line) and float(out[len(line):]) <= DEFAULT_TOL
        else:
            assert out.strip() == line
        assert len(formations) == 1

    @pytest.mark.parametrize("field,r,n", [(FieldTag.REAL, 4, 6), (FieldTag.REAL, 8, 8)])
    def test_api_forms_the_clifford_system_once(self, formations, field, r, n):
        frame = build_eitff(field, r, n)
        symmetry.find_witness(frame, symmetry.Permutation.transposition(n, 1, 2))
        assert len(formations) == 1
        symmetry.probe_symmetry(frame)
        assert len(formations) == 2

    @pytest.fixture
    def formations(self, monkeypatch):
        """Every call of `clifford_system`, through the CLI's name or the
        module's."""
        calls, clifford_system = [], symmetry.clifford_system

        def counted(*args):
            calls.append(args)
            return clifford_system(*args)

        monkeypatch.setattr(symmetry, "clifford_system", counted)
        monkeypatch.setattr(cli, "clifford_system", counted)
        return calls

    def test_near_code_witness_none_is_bare(self, capsys, tmp_path):
        """A frame that passes the Clifford gate but whose closed-form
        witness misses --tol: a numeric verdict, with no proof note."""
        path = tmp_path / "near.json"
        save_frame(near_code(221, 1e-11), str(path))
        code, out, _ = run(capsys, "sym", "witness", str(path), "--perm", "2 1 3 4 5 6 7 8")
        assert code == 0
        assert out == "witness=none\n"
        code, out, _ = run(capsys, "sym", "probe", str(path))
        assert code == 0
        assert out.startswith("symmetry=total (closed form, m=7, ")

    @pytest.mark.parametrize("command", ["witness", "probe"])
    @pytest.mark.parametrize(
        "make,reason",
        [
            pytest.param(lambda: random_subspace_frame(FieldTag.REAL, 4, 2, 4, seed=13),
                         "sum of Gamma_i residual", id="random"),
            pytest.param(lambda: random_subspace_frame(FieldTag.REAL, 33, 2, 3, seed=1),
                         "d = 33 is not 2r = 4", id="large-d"),
            pytest.param(zero_last_member, "sum of Gamma_i residual", id="rank-deficient"),
            pytest.param(lambda: naimark_complement(build_eitff(FieldTag.REAL, 8, 10)),
                         "d = 64 is not 2r = 16", id="complement-R8n10"),
        ],
    )
    def test_non_code_refused(self, capsys, tmp_path, command, make, reason):
        """Only codes with d = 2r are answered: any other frame is a usage
        error (exit 2) that names the failed condition, with nothing on
        stdout."""
        frame = make()
        path = tmp_path / "frame.json"
        save_frame(frame, str(path))
        perm = " ".join(["2", "1", *map(str, range(3, frame.n + 1))])
        argv = ["--perm", perm] if command == "witness" else []
        code, out, err = run(capsys, "sym", command, str(path), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: not a code: ")
        assert reason in err

    def test_perm_size_mismatch_usage_error(self, capsys, frame_path):
        code, _, err = run(capsys, "sym", "witness", str(frame_path), "--perm", "2 1 3")
        assert code == 2

    def test_malformed_perm_usage_error(self, capsys, frame_path):
        code, _, _ = run(capsys, "sym", "witness", str(frame_path), "--perm", "(1 2)")
        assert code == 2

    def test_probe_total(self, capsys, frame_path):
        code, out, _ = run(capsys, "sym", "probe", str(frame_path))
        assert code == 0
        assert out.strip() == "symmetry=total (closed form, m=3, tr_omega=0.00)"

    def test_probe_alternating(self, capsys, tmp_path):
        path = tmp_path / "etf.json"
        save_frame(build_eitff(FieldTag.COMPLEX, 1, 4), str(path))
        code, out, _ = run(capsys, "sym", "probe", str(path))
        assert code == 0
        assert out.strip() == "symmetry=alternating (closed form, m=3, tr_omega=2.00)"

    def test_check_fail_exit_one(self, capsys, frame_path, tmp_path):
        cert_path = tmp_path / "bad.json"
        save_certificate(str(cert_path), "2 1 3 4", np.eye(4), 0.0)
        code, out, _ = run(
            capsys, "sym", "check", str(frame_path), "--cert", str(cert_path)
        )
        assert code == 1
        assert "result=fail" in out


class TestExists:
    def test_plain_existence(self, capsys):
        code, out, _ = run(capsys, "exists", "--field", "R", "--r", "2", "--n", "4")
        assert code == 0 and out.startswith("yes")
        code, out, _ = run(capsys, "exists", "--field", "R", "--r", "2", "--n", "5")
        assert code == 0 and out.startswith("no")

    def test_total_symmetry_c2_boundary_no(self, capsys):
        code, out, _ = run(
            capsys, "exists", "--field", "R", "--r", "4", "--n", "6", "--total"
        )
        assert code == 0
        assert out.startswith("no")

    def test_total_symmetry_yes_no(self, capsys):
        code, out, _ = run(
            capsys, "exists", "--field", "C", "--r", "1", "--n", "4", "--total"
        )
        assert code == 0 and out.startswith("no")
        code, out, _ = run(
            capsys, "exists", "--field", "R", "--r", "2", "--n", "4", "--total"
        )
        assert code == 0 and out.startswith("yes")


    @pytest.mark.parametrize(
        "argv,want",
        [
            ("R 2 4", "yes (existence bound n <= rho+2, rho=2)"),
            ("R 2 5", "no (existence bound n <= rho+2, rho=2)"),
            ("C 1 4 --total", "no (complex total-symmetry bound n <= rho+1, rho=2)"),
            ("C 2 5 --total", "yes (complex total-symmetry bound n <= rho+1, rho=4)"),
            ("R 4 5 --total", "yes (skew-simplex construction at n <= rho+1, rho=4)"),
            ("R 2 4 --total", "yes (generic code has tr omega = 0 at n = rho+2 (c=1))"),
            ("R 16 11 --total", "yes (generic code has tr omega = 0 at n = rho+2 (c=0))"),
            ("R 4 6 --total", "no (quaternionic module count at n = rho+2 (c=2))"),
            ("R 8 10 --total", "no (complex obstruction at n = rho+2 (c=3))"),
            ("R 8 11 --total", "no (existence bound n <= rho+2, rho=8)"),
        ],
    )
    def test_stdout_names_the_deciding_rule(self, capsys, argv, want):
        field, r, n, *total = argv.split()
        code, out, err = run(capsys, "exists", "--field", field, "--r", r, "--n", n, *total)
        assert (code, out, err) == (0, want + "\n", "")


class TestOmp:
    @pytest.fixture(scope="class")
    def code_paths(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("omp")
        paths = {}
        for field, r in (("R", 64), ("C", 32)):
            paths[field] = out / f"{field}{r}.json"
            save_frame(build_eitff(FieldTag(field), r, 14), str(paths[field]))
        return paths

    # Outputs of the lstsq-only refit.  Beyond k = 2 the kr columns exceed
    # d = 2r, so the minimum-norm fit spreads over blocks not planted.
    @pytest.mark.parametrize("field", ["R", "C"])
    @pytest.mark.parametrize("k,want", [(1, "40/40"), (2, "40/40"), (3, "0/40")])
    def test_demo_stdout_on_n14_codes(self, capsys, code_paths, field, k, want):
        code, out, _ = run(
            capsys,
            "omp", "demo", str(code_paths[field]), "--k", str(k), "--trials", "40", "--seed", "3",
        )
        assert code == 0
        assert out == f"recovered={want}\n"

    def test_demo_recovers_everything(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        save_frame(build_eitff(FieldTag.REAL, 2, 4), str(path))
        code, out, _ = run(
            capsys,
            "omp", "demo", str(path), "--k", "1", "--trials", "200", "--seed", "7",
        )
        assert code == 0
        assert out.strip() == "recovered=200/200"


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    # Argument errors exit 2 before any file is read, so the paths need
    # not exist.  A tolerance must be finite and positive.
    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate"],
            ["verify", "frame.json", "--tol", "nan"],
            ["verify", "frame.json", "--tol", "-1"],
            ["verify", "frame.json", "--tol", "0"],
            ["verify", "frame.json", "--tol", "inf"],
            ["verify", "frame.json", "--tol", "tiny"],
            ["sym", "probe", "frame.json", "--tol", "nan"],
            ["sym", "witness", "frame.json", "--perm", "2 1", "--tol", "-1"],
            ["sym", "check", "frame.json", "--cert", "cert.json", "--tol", "inf"],
        ],
        ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json")),
    )
    def test_usage_errors(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [["sym", "probe"], ["sym", "witness", "--perm", "2 1 3 4 5 6 7 8"], ["omp", "demo"]],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_negative_seed_is_a_usage_error(self, capsys, tmp_path, argv):
        """A seed below 0 is refused by the parser (exit 2), not by the
        random generator with a traceback."""
        path = tmp_path / "code.json"
        save_frame(build_eitff(FieldTag.REAL, 8, 8), str(path))
        code, out, err = run(capsys, *argv[:2], str(path), *argv[2:], "--seed", "-1")
        assert (code, out) == (2, "")
        assert "expected a non-negative integer seed, got -1" in err


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(eitff.__path__)])
def test_module_imports_no_private_name(name):
    """Each module of `eitff` reaches the others only through public names."""
    module = importlib.import_module(f"eitff.{name}")
    private = [
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("eitff"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
