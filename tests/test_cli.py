import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import pathlib
import pkgutil
import runpy
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import eitff
from eitff import cli, frame_io, radon_hurwitz, symmetry
from eitff.cli import main
from eitff.errors import FormatError, InvalidInputError
from eitff.frame_io import (
    _CHUNK,
    _MATRIX_KEYS,
    _matrix_text,
    _read,
    load_certificate,
    load_frame,
    save_certificate,
    save_frame,
)
from eitff.frames import FusionFrame, build_eitff, naimark_complement, verify_eitff
from eitff.linalg import DEFAULT_TOL, FieldTag
from eitff.radon_hurwitz import exists, rho_number
from eitff.symmetry import SymmetryCertificate

from conftest import near_code, perturbed_to, random_subspace_frame


def givens(d, t):
    """The rotation by t in the plane of the first and last coordinates of F^d."""
    rot = np.eye(d)
    rot[[0, 0, -1, -1], [0, -1, 0, -1]] = math.cos(t), -math.sin(t), math.sin(t), math.cos(t)
    return rot


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
        assert metadata == {"field": "R", "r": 2, "n": 4}
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
            "build", "--field", "C", "--r", "4", "--n", "8", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0

    @pytest.mark.parametrize("command", ["build", "sym-witness"])
    def test_unwritable_path_exit_four(self, capsys, tmp_path, command):
        """An --out in a missing directory exits 4 and prints nothing on
        stdout: `sym witness` writes its certificate before its line."""
        path = str(tmp_path / "missing_dir" / "out.json")
        if command == "build":
            argv = ["build", "--field", "R", "--r", "2", "--n", "4", "--out", path]
        else:
            frame_path = str(tmp_path / "frame.json")
            save_frame(build_eitff(FieldTag.REAL, 2, 4), frame_path)
            argv = ["sym", "witness", frame_path, "--perm", "2 1 3 4", "--out", path]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("io error: ")


class TestVerify:
    @pytest.fixture
    def frame_path(self, tmp_path):
        path = tmp_path / "frame.json"
        save_frame(build_eitff(FieldTag.REAL, 2, 4), str(path), {"field": "R", "r": 2, "n": 4})
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

    @pytest.mark.parametrize("scale,passed", [(0.5, True), (2.0, False)])
    def test_verdict_flips_at_tol(self, capsys, tmp_path, scale, passed):
        """A code with its first member rotated so that its largest residual
        reads about 0.5 or 2 tol: `passed` and the exit code flip between
        the two, so the verdict is read at tol itself."""
        members = build_eitff(FieldTag.REAL, 4, 6).arrays()

        def tilted(t):
            return FusionFrame.from_arrays(FieldTag.REAL, [givens(8, t) @ members[0], *members[1:]])

        def worst(frame):
            report = verify_eitff(frame)
            return max(report.isometry_residual, report.tightness_residual,
                       report.equiisoclinic_residual, report.welch_gap)

        frame = perturbed_to(worst, tilted, scale * DEFAULT_TOL)
        assert 0.8 * scale <= worst(frame) / DEFAULT_TOL <= 1.2 * scale
        assert verify_eitff(frame).passed == passed
        path = tmp_path / "tilted.json"
        save_frame(frame, str(path))
        assert run(capsys, "verify", str(path))[0] == (0 if passed else 1)

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
        metadata = {"field": "C", "r": 2, "n": 6}
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
        perm, upsilon = load_certificate(str(cert_path))
        assert perm == "1 2"
        assert upsilon.dtype == inverse.dtype
        assert np.array_equal(upsilon, inverse)

    def test_compact_and_indented_files_load_alike(self, tmp_path):
        frame = build_eitff(FieldTag.REAL, 2, 4)
        compact = tmp_path / "compact.json"
        save_frame(frame, str(compact), {"field": "R", "r": 2, "n": 4})
        text = compact.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, separators=(",", ":")) + "\n"
        for phi, matrix in zip(frame.isometries, payload["isometries"]):
            assert matrix["data"] == [[z.real, z.imag] for z in phi.array.reshape(-1).tolist()]
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(payload, indent=1) + "\n")
        loaded, meta = load_frame(str(indented))
        assert meta == {"field": "R", "r": 2, "n": 4}
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
        save_frame(build_eitff(FieldTag.REAL, 16, 11), str(src), {"field": "R", "r": 16, "n": 11})
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
            return SymmetryCertificate(sigma, upsilon)

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

# Separators of json.dumps: its default, and the writer's compact layout,
# which the reader's compact route reads.
LAYOUTS = {"spaced": (", ", ": "), "compact": (",", ":")}

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

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("target", ["frame", "certificate"])
    @pytest.mark.parametrize("defect", MATRIX_DEFECTS)
    def test_matrix_defect(self, capsys, paths, target, defect, layout):
        path = paths[0] if target == "frame" else paths[1]
        payload = json.loads(path.read_text())
        edit, raw = MATRIX_DEFECTS[defect]
        edit(payload["isometries"][0] if target == "frame" else payload["upsilon"])
        text = json.dumps(payload, separators=LAYOUTS[layout])
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

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("defect", MATRIX_DEFECTS)
    def test_matrix_defect_past_the_first_chunk(self, capsys, big, defect, layout):
        path, _ = big
        payload = json.loads(path.read_text())
        edit, raw = MATRIX_DEFECTS[defect]
        edit(payload["isometries"][1])
        text = json.dumps(payload, separators=LAYOUTS[layout])
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
        # next one, even after a "." or an exponent's "e" or sign.  The
        # certificate still loads, and the reader parsed the whole number.
        save_certificate(str(paths[1]), "1 3 2 4", np.eye(4), 1.2345e-17)
        raw = paths[1].read_bytes()
        at += raw.index(b"1.2345e-17")
        paths[1].write_bytes(b" " * (-at % _CHUNK) + raw)
        assert load_certificate(str(paths[1]))[0] == "1 3 2 4"
        assert _read(str(paths[1]))[0]["residual"] == 1.2345e-17

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


def route(compact):
    """A context in which the reader's compact route is on, or off."""
    if compact:
        return contextlib.nullcontext()
    return mock.patch.object(frame_io._Stream, "compact", lambda stream: None)


def read_payload(path, text, compact):
    """What `_read` makes of a file whose one member is the payload `text`,
    with the compact route on or off: the matrix's field, dtype, shape and
    bytes and the payload count, another value's repr, or the FormatError
    message."""
    path.write_text('{"upsilon":' + text + "}")
    with route(compact):
        try:
            obj, decoded = _read(str(path))
        except FormatError as exc:
            return str(exc)
    value = obj["upsilon"]
    if isinstance(value, tuple):
        field, a = value
        return field, a.dtype, a.shape, a.flags.c_contiguous, a.tobytes(), decoded
    return repr(value), decoded


EDIT_CHARS = '0123456789.eE+-,[]{}" abcdefghijklmnopqrstuvwxyzINF'
PAYLOAD_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, 0.5, -2.5e-3, 1e16, 5e-324])


@st.composite
def edited_payloads(draw):
    """A payload as the writer lays it out, with one character inserted,
    deleted or replaced."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    parts = draw(hnp.arrays(np.float64, (2, rows, cols), elements=PAYLOAD_ENTRIES))
    text = _matrix_text(parts[0] + 1j * parts[1] if draw(st.booleans()) else parts[0])
    at = draw(st.integers(0, len(text) - 1))
    char = draw(st.sampled_from(EDIT_CHARS))
    return draw(st.sampled_from([
        text[:at] + char + text[at:], text[:at] + text[at + 1 :], text[:at] + char + text[at + 1 :]
    ]))


def matrix_payload(field, data, rows, cols):
    return f'{{"field":"{field}","rows":{rows},"cols":{cols},"data":{data}}}'


# Payloads close to the writer's layout, with what both routes load them as.
NAMED_LOADS = {
    "int-imaginary": (matrix_payload("R", "[[1.5,0],[2.5,0.0]]", 1, 2), [[1.5, 2.5]]),
    "negative-zero-imaginary": (matrix_payload("R", "[[1.5,-0.0],[2.5,0.0]]", 2, 1), [[1.5], [2.5]]),
    "int-entries": (matrix_payload("R", "[[1,0.0],[-2,0.0]]", 1, 2), [[1.0, -2.0]]),
    "complex-int-entries": (matrix_payload("C", "[[1,2],[3,-4]]", 2, 1), [[1 + 2j], [3 - 4j]]),
    "key-after-data": (matrix_payload("R", "[[1.5,0.0]]", 1, 1)[:-1] + ',"x":1}', [[1.5]]),
}

# Payloads that exit 4 with the general route's message.
NAMED_ERRORS = {
    "triple-then-pair": matrix_payload("R", "[[1,0.0],[2,3,0.0]]", 2, 1),
    "triple-then-pair-3": matrix_payload("R", "[[1,0.0],[2,3,0.0]]", 3, 1),
    "lone-imaginary": matrix_payload("R", "[[1,0.0],[0.0],[2,0.0]]", 2, 1),
    "lone-imaginary-3": matrix_payload("R", "[[1,0.0],[0.0],[2,0.0]]", 3, 1),
    "complex-triple-then-single": matrix_payload("C", "[[1.0,2.0,3.0],[4.0]]", 2, 1),
    "nan": matrix_payload("R", "[[NaN,0.0]]", 1, 1),
    "plus-sign": matrix_payload("R", "[[+1,0.0]]", 1, 1),
    "leading-dot": matrix_payload("R", "[[.5,0.0]]", 1, 1),
    "leading-zero": matrix_payload("R", "[[01,0.0]]", 1, 1),
    "rows-leading-zero": matrix_payload("R", "[[1.0,0.0]]", "01", 1),
    "long-int": matrix_payload("R", "[[" + "9" * 5000 + ",0.0]]", 1, 1),
    "complex-nan": matrix_payload("C", "[[1.0,NaN]]", 1, 1),
}


class TestCompactRoute:
    """The reader's compact route returns what the general route returns
    for a payload, or leaves it to that route."""

    @settings(max_examples=400, deadline=None)
    @given(text=edited_payloads())
    def test_edited_payloads_read_alike(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("edited") / "cert.json"
        assert read_payload(path, text, True) == read_payload(path, text, False)

    @pytest.mark.parametrize("case", NAMED_LOADS)
    def test_named_payload_loads(self, tmp_path, case):
        text, want = NAMED_LOADS[case]
        got = read_payload(tmp_path / "cert.json", text, True)
        assert got == read_payload(tmp_path / "cert.json", text, False)
        want = np.array(want)
        assert got[:5] == (FieldTag.COMPLEX if np.iscomplexobj(want) else FieldTag.REAL,
                           want.dtype, want.shape, True, want.tobytes())

    @pytest.mark.parametrize("case", NAMED_ERRORS)
    def test_named_payload_exits_four(self, capsys, tmp_path, case):
        frame_path, cert_path = tmp_path / "frame.json", tmp_path / "cert.json"
        save_frame(build_eitff(FieldTag.REAL, 2, 4), str(frame_path))
        errors = []
        for compact in (True, False):
            cert_path.write_text('{"perm":"1 2 3 4","upsilon":' + NAMED_ERRORS[case] + ',"residual":0.0}')
            with route(compact):
                code, _, err = run(capsys, "sym", "check", str(frame_path), "--cert", str(cert_path))
            assert code == 4 and err.startswith("format error: ")
            errors.append(err)
        assert errors[0] == errors[1]

    def test_written_files_never_reach_the_general_decode(self, capsys, tmp_path, monkeypatch):
        # A silent fall back to the general route would cost time, not
        # correctness, so only a spy sees it.
        spy = mock.Mock(side_effect=frame_io._matrix)
        monkeypatch.setattr(frame_io, "_matrix", spy)
        for field in "RC":
            frame, comp, cert = (tmp_path / f"{field}{name}.json" for name in ("frame", "comp", "cert"))
            assert run(capsys, "build", "--field", field, "--r", "4", "--n", "6", "--out", str(frame))[0] == 0
            assert run(capsys, "naimark", str(frame), "--out", str(comp))[0] == 0
            argv = ["sym", "witness", str(frame), "--perm", "2 3 1 4 5 6", "--out", str(cert)]
            assert run(capsys, *argv)[0] == 0
            assert load_frame(str(frame))[0].n == load_frame(str(comp))[0].n == 6
            assert load_certificate(str(cert))[1].shape == (8, 8)
        assert spy.call_count == 0


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
        # copy S, and one matrix's text and flat number list, never the file
        # text: at R16 n=11 it peaks at 2.2 S (3.2 S with [re, im] lists),
        # and holding the text read 6.9 S.
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

    @pytest.mark.parametrize("frame", ["code", "missing"])
    def test_witness_to_stdout_is_a_usage_error(self, capsys, frame_path, tmp_path, frame):
        """stdout carries the witness line, so `--out -` is refused (exit 2,
        nothing on stdout) before the frame file is read."""
        path = frame_path if frame == "code" else tmp_path / "missing.json"
        code, out, err = run(capsys, "sym", "witness", str(path), "--perm", "1 3 2 4", "--out", "-")
        assert (code, out) == (2, "")
        assert err == "usage error: sym witness --out needs a file: stdout carries the witness line\n"

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

    def test_polar_factor_only_for_an_odd_witness(self, capsys, tmp_path, monkeypatch):
        """R8 n=8 (m = 7, tr omega = 0) is totally symmetric: its label
        needs no J, and only the witness of an odd permutation forms J,
        the polar factor, once."""
        calls, polar_unitary = [], symmetry.polar_unitary
        monkeypatch.setattr(symmetry, "polar_unitary", lambda x: calls.append(x) or polar_unitary(x))
        frame = build_eitff(FieldTag.REAL, 8, 8)
        path = tmp_path / "code.json"
        save_frame(frame, str(path))
        assert symmetry.clifford_system(frame).total and len(calls) == 0
        code, out, _ = run(capsys, "sym", "probe", str(path))
        assert (code, out) == (0, "symmetry=total (closed form, m=7, tr_omega=0.00)\n")
        assert len(calls) == 0
        code, out, _ = run(capsys, "sym", "witness", str(path), "--perm", "2 1 3 4 5 6 7 8")
        assert (code, out.startswith("witness=found")) == (0, True)
        assert len(calls) == 1

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

    def test_near_code_witness_none_is_bare(self, capsys, tmp_path, monkeypatch):
        """A frame that passes the Clifford gate but whose closed-form
        witness misses --tol: a numeric verdict, with no proof note.  The
        gate bounds this near code's E relations by 1.09e-9 and its
        witness reads 2.2e-10, so the system is gated at 2e-9 and then
        asked for --tol."""
        path = tmp_path / "near.json"
        save_frame(near_code(221, 1e-11), str(path))
        gated = symmetry.clifford_system(near_code(221, 1e-11), 2e-9)
        monkeypatch.setattr(cli, "clifford_system", lambda frame, tol: gated)
        code, out, _ = run(capsys, "sym", "witness", str(path), "--perm", "2 1 3 4 5 6 7 8")
        assert code == 0
        assert out == "witness=none\n"
        code, out, _ = run(capsys, "sym", "probe", str(path))
        assert code == 0
        assert out.startswith("symmetry=total (closed form, m=7, ")
        code, out, _ = run(capsys, "sym", "witness", str(path), "--perm", "2 1 3 4 5 6 7 8", "--tol", "2e-9")
        assert (code, out.startswith("witness=found residual=2.157541")) == (0, True)

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

    @pytest.mark.parametrize("scale,found", [(0.5, True), (2.0, False)])
    def test_certificate_verdict_flips_at_tol(self, capsys, frame_path, tmp_path, monkeypatch, scale, found):
        """The exact witness of (2 3) times a small rotation, reading about
        0.5 or 2 tol: `sym check` passes or fails it (exit 0 or 1),
        `find_witness` returns it or None and `sym witness --tol` prints
        found or none."""
        frame, sigma = load_frame(str(frame_path))[0], symmetry.Permutation.parse("1 3 2 4")
        exact = symmetry.find_witness(frame, sigma).upsilon

        def residual(cert):
            return symmetry.check_certificate(frame, cert)

        cert = perturbed_to(residual, lambda t: SymmetryCertificate(sigma, exact @ givens(4, t)),
                            scale * DEFAULT_TOL)
        assert 0.8 * scale <= residual(cert) / DEFAULT_TOL <= 1.2 * scale
        cert_path = tmp_path / "cert.json"
        save_certificate(str(cert_path), "1 3 2 4", cert.upsilon, residual(cert))
        code, out, _ = run(capsys, "sym", "check", str(frame_path), "--cert", str(cert_path))
        assert (code, out.split()[-1]) == ((0, "result=pass") if found else (1, "result=fail"))
        monkeypatch.setattr(symmetry.CliffordSystem, "witness", lambda system, s: cert)
        assert (symmetry.find_witness(frame, sigma) is cert) == found
        code, out, _ = run(capsys, "sym", "witness", str(frame_path), "--perm", "1 3 2 4",
                           "--tol", repr(DEFAULT_TOL))
        assert code == 0
        assert out.startswith("witness=found residual=") if found else out == "witness=none\n"

    def test_check_fail_exit_one(self, capsys, frame_path, tmp_path):
        cert_path = tmp_path / "bad.json"
        save_certificate(str(cert_path), "2 1 3 4", np.eye(4), 0.0)
        code, out, _ = run(
            capsys, "sym", "check", str(frame_path), "--cert", str(cert_path)
        )
        assert code == 1
        assert "result=fail" in out

    @pytest.mark.parametrize("command", ["witness", "check"])
    @pytest.mark.parametrize(
        "perm,message",
        [("2 1 3", "permutation has 3 points but frame has n=4"),
         ("(1 2)", "bad permutation string '(1 2)'"),
         ("1 1 2 3", "not a permutation of [1, 4]: (1, 1, 2, 3)")],
    )
    def test_bad_perm_is_a_usage_error(self, capsys, frame_path, tmp_path, command, perm, message):
        """A permutation given on the command line or stored in a
        certificate that is not one of the frame's n points is a usage
        error: exit 2, nothing on stdout, one line on stderr."""
        if command == "witness":
            argv = ["--perm", perm]
        else:
            save_certificate(str(tmp_path / "cert.json"), perm, np.eye(4), 0.0)
            argv = ["--cert", str(tmp_path / "cert.json")]
        code, out, err = run(capsys, "sym", command, str(frame_path), *argv)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")


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
        [["omp", "demo"]],
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

    @pytest.mark.parametrize(
        "argv",
        [["build", "--field", "R", "--r", "4", "--n", "6", "--variant", "totally_symmetric"],
         ["sym", "probe", "--seed", "0"],
         ["sym", "witness", "--perm", "2 1 3 4 5 6", "--seed", "0"]],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_removed_options_are_usage_errors(self, capsys, tmp_path, argv):
        """`build` makes one code per (F, r, n), `sym probe` draws nothing
        at random and `sym witness` always takes the default J, so none
        takes a variant or a seed."""
        path = tmp_path / "code.json"
        save_frame(build_eitff(FieldTag.REAL, 4, 6), str(path))
        args = [*argv[:2], str(path), *argv[2:]] if argv[0] == "sym" else [*argv, "--out", str(path)]
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err


SCAN = pathlib.Path(__file__).parent.parent / "scripts" / "existence_frontier.py"


@pytest.mark.parametrize(
    "rs,fields,message",
    [
        ("1", "Rx", "--fields takes letters from 'RC', got 'Rx'"),
        ("0", "RC", "--rs takes comma-separated positive integers, got '0'"),
        ("1,x", "RC", "--rs takes comma-separated positive integers, got '1,x'"),
    ],
)
def test_scripts_refuse_a_bad_field_letter_or_r(capsys, monkeypatch, rs, fields, message):
    """`--fields` takes only the letters R and C, and `--rs` only positive
    integers: anything else is a usage error (exit 2), not a scan of the
    complex field or a traceback."""
    monkeypatch.setattr(sys, "argv", [SCAN.name, "--rs", rs, "--fields", fields])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCAN), run_name="__main__")
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert message in err


def test_scan_rows_are_the_answers_for_each_code(capsys, monkeypatch):
    """Each row of the frontier scan is `verify_eitff`, the label of
    `CliffordSystem.total` and `exists(..., total=True)` for its code,
    followed per r by the infeasible n = rho + 3; no J is formed.  When
    `exists` disagrees with a label the scan still prints every row, then
    exits 1 naming the rows."""
    polar = []
    monkeypatch.setattr(symmetry, "polar_unitary", polar.append)
    monkeypatch.setattr(sys, "argv", [SCAN.name, "--rs", "1,2", "--fields", "RC"])
    runpy.run_path(str(SCAN), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    want = []
    for field in (FieldTag.REAL, FieldTag.COMPLEX):
        for r in (1, 2):
            rho = rho_number(field, r)
            for n in range(3, rho + 3):
                frame = build_eitff(field, r, n)
                report = verify_eitff(frame)
                residuals = (report.tightness_residual, report.equiisoclinic_residual, report.welch_gap)
                label = "total" if symmetry.clifford_system(frame).total else "alternating"
                want.append([field.value, str(r), str(n), str(rho), *(f"{v:.3e}" for v in residuals),
                             label, exists(field, r, n, total=True)[0]])
            want.append([field.value, str(r), str(rho + 3), str(rho), "infeasible"])
    assert rows == want
    assert polar == []

    monkeypatch.setattr(radon_hurwitz, "exists", lambda field, r, n, total=False: ("no", "flipped"))
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCAN), run_name="__main__")
    out, err = capsys.readouterr()
    flipped = [row[:-1] + ["no"] if len(row) > 5 else row for row in want]
    assert [line.split() for line in out.splitlines()[1:]] == flipped
    disagree = [f"{row[0]}{row[1]} n={row[2]}" for row in want if row[-1] == "yes"]
    assert info.value.code == 1
    assert err == f"failed verification or disagreed with exists: {', '.join(disagree)}\n"


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
