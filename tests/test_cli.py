import json
import math

import numpy as np
import pytest

from eitff.cli import main
from eitff.frame_io import load_certificate, load_frame, save_certificate, save_frame
from eitff.frames import FusionFrame, build_eitff
from eitff.linalg import FieldTag


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

    def test_totally_symmetric_unknown_case_exit_three(self, capsys):
        code, _, err = run(
            capsys,
            "build", "--field", "R", "--r", "4", "--n", "6",
            "--variant", "totally_symmetric",
        )
        assert code == 3


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

    def test_missing_file_exit_four(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 4


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

# Whole-file defects, as edits of the file's text.
FILE_DEFECTS = {
    "not-utf8": lambda text: b"\xff" + text.encode(),
    "truncated": lambda text: text[: len(text) // 2].encode(),
    "deep-document": lambda text: DEEP.encode(),
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
        self.assert_format_error(capsys, target, paths)

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

    @pytest.mark.parametrize("defect", RESIDUAL_DEFECTS)
    def test_certificate_residual_defect(self, capsys, paths, defect):
        payload = json.loads(paths[1].read_text())
        payload["residual"] = RAW
        paths[1].write_text(json.dumps(payload).replace(f'"{RAW}"', RESIDUAL_DEFECTS[defect]))
        self.assert_format_error(capsys, "certificate", paths)


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

    def test_untight_input_exit_one(self, capsys, tmp_path):
        from conftest import random_subspace_frame

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
        assert out.strip() == "witness=none"

    def test_perm_size_mismatch_usage_error(self, capsys, frame_path):
        code, _, err = run(capsys, "sym", "witness", str(frame_path), "--perm", "2 1 3")
        assert code == 2

    def test_malformed_perm_usage_error(self, capsys, frame_path):
        code, _, _ = run(capsys, "sym", "witness", str(frame_path), "--perm", "(1 2)")
        assert code == 2

    def test_witness_refuses_large_d(self, capsys, tmp_path):
        from conftest import random_subspace_frame

        path = tmp_path / "wide.json"
        save_frame(random_subspace_frame(FieldTag.REAL, 33, 2, 3, seed=1), str(path))
        code, out, err = run(capsys, "sym", "witness", str(path), "--perm", "2 1 3")
        assert code == 2
        assert out == ""
        assert "d <= 32" in err

    def test_witness_refuses_rank_deficient_subspace(self, capsys, tmp_path):
        frame = build_eitff(FieldTag.REAL, 2, 4)
        arrays = list(frame.arrays())
        arrays[-1] = np.zeros_like(arrays[-1])
        path = tmp_path / "degenerate.json"
        save_frame(FusionFrame.from_arrays(FieldTag.REAL, arrays), str(path))
        code, out, err = run(capsys, "sym", "witness", str(path), "--perm", "2 1 3 4")
        assert code == 1
        assert out == ""
        assert "subspace 4 is rank-deficient" in err

    def test_probe_total(self, capsys, frame_path):
        code, out, _ = run(capsys, "sym", "probe", str(frame_path))
        assert code == 0
        assert out.strip() == "symmetry=total (numerically-decided)"

    def test_probe_alternating(self, capsys, tmp_path):
        path = tmp_path / "etf.json"
        save_frame(build_eitff(FieldTag.COMPLEX, 1, 4), str(path))
        code, out, _ = run(capsys, "sym", "probe", str(path))
        assert code == 0
        assert out.strip() == "symmetry=alternating (numerically-decided)"

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

    def test_total_symmetry_unknown(self, capsys):
        code, out, _ = run(
            capsys, "exists", "--field", "R", "--r", "4", "--n", "6", "--total"
        )
        assert code == 0
        assert out.startswith("unknown")

    def test_total_symmetry_yes_no(self, capsys):
        code, out, _ = run(
            capsys, "exists", "--field", "C", "--r", "1", "--n", "4", "--total"
        )
        assert code == 0 and out.startswith("no")
        code, out, _ = run(
            capsys, "exists", "--field", "R", "--r", "2", "--n", "4", "--total"
        )
        assert code == 0 and out.startswith("yes")


class TestOmp:
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
