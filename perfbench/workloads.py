"""The benchmark's three workloads and the checks on their outputs.

Each workload turns a seed into fixtures, then yields a list of
operations.  An operation is timed as a whole; its check runs after the
clock stops, and an operation fails if it raises, exits with an
unexpected code, or its check fails.  Every code uses n = rho_F(r) + 2
unless the table says otherwise.

certify   in-process library calls: build + verify over a mix of fields
          and sizes, and canonicalize of randomly rotated frames.  The
          family, simplex and frame layers do nearly all the work; there
          is no file I/O and no symmetry work.
pipeline  CLI commands through files: build, verify, naimark, verify
          the complement, omp demo.  The only workload that crosses
          process and file boundaries, so it carries interpreter start-up
          and the frame_io write and read paths.
symmetry  in-process witness searches, symmetry probes and closed-form
          certificates.  The dense intertwiner stacks and their null
          spaces do the work; found and not-found verdicts are mixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import eitff
from eitff import cli
from eitff.linalg import FieldTag, Mat
from eitff.symmetry import Permutation

FIELDS = {"R": FieldTag.REAL, "C": FieldTag.COMPLEX}
TOL = 1e-10

# Codes per scale.  The pinned outcomes (probe labels, whether a witness
# is found) were recorded from the package's output when the benchmark
# was written; they do not depend on the workload seed.
SIZES = {
    "full": {
        "certify": {
            "build": [("R", 16, 11), ("C", 16, 12), ("R", 64, 14), ("C", 64, 16),
                      ("R", 128, 18), ("C", 128, 18), ("R", 256, 19)],
            # R64 and C64 were dropped here: their interpreter-bound loop
            # spread 0.19-0.40 between runs on a 2-vCPU VM, more than any
            # bound the benchmark may set.
            "canonicalize": [("R", 16, 11), ("C", 16, 12)],
        },
        "pipeline": {"codes": [("R", 64, 14), ("C", 32, 14)], "k": 2, "trials": 200},
        "symmetry": {
            "probe": [(("R", 8, 8), "total"), (("C", 8, 8), "total"),
                      (("R", 4, 6), "alternating"), (("C", 4, 8), "alternating")],
            "witness": [(("R", 8, 8), (1, 2), True), (("C", 8, 8), (1, 2, 3), True),
                        (("R", 4, 6), (1, 2), False)],
            "skew": ("R", 8, 8),
            "alternating": ("R", 8, 8),
        },
    },
    "smoke": {
        "certify": {
            "build": [("R", 4, 6), ("C", 4, 8)],
            "canonicalize": [("R", 4, 6)],
        },
        "pipeline": {"codes": [("R", 4, 6)], "k": 2, "trials": 20},
        "symmetry": {
            "probe": [(("R", 2, 4), "total"), (("R", 4, 6), "alternating")],
            "witness": [(("R", 2, 4), (1, 2), True), (("R", 4, 6), (1, 2), False)],
            "skew": ("R", 4, 5),
            "alternating": ("R", 4, 6),
        },
    },
}


@dataclass
class Op:
    """One timed operation.  `run` is timed; `check` gets its result."""

    group: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    before: Callable[[], None] | None = None


@dataclass
class CliResult:
    code: int
    out: str
    rss_kb: int | None


def code_label(code) -> str:
    field, r, n = code
    return f"{field}{r} n={n}"


def blas_touch() -> None:
    """Absorb BLAS and LAPACK first-call costs (thread start, workspace)."""
    for dtype in (np.float64, np.complex128):
        a = np.arange(256 * 256, dtype=dtype).reshape(256, 256) / 65536.0
        b = a @ a
        np.linalg.svd(b[:128, :128] + np.eye(128))
        np.linalg.qr(b[:128, :128] + np.eye(128))


def random_unitary(field: FieldTag, d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (orthogonal over R) by QR with phase fix."""
    z = rng.standard_normal((d, d))
    if field is FieldTag.COMPLEX:
        z = z + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def rotate(frame, q: np.ndarray):
    """The same code after the change of basis q: Phi_i -> q Phi_i."""
    isometries = tuple(Mat(frame.field, q @ a) for a in frame.arrays())
    return eitff.FusionFrame(frame.field, frame.d, frame.r, frame.n, isometries)


def build(code):
    field, r, n = code
    return eitff.build_eitff(FIELDS[field], r, n)


class Certify:
    def __init__(self, seed: int, sizes: dict, workdir: str, in_process: bool):
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.rotated = []
        for code in self.sizes["canonicalize"]:
            frame = build(code)
            self.rotated.append((code, rotate(frame, random_unitary(frame.field, frame.d, rng))))

    def ops(self) -> list[Op]:
        ops = [
            Op("certify_s", f"build+verify {code_label(code)}",
               lambda code=code: eitff.verify_eitff(build(code), TOL),
               lambda report: report.passed)
            for code in self.sizes["build"]
        ]
        for code, frame in self.rotated:
            ops.append(Op("canonicalize_s", f"canonicalize {code_label(code)}",
                          lambda frame=frame: self._canonical_simplex_residual(frame),
                          lambda residual: residual <= TOL))
        return ops

    @staticmethod
    def _canonical_simplex_residual(frame) -> float:
        _, simplex = eitff.canonicalize(frame)
        return eitff.verify_rho_simplex(simplex)

    def warmup_ops(self, ops: list[Op]) -> list[Op]:
        # The smallest build and canonicalize operations, one per group.
        return [ops[0], ops[1], ops[len(self.sizes["build"])]]


def run_cli_subprocess(argv: list[str]) -> CliResult:
    """Run one CLI command as a child process; reap it with wait4 so its
    own peak RSS is read (RUSAGE_CHILDREN would be a running maximum)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "eitff.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        out = proc.stdout.read().decode("utf-8", "replace")
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return CliResult(proc.returncode, out, usage.ru_maxrss)


def run_cli_in_process(argv: list[str]) -> CliResult:
    """Run one CLI command through eitff.cli.main, so spans are recorded."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = cli.main(argv)
    return CliResult(code, buffer.getvalue(), None)


def frame_file_matches(path: str, frame) -> bool:
    """Bit-exact comparison of a frame file's entries with the in-memory
    frame, read with the json module rather than eitff's loader."""
    with open(path, "r", encoding="utf-8") as fp:
        obj = json.load(fp)
    if (obj["field"], obj["d"], obj["r"], obj["n"]) != (
        frame.field.value, frame.d, frame.r, frame.n
    ):
        return False
    for payload, phi in zip(obj["isometries"], frame.isometries, strict=True):
        pairs = np.array(payload["data"], dtype=np.float64).reshape(frame.d, frame.r, 2)
        want = phi.array.view(np.float64).reshape(frame.d, frame.r, 2)
        if pairs.tobytes() != np.ascontiguousarray(want).tobytes():
            return False
    return True


class Pipeline:
    def __init__(self, seed: int, sizes: dict, workdir: str, in_process: bool):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.in_process = in_process

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.reference = {code: build(code) for code in self.sizes["codes"]}

    def _cli(self, argv: list[str]) -> CliResult:
        if self.in_process:
            return run_cli_in_process(argv)
        return run_cli_subprocess(argv)

    def ops(self) -> list[Op]:
        k, trials = self.sizes["k"], self.sizes["trials"]
        ops = []
        if self.in_process:
            # Interpreter start-up of the CLI, for the cli.startup_s layer.
            for i in range(3):
                ops.append(Op("cli_startup_s", f"rho #{i + 1}",
                              lambda: run_cli_subprocess(["rho", "--field", "R", "--r", "8"]),
                              lambda res: res.code == 0 and res.out.startswith("rho=8 ")))
        for code in self.sizes["codes"]:
            field, r, n = code
            name = f"{field}{r}n{n}"
            frame_path = os.path.join(self.workdir, f"{name}.json")
            comp_path = os.path.join(self.workdir, f"{name}.complement.json")
            label = code_label(code)
            reference = self.reference[code]

            def remove_files(paths=(frame_path, comp_path)):
                for path in paths:
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(path)

            def verified(res):
                return res.code == 0 and res.out.startswith("tightness=")

            ops += [
                Op("cli_build_verify_s", f"build {label}",
                   lambda a=["build", "--field", field, "--r", str(r), "--n", str(n),
                             "--out", frame_path]: self._cli(a),
                   lambda res, p=frame_path, ref=reference:
                       res.code == 0 and frame_file_matches(p, ref),
                   before=remove_files),
                Op("cli_build_verify_s", f"verify {label}",
                   lambda a=["verify", frame_path]: self._cli(a), verified),
                Op("cli_naimark_s", f"naimark {label}",
                   lambda a=["naimark", frame_path, "--out", comp_path]: self._cli(a),
                   lambda res, p=comp_path: res.code == 0 and os.path.exists(p)),
                Op("cli_naimark_s", f"verify complement {label}",
                   lambda a=["verify", comp_path]: self._cli(a), verified),
                Op("cli_omp_s", f"omp demo {label}",
                   lambda a=["omp", "demo", frame_path, "--k", str(k), "--trials", str(trials),
                             "--seed", str(self.seed)]: self._cli(a),
                   lambda res: res.code == 0 and f"recovered={trials}/{trials}" in res.out),
            ]
        return ops

    def warmup_ops(self, ops: list[Op]) -> list[Op]:
        # CLI children stay cold: users pay their start-up on every run.
        return []


class Symmetry:
    def __init__(self, seed: int, sizes: dict, workdir: str, in_process: bool):
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        codes = {code for code, _ in self.sizes["probe"]}
        codes |= {code for code, _, _ in self.sizes["witness"]}
        codes.add(self.sizes["alternating"])
        self.frames = {code: build(code) for code in codes}
        # Skew simplex: drop the identity member from a family of n-1.
        field, r, n = self.sizes["skew"]
        family = eitff.build_rho_orthonormal(FIELDS[field], r, n - 1)
        eye = np.eye(r)
        skews = tuple(m for m in family.mats if np.max(np.abs(m.array - eye)) > 0.5)
        self.skew = eitff.rho_simplex_from_orthonormal(
            eitff.RhoOrthonormalSeq(FIELDS[field], r, skews)
        )
        self.skew_frame = eitff.frame_from_simplex(self.skew)

    def _recheck(self, frame, certs) -> bool:
        return all(eitff.check_certificate(frame, c) <= TOL for c in certs)

    def ops(self) -> list[Op]:
        ops = []
        for code, label in self.sizes["probe"]:
            frame = self.frames[code]
            ops.append(Op("probe_s", f"probe {code_label(code)}",
                          lambda frame=frame: eitff.probe_symmetry(frame, TOL, self.seed),
                          lambda res, frame=frame, want=label:
                              res[0] == want and self._recheck(frame, res[1])))
        for code, cycle, found in self.sizes["witness"]:
            frame = self.frames[code]
            sigma = Permutation.cycle(frame.n, cycle)
            ops.append(Op("witness_s", f"witness {cycle} {code_label(code)}",
                          lambda frame=frame, sigma=sigma:
                              eitff.find_witness(frame, sigma, TOL, self.seed),
                          lambda cert, frame=frame, want=found:
                              (cert is not None) == want
                              and self._recheck(frame, [cert] if cert else [])))
        n = self.skew.n
        transpositions = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
        frame = self.frames[self.sizes["alternating"]]
        products = [((i, i + 1), (i + 1, i + 2)) for i in range(1, frame.n - 1)]
        products.append(((1, 2), (3, 4)))
        ops += [
            Op("closed_form_s", f"transposition witnesses skew {code_label(self.sizes['skew'])}",
               lambda: [eitff.check_certificate(self.skew_frame,
                                                eitff.transposition_witness(self.skew, j, k))
                        for j, k in transpositions],
               lambda residuals: max(residuals) <= TOL),
            Op("closed_form_s", f"alternating witnesses {code_label(self.sizes['alternating'])}",
               lambda: [eitff.check_certificate(frame, eitff.alternating_witness(frame, s1, s2))
                        for s1, s2 in products],
               lambda residuals: max(residuals) <= TOL),
        ]
        return ops

    def warmup_ops(self, ops: list[Op]) -> list[Op]:
        # The witness searches touch every intertwiner size of the mix.
        return [op for op in ops if op.group == "witness_s"]


WORKLOADS = {"certify": Certify, "pipeline": Pipeline, "symmetry": Symmetry}
