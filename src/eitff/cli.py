"""Command-line surface.

Exit codes: 0 success / verification pass, 1 verification fail, 2 usage
error, 3 infeasible parameters, 4 IO or file-format error.  Every
command is deterministic given its flags (plus --seed where randomness
is involved).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import (
    DomainError,
    FormatError,
    InfeasibleParametersError,
    InvalidInputError,
    ShapeError,
)
from .frame_io import load_certificate, load_frame, save_certificate, save_frame
from .frames import (
    FusionFrame,
    block_omp_recover,
    build_eitff,
    naimark_complement,
    principal_angles,
    verify_eitff,
)
from .linalg import DEFAULT_TOL, FieldTag
from .radon_hurwitz import VARIANTS, decompose_r, exists, rho_number
from .symmetry import CliffordSystem, Permutation, SymmetryCertificate, check_certificate, clifford_system

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer seed, got {text}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive tolerance, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitff",
        description=(
            "Build, verify, and probe optimal Grassmannian codes whose "
            "subspace dimension is half the ambient dimension."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rho = sub.add_parser("rho", help="Radon–Hurwitz number and dyadic decomposition")
    p_rho.add_argument("--field", choices=("R", "C"), required=True)
    p_rho.add_argument("--r", type=_positive_int, required=True)
    p_rho.set_defaults(func=cmd_rho)

    p_build = sub.add_parser("build", help="construct an optimal code and write it as JSON")
    p_build.add_argument("--field", choices=("R", "C"), required=True)
    p_build.add_argument("--r", type=_positive_int, required=True)
    p_build.add_argument("--n", type=_positive_int, required=True)
    p_build.add_argument("--variant", choices=VARIANTS, default="generic")
    p_build.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="measure every optimality property of a frame file")
    p_verify.add_argument("frame")
    p_verify.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_verify.set_defaults(func=cmd_verify)

    p_naimark = sub.add_parser("naimark", help="write the Naimark complement of a tight frame")
    p_naimark.add_argument("frame")
    p_naimark.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_naimark.set_defaults(func=cmd_naimark)

    p_angles = sub.add_parser("angles", help="principal angles between every pair of subspaces")
    p_angles.add_argument("frame")
    p_angles.set_defaults(func=cmd_angles)

    p_sym = sub.add_parser("sym", help="symmetry certificates")
    sym_sub = p_sym.add_subparsers(dest="sym_command", required=True)

    how = "in closed form on codes with d = 2r; other frames are refused (exit 2)"
    p_witness = sym_sub.add_parser("witness", help=f"witness a permutation: {how}")
    p_witness.add_argument("frame")
    p_witness.add_argument("--perm", required=True, help='one-line notation, e.g. "2 1 3 4"')
    p_witness.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_witness.add_argument("--seed", type=_seed, default=0)
    p_witness.add_argument("--out", default=None, help="write the certificate as JSON")
    p_witness.set_defaults(func=cmd_sym_witness)

    p_check = sym_sub.add_parser("check", help="re-measure a stored certificate")
    p_check.add_argument("frame")
    p_check.add_argument("--cert", required=True)
    p_check.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_check.set_defaults(func=cmd_sym_check)

    p_probe = sym_sub.add_parser("probe", help=f"classify the symmetry group: {how}")
    p_probe.add_argument("frame")
    p_probe.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_probe.add_argument("--seed", type=_seed, default=0)
    p_probe.set_defaults(func=cmd_sym_probe)

    p_exists = sub.add_parser("exists", help="decide existence for given parameters")
    p_exists.add_argument("--field", choices=("R", "C"), required=True)
    p_exists.add_argument("--r", type=_positive_int, required=True)
    p_exists.add_argument("--n", type=_positive_int, required=True)
    p_exists.add_argument("--total", action="store_true", help="require total symmetry")
    p_exists.set_defaults(func=cmd_exists)

    p_omp = sub.add_parser("omp", help="block sparse recovery demo")
    omp_sub = p_omp.add_subparsers(dest="omp_command", required=True)
    p_demo = omp_sub.add_parser("demo", help="seeded recovery trials against a frame dictionary")
    p_demo.add_argument("frame")
    p_demo.add_argument("--k", type=_positive_int, default=1)
    p_demo.add_argument("--trials", type=_positive_int, default=200)
    p_demo.add_argument("--seed", type=_seed, default=0)
    p_demo.set_defaults(func=cmd_omp_demo)

    return parser


def cmd_rho(args) -> int:
    field = FieldTag(args.field)
    dec = decompose_r(args.r)
    print(f"rho={rho_number(field, args.r)} a={dec.a} b={dec.b} c={dec.c}")
    return 0


def cmd_build(args) -> int:
    frame = build_eitff(FieldTag(args.field), args.r, args.n, args.variant)
    metadata = {
        "variant": args.variant,
        "field": args.field,
        "r": args.r,
        "n": args.n,
        "seed": None,
    }
    save_frame(frame, args.out, metadata)
    return 0


def cmd_verify(args) -> int:
    frame, _ = load_frame(args.frame)
    report = verify_eitff(frame, args.tol)
    gerzon = "ok" if report.gerzon_ok else "fail"
    print(
        f"tightness={report.tightness_residual:.6e} "
        f"equiisoclinic={report.equiisoclinic_residual:.6e} "
        f"welch_gap={report.welch_gap:.6e} "
        f"coherence={report.block_coherence:.6e} "
        f"gerzon={gerzon}"
    )
    return 0 if report.passed else 1


def cmd_naimark(args) -> int:
    frame, metadata = load_frame(args.frame)
    complement = naimark_complement(frame)
    out_meta = {"complement_of": metadata} if metadata else {}
    save_frame(complement, args.out, out_meta)
    return 0


def cmd_angles(args) -> int:
    frame, _ = load_frame(args.frame)
    angles = principal_angles(frame)
    for i in range(1, frame.n + 1):
        for j in range(i + 1, frame.n + 1):
            theta = " ".join(f"{t:.6e}" for t in angles[i - 1, j - 1])
            print(f"i={i} j={j} theta={theta}")
    return 0


def _parse_perm_for(frame: FusionFrame, text: str) -> Permutation | None:
    try:
        sigma = Permutation.parse(text)
    except InvalidInputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return None
    if sigma.n != frame.n:
        print(
            f"usage error: permutation has {sigma.n} points but frame has n={frame.n}",
            file=sys.stderr,
        )
        return None
    return sigma


def cmd_sym_witness(args) -> int:
    frame, _ = load_frame(args.frame)
    sigma = _parse_perm_for(frame, args.perm)
    if sigma is None:
        return 2
    system = clifford_system(frame, args.tol, args.seed)
    cert = system.witness(sigma)
    if not system.accepts(cert):
        # No witness at all is a proof, noted as such.
        print("witness=none" + (_closed_form_note(system) if cert is None else ""))
        return 0
    print(f"witness=found residual={cert.residual:.6e}")
    if args.out:
        save_certificate(args.out, cert.sigma.to_one_line(), cert.upsilon, cert.residual)
    return 0


def cmd_sym_check(args) -> int:
    frame, _ = load_frame(args.frame)
    perm_text, upsilon, _ = load_certificate(args.cert)
    sigma = _parse_perm_for(frame, perm_text)
    if sigma is None:
        return 2
    cert = SymmetryCertificate(sigma, upsilon, residual=0.0)
    residual = check_certificate(frame, cert)
    verdict = "pass" if residual <= args.tol else "fail"
    print(f"residual={residual:.6e} result={verdict}")
    return 0 if verdict == "pass" else 1


def _closed_form_note(system: CliffordSystem) -> str:
    return f" (closed form, m={system.m}, tr_omega={system.trace:.2f})"


def cmd_sym_probe(args) -> int:
    frame, _ = load_frame(args.frame)
    # The rule is the label, as in `probe_symmetry`, without certificates;
    # a frame that is not a code raises `DomainError` (exit 2).
    system = clifford_system(frame, args.tol, args.seed)
    print(f"symmetry={'total' if system.j is not None else 'alternating'}" + _closed_form_note(system))
    return 0


def cmd_exists(args) -> int:
    answer, rule = exists(FieldTag(args.field), args.r, args.n, args.total)
    print(f"{answer} ({rule})")
    return 0


def cmd_omp_demo(args) -> int:
    frame, _ = load_frame(args.frame)
    rng = np.random.default_rng(args.seed)
    recovered = 0
    for _ in range(args.trials):
        block = int(rng.integers(1, frame.n + 1))
        coeffs = rng.standard_normal(frame.r)
        if frame.field is FieldTag.COMPLEX:
            coeffs = coeffs + 1j * rng.standard_normal(frame.r)
        result = block_omp_recover(frame, frame.array[block - 1] @ coeffs, args.k)
        by_index = dict(result)
        ok = block in by_index and np.max(np.abs(by_index[block] - coeffs)) <= 1e-8
        recovered += int(ok and all(i == block or np.max(np.abs(v)) <= 1e-8 for i, v in result))
    print(f"recovered={recovered}/{args.trials}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except InfeasibleParametersError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ShapeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
