#!/usr/bin/env python3
"""Probe the symmetry group of built codes against the decision table.

Every half-dimension optimal code has at least alternating symmetry;
whether a totally symmetric one exists for the same parameters is
decided by `exists(..., total=True)`.  This scan builds each code, reads
its group from the code's own Clifford system (`clifford_system`), and
prints both verdicts side by side.
"""

import argparse

from eitff.frames import build_eitff
from eitff.linalg import FieldTag
from eitff.radon_hurwitz import exists, rho_number
from eitff.symmetry import clifford_system


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rs", default="1,2,3,4", help="comma-separated subspace dimensions")
    parser.add_argument("--fields", default="RC", help="subset of 'RC'")
    parser.add_argument("--max-n", type=int, default=8, help="largest n to scan")
    args = parser.parse_args()

    try:
        rs = [int(tok) for tok in args.rs.split(",")]
        if min(rs) < 1:
            raise ValueError
    except ValueError:
        parser.error(f"--rs takes comma-separated positive integers, got {args.rs!r}")
    try:
        fields = [FieldTag(ch) for ch in args.fields]
    except ValueError:
        parser.error(f"--fields takes letters from 'RC', got {args.fields!r}")

    print(f"{'field':5} {'r':>3} {'n':>3} {'probed':>12} {'total_exists':>12}")
    for field in fields:
        for r in rs:
            for n in range(3, min(rho_number(field, r) + 2, args.max_n) + 1):
                label = "total" if clifford_system(build_eitff(field, r, n)).j is not None else "alternating"
                total_exists = exists(field, r, n, total=True)[0]
                print(f"{field.value:5} {r:>3} {n:>3} {label:>12} {total_exists:>12}")


if __name__ == "__main__":
    main()
