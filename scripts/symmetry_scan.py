#!/usr/bin/env python3
"""Probe the symmetry group of built codes against the decision table.

Every half-dimension optimal code has at least alternating symmetry;
whether a totally symmetric one exists for the same parameters is
decided by `exists(..., total=True)`.  This scan builds frames, probes
them (in closed form on every verified code), and prints both verdicts
side by side.  The probe runs the generic construction by default; pass
--variant to scan the skew or totally_symmetric builds instead.
"""

import argparse

from eitff.errors import InfeasibleParametersError
from eitff.frames import build_eitff
from eitff.linalg import FieldTag
from eitff.radon_hurwitz import VARIANTS, exists, rho_number
from eitff.symmetry import probe_symmetry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rs", default="1,2,3,4", help="comma-separated subspace dimensions")
    parser.add_argument("--fields", default="RC", help="subset of 'RC'")
    parser.add_argument("--variant", default="generic", choices=VARIANTS)
    parser.add_argument("--max-n", type=int, default=8, help="largest n to scan")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rs = [int(tok) for tok in args.rs.split(",")]
    fields = [FieldTag.REAL if ch == "R" else FieldTag.COMPLEX for ch in args.fields]

    print(f"{'field':5} {'r':>3} {'n':>3} {'variant':>17} "
          f"{'probed':>12} {'total_exists':>12}")
    for field in fields:
        for r in rs:
            rho = rho_number(field, r)
            for n in range(3, min(rho + 2, args.max_n) + 1):
                total_exists = exists(field, r, n, total=True)[0]
                try:
                    frame = build_eitff(field, r, n, args.variant)
                except InfeasibleParametersError:
                    print(f"{field.value:5} {r:>3} {n:>3} {args.variant:>17} "
                          f"{'-':>12} {total_exists:>12}")
                    continue
                label, _ = probe_symmetry(frame, seed=args.seed)
                print(f"{field.value:5} {r:>3} {n:>3} {args.variant:>17} "
                      f"{label:>12} {total_exists:>12}")


if __name__ == "__main__":
    main()
