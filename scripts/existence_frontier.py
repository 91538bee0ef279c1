#!/usr/bin/env python3
"""Sweep the existence frontier: verify each code and probe its symmetry.

For each field and each r in the list, builds the optimal code at every
feasible n (3 <= n <= rho_F(r) + 2), prints its verification residuals,
the symmetry label its own Clifford system decides
(`CliffordSystem.total`) and the decision `exists(..., total=True)`, and
confirms that n = rho_F(r) + 3 is rejected.  After printing every row it
exits 1 if any code fails verification or its label disagrees with
`exists`.
"""

import argparse
import sys

from eitff.errors import InfeasibleParametersError
from eitff.frames import build_eitff, verify_eitff
from eitff.linalg import FieldTag
from eitff.radon_hurwitz import exists, rho_number
from eitff.symmetry import clifford_system


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rs", default="1,2,3,4,6,8,12,16", help="comma-separated subspace dimensions"
    )
    parser.add_argument("--fields", default="RC", help="subset of 'RC'")
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

    print(f"{'field':5} {'r':>4} {'n':>4} {'rho':>4} "
          f"{'tightness':>12} {'equiiso':>12} {'welch_gap':>12} "
          f"{'probed':>12} {'total_exists':>12}")
    failed = []
    for field in fields:
        for r in rs:
            rho = rho_number(field, r)
            for n in range(3, rho + 3):
                frame = build_eitff(field, r, n)
                report = verify_eitff(frame)
                total = clifford_system(frame).total
                answer = exists(field, r, n, total=True)[0]
                if not report.passed or total != (answer == "yes"):
                    failed.append(f"{field.value}{r} n={n}")
                print(
                    f"{field.value:5} {r:>4} {n:>4} {rho:>4} "
                    f"{report.tightness_residual:>12.3e} "
                    f"{report.equiisoclinic_residual:>12.3e} "
                    f"{report.welch_gap:>12.3e} "
                    f"{'total' if total else 'alternating':>12} {answer:>12}"
                )
            try:
                build_eitff(field, r, rho + 3)
                raise SystemExit(f"unexpected success at n={rho + 3}")
            except InfeasibleParametersError:
                print(f"{field.value:5} {r:>4} {rho + 3:>4} {rho:>4} "
                      f"{'infeasible':>12}")
    if failed:
        print(f"failed verification or disagreed with exists: {', '.join(failed)}", file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
