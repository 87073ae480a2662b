#!/usr/bin/env python3
"""Print the asymptotic coefficients c1, c2 (pair form) and A1, A2 (product
form) for a range of shifts as CSV.

    python scripts/coefficient_table.py --vmax 30
"""

import argparse

from divcorr.constants import (
    compute_zeta_constants,
    estermann_coefficients,
    shifted_product_coefficients,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vmax", type=int, default=20)
    args = parser.parse_args(argv)

    zc = compute_zeta_constants()
    print("v,c1,c2,A1,A2")
    for v in range(1, args.vmax + 1):
        c1, c2 = estermann_coefficients(v, zc)
        a1, a2 = shifted_product_coefficients(v, zc)
        print(f"{v},{c1:.12f},{c2:.12f},{a1:.12f},{a2:.12f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
