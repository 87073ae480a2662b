#!/usr/bin/env python3
"""Residual-scaling experiment.

Subtract the three-term main term from the exact correlation sum and scale
the residual by x^(2/3 + 0.05) (about x^0.717), a touch above the expected
x^(2/3 + eps) error scale, so the scaled values should stay bounded as x
climbs through the decades.  Emits the comparison rows as CSV on stdout,
plus a per-shift summary on stderr.

    python scripts/residual_scaling.py --kind dpoly --v 1,2,3,4,6 --decades 4
"""

import argparse
import sys

from divcorr.cli import int_list
from divcorr.harness import RunConfig, emit, run_compare


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=("dd", "dpoly"), default="dpoly")
    parser.add_argument("--v", type=int_list, default=[1, 2, 3, 4, 6])
    parser.add_argument(
        "--decades", type=int, default=4, help="x runs over 1e4 .. 10^(3+decades)"
    )
    args = parser.parse_args(argv)

    x_list = [10 ** (3 + k) for k in range(1, args.decades + 1)]
    rows = run_compare(RunConfig(x_list=x_list, v_list=args.v, kind=args.kind))
    sys.stdout.buffer.write(emit(rows, "csv"))

    for v in args.v:
        scaled = [r.residual_scaled for r in rows if r.v == v]
        print(
            f"v={v}: scaled residuals {['%+.4f' % s for s in scaled]}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
