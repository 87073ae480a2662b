#!/usr/bin/env python3
"""Residual-scaling experiment.

Subtract the three-term main term from the exact correlation sum at
PER_DECADE log-spaced x per decade, from 1e4 to 10^(3+decades), and scale
the residual E(x) by two powers of x: x^(1/2), the conjectured error scale,
and x^(2/3 + 0.05) (about x^0.717), a touch above the proven x^(2/3 + eps)
(Deshouillers-Iwaniec 1982, Motohashi 1994).  Emits the comparison rows as
CSV on stdout.  On stderr it writes, also as CSV, per shift and per dyadic
block [2^k, 2^(k+1)) of the sampled x, the largest |E(x)| / x^(1/2) and
|E(x)| / x^(2/3 + 0.05) there, each as the shortest repr of its float, so
scaled values that stay bounded as k climbs are consistent with the scale.

    python scripts/residual_scaling.py --kind dpoly --v 1,2,3,4,6 --decades 4
"""

import argparse
import sys

from divcorr.cli import int_list
from divcorr.constants import D_SUM_ERROR_EXPONENT
from divcorr.harness import RunConfig, emit, run_compare

PER_DECADE = 64  # sampled x per decade
THETAS = (0.5, D_SUM_ERROR_EXPONENT)  # conjectured; a touch above the proven
BLOCK_HEADER = "v,block,max_E_over_x^(1/2),max_E_over_x^(2/3+0.05)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=("dd", "dpoly"), default="dpoly")
    parser.add_argument("--v", type=int_list, default=[1, 2, 3, 4, 6])
    parser.add_argument(
        "--decades", type=int, default=4, help="x runs over 1e4 .. 10^(3+decades)"
    )
    args = parser.parse_args(argv)

    steps = range(PER_DECADE * (args.decades - 1) + 1)
    x_list = [round(10 ** (4 + k / PER_DECADE)) for k in steps]
    rows = run_compare(RunConfig(x_list=x_list, v_list=args.v, kind=args.kind))
    sys.stdout.buffer.write(emit(rows, "csv"))

    # (v, k) -> the two maxima over the block [2^k, 2^(k+1)); rows are v-major
    blocks: dict[tuple[int, int], list[float]] = {}
    for r in rows:
        scaled = [abs(r.residual) / r.x**t for t in THETAS]
        top = blocks.setdefault((r.v, r.x.bit_length() - 1), scaled)
        top[:] = map(max, top, scaled)
    print(BLOCK_HEADER, file=sys.stderr)
    for (v, k), (half, proven) in blocks.items():
        print(f"{v},2^{k},{half!r},{proven!r}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
