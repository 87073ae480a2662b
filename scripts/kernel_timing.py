#!/usr/bin/env python3
"""Time the sieve kernels per element and print one JSON object.

For each x, the best of --repeat wall times, in ns per element, of
build_divisor_table(x + 60) and of shifted_product_values over that table
for one shift of each factorisation shape: 1, p, p2, pq, p2q and p2qr
(v = 1, 2, 4, 6, 12, 60).  Then two sieving passes of stream_pair_sums
with no table: stream_pair_sums.one_cell, the one cell (x, 1), in ns per
n <= x; and stream_pair_sums.per_cell, a cell (y, 1) at every 16th y down
from x, in ns per cell.  The table build and the passes run on all usable
CPUs; shifted_product_values runs in this process.  Last, "verify" gives
the best of --repeat wall times of run_verify([name]) for each identity
suite at its default bounds, in ms: one suite is one task, so it runs in
this process.

    python scripts/kernel_timing.py --x 1000000,10000000 --repeat 25
"""

import argparse
import json
import time

import divcorr as dc
from divcorr.cli import int_list

SHAPES = {"1": 1, "p": 2, "p2": 4, "pq": 6, "p2q": 12, "p2qr": 60}


def best_ns(call, elems: int, repeat: int) -> float:
    """The best of repeat wall times of call(), in ns per element."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e9 / elems, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--x", type=int_list, default=[10**6, 10**7])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    report = {}
    for x in args.x:
        top = x + max(SHAPES.values())
        dtab = dc.build_divisor_table(top)
        build = best_ns(lambda: dc.build_divisor_table(top), top, args.repeat)
        row = {"build_divisor_table": build}
        for shape, v in SHAPES.items():
            row[f"shifted_product_values.{shape}"] = best_ns(
                lambda: dc.shifted_product_values(dtab, x, v), x, args.repeat
            )
        row["stream_pair_sums.one_cell"] = best_ns(
            lambda: dc.stream_pair_sums([(x, 1)]), x, args.repeat
        )
        cells = [(y, 1) for y in range(x, 0, -16)]
        row["stream_pair_sums.per_cell"] = best_ns(
            lambda: dc.stream_pair_sums(cells), len(cells), args.repeat
        )
        report[str(x)] = row
    verify = {  # 10^6 ns to the ms
        name: best_ns(lambda: dc.run_verify([name]), 10**6, args.repeat)
        for name in dc.harness.SUITES
    }
    unit = "ns per element, per cell for stream_pair_sums.per_cell, ms for verify"
    out = {"unit": unit, "repeat": args.repeat, "x": report, "verify": verify}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
