"""Regenerate digests.json: the expected outputs of the default seed.

    python3 perfbench/make_digests.py

Runs every workload at seed 0 in both sizes and accepts its outputs only
after confirming them: the compare cells and sums through the other sum
shape (check.py, Lemma 1), the verify suites by their PASS lines, and at the
tiny size every exact value against the brute-force oracles of
tests/oracles.py.  Run it only when a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from oracles_tiny import exact_value, oracle_values
from run import HERE, launch, sha256
from workloads import DEFAULT_SEED, SIZES, WORKLOADS, make_inputs, op_ids


def confirmed_outputs(workload: str, size: str) -> dict[str, str]:
    args = argparse.Namespace(workload=workload, size=size, seed=DEFAULT_SEED, inject="none")
    inputs = make_inputs(workload, size, DEFAULT_SEED)
    res = launch(args, "plain", time.monotonic() + 600)[1]
    ids = op_ids(workload, inputs)
    if res["errors"] or sorted(res["ops"]) != sorted(ids):
        raise SystemExit(f"{workload}/{size}: failed operations {res['errors']}")
    ops = res["ops"]
    if workload == "identity_suites":
        bad = [line for line in ops.values() if not line.endswith(" 0 failures [PASS]")]
    else:
        expected = launch(args, "check", time.monotonic() + 600)[1]["expected"]
        bad = [op for op in ids if ops[op] != expected[op]]
        if size == "tiny":
            oracle = oracle_values(workload, inputs)
            bad += [op for op in ids if exact_value(workload, ops[op]) != oracle[op]]
    if bad:
        raise SystemExit(f"{workload}/{size}: outputs not confirmed: {bad[:5]}")
    return ops


def main() -> int:
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for size in SIZES:
            ops = confirmed_outputs(workload, size)
            digests[workload][size] = {op: sha256(out) for op, out in ops.items()}
            print(f"{workload}/{size}: {len(ops)} outputs confirmed", file=sys.stderr)
    with open(HERE / "digests.json", "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
