"""Brute-force values for the tiny inputs, from the repository's independent
oracles in tests/oracles.py (trial division, divisor scans, and the literal
q-expansion for tau)."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import oracles  # noqa: E402

from workloads import KINDS, residual_cells, transform_ops  # noqa: E402


def exact_value(workload: str, out: str) -> int:
    """The exact integer inside one operation's output string."""
    fields = out.split(",")
    return int(fields[3] if workload == "residual_grid" else fields[-1])


def oracle_values(workload: str, inputs: dict) -> dict[str, int]:
    """Op id -> brute-force exact value, for residual_grid and transform_lattice."""
    out = {}
    if workload == "residual_grid":
        for kind in KINDS:
            naive = oracles.sum_dd_naive if kind == "dd" else oracles.sum_dpoly_naive
            cells = iter(residual_cells(inputs, kind))
            for v in inputs["v"]:
                for x in inputs["x"]:
                    out[next(cells)] = naive(x, v)
        return out
    tau = oracles.tau_naive(inputs["x_small"] + 1)
    funcs = {
        "sigma_1": lambda n: oracles.sigma_naive(n, 1),
        "sigma_2": lambda n: oracles.sigma_naive(n, 2),
        "tau": tau.__getitem__,
    }
    for op_id, fn, x, v, direction in transform_ops(inputs):
        if direction is None:
            pair = fn != "sum_dpoly_from_dd"
            out[op_id] = (oracles.sum_dd_naive if pair else oracles.sum_dpoly_naive)(x, v)
        elif direction == "corr_from_poly" or fn == "tau":
            # tau is only run at v = 1, where n and n+1 are coprime and the
            # product form f(n(n+1)) = f(n) f(n+1) equals the pair form
            out[op_id] = oracles.sum_ff_naive(funcs[fn], x, v)
        else:
            out[op_id] = oracles.sum_fpoly_naive(funcs[fn], x, v)
    return out
