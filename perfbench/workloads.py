"""Workload inputs, drawn from a seed, and the operation ids of each run.

This module imports nothing from divcorr, so the parent process can list the
operations of a run without importing the program.  Seed 0 gives the nominal
inputs; any other seed jitters each x by up to 1% and replaces each shift by
another one of the same factorisation shape, so that the work per run stays
about the same while the exact outputs change.
"""

from __future__ import annotations

import random

WORKLOADS = ("residual_grid", "transform_lattice", "identity_suites")
SIZES = ("full", "tiny")
DEFAULT_SEED = 0
X_JITTER = 0.01

SUITES = (
    "lemma1",
    "lemma2",
    "induction",
    "genrec",
    "sigma_lambda",
    "binomial",
    "coeff_consistency",
)
KINDS = ("dpoly", "dd")
DIRECTIONS = ("corr_from_poly", "poly_from_corr")

# Replacement shifts for each shape, built from the primes 2, 3 and 5 only;
# larger primes would shrink the divisor-lattice sub-ranges x/e and with
# them the work of the transform workload.
SHAPE_POOLS = {
    "1": (1,),
    "p": (2, 3, 5),
    "p2": (4, 9, 25),
    "pq": (6, 10, 15),
    "p2q": (12, 18),
    "p2qr": (60, 90, 150),
}

_SHAPE_NAMES = {(): "1", (1,): "p", (2,): "p2", (1, 1): "pq", (2, 1): "p2q", (2, 1, 1): "p2qr"}

NOMINAL = {
    ("residual_grid", "full"): {
        "x": [10**4, 10**5, 10**6, 10**7, 3 * 10**7],
        "v": [1, 2, 3, 4, 6, 12],
    },
    ("residual_grid", "tiny"): {"x": [100, 300, 1000], "v": [1, 2, 3, 4, 6, 12]},
    ("transform_lattice", "full"): {
        "x_big": 10**7,
        "v_big": [1, 12, 60],
        "x_small": 10**4,
        "v_sigma": {"sigma_1": [1, 6, 12], "sigma_2": [1, 6]},
    },
    ("transform_lattice", "tiny"): {
        "x_big": 2000,
        "v_big": [1, 12, 60],
        "x_small": 200,
        "v_sigma": {"sigma_1": [1, 6, 12], "sigma_2": [1, 6]},
    },
    ("identity_suites", "full"): {"argv": ["verify"]},
    ("identity_suites", "tiny"): {"argv": ["verify", "--xmax", "200", "--vmax", "10"]},
}


def shape_of(v: int) -> str:
    """Factorisation shape of v: '1', 'p', 'p2', 'pq', 'p2q', 'p2qr' or 'other'."""
    exps = []
    m, p = v, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            exps.append(e)
        p += 1
    if m > 1:
        exps.append(1)
    return _SHAPE_NAMES.get(tuple(sorted(exps, reverse=True)), "other")


def _draw_shifts(rng: random.Random, nominal: list[int]) -> dict[int, int]:
    """Map each nominal shift to a distinct shift of the same shape."""
    used: set[int] = set()
    out = {}
    for v in sorted(set(nominal)):
        pool = [w for w in SHAPE_POOLS[shape_of(v)] if w not in used]
        out[v] = rng.choice(pool)
        used.add(out[v])
    return out


def make_inputs(workload: str, size: str, seed: int) -> dict:
    """The inputs of one run; the same (workload, size, seed) gives the same."""
    if workload not in WORKLOADS or size not in SIZES:
        raise ValueError(f"unknown workload/size {workload}/{size}")
    nominal = NOMINAL[workload, size]
    if workload == "identity_suites" or seed == DEFAULT_SEED:
        return {k: (dict(v) if isinstance(v, dict) else v) for k, v in nominal.items()}
    rng = random.Random(f"{workload}/{size}/{seed}")

    def jitter(x: int) -> int:
        return round(x * (1 + rng.uniform(-X_JITTER, X_JITTER)))

    if workload == "residual_grid":
        xs = [jitter(x) for x in nominal["x"]]
        shift = _draw_shifts(rng, nominal["v"])
        return {"x": xs, "v": [shift[v] for v in nominal["v"]]}
    all_v = nominal["v_big"] + [v for vs in nominal["v_sigma"].values() for v in vs]
    shift = _draw_shifts(rng, all_v)
    return {
        "x_big": jitter(nominal["x_big"]),
        "v_big": [shift[v] for v in nominal["v_big"]],
        "x_small": jitter(nominal["x_small"]),
        "v_sigma": {k: [shift[v] for v in vs] for k, vs in nominal["v_sigma"].items()},
    }


def residual_cells(inputs: dict, kind: str) -> list[str]:
    """Op ids of one compare call, in the CLI's v-major row order."""
    return [f"{kind}/v={v}/x={x}" for v in inputs["v"] for x in inputs["x"]]


def transform_ops(inputs: dict) -> list[tuple[str, str, int, int, str | None]]:
    """(op id, function or spec, x, v, direction) for the transform workload."""
    ops = []
    x = inputs["x_big"]
    for v in inputs["v_big"]:
        for fn in ("sum_dd", "sum_dd_from_dpoly", "sum_dpoly_from_dd"):
            ops.append((f"{fn}/x={x}/v={v}", fn, x, v, None))
    xs = inputs["x_small"]
    specs = list(inputs["v_sigma"].items()) + [("tau", [1])]
    for spec, vs in specs:
        for v in vs:
            for direction in DIRECTIONS:
                ops.append((f"transform/{spec}/{direction}/x={xs}/v={v}", spec, xs, v, direction))
    return ops


def op_ids(workload: str, inputs: dict) -> list[str]:
    """Every operation of one workload iteration, in execution order."""
    if workload == "residual_grid":
        return [op for kind in KINDS for op in residual_cells(inputs, kind)]
    if workload == "transform_lattice":
        return [op[0] for op in transform_ops(inputs)]
    return [f"suite/{name}" for name in SUITES]


def table_bytes(workload: str, inputs: dict) -> dict[str, int]:
    """Bytes of the largest tables a run builds, from the inputs and the
    documented entry widths (4 bytes per d, spf and d(n(n+v)) entry)."""
    if workload == "residual_grid":
        xmax, vmax = max(inputs["x"]), max(inputs["v"])
        return {
            "divisor_table_bytes": 4 * (xmax + vmax + 1),
            "shifted_product_bytes": 4 * (xmax + 1),
        }
    if workload == "transform_lattice":
        v_small = max(v for vs in inputs["v_sigma"].values() for v in vs)
        return {
            "divisor_table_bytes": 4 * (inputs["x_big"] + max(inputs["v_big"]) + 1),
            "spf_table_bytes": 4 * (inputs["x_small"] + v_small + 1),
        }
    # run_verify's documented default bounds: lemma2 sieves to n <= 1e4 with
    # v <= 100, genrec factors a*b for a, b <= 200
    argv = inputs["argv"]
    xmax = int(argv[argv.index("--xmax") + 1]) if "--xmax" in argv else 10_000
    vmax = int(argv[argv.index("--vmax") + 1]) if "--vmax" in argv else None
    return {
        "divisor_table_bytes": 4 * (xmax + (vmax or 100) + 1),
        "spf_table_bytes": 4 * ((vmax or 200) ** 2 + 1),
    }
