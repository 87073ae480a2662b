"""One workload iteration in a fresh process; prints one JSON line.

Modes:
    setup   import divcorr, generate the inputs, report the time and exit
    plain   run the workload untraced: wall time, CPU time, peak RSS, outputs
    traced  the same with spans around divcorr's public functions
    memory  traced, with tracemalloc on inside sieve and correlate spans
    check   derive the expected outputs of a seeded run (see check.py)

Outputs go back as one canonical string per operation, so the parent can
compare them against committed digests or against the checker.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import divcorr as dc  # noqa: E402
from divcorr import cli  # noqa: E402

from workloads import (  # noqa: E402
    KINDS,
    SUITES,
    make_inputs,
    residual_cells,
    transform_ops,
)

CSV_HEADER = "kind,x,v,empirical,main1,main2,main3,residual,residual_scaled"

# function whose first call is altered or made to raise by --inject, per workload
INJECT_TARGET = {
    "residual_grid": ("correlate", "sum_dd"),
    "transform_lattice": ("correlate", "sum_dd_from_dpoly"),
    "identity_suites": ("arith", "chebyshev_extend"),
}


class Run:
    """Outputs and failures of one iteration, keyed by operation id."""

    def __init__(self) -> None:
        self.ops: dict[str, str] = {}
        self.errors: dict[str, str] = {}
        self.stdout_bytes = 0

    def fail(self, ids, message: str) -> None:
        for op in ids:
            self.errors[op] = message


def call_cli(run: Run, argv: list[str]) -> tuple[int | None, str, str | None]:
    """cli.main(argv) in this process with stdout captured as bytes."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout
    sys.stdout = out
    rc, err = None, None
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the run goes on; this call's cells count as failed
        traceback.print_exc()
        err = f"raised {exc!r}"
    finally:
        out.flush()
        sys.stdout = saved
    data = buf.getvalue()
    out.detach()
    run.stdout_bytes += len(data)
    if err is None and rc != 0:
        err = f"exit code {rc}"
    return rc, data.decode("utf-8", "replace"), err


def residual_grid(inputs: dict, run: Run) -> None:
    xs = ",".join(map(str, inputs["x"]))
    vs = ",".join(map(str, inputs["v"]))
    for kind in KINDS:
        ids = residual_cells(inputs, kind)
        _, text, err = call_cli(
            run, ["compare", "--kind", kind, "--x", xs, "--v", vs, "--out", "csv"]
        )
        lines = text.splitlines()
        if err is None and lines[:1] != [CSV_HEADER]:
            err = "bad CSV header"
        if err is None and len(lines) - 1 != len(ids):
            err = f"{len(lines) - 1} rows for {len(ids)} cells"
        if err is not None:
            run.fail(ids, err)
            continue
        run.ops.update(zip(ids, lines[1:]))


def transform_lattice(inputs: dict, run: Run) -> None:
    ops = transform_ops(inputs)
    x_small = inputs["x_small"]
    v_small = max(v for vs in inputs["v_sigma"].values() for v in vs)
    try:
        dtab = dc.build_divisor_table(inputs["x_big"] + max(inputs["v_big"]))
        spf = dc.build_spf(x_small + v_small)
        specs = {
            "sigma_1": dc.sigma_spec(1),
            "sigma_2": dc.sigma_spec(2),
            "tau": dc.tau_spec(dc.ramanujan_tau_table(x_small + 1)),
        }
    except Exception as exc:
        traceback.print_exc()
        run.fail([op[0] for op in ops], f"table build raised {exc!r}")
        return
    for op_id, fn, x, v, direction in ops:
        try:
            if direction is None:
                r = getattr(dc, fn)(x, v, dtab)
            else:
                r = dc.transform_correlation(specs[fn], x, v, direction, spf)
        except Exception as exc:
            traceback.print_exc()
            run.errors[op_id] = f"raised {exc!r}"
            continue
        run.ops[op_id] = f"{r.kind},{r.x},{r.v},{r.value}"


def identity_suites(inputs: dict, run: Run) -> None:
    ids = [f"suite/{name}" for name in SUITES]
    rc, text, err = call_cli(run, inputs["argv"])
    if rc == 1:  # a suite failed; its line says which, and fails its digest
        err = None
    if err is not None:
        run.fail(ids, err)
        return
    lines = {line.split(":", 1)[0]: line for line in text.splitlines()}
    for name, op in zip(SUITES, ids):
        if f"suite {name}" in lines:
            run.ops[op] = lines[f"suite {name}"]
        else:
            run.errors[op] = "suite line missing"


BODIES = {
    "residual_grid": residual_grid,
    "transform_lattice": transform_lattice,
    "identity_suites": identity_suites,
}


def inject(workload: str, how: str) -> None:
    """Make the first call of the workload's target function wrong or raise."""
    from tracer import rebind

    module, name = INJECT_TARGET[workload]
    original = getattr(sys.modules[f"divcorr.{module}"], name)
    state = {"armed": True}

    def faulty(*args, **kwargs):
        if not state["armed"]:
            return original(*args, **kwargs)
        state["armed"] = False
        if how == "raise":
            raise RuntimeError(f"injected fault in {name}")
        result = original(*args, **kwargs)
        if dataclasses.is_dataclass(result):
            return dataclasses.replace(result, value=result.value + 1)
        return result + 1

    rebind(original, faulty)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced", "memory", "check"), required=True)
    parser.add_argument("--inject", choices=("none", "alter", "raise"), default="none")
    args = parser.parse_args()
    inputs = make_inputs(args.workload, args.size, args.seed)
    t_ready = time.monotonic()
    result: dict = {"t_ready": t_ready}
    if args.mode == "check":
        import check

        result["expected"] = check.EXPECTED[args.workload](inputs)
    elif args.mode != "setup":
        import numpy

        result["numpy"] = numpy.__version__
        if args.inject != "none":
            inject(args.workload, args.inject)
        tracer = None
        if args.mode in ("traced", "memory"):
            from tracer import Tracer

            zeta = dc.constants.compute_zeta_constants
            hits0 = zeta.cache_info().hits if hasattr(zeta, "cache_info") else 0
            tracer = Tracer(track_memory=args.mode == "memory")
            tracer.install()
        run = Run()
        c0 = time.process_time()
        t0 = time.perf_counter()
        BODIES[args.workload](inputs, run)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_kib=max(own, children),
            ops=run.ops,
            errors=run.errors,
        )
        if tracer is not None:
            metrics = tracer.metrics()
            hits = zeta.cache_info().hits if hasattr(zeta, "cache_info") else 0
            metrics["constants.compute_zeta_constants.cache_hits"] = hits - hits0
            metrics["cli.stdout_bytes"] = run.stdout_bytes
            metrics["run.unattributed_s"] = wall - tracer.top_level_s
            metrics["run.coverage"] = tracer.top_level_s / wall if wall > 0 else 0.0
            result["trace"] = {"metrics": metrics, "spans": tracer.span_table()}
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
