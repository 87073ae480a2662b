"""Benchmark of divcorr: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload residual_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds src/divcorr.  Each iteration is a
fresh single process (worker.py) that imports divcorr, generates the inputs
from the seed and calls the program; iterations repeat until --seconds have
passed.  Outputs are checked outside the timed region: against the digests
in digests.json for the default seed 0, otherwise through the other sum
shape (check.py).  The last line of standard output is one JSON object:

    --trace 0   end-to-end metrics: setup_s, wall_s, peak_rss_mb, pass_frac
    --trace 1   per-layer metrics from spans around divcorr's public calls,
                with untraced, span-traced and memory-traced iterations in turn

pass_frac is 1 - fail_frac: failed operations over attempted ones, where an
operation is a compare cell, a sum or transform call, or a verify suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import MEMORY_METRICS, PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, WORKLOADS, make_inputs, op_ids, table_bytes  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "pass_frac": "ratio",
}
SETUP_LAUNCHES = 6  # set-up only processes per untraced run, besides the iterations
RUN_DEADLINE_S = 170  # every run ends, checks included, within 180 s
CHECK_RESERVE_S = 40  # time kept for the output check after the iterations
MIN_COVERAGE = 0.9


class WorkerError(Exception):
    pass


def launch(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Start one worker process, wait for it and return (launch time, result)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--size", args.size,
        "--seed", str(args.seed),
        "--mode", mode,
        "--inject", args.inject,
    ]
    timeout = max(1.0, deadline - time.monotonic())
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return t_launch, json.loads(lines[-1])


def load_digests(workload: str, size: str) -> dict[str, str]:
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(workload, {}).get(size, {})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def machine_facts() -> dict:
    """Read-only facts about this machine: CPU, caches, interpreter."""
    facts: dict = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": "unknown",
        "cache_bytes": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        facts["cache_bytes"][f"L{level}"] = int(size.rstrip("KM")) * scale
    return facts


def quantile_summary(values: list[float]) -> str:
    """Sample count, median, min and max, and the highest percentile that
    has at least ten samples beyond it (none below eleven samples)."""
    if not values:
        return "n=0"
    ordered = sorted(values)
    n = len(ordered)
    tail = f"p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.6g}" if n >= 11 else "no tail percentile"
    return (
        f"n={n} median={statistics.median(ordered):.6g} "
        f"min={ordered[0]:.6g} max={ordered[-1]:.6g} {tail}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: seconds-long inputs for the gate self-test")
    parser.add_argument("--inject", choices=("none", "alter", "raise"), default="none",
                        help="break one call on purpose, to test the output check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "divcorr" / "__init__.py").is_file():
        print(f"error: no divcorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    inputs = make_inputs(args.workload, args.size, args.seed)
    ids = op_ids(args.workload, inputs)
    facts = machine_facts()
    facts["working_set_computed"] = {
        "note": "bytes of the tables the inputs imply, from array sizes; "
        "ignores cache misses",
        **table_bytes(args.workload, inputs),
    }
    problems: list[str] = []

    setup_s: list[float] = []
    if not args.trace:
        for _ in range(SETUP_LAUNCHES):
            try:
                t_launch, res = launch(args, "setup", deadline)
            except WorkerError as exc:
                problems.append(str(exc))
                break
            setup_s.append(res["t_ready"] - t_launch)

    modes = ("plain", "traced", "memory") if args.trace else ("plain",)
    runs: dict[str, list[dict]] = {mode: [] for mode in modes}
    t_measure = time.monotonic()
    iteration = 0
    while True:
        mode = modes[iteration % len(modes)]
        try:
            t_launch, res = launch(args, mode, deadline - CHECK_RESERVE_S)
        except WorkerError as exc:
            problems.append(str(exc))
            runs[mode].append({"ops": {}, "errors": {}})
            break
        if mode == "plain":
            setup_s.append(res["t_ready"] - t_launch)
        runs[mode].append(res)
        iteration += 1
        done = time.monotonic() - t_measure >= args.seconds
        if done and iteration >= len(modes):
            break
        if time.monotonic() > deadline - CHECK_RESERVE_S:
            break
    plain = runs["plain"]

    # -- correctness, outside the timed region --------------------------
    digests = expected = None
    if args.workload == "identity_suites" or args.seed == DEFAULT_SEED:
        digests = load_digests(args.workload, args.size)
    else:
        try:
            expected = launch(args, "check", deadline)[1]["expected"]
        except WorkerError as exc:
            problems.append(f"output check failed: {exc}")
            expected = {}
    attempted = failed = 0
    for res in (r for mode in modes for r in runs[mode]):
        outputs = res.get("ops", {})
        for op in ids:
            attempted += 1
            out = outputs.get(op)
            if out is None:
                ok, why = False, res.get("errors", {}).get(op, "no output")
            elif digests is not None:
                ok, why = sha256(out) == digests.get(op), "digest mismatch"
            else:
                ok, why = out == expected.get(op), f"expected {expected.get(op)!r}"
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{op}: {why} (got {out!r})")

    # -- metrics ----------------------------------------------------------
    walls = [r["wall_s"] for r in plain if "wall_s" in r]
    numpy_version = next((r["numpy"] for r in plain if "numpy" in r), "unknown")
    facts["numpy"] = numpy_version
    lines = [
        f"workload {args.workload} size {args.size} seed {args.seed} "
        f"trace {args.trace}: iterations "
        + ", ".join(f"{len(runs[mode])} {mode}" for mode in modes),
        f"  inputs {json.dumps(inputs)}",
    ]
    if not args.trace:
        rss = [r["peak_rss_kib"] / 1024 for r in plain if "peak_rss_kib" in r]
        samples = {"setup_s": setup_s, "wall_s": walls, "peak_rss_mb": rss}
        values = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
        values["pass_frac"] = (attempted - failed) / attempted if attempted else 0.0
        for name, unit in END_TO_END.items():
            detail = quantile_summary(samples[name]) if name in samples else ""
            lines.append(f"  {name:<12} {values[name]:<14.6g} {unit:<6} {detail}")
        lines.append(
            f"  {'fail_frac':<12} {failed / max(attempted, 1):<14.6g} {'ratio':<6} "
            f"attempted={attempted} failed={failed}"
        )
        metrics = values
    else:
        metrics = trace_metrics(runs, problems)
        for name, (unit, _) in PER_LAYER.items():
            lines.append(f"  {name:<52} {metrics[name]:<14.6g} {unit}")
        if runs["traced"] and "trace" in runs["traced"][0]:
            facts["spans"] = runs["traced"][0]["trace"]["spans"]
    for line in lines:
        print(line)
    for problem in problems:
        print(f"  problem: {problem}")
    print("facts " + json.dumps(facts, sort_keys=True))
    units = END_TO_END if not args.trace else {k: u for k, (u, _) in PER_LAYER.items()}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def trace_metrics(runs: dict[str, list[dict]], problems: list[str]) -> dict:
    """Per-layer medians: times and counts from the span-only iterations,
    allocation peaks from the memory-tracing ones, CPU from the untraced."""

    def median_of(mode: str, key) -> float:
        vals = [key(r) for r in runs[mode] if "wall_s" in r]
        return statistics.median(vals) if vals else 0.0

    metrics = {}
    for name in PER_LAYER:
        mode = "memory" if name in MEMORY_METRICS else "traced"
        metrics[name] = median_of(mode, lambda r: r["trace"]["metrics"].get(name, 0.0))
    metrics["run.cpu_s"] = median_of("plain", lambda r: r["cpu_s"])
    metrics["run.tracing_overhead_s"] = median_of("traced", lambda r: r["wall_s"]) - median_of(
        "plain", lambda r: r["wall_s"]
    )
    coverage = [r["trace"]["metrics"]["run.coverage"] for r in runs["traced"] if "trace" in r]
    if not coverage or min(coverage) < MIN_COVERAGE:
        problems.append(
            f"spans cover {min(coverage or [0.0]):.3f} of wall time, below {MIN_COVERAGE}"
        )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
