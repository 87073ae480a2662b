"""Self-test of the benchmark's output gate, on the tiny inputs.

    python3 -m pytest -q perfbench/test_gate.py

A clean tiny run of each workload must report no failed operation, both on
the default seed (digest path) and on another seed (Lemma 1 path); the same
run with one value altered or one call raising must report failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracles_tiny import exact_value, oracle_values  # noqa: E402
from run import END_TO_END, launch  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import NOMINAL, WORKLOADS, make_inputs, op_ids, shape_of  # noqa: E402


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0.5", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", ["0", "5"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_tiny_run_has_no_failures(workload, seed):
    res = result_of(bench("--workload", workload, "--seed", seed, "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert sorted(res["metrics"]) == sorted(END_TO_END)
    assert res["metrics"]["pass_frac"]["value"] == 1.0


@pytest.mark.parametrize("inject", ["alter", "raise"])
@pytest.mark.parametrize("seed", ["0", "5"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_fault_is_counted(workload, seed, inject):
    res = result_of(
        bench("--workload", workload, "--seed", seed, "--trace", "0", "--inject", inject)
    )
    assert not res["correct"]
    assert res["failed"] > 0
    assert res["metrics"]["pass_frac"]["value"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    res = result_of(bench("--workload", workload, "--seed", "5", "--trace", "1"))
    assert res["correct"], res
    assert list(res["metrics"]) == list(PER_LAYER)
    assert res["metrics"]["run.coverage"]["value"] >= 0.9


@pytest.mark.parametrize("workload", ["residual_grid", "transform_lattice"])
def test_tiny_outputs_match_brute_force_oracles(workload):
    args = Namespace(workload=workload, size="tiny", seed=5, inject="none")
    ops = launch(args, "plain", time.monotonic() + 120)[1]["ops"]
    oracle = oracle_values(workload, make_inputs(workload, "tiny", 5))
    assert {op: exact_value(workload, out) for op, out in ops.items()} == oracle


def test_seeded_inputs_keep_shape_and_size():
    for workload in WORKLOADS:
        assert make_inputs(workload, "full", 3) == make_inputs(workload, "full", 3)
        assert len(op_ids(workload, make_inputs(workload, "full", 3))) == len(
            op_ids(workload, make_inputs(workload, "full", 0))
        )
    nominal = NOMINAL["residual_grid", "full"]
    for seed in range(1, 20):
        drawn = make_inputs("residual_grid", "full", seed)
        assert [shape_of(v) for v in drawn["v"]] == [shape_of(v) for v in nominal["v"]]
        assert len(set(drawn["v"])) == len(drawn["v"])
        for x, x0 in zip(drawn["x"], nominal["x"]):
            assert abs(x - x0) <= 0.01 * x0 + 1


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == PER_LAYER[m["name"]]
    for m in spec["end_to_end"]:
        assert m["unit"] == END_TO_END[m["name"]]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "identity_suites", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
