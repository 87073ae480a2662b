"""Smoke tests: each script under scripts/ runs in a fresh interpreter,
exits 0 and writes its CSV header; pinned runs write the same bytes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from divcorr.harness import CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent
# SHA-256 of the whole stdout of a run
_PINNED = {
    ("coefficient_table.py", ("--vmax", "30")):
        "94d8a4ea9d4c06c7ccf4142f8dba0075c675f4225725e468cb590dfb45be5084",
}


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,args,header,rows",
    [
        (
            "residual_scaling.py",
            ("--kind", "dpoly", "--v", "1,2", "--decades", "1"),
            CSV_HEADER,
            2,
        ),
        ("coefficient_table.py", ("--vmax", "5"), "v,c1,c2,A1,A2", 5),
        ("coefficient_table.py", ("--vmax", "30"), "v,c1,c2,A1,A2", 30),
    ],
)
def test_script_writes_csv(script, args, header, rows):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines)
    if (script, args) in _PINNED:
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == _PINNED[script, args]


def test_kernel_timing_prints_every_shape():
    proc = _run("kernel_timing.py", "--x", "100,1000", "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["repeat"] == 2 and sorted(report["x"]) == ["100", "1000"]
    for row in report["x"].values():
        shapes = ("1", "p", "p2", "pq", "p2q", "p2qr")
        want = ["build_divisor_table"] + [f"shifted_product_values.{s}" for s in shapes]
        want += ["stream_pair_sums.one_cell", "stream_pair_sums.per_cell"]
        assert list(row) == want
        assert all(ns > 0 for ns in row.values())


def test_residual_scaling_block_maxima():
    # 64 x per decade from 1e4 to 1e5, both ends included, for each shift;
    # every block maximum on stderr is the largest |residual| / x^theta of
    # the CSV rows whose x lies in that dyadic block
    proc = _run("residual_scaling.py", "--decades", "2", "--v", "1,2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    rows = [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 2 * 65
    xs = [int(r["x"]) for r in rows]
    assert xs[:65] == xs[65:] and xs[0] == 10_000 and xs[64] == 100_000
    assert all(a < b for a, b in zip(xs, xs[1:65]))
    want = {}
    for r in rows:
        x, residual = int(r["x"]), abs(float(r["residual"]))
        key = (r["v"], f"2^{x.bit_length() - 1}")
        scaled = (residual / x**0.5, residual / x ** (2 / 3 + 0.05))
        want[key] = tuple(map(max, want.get(key, scaled), scaled))
    report = proc.stderr.splitlines()
    assert report[0] == "v,block,max_E_over_x^(1/2),max_E_over_x^(2/3+0.05)"
    got = {}
    for line in report[1:]:
        v, block, half, proven = line.split(",")
        got[v, block] = (float(half), float(proven))
    assert list(got) == [(v, f"2^{k}") for v in "12" for k in range(13, 17)]
    assert got == want


def test_bad_list_is_a_usage_error():
    # the script parses --v with the CLI's parser, so it fails the same way
    proc = _run("residual_scaling.py", "--v", "1,x")
    assert proc.returncode == 2
    assert "not a comma-separated int list: '1,x'" in proc.stderr
    assert not proc.stdout


def test_code_lines(tmp_path):
    # a module docstring, a comment line and a function docstring are not
    # code; both lines of a string that is not a docstring are: five code
    # lines out of eleven
    (tmp_path / "a.py").write_text(
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f():\n"
        '    """Docstring."""\n'
        '    s = """two\n'
        '    lines"""\n'
        "    return s  # trailing comment\n"
        "\n"
        "x = 1\n"
    )
    proc = _run("code_lines.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "wc -l: 11\ncode lines: 5\n"
    proc = _run("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    src = sorted((ROOT / "src" / "divcorr").glob("*.py"))
    total = sum(path.read_text().count("\n") for path in src)
    wc, code = proc.stdout.splitlines()
    assert wc == f"wc -l: {total}"
    assert 0 < int(code.removeprefix("code lines: ")) < total
