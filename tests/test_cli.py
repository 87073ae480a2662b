import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from divcorr import constants, harness, sieve
from divcorr.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_sum_dd(capsys):
    assert main(["sum", "--kind", "dd", "--x", "6", "--v", "2"]) == 0
    assert capsys.readouterr().out.strip() == "44"


def test_sum_dpoly(capsys):
    assert main(["sum", "--kind", "dpoly", "--x", "6", "--v", "2"]) == 0
    assert capsys.readouterr().out.strip() == "32"
    assert main(["sum", "--kind", "dpoly", "--x", "6", "--v", "0"]) == 2
    assert capsys.readouterr().err.strip() == "error: shift v must be >= 1"


@pytest.mark.parametrize("kind", ["dd", "dpoly"])
@pytest.mark.parametrize(
    "x, v, message",
    [("-5", "2", "x must be >= 0"), ("30000000", "0", "shift v must be >= 1")],
)
def test_sum_validates_before_sieving(capsys, monkeypatch, kind, x, v, message):
    def no_pass(cells):
        raise AssertionError(f"streamed {list(cells)} before validating")

    monkeypatch.setattr(sieve, "stream_pair_sums", no_pass)
    assert main(["sum", "--kind", kind, "--x", x, "--v", v]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sieve_worker_failure_exit_code(capsys, monkeypatch):
    fork = os.fork

    def failing_fork():
        pid = fork()
        if pid == 0:
            os._exit(1)
        return pid

    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 1009)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", failing_fork)
    assert main(["sum", "--kind", "dd", "--x", "5000", "--v", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: sieve worker") and err.count("\n") == 1


@pytest.mark.parametrize("kind, value", [("dd", "112572"), ("dpoly", "45393")])
def test_sum_builds_no_divisor_table(capsys, monkeypatch, kind, value):
    # every d-table build, by any route, ends in the DivisorTable constructor;
    # the values are the naive sums, and most cells (x/e, v/e) have x/e = 0
    def no_table(limit, values):
        raise AssertionError(f"sum built a d-table to {limit}")

    monkeypatch.setattr(sieve, "DivisorTable", no_table)
    assert main(["sum", "--kind", kind, "--x", "1000", "--v", "30030"]) == 0
    assert capsys.readouterr().out == f"{value}\n"


def test_sum_needs_no_divisor_table_memory(capsys, monkeypatch):
    # a d-table to 25e6 + 1 would be charged 100 MB; the pass keeps a window
    monkeypatch.setenv("DIVCORR_MEMCAP", "90000000")
    assert main(["sum", "--kind", "dd", "--x", "25000000", "--v", "1"]) == 0
    assert capsys.readouterr().out == "5067141922\n"


@pytest.mark.parametrize("kind", ["dd", "dpoly"])
def test_compare_builds_no_divisor_table(capsys, monkeypatch, kind):
    def no_table(limit):
        raise AssertionError(f"compare built a d-table to {limit}")

    monkeypatch.setattr(harness, "build_divisor_table", no_table)
    argv = ["compare", "--kind", kind, "--x", "2,100,1000", "--v", "1,6,30"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 9


def test_compare_worker_killed_exit_code(capsys, monkeypatch):
    fork = os.fork

    def killed_fork():
        pid = fork()
        if pid == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return pid

    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 1009)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", killed_fork)
    assert main(["compare", "--kind", "dpoly", "--x", "20000", "--v", "6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sieve worker") and "signal 9" in captured.err
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_compare_needs_no_divisor_table_memory(capsys, monkeypatch):
    # a d-table to 25e6 would be charged 100 MB; the streamed pass keeps a
    # window, and the zeta constants one chunk
    monkeypatch.setenv("DIVCORR_MEMCAP", "90000000")
    assert main(["compare", "--kind", "dd", "--x", "25000000", "--v", "1"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith("dd,25000000,1,5067141922,")


@pytest.mark.parametrize("n", [5, 4000])
def test_compare_dropped_divisor_raises(capsys, monkeypatch, n):
    # the streamed pass checks sum d(n) against the hyperbola identity at
    # the first x in each window and at its top; n = 4000 lies in the fourth
    # window of 1009, which a child fills, and the first x past it, 10000,
    # is the first in the tenth window
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 1009)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fill = sieve._divisor_fill

    def dropping(seg, lo, hi, plan):
        fill(seg, lo, hi, plan)
        if lo <= n <= hi:
            seg[n - lo] -= 1

    monkeypatch.setattr(sieve, "_divisor_fill", dropping)
    first_bad = 10_000 if n == 4000 else 100
    argv = ["compare", "--kind", "dd", "--x", "100,3999,10000", "--v", "1,6"]
    with pytest.raises(RuntimeError, match=f"self-test failed at y={first_bad}:"):
        main(argv)
    assert capsys.readouterr().out == ""
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_verify_pass_exit_zero(capsys):
    assert main(["verify", "--suite", "induction", "sigma_lambda", "--vmax", "30"]) == 0
    out = capsys.readouterr().out
    assert "suite induction" in out and "[PASS]" in out


@pytest.mark.parametrize("bound", [["--xmax", "0"], ["--vmax", "-1"]])
def test_verify_bad_bound_usage_error(capsys, bound):
    assert main(["verify", "--suite", "genrec", "lemma1", *bound]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_verify_memory_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("DIVCORR_MEMCAP", str(200 << 20))
    assert main(["verify", "--suite", "lemma1", "--xmax", "1000000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_genrec_memory_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("DIVCORR_MEMCAP", "50000000")
    assert main(["verify", "--suite", "genrec", "--vmax", "2000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sum_dpoly_memory_cap_exit_code(capsys, monkeypatch):
    # the pass charges 12 B per entry of one 2^19 window plus the widest
    # shift (6.3 MB)
    monkeypatch.setenv("DIVCORR_MEMCAP", "6000000")
    assert main(["sum", "--kind", "dpoly", "--x", "8000000", "--v", "30"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sum_dpoly_needs_no_output_array(capsys, monkeypatch):
    # one window fits 50 MB; no x-length array is charged
    monkeypatch.setenv("DIVCORR_MEMCAP", "50000000")
    assert main(["sum", "--kind", "dpoly", "--x", "8000000", "--v", "30"]) == 0
    assert capsys.readouterr().out == "1272072482\n"


def test_constants_memory_cap_exit_code(capsys, monkeypatch):
    # a cap one byte below the charge of one chunk of head terms
    monkeypatch.setenv("DIVCORR_MEMCAP", str(constants._ZETA_CHUNK_BYTES - 1))
    constants.compute_zeta_constants.cache_clear()  # a cached call allocates nothing
    assert main(["constants"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# a process keeps across exec the peak RSS of the one it replaced (a fork
# of pytest), so the command runs in a child forked after the exec
_PEAK_RSS = """
import os, resource, sys
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
from divcorr.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
peak = max(resource.getrusage(who).ru_maxrss
           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(code, peak, file=sys.stderr, flush=True)
os._exit(0)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "--kind", "dpoly", "--x", "30000000", "--v", "12"],
        ["constants", "--json"],
        [
            "compare", "--kind", "dpoly",
            "--x", "10000,100000,1000000,10000000,30000000", "--v", "1,2,3,4,6,12",
        ],
        ["verify"],
    ],
    ids=["sum", "constants", "compare", "verify"],
)
def test_measured_peak_rss(argv):
    # a fresh process, so no earlier test's memory or children count; its
    # forked sieve workers do.  The ~30 MiB floor of the interpreter and
    # numpy is inside the 64 MiB bound, not subtracted from it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("DIVCORR_MEMCAP", None)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stderr.split())
    assert code == 0 and proc.stdout
    assert peak_kib < 64 << 10, f"peak RSS {peak_kib >> 10} MiB"


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


def test_constants_json(capsys):
    assert main(["constants", "--v", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {
        "gamma",
        "zeta2",
        "zeta_prime_2",
        "zeta_double_prime_2",
        "abs_error_bound",
    }
    assert payload["coefficients"]["v"] == 2
    assert payload["coefficients"]["A1"] == pytest.approx(1.89556, abs=1e-4)
    assert main(["constants", "--v", "12", "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "d4ee3e99a825b1e731e5e8a1f5d5266896c7461e0e6040f5e9977983de0b513c"


GRID = ["--x", "10000,100000,1000000,10000000,30000000", "--v", "1,2,3,4,6,12"]


@pytest.mark.parametrize(
    "argv, want",
    [
        (["verify"], "881b42cc0479f9443128199484dc0ab9ee2b540994cf72b90d4e478b522aec86"),
        (
            ["compare", "--kind", "dpoly", *GRID],
            "a1ec17d20a48cd694276481f7afa36839b9bae8d40c8ceeced2e8b2cfc755ae9",
        ),
        (
            ["compare", "--kind", "dd", *GRID],
            "2e8601af00fe6106c05f24ef7c7e7db5e5f10cc577892534bfbbeb4acb81f0ba",
        ),
    ],
    ids=["verify", "compare dpoly", "compare dd"],
)
def test_output_digests(capsys, argv, want):
    # the stdout of verify and of the residual grid to 3e7, byte for byte
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


@pytest.mark.parametrize(
    "argv",
    [["constants", "--v"], ["sum", "--kind", "dpoly", "--x", "10", "--v"]],
    ids=["constants", "sum"],
)
def test_shift_too_large_to_factor(capsys, argv):
    # 1000000007 * 1000000009: trial division would run to 1e9
    start = time.perf_counter()
    assert main([*argv, "1000000016000000063"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: cannot factor") and err.count("\n") == 1


def test_compare_csv(capsys):
    code = main(
        ["compare", "--x", "100,1000", "--v", "1,2", "--kind", "dpoly", "--out", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("kind,x,v,empirical")
    assert len(lines) == 1 + 4


def test_compare_json(capsys):
    code = main(
        ["compare", "--x", "100", "--v", "3", "--kind", "dpoly", "--out", "json"]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["kind"] == "dpoly" and rows[0]["x"] == 100


def test_compare_sigma_needs_alpha(capsys):
    code = main(["compare", "--x", "100", "--v", "1", "--kind", "sigma_corr"])
    assert code == 2  # usage error


def test_compare_sigma_corr_bytes(capsys):
    # residuals over the sigma_1 error scale x^2 log^2 x
    argv = ["compare", "--kind", "sigma_corr", "--alpha", "1"]
    assert main([*argv, "--x", "1000,100000", "--v", "1,6"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "cba5c44ec221f9ecc94c5380292535c6bdd7d8df9371b51ef0340a828b6cec62"


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--kind", "sigma_corr", "--alpha", "1", "--x", "1000,100000"]
        + ["--v", "1,6"],
        ["verify", "--suite", "genrec"],
    ],
)
def test_f_sums_build_no_spf_table(capsys, monkeypatch, argv):
    assert main(argv) == 0
    want = capsys.readouterr().out

    def no_spf(limit):
        raise RuntimeError(f"built an SPF table to {limit}")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "divcorr" and hasattr(module, "build_spf"):
            monkeypatch.setattr(module, "build_spf", no_spf)
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_compare_sigma_large_alpha(capsys, monkeypatch):
    # x^(2 alpha + 1) first leaves the float range at alpha = 77 for x = 100
    argv = ["compare", "--x", "100", "--v", "1", "--kind", "sigma_corr"]
    assert main([*argv, "--alpha", "76", "--out", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    floats = ("main1", "main2", "main3", "residual", "residual_scaled")
    assert all(math.isfinite(row[key]) for key in floats)

    def no_table(spec, cells):
        raise AssertionError(f"built an f-table for {cells} before validating")

    monkeypatch.setattr(harness, "product_sums", no_table)
    assert main([*argv, "--alpha", "77"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sigma_corr with alpha=77") and err.count("\n") == 1


def test_compare_bad_bound(capsys):
    code = main(["compare", "--x", "1", "--v", "1", "--kind", "dpoly"])
    assert code == 2


def test_resource_error_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("DIVCORR_MEMCAP", "1000")
    code = main(["sum", "--kind", "dd", "--x", "1000000", "--v", "1"])
    assert code == 3


@pytest.mark.parametrize("cap", ["abc", "-5"])
def test_bad_memcap_usage_error(capsys, monkeypatch, cap):
    monkeypatch.setenv("DIVCORR_MEMCAP", cap)
    assert main(["sum", "--kind", "dd", "--x", "10", "--v", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["sum", "--kind", "dd", "--x", "10000000000000000", "--v", "1"],
        ["compare", "--kind", "dd", "--x", "10000000000000000", "--v", "1"],
        ["compare", "--kind", "dpoly", "--x", "10000000000000000", "--v", "1,2"],
    ],
    ids=["sum dd", "compare dd", "compare dpoly"],
)
def test_streamed_pass_refused_at_1e16(capsys, args):
    # the default cap refuses the pass before it builds its 1.9e10 windows
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
