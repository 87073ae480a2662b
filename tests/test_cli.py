import json
import math
import os

import pytest

from divcorr import cli, harness, sieve
from divcorr.cli import main


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
    def no_table(limit):
        raise AssertionError(f"sieved {limit} before validating")

    monkeypatch.setattr(cli, "build_divisor_table", no_table)
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
    # the 32 MB d-table fits the cap; the table plus 16 B per entry of one
    # 2^19 window (40.4 MB) does not
    monkeypatch.setenv("DIVCORR_MEMCAP", "36000000")
    assert main(["sum", "--kind", "dpoly", "--x", "8000000", "--v", "30"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sum_dpoly_needs_no_output_array(capsys, monkeypatch):
    # the 32 MB table and a window fit 50 MB; no x-length array is charged
    monkeypatch.setenv("DIVCORR_MEMCAP", "50000000")
    assert main(["sum", "--kind", "dpoly", "--x", "8000000", "--v", "30"]) == 0
    assert capsys.readouterr().out == "1272072482\n"


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


def test_compare_sigma_large_alpha(capsys, monkeypatch):
    # x^(2 alpha + 1) first leaves the float range at alpha = 77 for x = 100
    argv = ["compare", "--x", "100", "--v", "1", "--kind", "sigma_corr"]
    assert main([*argv, "--alpha", "76", "--out", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    floats = ("main1", "main2", "main3", "residual", "residual_scaled")
    assert all(math.isfinite(row[key]) for key in floats)

    def no_table(limit):
        raise AssertionError(f"sieved {limit} before validating")

    monkeypatch.setattr(harness, "build_spf", no_table)
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
