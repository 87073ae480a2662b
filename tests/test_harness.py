import json
import math
import mmap
import os
import tracemalloc
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import divcorr as dc
from divcorr.cli import main
from divcorr.harness import CSV_HEADER
from oracles import genrec_pairs_naive, sum_dd_naive, sum_dpoly_naive


class TestRunConfig:
    def test_defaults(self):
        config = dc.RunConfig(x_list=[100], v_list=[1])
        assert (config.kind, config.alpha) == ("dpoly", None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_list=[1], v_list=[1]),
            dict(x_list=[], v_list=[1]),
            dict(x_list=[100], v_list=[0]),
            dict(x_list=[100], v_list=[1], kind="nope"),
            dict(x_list=[100], v_list=[1], kind="sigma_corr"),
            dict(x_list=[100], v_list=[1], kind="sigma_corr", alpha=0.5),
            dict(x_list=[100], v_list=[1], kind="dd", alpha=3),
            dict(x_list=[100], v_list=[]),
            dict(x_list=[100], v_list=[1], kind="sigma_corr", alpha=0),
            # x (x(x+1))^alpha zeta(2) exceeds the largest float
            dict(x_list=[10**6], v_list=[1], kind="sigma_corr", alpha=26),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(dc.ContractError):
            dc.RunConfig(**kwargs)


class TestRunCompare:
    def test_dpoly_rows_match_oracle(self, zc):
        config = dc.RunConfig(x_list=[50, 200], v_list=[2, 3, 4, 12], kind="dpoly")
        rows = dc.run_compare(config)
        assert len(rows) == 8
        for row in rows:
            assert row.empirical == sum_dpoly_naive(row.x, row.v)
            assert isinstance(row.empirical, int)
            # main fields reproduce the constants module bit-for-bit
            for terms, got in ((1, row.main1), (2, row.main2), (3, row.main3)):
                assert got == dc.shifted_product_main_term(row.x, row.v, zc, terms)
            assert row.residual == row.empirical - row.main3
            assert row.residual_scaled == row.residual / row.x ** (2 / 3 + 0.05)

    def test_dd_rows_match_oracle(self, zc):
        config = dc.RunConfig(x_list=[60], v_list=[4], kind="dd")
        (row,) = dc.run_compare(config)
        assert row.empirical == sum_dd_naive(60, 4)
        assert row.main3 == dc.estermann_main_term(60, 4, zc, 3)

    @pytest.mark.parametrize("kind", ["dd", "dpoly"])
    def test_cells_read_through_correlate_sum_dd(self, monkeypatch, kind):
        # fault injection rebinds correlate.sum_dd, so every streamed cell,
        # (x, v) for dd and (x/e, v/e) over squarefree e | v for dpoly, must
        # be read through that module binding
        config = dc.RunConfig(x_list=[100, 1000], v_list=[1, 6, 12], kind=kind)
        want = dc.run_compare(config)
        sum_dd = dc.correlate.sum_dd
        seen = set()

        def recording(x, v, tables):
            seen.add((x, v))
            return sum_dd(x, v, tables)

        monkeypatch.setattr(dc.correlate, "sum_dd", recording)
        assert dc.run_compare(config) == want
        def weights(v):  # (e, mu(e)) of the pair-form cells of one row
            return [(1, 1)] if kind == "dd" else dc.mobius_divisors(v)

        assert seen == {(r.x // e, r.v // e) for r in want for e, _ in weights(r.v)}

    def test_sigma_corr_rows(self):
        config = dc.RunConfig(
            x_list=[100], v_list=[1], kind="sigma_corr", alpha=1
        )
        (row,) = dc.run_compare(config)
        assert row.empirical == dc.sum_shifted_product(dc.sigma_spec(1), 100, 1).value
        assert row.main1 == row.main2 == row.main3
        assert row.residual == row.empirical - row.main3
        # the sigma_1 error scale x^2 log^2 x
        assert row.residual_scaled == row.residual / (100**2.0 * math.log(100) ** 2)

    def test_sigma_corr_builds_one_f_table(self, monkeypatch):
        limits = []
        build = dc.correlate.build_mult_table

        def counted(spec, limit):
            limits.append(limit)
            return build(spec, limit)

        monkeypatch.setattr(dc.correlate, "build_mult_table", counted)
        config = dc.RunConfig(
            x_list=[100, 1000, 300], v_list=[1, 6], kind="sigma_corr", alpha=1
        )
        rows = dc.run_compare(config)
        assert limits == [1006]  # one table to max x + max v for all six cells
        spec = dc.sigma_spec(1)
        for row in rows:
            assert row.empirical == dc.sum_shifted_product(spec, row.x, row.v).value

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_sigma_corr_residual_scaled_stays_bounded(self, alpha):
        # scaled by x^omega log^c x, no later decade exceeds twice x = 1e3
        xs = [10**3, 10**4, 10**5]
        config = dc.RunConfig(x_list=xs, v_list=[1, 6], kind="sigma_corr", alpha=alpha)
        rows = dc.run_compare(config)
        for v in (1, 6):
            scaled = [abs(r.residual_scaled) for r in rows if r.v == v]
            assert all(s <= 2.0 * scaled[0] for s in scaled[1:]), (alpha, v, scaled)

    def test_third_term_tightens_fit_at_1e3(self):
        config = dc.RunConfig(x_list=[1000], v_list=[1], kind="dd")
        (r,) = dc.run_compare(config)
        assert abs(r.residual) < abs(r.empirical - r.main2)

    def test_deterministic_output(self):
        config = dc.RunConfig(x_list=[100, 1000], v_list=[1, 6], kind="dpoly")
        first = dc.emit(dc.run_compare(config), "csv")
        second = dc.emit(dc.run_compare(config), "csv")
        assert first == second


class TestResidualShrinksRelativeToX:
    # after subtracting the three-term main term, what is left grows slower
    # than x, so |residual|/x falls across decades; for dpoly v=6 the true
    # sums wobble once (1e5 -> 1e6: 0.00313 -> 0.00376), so the per-decade
    # decrease is asserted where it holds and the two-decade drop everywhere
    @pytest.mark.parametrize("kind,shifts", [("dpoly", (1, 2, 3, 4, 6)), ("dd", (1, 2, 4))])
    def test_residual_over_x_decreases(self, kind, shifts):
        config = dc.RunConfig(
            x_list=[10**4, 10**5, 10**6], v_list=list(shifts), kind=kind
        )
        rows = dc.run_compare(config)
        for v in shifts:
            seq = [
                abs(r.residual) / r.x
                for r in sorted((r for r in rows if r.v == v), key=lambda r: r.x)
            ]
            assert seq[-1] < seq[0], (kind, v, seq)
            if (kind, v) != ("dpoly", 6):
                assert seq[0] > seq[1] > seq[2], (kind, v, seq)


ROWS = st.builds(
    dc.ComparisonRow,
    kind=st.sampled_from(["dd", "dpoly", "sigma_corr"]),
    x=st.integers(min_value=2, max_value=10**9),
    v=st.integers(min_value=1, max_value=10**6),
    empirical=st.integers(min_value=0, max_value=10**40),
    main1=st.floats(allow_nan=False, allow_infinity=False),
    main2=st.floats(allow_nan=False, allow_infinity=False),
    main3=st.floats(allow_nan=False, allow_infinity=False),
    residual=st.floats(allow_nan=False, allow_infinity=False),
    residual_scaled=st.floats(allow_nan=False, allow_infinity=False),
)


class TestEmit:
    def test_empty(self):
        assert dc.emit([], "csv") == (CSV_HEADER + "\n").encode()
        assert dc.emit([], "json") == b"[]\n"

    def test_single_row_field_count(self):
        row = dc.ComparisonRow("dd", 10, 1, 123, 1.0, 2.0, 3.0, 120.0, 12.0)
        data = dc.emit([row], "csv").decode()
        lines = data.strip().split("\n")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 9

    def test_exact_integer_as_decimal_string(self):
        big = 10**30 + 7  # would be mangled by any float path
        row = dc.ComparisonRow("dd", 10, 1, big, 1.0, 2.0, 3.0, 1.0, 1.0)
        assert str(big) in dc.emit([row], "csv").decode()
        assert f'"{big}"' in dc.emit([row], "json").decode()

    @given(st.lists(ROWS, max_size=8), st.sampled_from(["csv", "json"]))
    @settings(deadline=None)
    def test_round_trip(self, rows, fmt):
        # every field reads back exactly: binary64 at 17 digits, the exact
        # integer from its decimal string
        data = dc.emit(rows, fmt).decode("ascii")
        fields = get_type_hints(dc.ComparisonRow)
        if fmt == "csv":
            lines = data.splitlines()
            assert lines[0] == CSV_HEADER
            records = [line.split(",") for line in lines[1:]]
        else:
            records = [[obj[name] for name in fields] for obj in json.loads(data)]
        parsed = [
            dc.ComparisonRow(*(kind(cell) for kind, cell in zip(fields.values(), r)))
            for r in records
        ]
        assert parsed == rows

    def test_unknown_format(self):
        with pytest.raises(dc.ContractError):
            dc.emit([], "xml")


class TestRunVerify:
    def test_unknown_suite(self):
        with pytest.raises(dc.ContractError):
            dc.run_verify(["nope"])

    def test_all_suites_reduced_bounds(self):
        report = dc.run_verify(list(dc.harness.SUITES), xmax=500, vmax=12)
        assert all(s.passed for s in report)
        names = [s.name for s in report]
        assert names == list(dc.harness.SUITES)
        for suite in report:
            assert suite.checks > 0
            assert suite.failures == 0
            assert suite.first_counterexample is None

    def test_genrec_tables_charged_before_allocation(self, monkeypatch):
        # vmax 2000 asks for f-tables over 4e6 entries
        monkeypatch.setenv("DIVCORR_MEMCAP", "50000000")
        tracemalloc.start()
        try:
            with pytest.raises(dc.ResourceError):
                dc.run_verify(["genrec"], vmax=2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any f-table


def _plant(suite):
    """One planted fault per suite, as (harness binding, faulty stand-in)."""
    h = dc.harness
    if suite in ("lemma1", "lemma2"):
        spv = h.shifted_product_values

        def off_by_one(dtab, limit, shift):
            out = spv(dtab, limit, shift)
            if shift == 2:
                out[7] += 1  # d(7 * 9) read as 7
            return out

        return "shifted_product_values", off_by_one
    if suite == "induction":
        ext = h.chebyshev_extend
        return "chebyshev_extend", lambda fp, gp, k: ext(fp, gp, k) + (
            (fp, gp, k) == (3, 2, 4)  # sigma_1(2^4) read as 32
        )
    if suite == "genrec":
        table = h.build_mult_table

        def off_at_6(spec, limit):
            out = table(spec, limit)
            if spec.name == "sigma_1":
                out[6] += 1
            return out

        return "build_mult_table", off_at_6
    if suite == "sigma_lambda":
        rep = h.sigma_lambda_identity
        return "sigma_lambda_identity", lambda v, k: (
            (2.5, 0.5) if (v, k) == (6, 2) else rep(v, k)
        )
    if suite == "binomial":
        rep = h.binomial_log_identity
        return "binomial_log_identity", lambda v, n: (
            1.0 if v in (4, 9) and n == 1 else rep(v, n)
        )
    rep = h.coefficient_consistency
    return "coefficient_consistency", lambda v, zc: rep(v, zc) if v % 5 else 0.5


# each suite's checks, failure count and first counterexample with one
# planted fault, at xmax = 20, vmax = 12 (induction has fixed bounds)
_PLANTED_REPORTS = [
    # the fault moves the product-form prefix sums of shift 2 from x = 7
    # on: pair form v = 2 (x = 7..20) and v = 4 (x = 14..20), product form
    # v = 2 (x = 7..20)
    ("lemma1", 480, 35, "pair form v=2, x=7: 50 != 51"),
    # n = 7 at v = 2 (e = 1) and n = 14 at v = 4 (e = 2)
    ("lemma2", 240, 2, "v=2, n=7: 6 != 7"),
    ("induction", 1350, 21, "sigma_1 p=2 alpha=2 beta=2: 50 != 49"),
    ("genrec", 312, 14, "sigma_1 a=2 b=3: 12 != 13"),
    ("sigma_lambda", 48, 1, "v=6: |2.5 - 0.5| > 3.5000000000000003e-10"),
    ("binomial", 48, 2, "v=4: |1.0 - 0.0| > 1e-10"),
    ("coeff_consistency", 12, 2, "v=5: max deviation 5.000e-01"),
]


class TestFailureReports:
    @pytest.mark.parametrize("suite,checks,failures,first", _PLANTED_REPORTS)
    def test_planted_fault(self, monkeypatch, suite, checks, failures, first):
        monkeypatch.setattr(dc.harness, *_plant(suite))
        report = dc.run_verify([suite], xmax=20, vmax=12)
        (got,) = report
        assert not got.passed
        assert (got.name, got.checks, got.failures, got.first_counterexample) == (
            suite, checks, failures, first,
        )


class TestGenrecArrays:
    # the planted faults at amax = 20: d(19^2) + 1 in the d phase, met only
    # at the diagonal cell (19, 19); sigma_2(24) + 1, read at (2, 12), (3, 8)
    # and (4, 6) and, as e >= 2 terms, at (6, 16), (8, 12) and (12, 18);
    # tau(30) + 1 in the tau phase, whose table to 400 fits int64 but whose
    # bound does not; and sigma_1(2) + 2^62, which the bound sends to object
    # arrays, where f(2) f(b) does not wrap.  At amax = 101 the tau table,
    # to 10^4, leaves int64, and its rows stop at 100
    @pytest.mark.parametrize(
        "amax, name, n, add",
        [(1, None, 0, 0), (20, None, 0, 0), (101, None, 0, 0),
         (20, "d", 361, 1), (20, "sigma_2", 24, 1), (20, "tau", 30, 1),
         (20, "sigma_1", 2, 1 << 62)],
    )
    def test_matches_the_pair_loop(self, monkeypatch, amax, name, n, add):
        phases = []
        table = dc.harness.build_mult_table

        def planted(spec, limit):
            f = table(spec, limit)
            if spec.name == name:
                f[n] += add
            phases.append((spec, f.copy()))
            return f

        monkeypatch.setattr(dc.harness, "build_mult_table", planted)
        (got,) = dc.run_verify(["genrec"], vmax=amax)
        want = genrec_pairs_naive(amax, phases)
        assert (got.checks, got.failures, got.first_counterexample) == want
        assert got.passed == (name is None)


def _shared_fork_counts(monkeypatch):
    """Forks made from here on by this process (slot 0) and by every other
    (slot 1), counted in a mapping that forked children share."""
    counts = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)
    parent, fork = os.getpid(), os.fork

    def counting_fork():
        counts[int(os.getpid() != parent)] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return counts


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFannedOutReport:
    # with three usable CPUs and n suites, min(3, n) workers pull the
    # suites; where a test needs the caller to run the first suite and a
    # child the second, deal forces that by handshakes
    def test_report_independent_of_cpus(self, monkeypatch):
        counts = _shared_fork_counts(monkeypatch)
        reports = []
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
            reports.append(dc.run_verify(dc.harness.SUITES, xmax=500, vmax=12))
        assert reports[1] == reports[0]
        assert all(s.passed for s in reports[0])
        assert counts.tolist() == [2, 0]

    @pytest.mark.parametrize("suite,checks,failures,first", _PLANTED_REPORTS)
    def test_planted_fault_in_a_child(
        self, monkeypatch, deal, suite, checks, failures, first
    ):
        # the child's slots give the counts, the caller's rerun the first
        # counterexample; the report equals the one-suite report
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(dc.harness, *_plant(suite))
        deal(dc.harness, task=1)
        before = "binomial" if suite == "induction" else "induction"
        counts = _shared_fork_counts(monkeypatch)
        ran, got = dc.run_verify([before, suite], xmax=20, vmax=12)
        assert counts.tolist() == [1, 0]
        assert ran.passed and ran.name == before
        assert (got.name, got.checks, got.failures, got.first_counterexample) == (
            suite, checks, failures, first,
        )
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "suites", [["induction", "sigma_lambda"], ["sigma_lambda", "induction"]]
    )
    def test_suite_raising_everywhere_keeps_its_class(
        self, monkeypatch, capsys, deal, suites
    ):
        # raised in the child, then in the caller's rerun; or in the caller
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        deal(dc.harness, task=1)

        def refuse(v, k):
            raise dc.ContractError("planted refusal")

        monkeypatch.setattr(dc.harness, "sigma_lambda_identity", refuse)
        with pytest.raises(dc.ContractError, match="^planted refusal$"):
            dc.run_verify(suites, vmax=12)
        _assert_no_child_left()
        assert main(["verify", "--vmax", "12", "--suite", *suites]) == 2
        assert capsys.readouterr() == ("", "error: planted refusal\n")
        _assert_no_child_left()

    def test_fault_seen_only_in_a_child_raises(self, monkeypatch, deal):
        # binomial fails in the child alone: its rerun in the caller passes,
        # and the report is not built from the rerun
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        deal(dc.harness, task=1)
        parent = os.getpid()
        rep = dc.harness.binomial_log_identity
        monkeypatch.setattr(
            dc.harness,
            "binomial_log_identity",
            lambda v, n: 1.0 if os.getpid() != parent and n == 1 else rep(v, n),
        )
        with pytest.raises(RuntimeError, match="^suite binomial: .* 12 failures"):
            dc.run_verify(["induction", "binomial"], vmax=12)
        _assert_no_child_left()

    def test_suites_at_raised_bounds_fork_once(self, monkeypatch):
        # windows of 1009 make the default lemma tables (10050 and 10100
        # entries) span several windows, so lemma1 alone forks a table
        # worker; inside verify's two workers the tables run in-process
        monkeypatch.setattr(dc.sieve, "SEGMENT_SIZE", 1009)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = dc.run_verify(["lemma1", "lemma2"])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        counts = _shared_fork_counts(monkeypatch)
        assert dc.run_verify(["lemma1"]) == want[:1]
        assert counts.tolist() == [1, 0]
        counts[:] = 0
        assert dc.run_verify(["lemma1", "lemma2"]) == want
        assert counts.tolist() == [1, 0]
        _assert_no_child_left()
