import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divcorr as dc
from divcorr.harness import CSV_HEADER
from oracles import sum_dd_naive, sum_dpoly_naive


class TestRunConfig:
    def test_defaults(self):
        config = dc.RunConfig(x_list=[100], v_list=[1])
        assert config.truncation == 3
        assert config.residual_exponent == pytest.approx(2 / 3 + 0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_list=[1], v_list=[1]),
            dict(x_list=[], v_list=[1]),
            dict(x_list=[100], v_list=[0]),
            dict(x_list=[100], v_list=[1], kind="nope"),
            dict(x_list=[100], v_list=[1], residual_exponent=0.4),
            dict(x_list=[100], v_list=[1], residual_exponent=1.0),
            dict(x_list=[100], v_list=[1], truncation=4),
            dict(x_list=[100], v_list=[1], kind="sigma_corr"),
            dict(x_list=[100], v_list=[1], kind="sigma_corr", alpha=0.5),
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

    def test_truncation_moves_residual(self):
        base = dc.RunConfig(x_list=[500], v_list=[1], kind="dpoly")
        (r3,) = dc.run_compare(base)
        two = dc.RunConfig(x_list=[500], v_list=[1], kind="dpoly", truncation=2)
        (r2,) = dc.run_compare(two)
        assert r3.residual == r3.empirical - r3.main3
        assert r2.residual == r2.empirical - r2.main2
        assert r2.main3 == r3.main3

    def test_sigma_corr_rows(self):
        config = dc.RunConfig(
            x_list=[100], v_list=[1], kind="sigma_corr", alpha=1
        )
        (row,) = dc.run_compare(config)
        spf = dc.build_spf(101)
        assert row.empirical == dc.sum_shifted_product(
            dc.sigma_spec(1), 100, 1, spf
        ).value
        assert row.main1 == row.main2 == row.main3

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
        assert dc.parse_rows(dc.emit(rows, fmt), fmt) == rows

    def test_unknown_format(self):
        with pytest.raises(dc.ContractError):
            dc.emit([], "xml")


class TestRunVerify:
    def test_unknown_suite(self):
        with pytest.raises(dc.ContractError):
            dc.run_verify(["nope"])

    def test_all_suites_reduced_bounds(self):
        report = dc.run_verify(list(dc.harness.SUITES), xmax=500, vmax=12)
        assert report.passed
        names = [s.name for s in report.suites]
        assert names == list(dc.harness.SUITES)
        for suite in report.suites:
            assert suite.checks > 0
            assert suite.failures == 0
            assert suite.first_counterexample is None

    @pytest.mark.parametrize("suite", ["lemma1", "lemma2"])
    def test_suite_arrays_charged_before_allocation(self, monkeypatch, suite):
        # default vmax at xmax = 1e6 asks for 800 MB of int64 arrays
        monkeypatch.setenv("DIVCORR_MEMCAP", str(200 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(dc.ResourceError):
                dc.run_verify([suite], xmax=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before the d-table or any array

    def test_genrec_tables_charged_before_allocation(self, monkeypatch):
        # vmax 2000 asks for an SPF table and f-tables over 4e6 entries
        monkeypatch.setenv("DIVCORR_MEMCAP", "50000000")
        tracemalloc.start()
        try:
            with pytest.raises(dc.ResourceError):
                dc.run_verify(["genrec"], vmax=2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before the SPF table or any f-table

    def test_genrec_peak_within_charge(self, monkeypatch):
        charged = []
        charge = dc.harness.charge

        def record(nbytes):
            charged.append(nbytes)
            charge(nbytes)

        monkeypatch.setattr(dc.harness, "charge", record)
        tracemalloc.start()
        try:
            report = dc.run_verify(["genrec"], vmax=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= sum(charged), (peak, charged)


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

        def off_at_6(spec, spf, limit):
            out = table(spec, spf, limit)
            if spec.name == "sigma_1":
                out[6] += 1
            return out

        return "build_mult_table", off_at_6
    if suite == "sigma_lambda":
        rep = h.sigma_lambda_identity
        return "sigma_lambda_identity", lambda v, k: (
            dataclasses.replace(rep(v, k), lhs=2.5, rhs=0.5, tolerance=1.0)
            if (v, k) == (6, 2)
            else rep(v, k)
        )
    if suite == "binomial":
        rep = h.binomial_log_identity
        return "binomial_log_identity", lambda v, n: (
            dataclasses.replace(rep(v, n), lhs=1.0)
            if v in (4, 9) and n == 1
            else rep(v, n)
        )
    rep = h.coefficient_consistency

    def a1_off(v, zc):
        r = rep(v, zc)
        return r if v % 5 else dataclasses.replace(r, a1_combined=r.a1_direct + 0.5)

    return "coefficient_consistency", a1_off


class TestFailureReports:
    # each suite's checks, failure count and first counterexample with one
    # planted fault, at xmax = 20, vmax = 12 (induction has fixed bounds)
    @pytest.mark.parametrize(
        "suite,checks,failures,first",
        [
            # the fault moves the product-form prefix sums of shift 2 from
            # x = 7 on: pair form v = 2 (x = 7..20) and v = 4 (x = 14..20),
            # product form v = 2 (x = 7..20)
            ("lemma1", 480, 35, "pair form v=2, x= index 6: 50 != 51"),
            # n = 7 at v = 2 (e = 1) and n = 14 at v = 4 (e = 2)
            ("lemma2", 240, 2, "v=2, n= index 6: 6 != 7"),
            ("induction", 1350, 21, "sigma_1 p=2 alpha=2 beta=2: 50 != 49"),
            ("genrec", 312, 14, "sigma_1 a=2 b=3: 12 != 13"),
            ("sigma_lambda", 48, 1, "v=6: |2.5 - 0.5| > 1.0"),
            ("binomial", 48, 2, "v=4: |1.0 - 0.0| > 1e-10"),
            ("coeff_consistency", 12, 2, "v=5: max deviation 5.000e-01"),
        ],
    )
    def test_planted_fault(self, monkeypatch, suite, checks, failures, first):
        monkeypatch.setattr(dc.harness, *_plant(suite))
        report = dc.run_verify([suite], xmax=20, vmax=12)
        assert not report.passed
        (got,) = report.suites
        assert (got.name, got.checks, got.failures, got.first_counterexample) == (
            suite, checks, failures, first,
        )
