"""Command-line surface: formats, round trips, exit codes, data errors."""

import contextlib
import csv
import io
import json
import os
import re
import sys
import tempfile
import time
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussquad.cli import CliError, _rat_str, main
from oracles import DEMO_PRINTED, demo_gauss_totals


@pytest.fixture
def int_digit_limit():
    """Setter for the interpreter's int-to-str digit limit, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDemo:
    def test_values_and_structure(self, capsys):
        code, out, _ = run_cli(capsys, "demo-1815", "--n-max", "6")
        assert code == 0
        values = re.findall(r"^n=\d+\s+value=([0-9.]+)", out, re.M)
        assert len(values) == 7
        # Rows n=0..5 sit within one unit of the last digit of the classical
        # table (the n=3 entry rounds the other way: ...969 vs the printed
        # ...970, still half a unit apart).
        for got, want in zip(values[:6], DEMO_PRINTED[:6]):
            assert abs(Decimal(got) - Decimal(want)) <= Decimal("1e-6")
        # The printed seventh entry, 8406.2431211, is a misprint of the 1815
        # table (hand-rounding drift); row n=6 is held to the exact 7-node
        # total instead, at the same one unit of its last digit.
        assert abs(Decimal(values[6]) - demo_gauss_totals()[6]) <= Decimal("1e-7")
        assert out.strip().endswith("Bessel: 8406.24312")

    def test_terms_sum_to_totals(self, capsys):
        _, out, _ = run_cli(capsys, "demo-1815", "--n-max", "6")
        blocks = re.split(r"^n=", out, flags=re.M)[1:]
        for block in blocks:
            head = block.splitlines()[0]
            value = Decimal(re.search(r"value=([0-9.]+)", head).group(1))
            terms = [Decimal(t) for t in re.findall(r"term\[\d+\]=([0-9.]+)", block)]
            assert terms, "every row lists its per-node products"
            assert abs(sum(terms) - value) <= Decimal("1e-6")

    def test_stable_prefixes_grow(self, capsys):
        _, out, _ = run_cli(capsys, "demo-1815", "--n-max", "6")
        stables = re.findall(r"stable=([0-9.]*)", out)
        lengths = [len(s) for s in stables]
        assert lengths == sorted(lengths)

    def test_range_validated(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["demo-1815", "--n-max", "13"])
        assert info.value.code == 2

    def test_json_has_one_entry_per_order(self, capsys):
        code, out, _ = run_cli(capsys, "demo-1815", "--n-max", "3", "--format", "json")
        assert code == 0
        entries = json.loads(out)
        assert [e["n"] for e in entries] == [0, 1, 2, 3]
        _, text, _ = run_cli(capsys, "demo-1815", "--n-max", "3")
        for e in entries:
            assert list(e) == ["n", "value", "stable", "terms"]
            assert len(e["terms"]) == e["n"] + 1
            assert e["value"].startswith(e["stable"])
            assert f"n={e['n']}  value={e['value']}  stable={e['stable']}\n" in text
        assert entries[-1]["stable"] == entries[-1]["value"]
        # Byte-identical re-render after a parse round trip.
        assert json.dumps(entries, indent=2, ensure_ascii=False) + "\n" == out

    def test_csv_has_one_row_per_term(self, capsys):
        code, out, _ = run_cli(capsys, "demo-1815", "--n-max", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "value", "stable", "term_index", "term"]
        _, doc, _ = run_cli(capsys, "demo-1815", "--n-max", "3", "--format", "json")
        assert rows[1:] == [[str(e["n"]), e["value"], e["stable"], str(j), term]
                            for e in json.loads(doc) for j, term in enumerate(e["terms"])]


class TestTables:
    def test_text_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--n-min", "0", "--n-max", "0")
        assert code == 0
        assert "T  (t) = t - 1/2" in out
        assert "0.5000000000000000" in out
        assert "1.000000000000000" in out
        assert "9.000000000" in out
        assert "weight polynomial (u) = 1" in out
        assert "k[2] = 1/12" in out

    def test_text_two_point(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "--n-min", "1", "--n-max", "1")
        assert "0.5773502691896258" in out
        assert "-0.5773502691896258" in out
        assert "8.698970004" in out
        assert "U  (u) = u^2 - 1/3" in out
        assert "T  (t) = t^2 - t + 1/6" in out

    def test_json_schema_and_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "--n-max", "3", "--format", "json")
        rows = json.loads(out)
        assert [row["n"] for row in rows] == [0, 1, 2, 3]
        for row in rows:
            assert list(row.keys()) == [
                "n",
                "convention",
                "nodes",
                "weights",
                "log10_scaled_weights",
                "leading_error",
            ]
            assert list(row["leading_error"].keys()) == ["rational", "decimal"]
            assert len(row["nodes"]) == row["n"] + 1
        # Byte-identical re-render after a parse round trip.
        rendered = json.dumps(rows, indent=2, ensure_ascii=False) + "\n"
        assert rendered == out

    def test_json_values(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "--n-max", "1", "--format", "json")
        rows = json.loads(out)
        assert rows[0]["nodes"] == ["0.5000000000000000"]
        assert rows[0]["weights"] == ["1.000000000000000"]
        assert rows[0]["leading_error"]["rational"] == "1/12"
        assert rows[1]["log10_scaled_weights"] == ["8.698970004", "8.698970004"]
        assert rows[1]["leading_error"]["rational"] == "1/180"

    def test_csv_layout(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "--n-max", "2", "--format", "csv")
        lines = out.split("\r\n")
        assert lines[0].startswith("n,node_index,node_t,node_u,weight")
        data = [line for line in lines[1:] if line]
        assert len(data) == 1 + 2 + 3

    def test_range_validated(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["tables", "--n-min", "3", "--n-max", "1"])
        assert info.value.code == 2


class TestIntegrate:
    def test_gauss_cubic_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--rule", "gauss", "--n", "1", "--fn", "poly:0,0,0,1"
        )
        assert code == 0
        assert "value=0.2500000000000000" in out
        assert "exact_value=1/4" in out
        assert "exact_error=0" in out

    def test_simpson_quartic_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--rule", "cotes", "--n", "2", "--fn", "poly:0,0,0,0,1"
        )
        assert code == 0
        assert "value=0.2083333333333333" in out
        assert "exact_value=5/24" in out
        assert "exact_error=-1/120" in out
        assert "true_integral=1/5" in out

    def test_demo_integrand(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "integrate",
            "--rule",
            "gauss",
            "--n",
            "6",
            "--fn",
            "reciprocal-log",
            "--from",
            "100000",
            "--width",
            "100000",
        )
        assert code == 0
        assert re.search(r"value=8406\.24312084", out)

    def test_unknown_integrand(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--n", "2", "--fn", "cosine")
        assert code == 2
        assert "unknown integrand" in err

    def test_missing_fn_and_samples(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["integrate", "--n", "2"])
        assert info.value.code == 2

    def test_json_format(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "integrate",
            "--rule",
            "gauss",
            "--n",
            "1",
            "--fn",
            "poly:0,1",
            "--format",
            "json",
        )
        obj = json.loads(out)
        assert obj["value"] == "0.5000000000000000"
        assert obj["exact_value"] == "1/2"

    @pytest.mark.parametrize("flag, value", [("--from", "NaN"), ("--from", "-Infinity"),
                                             ("--width", "Infinity"), ("--width", "sNaN"),
                                             ("--from", "1e999999999"),
                                             ("--width", "1e999999999"),
                                             ("--width", "1e-999999999"),
                                             ("--from", "1e-999999999"),
                                             ("--from", "one")])
    def test_non_finite_interval_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["integrate", "--rule", "gauss", "--n", "2", "--fn", "runge", flag, value])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag, value", [("--from", "-1e5"), ("--from", "-2.5E-3"),
                                             ("--width", "-1e0")])
    def test_negative_value_in_exponent_form_parses(self, capsys, flag, value):
        args = ["integrate", "--n", "3", "--fn", "runge", flag]
        code, out, err = run_cli(capsys, *args, value)
        assert (code, err) == (0, "")
        assert run_cli(capsys, *args[:-1], f"{flag}={value}") == (0, out, "")

    @pytest.mark.parametrize("start, width", [("0.5", "1"), ("2", "-1"), ("0", "1"),
                                              ("1", "0.5")])
    def test_pole_in_interval_warns_once(self, capsys, start, width):
        args = ["--n", "3", "--fn", "reciprocal-log", "--from", start, "--width", width]
        code, out, err = run_cli(capsys, "integrate", *args)
        assert code == 0
        assert err.startswith("warning: 1/ln x has a pole at x = 1")
        assert err.count("\n") == 1
        if (start, width) == ("0.5", "1"):
            assert out == "rule=gauss\nn=3\nvalue=0.5037357467692003\n"

    def test_no_warning_away_from_the_pole(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--n", "3", "--fn", "reciprocal-log",
                               "--from", "1.5", "--width", "2")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("spec", ["poly:1e5000", "poly:1e9999999"])
    def test_oversized_coefficient_is_a_quick_usage_error(self, capsys, spec):
        # Refused from the Decimal parse: 1e5000 makes an exact report too long to
        # print, and Fraction('1e9999999') alone takes seconds to build.
        began = time.perf_counter()
        code, out, err = run_cli(capsys, "integrate", "--n", "2", "--fn", spec)
        assert time.perf_counter() - began < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: polynomial coefficient") and err.count("\n") == 1

    def test_long_poly_spec_is_a_quick_usage_error_before_the_exact_report(self, capsys):
        # 2,500 ones would take seconds of exact error-series work before
        # the report proved too long to print.
        spec = "poly:" + ",".join(["1"] * 2500)
        began = time.perf_counter()
        code, out, err = run_cli(capsys, "integrate", "--n", "12", "--fn", spec)
        assert time.perf_counter() - began < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: the exact report needs a polynomial of degree below 64")
        assert err.count("\n") == 1

    def test_poly_spec_at_the_cap_is_reported_and_off_0_1_is_uncapped(self, capsys):
        ones = "poly:" + ",".join(["1"] * 64)
        code, out, _ = run_cli(capsys, "integrate", "--n", "3", "--fn", ones)
        assert code == 0 and "exact_error=" in out
        code, out, _ = run_cli(capsys, "integrate", "--n", "3", "--fn", ones + ",1",
                               "--width", "2")
        assert code == 0 and "exact" not in out

    def test_poly_spec_is_parsed_once(self, capsys):
        # The one parsed polynomial is both the integrand and the exact
        # report's; the count covers the reader wherever a module bound it.
        from gaussquad import cli, interprule

        parse = mock.Mock(wraps=interprule.parse_poly_spec)
        with mock.patch.object(cli, "parse_poly_spec", parse), \
                mock.patch.object(interprule, "parse_poly_spec", parse):
            code, out, _ = run_cli(capsys, "integrate", "--n", "3", "--fn", "poly:1,2,3")
        assert code == 0 and "exact_error=" in out
        assert parse.call_count == 1

    @pytest.mark.parametrize("limit, q_digits", [(4300, 901), (640, 151)])
    def test_unprintable_exact_report_is_a_data_error(self, capsys, int_digit_limit,
                                                       limit, q_digits):
        # Five coefficients 1/q with coprime q of q_digits digits give the
        # exact report a number past the interpreter's int-to-str limit.
        int_digit_limit(limit)
        spec = "poly:" + ",".join(f"1/{10 ** (q_digits - 1) + 2 * i + 1}" for i in range(5))
        code, out, err = run_cli(capsys, "integrate", "--n", "3", "--fn", spec)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: an exact value may have more than {limit} digits")
        assert err.count("\n") == 1
        # Without a limit the same report prints.
        int_digit_limit(0)
        code, out, err = run_cli(capsys, "integrate", "--n", "3", "--fn", spec)
        assert (code, err) == (0, "") and "exact" in out

    @pytest.mark.parametrize("limit", [4300, 640])
    def test_exact_values_print_up_to_the_digit_limit(self, int_digit_limit, limit):
        int_digit_limit(limit)
        top = 10 ** (limit - 1)
        assert _rat_str(Fraction(top, 7)) == f"{top}/7"
        for x in (Fraction(10 * top), Fraction(1, 10 * top)):
            with pytest.raises(CliError, match=f"{limit} digits"):
                _rat_str(x)

    def test_wide_but_representable_interval_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--n", "2", "--fn", "poly:1", "--from=-1e999990",
            "--width", "1e999990",
        )
        assert code == 0
        assert "value=1.000000000000000E+999990" in out

    def test_logarithm_at_the_largest_exponent_prints(self, capsys):
        # ln x at x = 1e999999 splits off the decimal exponent instead of
        # halving x three million times.  Over the unit interval the value
        # is 1/ln(1e999999) to well within the 16 digits printed.
        code, out, err = run_cli(capsys, "integrate", "--n", "12", "--fn", "reciprocal-log",
                                 "--from", "1e999999", "--width", "1")
        assert (code, err) == (0, "")
        assert out == "rule=gauss\nn=12\nvalue=4.342949161981680E-7\n"
        with localcontext(Context(prec=30)):
            want = 1 / (999999 * Decimal(10).ln())
        # Within half a unit of the 16th digit.
        assert abs(Decimal(out.split("value=")[1]) - want) <= Decimal("5e-23")

    def test_value_rounding_past_the_default_exponent_limit_prints(self, capsys):
        # Rounding to 16 digits carries the value to 1E+1000000, one past
        # the default context's Emax; it prints rather than raising.
        code, out, err = run_cli(
            capsys, "integrate", "--rule", "cotes", "--n", "1", "--fn", "poly:1", "--from", "1",
            "--width", "9.99999999999999999E+999999",
        )
        assert (code, err) == (0, "")
        assert out == "rule=cotes\nn=1\nvalue=1.000000000000000E+1000000\n"


class TestIntegrandFailures:
    @pytest.mark.parametrize(
        "argv, why",
        [
            # ln of a negative number
            (["--n", "3", "--fn", "reciprocal-log", "--from", "-5"], "integrand evaluation failed"),
            # a node at x = 1.0, where ln x = 0
            (["--n", "2", "--fn", "reciprocal-log", "--from", "0", "--width", "2"],
             "integrand evaluation failed at node 1 (x=1.0)"),
            # a node at x = 0
            (["--rule", "cotes", "--n", "1", "--fn", "reciprocal-log", "--from", "0",
              "--width", "2"], "integrand evaluation failed at node 0 (x=0)"),
            # every node and value fits; delta times the weighted sum does not
            (["--n", "3", "--fn", "poly:0,1", "--from", "0", "--width", "1e600000"],
             "the integral overflows the decimal exponent range"),
        ],
    )
    def test_failure_exits_3_with_one_error_line(self, capsys, argv, why):
        code, out, err = run_cli(capsys, "integrate", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {why}")
        assert err.count("\n") == 1


class TestSamples:
    def write_samples(self, tmp_path, lines):
        path = tmp_path / "vals.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_constant_samples(self, capsys, tmp_path):
        rule_values = ["1"] * 3
        path = self.write_samples(
            tmp_path, ["#rule gauss n=2 convention=t"] + rule_values
        )
        code, out, _ = run_cli(
            capsys, "integrate", "--rule", "gauss", "--n", "2", "--samples", path
        )
        assert code == 0
        assert "value=1.000000000000000" in out

    def test_wrong_count_exits_3(self, capsys, tmp_path):
        path = self.write_samples(tmp_path, ["1", "2"])
        code, _, err = run_cli(
            capsys, "integrate", "--rule", "gauss", "--n", "2", "--samples", path
        )
        assert code == 3
        assert "2" in err and "3" in err  # found vs expected counts

    def test_mismatched_header_exits_3(self, capsys, tmp_path):
        path = self.write_samples(tmp_path, ["#rule gauss n=4 convention=t", "1", "2", "3"])
        code, _, err = run_cli(
            capsys, "integrate", "--rule", "gauss", "--n", "2", "--samples", path
        )
        assert code == 3
        assert "n=4" in err

    def test_header_for_another_rule_exits_3(self, capsys, tmp_path):
        path = self.write_samples(tmp_path, ["#rule cotes n=2", "1", "2", "3"])
        code, out, err = run_cli(
            capsys, "integrate", "--rule", "gauss", "--n", "2", "--samples", path
        )
        assert (code, out) == (3, "")
        assert err == ("error: bad samples file: samples file is for rule 'cotes', "
                       "requested 'gauss'\n")

    @pytest.mark.parametrize("header", ["# values of f at the nodes", "#", "#ruler cotes n=9"])
    def test_comment_that_is_not_a_rule_line_is_ignored(self, capsys, tmp_path, header):
        path = self.write_samples(tmp_path, [header, "1", "1", "1"])
        code, out, err = run_cli(
            capsys, "integrate", "--rule", "gauss", "--n", "2", "--samples", path
        )
        assert (code, err) == (0, "")
        assert "value=1.000000000000000" in out

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "integrate",
            "--rule",
            "gauss",
            "--n",
            "2",
            "--samples",
            str(tmp_path / "nope.txt"),
        )
        assert code == 3

    @pytest.mark.parametrize(
        "bad, why",
        [
            ("NaN", "not a finite number"),
            ("-nan", "not a finite number"),
            ("sNaN", "not a finite number"),
            ("Infinity", "not a finite number"),
            ("-Inf", "not a finite number"),
            ("1e999999999", "overflows"),
            ("-9.999999999999999999999999999999999999999999999999999999999999999e999999",
             "overflows"),
        ],
    )
    def test_non_finite_or_overflowing_sample_exits_3(self, capsys, tmp_path, bad, why):
        path = self.write_samples(tmp_path, ["1", bad, "1"])
        code, out, err = run_cli(
            capsys, "integrate", "--rule", "gauss", "--n", "2", "--samples", path
        )
        assert code == 3
        assert out == ""
        assert bad in err and why in err

    def test_overflowing_weighted_sum_exits_3(self, capsys, tmp_path):
        # Each sample fits the exponent range; twice their weighted sum does not.
        path = self.write_samples(tmp_path, ["9e999999"] * 3)
        code, out, err = run_cli(
            capsys, "integrate", "--rule", "gauss", "--n", "2", "--samples", path,
            "--width", "2",
        )
        assert code == 3
        assert out == ""
        assert "overflows" in err


class TestErrorCoeffs:
    def test_gauss_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "error-coeffs", "--rule", "gauss", "--n", "0", "--K", "4")
        assert code == 0
        assert out.splitlines() == ["k[0]=0", "k[1]=0", "k[2]=1/12", "k[3]=1/8"]

    def test_simpson(self, capsys):
        _, out, _ = run_cli(capsys, "error-coeffs", "--rule", "cotes", "--n", "2", "--K", "5")
        assert out.splitlines()[-1] == "k[4]=-1/120"
        assert all(line.endswith("=0") for line in out.splitlines()[:4])

    def test_two_point_gauss(self, capsys):
        _, out, _ = run_cli(capsys, "error-coeffs", "--rule", "gauss", "--n", "1", "--K", "5")
        assert out.splitlines() == ["k[0]=0", "k[1]=0", "k[2]=0", "k[3]=0", "k[4]=1/180"]

    def test_csv(self, capsys):
        _, out, _ = run_cli(
            capsys, "error-coeffs", "--rule", "gauss", "--n", "0", "--K", "3",
            "--format", "csv",
        )
        lines = [line for line in out.split("\r\n") if line]
        assert lines[0] == "m,k"
        assert lines[-1] == "2,1/12"

    def test_k_limit(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["error-coeffs", "--n", "0", "--K", "65"])
        assert info.value.code == 2


class TestPrecisionPlumbing:
    def test_env_var_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("QUAD_PRECISION", "44")
        code, out, _ = run_cli(capsys, "tables", "--n-max", "0")
        assert code == 0
        assert "0.5000000000000000" in out

    def test_env_var_below_floor(self, capsys, monkeypatch):
        monkeypatch.setenv("QUAD_PRECISION", "30")
        with pytest.raises(SystemExit) as info:
            main(["tables", "--n-max", "0"])
        assert info.value.code == 2

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QUAD_PRECISION", "30")
        code, _, _ = run_cli(capsys, "tables", "--n-max", "0", "--precision", "45")
        assert code == 0

    @pytest.mark.parametrize("prec", ["1001", "1000000000000000000000"])
    def test_precision_above_maximum_is_a_usage_error(self, capsys, prec):
        # Rejected before anything is computed at that precision.
        with pytest.raises(SystemExit) as info:
            main(["tables", "--n-max", "0", "--precision", prec])
        assert info.value.code == 2
        assert "precision must lie in [40, 1000]" in capsys.readouterr().err

    def test_env_var_above_maximum(self, capsys, monkeypatch):
        monkeypatch.setenv("QUAD_PRECISION", "5000")
        with pytest.raises(SystemExit) as info:
            main(["tables", "--n-max", "0"])
        assert info.value.code == 2

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("QUAD_PRECISION", "many")
        with pytest.raises(SystemExit) as info:
            main(["tables", "--n-max", "0"])
        assert info.value.code == 2


# -- exit-code fuzz ----------------------------------------------------------

# Each strategy draws valid values more often than invalid ones, so that the
# property reaches the computing paths as well as the refusals.
ORDERS = st.integers(-1, 3)
SMALL_DECIMALS = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-40, 40)),
)
DECIMALS = st.one_of(
    SMALL_DECIMALS,
    SMALL_DECIMALS,
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-1000001, 1000001)),
    st.sampled_from(["0.5", "-2.5E-3", "1e999990", "-1e999990", "1e-999999999",
                     "9.99999999999999999e999999", "NaN", "-Infinity", "sNaN", "one", "",
                     "1e", "--1"]),
)
COEFFICIENTS = st.one_of(
    SMALL_DECIMALS,
    st.fractions(min_value=-10, max_value=10, max_denominator=50).map(str),
    DECIMALS,
    st.builds("{}e{}".format, st.integers(-9, 9), st.sampled_from([999, -999, 1000, 9999999,
                                                                   10**20])),
    st.sampled_from(["x", "1/0", "Infinity", "1.5.2", " 3 "]),
)
INTEGRANDS = st.one_of(
    st.sampled_from(["reciprocal-log", "runge", "cosine", "", "poly:"]),
    st.lists(COEFFICIENTS, min_size=1, max_size=4).map(lambda cs: "poly:" + ",".join(cs)),
)
SAMPLE_LINES = st.one_of(
    SMALL_DECIMALS,
    DECIMALS,
    st.sampled_from(["# rule gauss n=2", "#rule cotes n=3 convention=t", "# rule gauss n=x",
                     "#", "9e999999"]),
)
# Precisions above the maximum are drawn too: they are refused before any work.
PRECISIONS = st.one_of(st.none(), st.integers(40, 60), st.none(), st.integers(40, 60),
                       st.sampled_from([-1, 39, 1001, 5000, 10**30]))
ENVIRONMENTS = st.sampled_from([None, None, None, "44", "5000", "many"])


@st.composite
def invocations(draw):
    """An argv for quad and the lines of a samples file it may name."""
    command = draw(st.sampled_from(["tables", "demo-1815", "integrate", "error-coeffs"]))
    argv, lines = [command], None
    if command == "tables":
        argv += ["--n-min", str(draw(ORDERS)), "--n-max", str(draw(ORDERS))]
    elif command == "demo-1815":
        argv += ["--n-max", str(draw(ORDERS))]
    else:
        argv += ["--rule", draw(st.sampled_from(["gauss", "cotes"])), "--n", str(draw(ORDERS))]
    if command == "error-coeffs":
        argv += ["--K", str(draw(st.sampled_from([1, 2, 5, 8, 0, 65])))]
    if command == "integrate":
        source = draw(st.sampled_from(["--fn", "--fn", "--samples", None]))
        if source == "--fn":
            argv += ["--fn", draw(INTEGRANDS)]
        elif source == "--samples":
            lines = draw(st.one_of(st.lists(SAMPLE_LINES, max_size=5), st.none()))
            argv += ["--samples", "samples.txt"]
        for flag in ("--from", "--width"):
            if draw(st.booleans()):
                argv += [flag, draw(DECIMALS)]
    prec = draw(PRECISIONS)
    if prec is not None:
        argv += ["--precision", str(prec)]
    argv += ["--format", draw(st.sampled_from(["text", "csv", "json"]))]
    return argv, lines


@settings(max_examples=120, deadline=None)
@given(case=invocations(), env=ENVIRONMENTS)
def test_exit_codes_are_0_2_or_3(case, env):
    """Every invocation exits 0, 2 or 3 without a traceback; a success prints no NaN."""
    argv, lines = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("QUAD_PRECISION", None)
        if env is not None:
            os.environ["QUAD_PRECISION"] = env
        if lines is not None:
            (Path(tmp) / "samples.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [str(Path(tmp) / a) if a == "samples.txt" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
