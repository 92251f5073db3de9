"""Scalar layer: decimal ln/log10, conversions, rendering."""

from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussquad.numerics import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    format_fixed,
    format_sig,
    hp_ln,
    hp_log10_scaled,
    resolve_precision,
    to_hp,
)
from oracles import LN_2, LN_100000, LOG10_SCALED_HALF

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=997
)


class TestHpLn:
    def test_ln_one_is_zero(self):
        assert hp_ln(1) == 0

    def test_ln_1e5_against_frozen_digits(self):
        assert abs(hp_ln(100000) - LN_100000) < Decimal("1e-44")

    def test_ln_2(self):
        assert abs(hp_ln(2) - LN_2) < Decimal("1e-44")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hp_ln(0)
        with pytest.raises(ValueError):
            hp_ln(-3)

    @pytest.mark.parametrize("x", [Decimal("Infinity"), "Infinity", Decimal("-Infinity"),
                                   Decimal("NaN"), "NaN"])
    def test_non_finite_input_raises(self, x):
        # Halving an infinity never brings it below 2, so without the check
        # the argument reduction would never return.
        with pytest.raises(ValueError, match="finite"):
            hp_ln(x)

    @pytest.mark.parametrize("prec", [50, 200])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", [1, 7, 30, 45])
    def test_near_one_against_decimal_ln(self, k, sign, prec):
        # x = 1 +- 10**-k.  Just below 1, an argument reduced to 2x takes
        # ln(2x) - ln 2, which cancels: at 1 - 1e-45 it keeps 15 of 50
        # digits.
        with localcontext(Context(prec=120)):
            x = 1 + sign * Decimal(1).scaleb(-k)
            oracle = x.ln()
            err = abs(hp_ln(x, prec) - oracle)
        # The oracle carries 120 digits, which caps what prec = 200 can show.
        assert err <= abs(oracle) * Decimal(1).scaleb(1 - min(prec, 115))

    def test_fraction_input(self):
        # ln(1/2) = -ln 2
        assert abs(hp_ln(Fraction(1, 2)) + LN_2) < Decimal("1e-44")

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.integers(min_value=1, max_value=10**6),
        y=st.integers(min_value=1, max_value=10**6),
    )
    def test_product_rule(self, x, y):
        from decimal import Context, localcontext

        p = DEFAULT_PRECISION
        with localcontext(Context(prec=p + 10)):
            lhs = hp_ln(x * y, p)
            rhs = hp_ln(x, p) + hp_ln(y, p)
            bound = Decimal(1).scaleb(-(p - 6)) * max(abs(lhs), abs(rhs), Decimal(1))
            assert abs(lhs - rhs) <= bound


class TestLog10Scaled:
    def test_unit_weight(self):
        assert hp_log10_scaled(1) == 9

    def test_half_weight_against_frozen_digits(self):
        assert abs(hp_log10_scaled(Fraction(1, 2)) - LOG10_SCALED_HALF) < Decimal("1e-40")

    def test_cancellation_case(self):
        assert abs(hp_log10_scaled(Fraction(1, 10**9))) < Decimal("1e-35")

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hp_log10_scaled(0)

    @pytest.mark.parametrize("w", [Decimal("Infinity"), "Infinity", Decimal("NaN")])
    def test_non_finite_input_raises(self, w):
        with pytest.raises(ValueError, match="finite"):
            hp_log10_scaled(w)


class TestConversion:
    def test_third_round_trip(self):
        x = to_hp(Fraction(1, 3), 50)
        assert abs(x * 3 - 1) <= Decimal("1e-48")

    def test_int_exact(self):
        assert to_hp(7) == 7

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            resolve_precision(39)
        with pytest.raises(ValueError):
            hp_ln(2, prec=10)

    def test_precision_ceiling(self):
        # Only the check runs: nothing is computed at the rejected precisions.
        assert resolve_precision(MAX_PRECISION) == MAX_PRECISION == 1000
        for prec in (MAX_PRECISION + 1, 10**21):
            with pytest.raises(ValueError, match="precision must lie in"):
                resolve_precision(prec)

    @given(a=rationals)
    @settings(max_examples=60, deadline=None)
    def test_conversion_close_to_exact(self, a):
        x = to_hp(a, 50)
        err = abs(Fraction(x) - a)
        assert err <= abs(a) * Fraction(1, 10**49) if a else err == 0


    @pytest.mark.parametrize("value", ["sNaN", "-sNaN", Decimal("sNaN")])
    @pytest.mark.parametrize("fn", [to_hp, hp_ln, hp_log10_scaled])
    def test_signalling_nan_raises_value_error(self, fn, value):
        # Any arithmetic on a signalling NaN signals InvalidOperation; the
        # conversion refuses it first, as it refuses every other bad value.
        with pytest.raises(ValueError, match="signalling NaN"):
            fn(value)

    @pytest.mark.parametrize("value", ["NaN", "-NaN", Decimal("NaN"), Decimal("-NaN"),
                                       "Infinity", "-Infinity", "inf",
                                       Decimal("Infinity"), Decimal("-Infinity")])
    def test_non_finite_input_raises(self, value):
        # Like hp_ln and hp_log10_scaled, the conversion refuses what no
        # digit string renders, rather than passing it on.
        with pytest.raises(ValueError, match="finite"):
            to_hp(value)

    @pytest.mark.parametrize("fn", [to_hp, hp_ln, hp_log10_scaled])
    def test_malformed_string_raises_value_error(self, fn):
        with pytest.raises(ValueError, match="not a decimal number"):
            fn("1.5.2")


class TestRendering:
    @pytest.mark.parametrize(
        "value, sig, expected",
        [
            (Decimal("0.5"), 16, "0.5000000000000000"),
            (Decimal(1), 16, "1.000000000000000"),
            (Decimal(9), 10, "9.000000000"),
            (Decimal("0.57735026918962576450914878"), 16, "0.5773502691896258"),
            (Decimal("-0.57735026918962576450914878"), 16, "-0.5773502691896258"),
            (Decimal("8.6989700043360188"), 10, "8.698970004"),
            (Decimal(0), 16, "0.0000000000000000"),
            (Decimal("0.99999999"), 4, "1.000"),
            (Decimal("1.489734e-16"), 10, "1.489734000E-16"),
            (Decimal("12345.678"), 4, "12350"),
            # A first rounding to sig + 4 digits makes a false tie of each,
            # which half-even then breaks the wrong way.
            (Decimal("-5.2500033074E+27"), 2, "-5.3E+27"),
            (Decimal("1.23456789012345549999"), 16, "1.234567890123455"),
            (Decimal("9.9949999"), 3, "9.99"),
            (Decimal("0.000123450000001"), 4, "0.0001235"),
            (Decimal("9.99999999999999999E+999999"), 16, "1.000000000000000E+1000000"),
        ],
    )
    def test_format_sig(self, value, sig, expected):
        assert format_sig(value, sig) == expected

    @pytest.mark.parametrize("value", ["NaN", "-NaN", "sNaN", "Infinity", "-Infinity"])
    def test_format_sig_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            format_sig(Decimal(value), 16)

    def test_format_fixed(self):
        assert format_fixed(Decimal("8390.39460796686"), 6) == "8390.394608"
        assert format_fixed(Decimal("8406.2431208437"), 7) == "8406.2431208"
        assert format_fixed(Decimal("1.25"), 1) == "1.2"  # half-even

    @pytest.mark.parametrize(
        "value, places, expected",
        [
            (Decimal("7.56E-7"), 9, "0.000000756"),
            (Decimal("-3.515E-7"), 7, "-0.0000004"),
            (Decimal("2.6E-33"), 12, "0.000000000000"),
            (Decimal("1.5E+61"), 2, "15" + "0" * 60 + ".00"),
            (Decimal("-9.334E+70"), 6, "-9334" + "0" * 67 + ".000000"),
        ],
    )
    def test_format_fixed_stays_fixed_at_any_magnitude(self, value, places, expected):
        assert format_fixed(value, places) == expected
