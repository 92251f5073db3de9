"""Moment series, the product split, and descending-series division."""

import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussquad.interprule import T01, U11, interpolatory_rule
from gaussquad.momseries import (
    SeriesTail,
    _split_tail,
    cauchy_expansion_of_rule,
    divide_tail_by_poly,
    moment_series_t,
    moment_series_u,
    product_split,
)
from gaussquad.numerics import working_context
from gaussquad.ratpoly import RatPoly
from oracles import frac_product_split, frac_series_quotient

F = Fraction

small_rationals = st.fractions(min_value=F(-8), max_value=F(8), max_denominator=12)


class TestMomentSeries:
    def test_unit_interval_head(self):
        assert moment_series_t(3).coeffs == (F(1), F(1, 2), F(1, 3))

    def test_single_coefficient(self):
        assert moment_series_t(1).coeffs == (F(1),)

    def test_tenth_moment(self):
        assert moment_series_t(10)[9] == F(1, 10)

    def test_symmetric_head(self):
        assert moment_series_u(5).coeffs == (F(1), 0, F(1, 3), 0, F(1, 5))

    def test_odd_moment_vanishes(self):
        assert moment_series_u(2)[1] == 0

    def test_seventh(self):
        assert moment_series_u(7)[6] == F(1, 7)

    def test_every_odd_coefficient_zero(self):
        series = moment_series_u(40)
        assert all(series[m] == 0 for m in range(1, 40, 2))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            moment_series_t(0)
        with pytest.raises(ValueError):
            moment_series_u(0)


class TestProductSplit:
    def test_midpoint_polynomial_part(self):
        T = RatPoly.from_roots([F(1, 2)])
        tprime, tail = product_split(T, moment_series_t(6))
        assert tprime == RatPoly.one()
        # Tail of the raw product; the error series divides this by T once
        # more, which turns the third entry 1/12 into the moment deficit 1/8.
        assert tail.coeffs == (F(0), F(1, 12), F(1, 12), F(3, 40), F(1, 15))

    def test_midpoint_error_series_from_tail(self):
        T = RatPoly.from_roots([F(1, 2)])
        _, tail = product_split(T, moment_series_t(5))
        theta = divide_tail_by_poly(tail, T, 4)
        assert theta.coeffs == (F(0), F(0), F(1, 12), F(1, 8))

    def test_degree_zero_input(self):
        sigma = moment_series_t(4)
        tprime, tail = product_split(RatPoly.one(), sigma)
        assert tprime.is_zero
        assert tail.coeffs == sigma.coeffs

    def test_zero_polynomial_takes_every_moment(self):
        poly, tail = product_split(RatPoly.zero(), moment_series_t(5))
        assert poly.is_zero
        assert tail.coeffs == (0,) * 5

    def test_two_point_symmetric_split(self):
        U = RatPoly((F(-1, 3), 0, 1))
        uprime, tail = product_split(U, moment_series_u(7))
        assert uprime == RatPoly((0, 1))
        # The first nonzero coefficient sits at u**-3 in the product tail.
        assert next(m for m, c in enumerate(tail.coeffs) if c) == 2
        assert tail[2] == F(4, 45)

    def test_pade_remainder_position(self):
        # The same 4/45 reappears at u**-5 in phi - U'/U.
        U = RatPoly((F(-1, 3), 0, 1))
        phi = moment_series_u(8)
        approx = frac_series_quotient((0, 1), U.coeffs, 8)
        diff = [a - b for a, b in zip(phi.coeffs, approx)]
        assert diff[:4] == [0, 0, 0, 0]
        assert diff[4] == F(4, 45)

    def test_insufficient_moments(self):
        T = RatPoly.from_roots([0, F(1, 2), 1])
        with pytest.raises(ValueError, match="too short"):
            product_split(T, moment_series_t(4), tail_len=5)

    def test_negative_tail_length(self):
        T = RatPoly.from_roots([0, 1])
        with pytest.raises(ValueError, match="tail length -1 not in 0..3"):
            product_split(T, moment_series_t(5), tail_len=-1)

    def test_monic_leading_coefficient(self):
        T = RatPoly.from_roots([F(1, 4), F(3, 4)])
        tprime, _ = product_split(T, moment_series_t(4))
        assert tprime.degree == T.degree - 1
        assert tprime.leading == moment_series_t(1)[0]

    def test_split_identity_random(self):
        rng = random.Random(1815)
        for _ in range(25):
            deg = rng.randint(1, 6)
            roots = []
            while len(roots) < deg:
                r = F(rng.randint(0, 24), 24)
                if r not in roots:
                    roots.append(r)
            T = RatPoly.from_roots(roots)
            K = 8
            sigma = moment_series_t(deg + K)
            tprime, tail = product_split(T, sigma, tail_len=K)
            # Divide the two pieces back by T; their sum must reproduce sigma.
            head = frac_series_quotient(tprime.coeffs, T.coeffs, K)
            rest = divide_tail_by_poly(tail, T, K)
            got = [a + b for a, b in zip(head, rest.coeffs)]
            assert got == list(sigma.coeffs[:K])

    @given(
        c=st.lists(small_rationals, max_size=10),
        series=st.one_of(
            st.integers(1, 30).map(moment_series_t),
            st.integers(1, 30).map(moment_series_u),
            st.lists(small_rationals, min_size=1, max_size=30).map(lambda m: SeriesTail(tuple(m))),
        ),
        short=st.integers(0, 3),
    )
    @settings(max_examples=200)
    def test_integer_kernel_matches_fraction_sums(self, c, series, short):
        node = RatPoly(c)
        tail_len = len(series) - max(node.degree, 0) - short
        assume(tail_len >= 0)
        poly, tail = product_split(node, series, tail_len)
        want_poly, want_tail = frac_product_split(node.coeffs, series.coeffs, tail_len)
        assert poly == RatPoly(want_poly)
        assert poly.coeffs == want_poly
        assert tail.coeffs == want_tail
        assert all(type(x) is Fraction for x in tail.coeffs)
        assert _split_tail(node, series, tail_len) == tail
        # Omitting tail_len takes every coefficient the series supports.
        if short == 0 and node.degree >= 0:
            assert product_split(node, series) == (poly, tail)


class TestSeriesDivision:
    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            divide_tail_by_poly(SeriesTail((F(1),)), RatPoly.zero(), 3)

    def test_short_tail_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            divide_tail_by_poly(SeriesTail((F(1),)), RatPoly((0, 1)), 5)

    def test_zero_denominator_outranks_degree(self):
        # Division by zero is reported before the tail is found too short.
        with pytest.raises(ZeroDivisionError):
            divide_tail_by_poly(SeriesTail(()), RatPoly.zero(), 4)

    def test_zero_numerator(self):
        got = divide_tail_by_poly(SeriesTail((F(0),) * 2), RatPoly((1, 2, 3)), 4)
        assert got.coeffs == (0,) * 4

    def test_count_within_leading_zeros(self):
        # x**-3 / (x**3 - 2) starts at x**-6, so its first five coefficients
        # are zero, both within the degree's run of zeros and beyond it.
        tail, den = SeriesTail((F(0), F(0), F(1))), RatPoly((-2, 0, 0, 1))
        for out_len in range(6):
            assert divide_tail_by_poly(tail, den, out_len).coeffs == (0,) * out_len
        assert divide_tail_by_poly(tail, den, 6).coeffs == (0,) * 5 + (1,)

    @given(
        den=st.lists(small_rationals, min_size=1, max_size=7).filter(lambda c: c[-1] != 0),
        tail=st.lists(small_rationals, max_size=12),
        out_len=st.integers(0, 12),
    )
    @settings(max_examples=200)
    def test_divide_tail_matches_long_division(self, den, tail, out_len):
        # A finite tail of L terms is p(x)/x**L with p its reversed coefficients.
        tail = tail + [F(0)] * (out_len - len(den) + 1 - len(tail))
        L = len(tail)
        want = frac_series_quotient(tail[::-1], [0] * L + den, out_len)
        assert divide_tail_by_poly(SeriesTail(tuple(tail)), RatPoly(den), out_len).coeffs == want

    def test_gauss_tail_with_a_long_run_of_zeros(self):
        # The T01 Gauss tail at n = 100 has degree of precision 2n+1, so its
        # quotient by the node polynomial opens with 2n+2 zeros, a run far
        # beyond the at most 12 terms the strategies above draw.
        from gaussquad.gausscf import gauss_rule

        n = 100
        T = gauss_rule(n, 50, convention=T01).nodepoly
        count = 2 * n + 4
        L = count - T.degree
        tail = product_split(T, moment_series_t(count), tail_len=L)[1].coeffs
        got = divide_tail_by_poly(SeriesTail(tail), T, count).coeffs
        assert got == frac_series_quotient(tail[::-1], [0] * L + list(T.coeffs), count)
        assert not any(got[:2 * n + 2]) and got[2 * n + 2] and got[2 * n + 3]

    def test_geometric_series(self):
        # t**-1 / (t - 1/2) = t**-2 + (1/2) t**-3 + (1/4) t**-4 + ...
        got = divide_tail_by_poly(SeriesTail((F(1), 0, 0, 0)), RatPoly((F(-1, 2), 1)), 5)
        assert got.coeffs == (0, 1, F(1, 2), F(1, 4), F(1, 8))


class TestCauchyExpansion:
    def test_midpoint_moments(self):
        rule = interpolatory_rule([F(1, 2)], T01)
        got = cauchy_expansion_of_rule(rule, 3)
        assert got.coeffs == (F(1), F(1, 2), F(1, 4))

    def test_trapezoid_moments(self):
        rule = interpolatory_rule([0, 1], T01)
        got = cauchy_expansion_of_rule(rule, 3)
        assert got.coeffs == (F(1), F(1, 2), F(1, 2))

    def test_empty_rule_shape(self):
        fake = SimpleNamespace(nodes_exact=(), weights_exact=())
        assert cauchy_expansion_of_rule(fake, 4).coeffs == (0, 0, 0, 0)

    def test_rule_moments_match_split_quotient(self):
        # Moments of any interpolatory rule equal the descending expansion of
        # T'/T through every order, with T' from the product split.
        rng = random.Random(7)
        for _ in range(12):
            size = rng.randint(1, 6)
            nodes = []
            while len(nodes) < size:
                r = F(rng.randint(0, 20), 20)
                if r not in nodes:
                    nodes.append(r)
            rule = interpolatory_rule(nodes, T01)
            K = 10
            expansion = frac_series_quotient(
                product_split(rule.nodepoly, moment_series_t(size))[0].coeffs,
                rule.nodepoly.coeffs,
                K,
            )
            assert cauchy_expansion_of_rule(rule, K).coeffs == expansion

    @pytest.mark.parametrize("n, prec, convention",
                             [(100, 50, T01), (28, 50, U11), (12, 200, T01), (12, 1000, T01)])
    def test_fixed_point_sums_within_the_stated_bound(self, n, prec, convention):
        # Against exact power sums of the same rounded Decimal nodes and
        # weights: within 2*npoints*(m+1) * 2**-B plus one rounding to the
        # ambient precision P, B = 10*P//3 + 4.  U11 nodes are negative in
        # half the rule, where >> rounds toward minus infinity.
        from gaussquad.gausscf import gauss_rule

        rule = gauss_rule(n, prec, convention=convention)
        count = 2 * n + 4
        # Every value as an integer over 10**k, so the exact sum at power m
        # is sum(terms) / 10**(k*(m+1)) with no Fraction arithmetic per term.
        k = max(-x.as_tuple().exponent for x in rule.nodes + rule.weights)
        nodes = [int(F(a) * 10**k) for a in rule.nodes]
        terms = [int(F(w) * 10**k) for w in rule.weights]
        ctx = working_context(prec)
        with localcontext(ctx):
            got = cauchy_expansion_of_rule(rule, count)
        bits = ctx.prec * 10 // 3 + 4
        for m in range(count):
            exact = F(sum(terms), 10 ** (k * (m + 1)))
            rounding = F(10) ** (got[m].adjusted() - ctx.prec + 1) / 2 if got[m] else 0
            assert abs(F(got[m]) - exact) <= F(2 * (n + 1) * (m + 1), 2 ** bits) + rounding
            terms = [t * a for t, a in zip(terms, nodes)]

    def test_decimal_path_for_inexact_rule(self):
        from gaussquad.gausscf import gauss_rule

        rule = gauss_rule(1)
        with localcontext(Context(prec=60)):
            got = cauchy_expansion_of_rule(rule, 3)
            assert abs(got[0] - 1) < Decimal("1e-45")
            assert abs(got[1]) < Decimal("1e-45")
            third = abs(got[2] - Decimal(1) / 3)
        assert third < Decimal("1e-45")
