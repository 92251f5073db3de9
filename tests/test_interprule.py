"""Interpolatory and Newton-Cotes rules, error series, rule application."""

import math
import random
import warnings
from dataclasses import replace
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussquad.interprule import (
    T01,
    U11,
    QuadRule,
    apply_rule,
    error_coefficients,
    interpolatory_rule,
    named_integrand,
    newton_cotes,
    node_terms,
    parse_poly_spec,
    to_convention,
)
from gaussquad.numerics import to_hp, working_context
from gaussquad.ratpoly import RatPoly
from oracles import (
    LN_2,
    lagrange_weights_exact,
    moment_system_weights,
    newton_sqrt,
    parse_poly_spec_fractions,
)

F = Fraction

# Simpson's nodes as Decimals: the rule takes each as the rational it denotes.
DECIMAL_SIMPSON_NODES = [Decimal(0), Decimal("0.5"), Decimal(1)]


def random_node_set(rng, size, denom=24):
    nodes = []
    while len(nodes) < size:
        r = F(rng.randint(0, denom), denom)
        if r not in nodes:
            nodes.append(r)
    return sorted(nodes)


class TestInterpolatoryRule:
    def test_midpoint(self):
        rule = interpolatory_rule([F(1, 2)], T01)
        assert rule.weights_exact == (F(1),)
        assert rule.nodepoly == RatPoly((F(-1, 2), 1))

    def test_simpson_weights(self):
        rule = interpolatory_rule([0, F(1, 2), 1], T01)
        assert rule.weights_exact == (F(1, 6), F(2, 3), F(1, 6))
        # The nodes are read once, so an iterator gives the same rule.
        assert interpolatory_rule(iter([0, F(1, 2), 1]), T01) == rule

    @pytest.mark.parametrize("nodes", [[], iter([])], ids=["list", "iterator"])
    def test_no_nodes_rejected(self, nodes):
        with pytest.raises(ValueError, match="at least one node is required"):
            interpolatory_rule(nodes, T01)

    def test_symmetric_two_point(self):
        r = newton_sqrt(F(1, 3), 50)
        # copy_negate avoids rounding r to the ambient 28-digit context
        rule = interpolatory_rule([r.copy_negate(), r], U11)
        assert rule.weights_exact == (F(1, 2), F(1, 2))
        for w in rule.weights:
            assert abs(w - Decimal("0.5")) < Decimal("1e-45")

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            interpolatory_rule([F(1, 2), F(1, 2)], T01)

    def test_outside_interval_warns_but_builds(self):
        with pytest.warns(RuntimeWarning, match="outside"):
            rule = interpolatory_rule([0, 2], T01)
        assert rule.npoints == 2

    def test_weights_match_both_oracles(self):
        rng = random.Random(42)
        for _ in range(10):
            nodes = random_node_set(rng, rng.randint(1, 6))
            rule = interpolatory_rule(nodes, T01)
            assert list(rule.weights_exact) == lagrange_weights_exact(nodes, T01)
            assert list(rule.weights_exact) == moment_system_weights(nodes, T01)

    def test_u_convention_exact_weights(self):
        nodes = [F(-1, 2), 0, F(1, 2)]
        rule = interpolatory_rule(nodes, U11)
        assert list(rule.weights_exact) == lagrange_weights_exact(nodes, U11)
        assert sum(rule.weights_exact) == 1

    def test_degree_of_precision_exact(self):
        rng = random.Random(3)
        for _ in range(8):
            nodes = random_node_set(rng, rng.randint(1, 6))
            rule = interpolatory_rule(nodes, T01)
            n = len(nodes) - 1
            for m in range(n + 1):
                rule_value = sum(
                    (w * a**m for w, a in zip(rule.weights_exact, rule.nodes_exact)),
                    F(0),
                )
                assert rule_value == F(1, m + 1)


class TestDecimalNodes:
    # Nodes of at most 50 digits are taken as given, so the oracle's exact
    # weights on the same rationals are the ones to round.
    @pytest.mark.parametrize("family", ["equispaced", "chebyshev"])
    @pytest.mark.parametrize("n", [16, 24, 40, 60])
    def test_weights_within_half_ulp_of_exact(self, n, family):
        with localcontext(Context(prec=50)):
            if family == "equispaced":
                nodes = [Decimal(i) / (n - 1) for i in range(n)]
            else:
                nodes = sorted(+Decimal(0.5 - 0.5 * math.cos(math.pi * (2 * k + 1) / (2 * n)))
                               for k in range(n))
        rule = interpolatory_rule(nodes, T01, 50)
        assert rule.nodes == tuple(nodes)
        exact = lagrange_weights_exact([F(a) for a in nodes], T01)
        assert rule.weights_exact == tuple(exact)
        assert rule.nodepoly == RatPoly.from_roots([F(a) for a in nodes])
        for w, x in zip(rule.weights, exact):
            half_ulp = F(Decimal(5).scaleb(w.adjusted() - 50))
            assert abs(F(w) - x) <= half_ulp, (w, x)

    def test_tiny_node_gets_its_exact_zero_weight(self):
        rule = interpolatory_rule([Decimal("1e-400"), Decimal("0.5")], T01)
        assert rule.nodes == (Decimal("1e-400"), Decimal("0.5"))
        assert rule.weights == (0, 1)
        # Next to a Fraction, 0.5 keeps its exact weight 0: 1/3 is not rounded.
        rule = interpolatory_rule([F(1, 3), Decimal("0.5"), 1], T01)
        assert rule.weights_exact == (F(3, 4), 0, F(1, 4))
        assert rule.weights[1] == 0

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_node_refused(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"node {bad} is not a finite number"):
                interpolatory_rule([Decimal(bad), Decimal("0.5")], T01)


class TestNewtonCotes:
    def test_trapezoid(self):
        rule = newton_cotes(1)
        assert rule.weights_exact == (F(1, 2), F(1, 2))

    def test_simpson(self):
        rule = newton_cotes(2)
        assert rule.weights_exact == (F(1, 6), F(2, 3), F(1, 6))
        assert rule.degree == 3

    def test_five_point(self):
        rule = newton_cotes(4)
        assert rule.weights_exact == (
            F(7, 90),
            F(16, 45),
            F(2, 15),
            F(16, 45),
            F(7, 90),
        )

    def test_against_lagrange_oracle(self):
        for n in range(1, 7):
            rule = newton_cotes(n)
            nodes = [F(i, n) for i in range(n + 1)]
            assert list(rule.weights_exact) == lagrange_weights_exact(nodes, T01)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            newton_cotes(0)


class TestErrorCoefficients:
    def test_midpoint(self):
        rule = interpolatory_rule([F(1, 2)], T01)
        ks = error_coefficients(rule, 4)
        assert ks.k == (0, 0, F(1, 12), F(1, 8))

    def test_trapezoid(self):
        ks = error_coefficients(newton_cotes(1), 3)
        assert ks[2] == F(-1, 6)

    def test_simpson_bonus_degree(self):
        ks = error_coefficients(newton_cotes(2), 8)
        assert ks[3] == 0
        assert ks[4] == F(-1, 120)
        assert error_coefficients(interpolatory_rule(DECIMAL_SIMPSON_NODES, T01), 8) == ks

    def test_leading_zeros_match_rule_degree(self):
        for n in (2, 4, 6):
            rule = newton_cotes(n)
            ks = error_coefficients(rule, rule.degree + 2)
            assert all(ks[m] == 0 for m in range(rule.degree + 1))
            assert ks[rule.degree + 1] != 0

    def test_short_count_all_zero(self):
        ks = error_coefficients(newton_cotes(2), 2)
        assert ks.k == (0, 0)

    def test_missing_nodepoly_rejected(self):
        from gaussquad.gausscf import gauss_rule

        base = gauss_rule(1)
        stripped = QuadRule(
            convention=base.convention,
            nodes=base.nodes,
            weights=base.weights,
            degree=base.degree,
        )
        with pytest.raises(ValueError, match="node polynomial"):
            error_coefficients(stripped, 3)

    def test_decimal_direct_route_checked(self):
        # A rule with irrational nodes still gets exact coefficients, with
        # the decimal moment-difference route validating them.
        from gaussquad.gausscf import gauss_rule

        ks = error_coefficients(gauss_rule(1, convention=T01), 6)
        assert ks.k[:5] == (0, 0, 0, 0, F(1, 180))

    def test_exact_cross_check_catches_corrupt_weights(self):
        # Symmetric corruption keeps the rule's moments 0 and 1 and breaks
        # moment 2, so the exact direct route must disagree with the series.
        bad = (F(1, 6) + F(1, 100), F(2, 3) - F(1, 50), F(1, 6) + F(1, 100))
        for rule in (newton_cotes(2), interpolatory_rule(DECIMAL_SIMPSON_NODES, T01)):
            with pytest.raises(ArithmeticError, match="mismatch at m=2"):
                error_coefficients(replace(rule, weights_exact=bad), 5)

    def test_decimal_cross_check_catches_corrupt_weights(self):
        # Moving two weights by +-1e-30 keeps the weight sum (so the rule
        # still validates) and shifts moment 1 far beyond 10**-(prec-8).
        from gaussquad.gausscf import gauss_rule

        rule = gauss_rule(2, convention=T01)
        eps = Decimal("1e-30")
        with localcontext(Context(prec=80)):
            w = rule.weights
            bad = (w[0] + eps, w[1], w[2] - eps)
        with pytest.raises(ArithmeticError, match="mismatch at m=1"):
            error_coefficients(replace(rule, weights=bad), 8)

    @pytest.mark.parametrize("prec", [50, 60])
    def test_decimal_check_asks_only_the_digits_the_rule_carries(self, prec):
        # A 40-digit rule checked at a higher precision must not be held to
        # 10**-(prec-8), which its own rounding misses.
        from gaussquad.gausscf import gauss_rule

        ks = error_coefficients(gauss_rule(4, 40, convention=T01), 12, prec)
        assert next(m for m, k in enumerate(ks.coeffs) if k) == 10

    @pytest.mark.parametrize("n, prec", [(28, 50), (100, 50), (12, 200), (12, 1000)])
    def test_decimal_cross_check_catches_one_weight_moved(self, n, prec):
        # One weight moved by 10**-(prec-10), a hundred times the tolerance,
        # shifts the rule's zeroth moment by as much.
        from gaussquad.gausscf import gauss_rule

        rule = gauss_rule(n, prec, convention=T01)
        with localcontext(Context(prec=prec + 20)):
            w = list(rule.weights)
            w[n // 3] += Decimal(1).scaleb(-(prec - 10))
        # The message names both values, not only the index.
        with pytest.raises(ArithmeticError, match=r"mismatch at m=0: direct -?\d\S*, series 0$"):
            error_coefficients(replace(rule, weights=tuple(w)), 2 * n + 4, prec)


class TestApplyRule:
    def test_constant_times_width(self):
        rule = newton_cotes(2)
        got = apply_rule(rule, lambda x: Decimal(3), g=2, delta=5)
        assert got == 15

    def test_midpoint_linear(self):
        rule = interpolatory_rule([F(1, 2)], T01)
        assert apply_rule(rule, lambda x: x) == Decimal("0.5")

    def test_degree_three_exactness(self):
        from gaussquad.gausscf import gauss_rule

        rule = gauss_rule(1, convention=T01)
        got = apply_rule(rule, lambda x: x * x * x)
        assert abs(got - Decimal("0.25")) < Decimal("1e-45")

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            apply_rule(newton_cotes(1), lambda x: x, delta=0)

    def test_integrand_failure_carries_node_index(self):
        rule = newton_cotes(1)

        def explode(x):
            if x > 0:
                raise ValueError("boom")
            return Decimal(1)

        with pytest.raises(RuntimeError, match="node 1") as info:
            apply_rule(rule, explode)
        assert isinstance(info.value.__cause__, ValueError)

    def test_affine_covariance(self):
        rule = newton_cotes(3)
        f = lambda x: 1 / (1 + x * x)
        g, delta = Decimal("2.5"), Decimal("0.75")
        direct = apply_rule(rule, f, g, delta)
        pulled = apply_rule(rule, lambda t: f(g + delta * t))
        with localcontext(Context(prec=60)):
            err = abs(direct - delta * pulled)
        assert err < Decimal("1e-42") * max(1, abs(direct))

    def test_convention_bridge(self):
        from gaussquad.gausscf import gauss_rule

        rule_u = gauss_rule(2)
        rule_t = to_convention(rule_u, T01)
        f = lambda x: 1 / (2 + x)
        with localcontext(Context(prec=60)):
            a = apply_rule(rule_u, f, g=3, delta=2)
            b = apply_rule(rule_t, f, g=3, delta=2)
            err = abs(a - b)
        assert err < Decimal("1e-42")

    @pytest.mark.parametrize("apply", [apply_rule, node_terms])
    @pytest.mark.parametrize("limit", ["g", "delta"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_limit_refused(self, apply, limit, bad):
        with pytest.raises(ValueError, match=f"{limit} .* not a finite number"):
            apply(newton_cotes(2), lambda x: x, **{limit: Decimal(bad)})

    def test_node_terms_sum_to_total(self):
        from gaussquad.gausscf import gauss_rule

        rule = gauss_rule(3, convention=T01)
        f = named_integrand("runge")
        terms = node_terms(rule, f, g=-1, delta=2)
        with localcontext(Context(prec=60)):
            total = sum(terms, Decimal(0))
            err = abs(total - apply_rule(rule, f, g=-1, delta=2))
        assert err < Decimal("1e-40")


class TestConventionMap:
    def test_node_and_poly_bridge(self):
        from gaussquad.gausscf import gauss_rule

        rule_t = to_convention(gauss_rule(1), T01)
        assert rule_t.nodepoly == RatPoly((F(1, 6), -1, 1))
        mid = (rule_t.nodes[0] + rule_t.nodes[1]) / 2
        assert abs(mid - Decimal("0.5")) < Decimal("1e-45")

    def test_round_trip(self):
        rule = newton_cotes(2)
        back = to_convention(to_convention(rule, U11), T01)
        assert back.nodes_exact == rule.nodes_exact
        assert back.nodepoly == rule.nodepoly
        assert back.weights_exact == rule.weights_exact

    def test_exact_nodes_rounded_once(self):
        # u = 2t - 1 of the rounded t = 5/11 cancelled and missed -1/11 by
        # 9.09 ulps.
        ctx = Context(prec=50)
        for n in range(1, 21):
            got = to_convention(newton_cotes(n), U11, 50).nodes
            assert got == tuple(ctx.divide(2 * i - n, n) for i in range(n + 1))
        # t = (1+u)/2 from rounded u-nodes missed at three of these six.
        nodes = [F(-4, 5), F(-2, 3), F(-1, 2), F(-1, 3), F(-4, 13), F(1, 4)]
        got = to_convention(interpolatory_rule(nodes, U11), T01, 50).nodes
        exact = [(1 + a) / 2 for a in nodes]
        assert got == tuple(ctx.divide(t.numerator, t.denominator) for t in exact)
        # Decimal nodes map from their exact values too.  From u rounded to 40
        # digits, the t-node of u = -1 + 1/700000 would keep 34 digits, and
        # t = 2/3 would end in ...666.
        with localcontext(Context(prec=55)):
            given = [-1 + Decimal(1) / 700000, Decimal(-1) / 7, Decimal(1) / 3]
        got = to_convention(interpolatory_rule(given, U11, 40), T01, 40).nodes
        with localcontext(working_context(40)):
            us = [+u for u in given]
        assert got == tuple(to_hp((F(u) + 1) / 2, 40) for u in us)

    def test_exact_node_rounded_by_one_division(self):
        # t lies just below a half-ulp tie at 40 digits.  Rounded first to
        # the working precision it lands on the tie, which half-even rounding
        # then carries up to ...2.
        t = F(int("1" * 40 + "5"), 10 ** 41) - F(1, 3 * 10 ** 52)
        rule = interpolatory_rule([2 * t - 1, F(-1, 2)], U11)
        assert to_convention(rule, T01, 40).nodes[0] == Decimal("0." + "1" * 40)

    def test_same_convention_is_identity(self):
        rule = newton_cotes(2)
        assert to_convention(rule, T01) is rule


class TestIntegrands:
    def test_reciprocal_log(self):
        f = named_integrand("reciprocal-log")
        with localcontext(Context(prec=60)):
            err = abs(f(Decimal(2)) - 1 / LN_2)
        assert err < Decimal("1e-45")

    def test_runge_at_origin(self):
        f = named_integrand("runge")
        assert f(Decimal(0)) == 1

    def test_poly_spec(self):
        f = named_integrand("poly:1/2,0,3")
        with localcontext(Context(prec=50)):
            got = f(Decimal(2))
        assert got == Decimal("12.5")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown integrand"):
            named_integrand("sine")

    def test_bad_poly_spec(self):
        with pytest.raises(ValueError):
            named_integrand("poly:1,x")

    def test_poly_coefficients_in_every_form(self):
        coeffs = parse_poly_spec("poly:1e-30,2.5e3,-3/7,1e999,-1e-999,12").coeffs
        assert list(coeffs) == [Fraction(1, 10**30), Fraction(2500), Fraction(-3, 7),
                                Fraction(10**999), Fraction(-1, 10**999), Fraction(12)]

    @pytest.mark.parametrize("spec", ["poly:1e1000", "poly:1e-1000", "poly:12e999",
                                      "poly:1,1e9999999", "poly:1e99999999999999999999",
                                      "poly:1e"])
    def test_poly_coefficient_digit_bound(self, spec):
        # Refused from the Decimal parse: Fraction('1e9999999') alone takes seconds.
        with pytest.raises(ValueError, match="at most 1000 digits"):
            parse_poly_spec(spec)


def _parse_outcome(parse, spec):
    """The numerators a parser returns, or the type and message of what it raises."""
    try:
        return parse(spec).numerators
    except Exception as exc:
        return type(exc), str(exc)


_sign = st.sampled_from(["", "+", "-"])
_digits = st.text("0123456789", min_size=1, max_size=12)
_space = st.sampled_from(["", " ", "\t"])
# Integers and p/q in ASCII digits, which the parser reads with int().
_int_or_ratio = st.one_of(
    st.tuples(_sign, _digits).map("".join),
    st.tuples(_sign, _digits, st.just("/"), _digits).map("".join),
)
_coefficient = st.one_of(
    _int_or_ratio,
    st.tuples(_sign, _digits, _space, st.just("/"), _space, _sign, _digits).map("".join),
    st.tuples(_sign, _digits, st.just("."), st.text("0123456789", max_size=6)).map("".join),
    st.tuples(_sign, _digits, st.sampled_from(["e", "E"]), _sign,
              st.text("0123456789", min_size=1, max_size=4)).map("".join),
    st.tuples(_sign, st.from_regex(r"[0-9]+(_[0-9]+)+", fullmatch=True),
              st.sampled_from(["", "/3", "/1_0", ".5"])).map("".join),
    st.sampled_from(["Infinity", "-inf", "NaN", "x", "1e", "/", "1//2", "1/", "/2",
                     "٣/4", "0x10", "1.5/2", "--1", "+"]),
)


def _coefficient_lists(coefficient):
    part = st.one_of(st.tuples(_space, coefficient, _space).map("".join), _space)
    return st.lists(part, max_size=6).map(",".join)


# Lists of ASCII integers and p/q alone, and lists mixing every form.
_poly_spec = st.tuples(
    st.sampled_from(["poly:", ""]),
    st.one_of(_coefficient_lists(_int_or_ratio), _coefficient_lists(_coefficient)),
).map("".join)

_POLY_SPEC_CASES = [
    "poly:1/0", "poly:3 /4", "poly:1_000/3", "poly:Infinity", "poly:٣/4", "poly:-0",
    "poly:007/014", "poly:" + "7" * 1001, "poly:" + "7" * 5000 + "/3", "poly:",
    "poly:" + "0" * 5000 + "1", "poly:1/0," + "9" * 1001, "poly:1/" + "3" * 5000,
    "poly:2/4,-6/8,0", "poly:0,0", "poly:+5/6,-0/7", "poly:1,,2, ,3",
]


class TestPolySpecAgainstFractionReader:
    @pytest.mark.parametrize("spec", _POLY_SPEC_CASES,
                             ids=[repr(c)[:24] for c in _POLY_SPEC_CASES])
    def test_fixed_cases(self, spec):
        assert _parse_outcome(parse_poly_spec, spec) == \
            _parse_outcome(parse_poly_spec_fractions, spec)

    @settings(max_examples=300)
    @given(_poly_spec)
    def test_random_specs(self, spec):
        assert _parse_outcome(parse_poly_spec, spec) == \
            _parse_outcome(parse_poly_spec_fractions, spec)


class TestQuadRuleValidation:
    def test_unsorted_nodes_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            QuadRule(
                convention=T01,
                nodes=(Decimal("0.7"), Decimal("0.3")),
                weights=(Decimal("0.5"), Decimal("0.5")),
            )

    def test_bad_mass_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            QuadRule(
                convention=T01,
                nodes=(Decimal("0.3"), Decimal("0.7")),
                weights=(Decimal("0.5"), Decimal("0.6")),
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QuadRule(convention=T01, nodes=(), weights=())

    def test_iterate_count_checked(self):
        with pytest.raises(ValueError, match="one iterate per node"):
            QuadRule(
                convention=T01,
                nodes=(Decimal("0.3"), Decimal("0.7")),
                weights=(Decimal("0.5"), Decimal("0.5")),
                iterates=(Decimal("0.3"),),
            )

    def test_iterates_outside_repr_and_equality(self):
        rule = QuadRule(
            convention=T01,
            nodes=(Decimal("0.3"), Decimal("0.7")),
            weights=(Decimal("0.5"), Decimal("0.5")),
        )
        carried = replace(rule, iterates=(Decimal("0.3000000000001"), Decimal("0.6999999999999")))
        assert carried == rule
        assert repr(carried) == repr(rule)
