"""Continued-fraction convergents, Gaussian rules, error constants."""

import hashlib
import math
from collections import Counter
from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction

import pytest

from gaussquad import gausscf, rootfind
from gaussquad.gausscf import (
    annihilating_node_poly,
    cf_coefficient,
    gauss_rule,
    leading_error_constant,
    legendre_pair,
    weight_polynomial,
)
from gaussquad.interprule import T01, U11, error_coefficients, to_convention
from gaussquad.momseries import moment_series_u, product_split
from gaussquad.numerics import working_context
from gaussquad.ratpoly import RatPoly, mod_inverse_eval
from oracles import frac_series_quotient, lagrange_weights_hp, legendre_eval, legendre_nodes

F = Fraction


class TestCfCoefficient:
    @pytest.mark.parametrize(
        "m, expected",
        [(1, F(-1, 3)), (2, F(-4, 15)), (3, F(-9, 35)), (4, F(-16, 63))],
    )
    def test_values(self, m, expected):
        assert cf_coefficient(m) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            cf_coefficient(0)


class TestLegendrePair:
    def test_order_zero(self):
        pair = legendre_pair(0)
        assert pair.numerator.is_zero
        assert pair.denominator == RatPoly.one()

    def test_order_two(self):
        pair = legendre_pair(2)
        assert pair.numerator == RatPoly((0, 1))
        assert pair.denominator == RatPoly((F(-1, 3), 0, 1))

    def test_order_three(self):
        pair = legendre_pair(3)
        assert pair.numerator == RatPoly((F(-4, 15), 0, 1))
        assert pair.denominator == RatPoly((0, F(-3, 5), 0, 1))

    @pytest.mark.parametrize("m", range(1, 10))
    def test_degrees_and_leading_terms(self, m):
        pair = legendre_pair(m)
        assert pair.denominator.degree == m
        assert pair.denominator.leading == 1
        assert pair.numerator.degree == m - 1
        assert pair.numerator.leading == 1

    @pytest.mark.parametrize("m", range(1, 10))
    def test_parity(self, m):
        pair = legendre_pair(m)
        assert all(
            c == 0 for i, c in enumerate(pair.denominator.coeffs) if i % 2 != m % 2
        )
        assert all(
            c == 0 for i, c in enumerate(pair.numerator.coeffs) if i % 2 == m % 2
        )

    @pytest.mark.parametrize("m", range(1, 10))
    def test_orthogonality_of_denominator(self, m):
        w = legendre_pair(m).denominator
        for k in range(m):
            mono = RatPoly([0] * k + [1])
            # The integral over [-1, 1]: odd monomials drop out.
            assert sum(c / (i + 1) for i, c in enumerate((w * mono).coeffs) if i % 2 == 0) == 0

    @pytest.mark.parametrize("m", range(1, 10))
    def test_numerator_from_divided_difference(self, m):
        # Independent identity: V(u) equals the half integral over [-1, 1]
        # of (W(u) - W(y)) / (u - y), computed coefficientwise.
        w = legendre_pair(m).denominator
        moments = moment_series_u(m + 1).coeffs
        coeffs = [
            sum(
                (w.coeffs[i] * moments[i - 1 - j] for i in range(j + 1, m + 1)),
                F(0),
            )
            for j in range(m)
        ]
        assert RatPoly(coeffs) == legendre_pair(m).numerator

    @pytest.mark.parametrize("n", range(6))
    def test_tail_annihilation(self, n):
        w = legendre_pair(n + 1).denominator
        _, tail = product_split(w, moment_series_u(2 * (n + 1) + 2))
        assert all(tail[q] == 0 for q in range(n + 1))
        assert tail[n + 1] == leading_error_constant(n)[0]


def _plain_pairs(top: int) -> list[tuple[RatPoly, RatPoly]]:
    # (V, W) of orders 0..top by the three-term recurrence in plain RatPoly
    # arithmetic, independent of legendre_pair's builds.
    u = RatPoly((0, 1))
    v0, w0, v1, w1 = RatPoly.zero(), RatPoly.one(), RatPoly.one(), u
    out = [(v0, w0), (v1, w1)]
    for k in range(1, top):
        vk = cf_coefficient(k)
        v0, v1 = v1, u * v1 + v0.scale(vk)
        w0, w1 = w1, u * w1 + w0.scale(vk)
        out.append((v1, w1))
    return out


CHAIN_TOP = 120
PLAIN_PAIRS = _plain_pairs(CHAIN_TOP)


class TestLegendreChain:
    @pytest.mark.parametrize("orders", [range(CHAIN_TOP, -1, -1), range(CHAIN_TOP + 1),
                                        [7, 3, 50, 49, 120, 2, 0, 1]])
    def test_matches_plain_recurrence(self, orders):
        for m in orders:
            pair = legendre_pair(m)
            assert pair.order == m
            assert (pair.numerator, pair.denominator) == PLAIN_PAIRS[m]

    @pytest.mark.parametrize("m", [150, 300, 600])
    def test_casorati_determinant(self, m):
        # V(m+1) W(m) - V(m) W(m+1) = -v(m) (V(m) W(m-1) - V(m-1) W(m)) by the
        # three-term recurrence, so it is the constant product of the -v(k)
        # for k = 1..m, which is leading_error_constant(m - 1)[0].
        lo, hi = legendre_pair(m), legendre_pair(m + 1)
        det = hi.numerator * lo.denominator - lo.numerator * hi.denominator
        assert det == RatPoly((leading_error_constant(m - 1)[0],))

    def test_gauss_path_never_builds_numerator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Gauss path built the numerator V")

        monkeypatch.setattr(gausscf, "product_split", refuse)
        gauss_rule(12)
        gauss_rule(13, convention=T01)
        with pytest.raises(AssertionError):
            legendre_pair(7).numerator
        monkeypatch.undo()
        assert legendre_pair(7).numerator == PLAIN_PAIRS[7][0]


class TestAnnihilatingSolve:
    def test_midpoint_case(self):
        assert annihilating_node_poly(0, T01) == RatPoly((F(-1, 2), 1))

    @pytest.mark.parametrize("n", range(4))
    def test_matches_recurrence_after_bridge(self, n):
        w = legendre_pair(n + 1).denominator
        bridged = w.compose_affine(2, -1).scale(F(1, 2 ** (n + 1)))
        assert annihilating_node_poly(n, T01) == bridged

    @pytest.mark.parametrize("n", range(4))
    def test_u_form_matches_directly(self, n):
        assert annihilating_node_poly(n, U11) == legendre_pair(n + 1).denominator


class TestGaussRule:
    def test_single_point(self):
        rule = gauss_rule(0)
        assert rule.nodes_exact == (F(0),)
        assert rule.weights_exact == (F(1),)
        rule_t = gauss_rule(0, convention=T01)
        assert rule_t.nodes_exact == (F(1, 2),)

    def test_two_point_closed_form(self):
        rule = gauss_rule(1)
        ref = legendre_nodes(2, 50)
        for got, want in zip(rule.nodes, ref):
            assert abs(got - want) < Decimal("1e-45")
        for w in rule.weights:
            assert abs(w - Decimal("0.5")) < Decimal("1e-45")
        assert rule.degree == 3

    def test_seven_point_against_classical_oracle(self):
        rule = gauss_rule(6)
        ref_nodes = legendre_nodes(7, 50)
        for got, want in zip(rule.nodes, ref_nodes):
            assert abs(got - want) < Decimal("1e-45")
        ref_weights = lagrange_weights_hp(list(rule.nodes), U11, 50)
        for got, want in zip(rule.weights, ref_weights):
            assert abs(got - want) < Decimal("1e-43")

    @pytest.mark.parametrize("n", range(9))
    def test_weight_positivity_and_symmetry(self, n):
        rule = gauss_rule(n)
        assert all(w > 0 for w in rule.weights)
        for i in range(rule.npoints):
            j = rule.npoints - 1 - i
            assert abs(rule.nodes[i] + rule.nodes[j]) < Decimal("1e-42")
            assert abs(rule.weights[i] - rule.weights[j]) < Decimal("1e-42")

    @pytest.mark.parametrize("prec", [50, 200, 1000])
    @pytest.mark.parametrize("n", [11, 12])
    def test_exact_symmetry(self, n, prec):
        # Each weight is computed at its own mirrored iterate, not copied
        # from its partner; the form is even in x and W', so the rule must
        # still be symmetric exactly, with odd and even node counts.
        rule = gauss_rule(n, prec)
        assert rule.weights == rule.weights[::-1]
        assert [str(w) for w in rule.weights] == [str(w) for w in reversed(rule.weights)]
        # copy_negate, as unary minus would round to the ambient 28 digits.
        assert all(rule.nodes[i] == rule.nodes[-1 - i].copy_negate()
                   for i in range(rule.npoints))

    @pytest.mark.parametrize("n", range(13))
    def test_total_mass(self, n):
        rule = gauss_rule(n)
        with localcontext(Context(prec=70)):
            mass = sum(rule.weights, Decimal(0))
        assert abs(mass - 1) < Decimal("1e-42")

    def test_largest_supported_order(self):
        rule = gauss_rule(12)
        assert rule.npoints == 13
        assert rule.degree == 25
        assert rule.nodes[0] > -1 and rule.nodes[-1] < 1

    @pytest.mark.parametrize("n", range(7))
    def test_degree_maximality_exact(self, n):
        rule = gauss_rule(n)
        ks = error_coefficients(rule, 2 * n + 3)
        assert all(ks[m] == 0 for m in range(2 * n + 2))
        assert ks[2 * n + 2] == leading_error_constant(n)[0]

    @pytest.mark.parametrize("n", range(7))
    def test_degree_maximality_t_form(self, n):
        rule = gauss_rule(n, convention=T01)
        ks = error_coefficients(rule, 2 * n + 3)
        assert all(ks[m] == 0 for m in range(2 * n + 2))
        assert ks[2 * n + 2] == leading_error_constant(n)[1]

    def test_mapped_node_poly_is_monic(self):
        rule = gauss_rule(3, convention=T01)
        assert rule.nodepoly.leading == 1
        for a in rule.nodes:
            with localcontext(Context(prec=60)):
                residue = abs(rule.nodepoly.eval_hp(a))
            assert residue < Decimal("1e-42")


def _legendre_weights(m: int, prec: int) -> list[Decimal]:
    # 1/((1-x^2) P_m'(x)^2), the weight of the half measure, at oracle
    # nodes carried to ten more digits.
    with localcontext(Context(prec=prec + 20)):
        out = []
        for x in legendre_nodes(m, prec + 10):
            _, dp = legendre_eval(m, x)
            out.append(1 / ((1 - x * x) * dp * dp))
        return out


def _polish_counts(monkeypatch) -> list[int]:
    # Evaluations per polished root, counted on the evaluator _polish gets.
    counts: list[int] = []
    polish = rootfind._polish

    def counting(evaluate, *args):
        counts.append(0)

        def wrapped(x):
            counts[-1] += 1
            return evaluate(x)

        return polish(wrapped, *args)

    monkeypatch.setattr(rootfind, "_polish", counting)
    return counts


def _rung_counts(monkeypatch) -> Counter:
    # Decimal evaluations of (W, W') per precision, counted on every
    # evaluator gauss_rule builds, the mirror's evaluation at 0 included.
    rungs: Counter = Counter()
    build = gausscf._decimal_evaluator

    def counting(m):
        evaluate = build(m)

        def wrapped(x):
            rungs[getcontext().prec] += 1
            return evaluate(x)

        return wrapped

    monkeypatch.setattr(gausscf, "_decimal_evaluator", counting)
    return rungs


# Decimal evaluations per rung of the precision ladder, pinned: a change to
# the starts, the ladder or the polisher that costs work shows here.
RUNG_COUNTS = {
    (100, 50): {34: 87, 60: 101},
    (12, 1000): {39: 12, 70: 6, 133: 6, 258: 6, 509: 6, 1010: 13},
}


class TestLargeOrders:
    """Orders past the monomial-Horner limit (n = 49 at precision 50), where
    the recurrence-evaluated polish must still deliver every digit."""

    @pytest.mark.parametrize("n", [56, 80, 100, 150])
    def test_nodes_and_weights_against_oracle(self, n):
        prec = 50
        rule = gauss_rule(n, prec)
        for got, want in zip(rule.nodes, legendre_nodes(n + 1, prec), strict=True):
            assert abs(got - want) <= Decimal(1).scaleb(-(prec - 2))
        for got, want in zip(rule.weights, _legendre_weights(n + 1, prec), strict=True):
            assert abs(got - want) <= want * Decimal(1).scaleb(-(prec - 5))

    def test_high_precision_against_oracle(self):
        prec = 1000
        rule = gauss_rule(12, prec)
        for got, want in zip(rule.nodes, legendre_nodes(13, prec), strict=True):
            assert abs(got - want) <= Decimal(1).scaleb(-(prec - 2))
        for got, want in zip(rule.weights, _legendre_weights(13, prec), strict=True):
            assert abs(got - want) <= want * Decimal(1).scaleb(-(prec - 5))

    @pytest.mark.parametrize("n", [76, 100])
    def test_error_series_cross_check_passes(self, n):
        ks = error_coefficients(to_convention(gauss_rule(n), T01), 2 * n + 4)
        assert all(ks[m] == 0 for m in range(2 * n + 2))
        assert ks[2 * n + 2] == leading_error_constant(n)[1]

    @pytest.mark.parametrize("n, prec", [(100, 50), (12, 1000)])
    def test_evaluations_per_root(self, monkeypatch, n, prec):
        counts = _polish_counts(monkeypatch)
        rungs = _rung_counts(monkeypatch)
        gauss_rule(n, prec)
        assert len(counts) == (n + 1) // 2
        assert max(counts) <= 12
        assert rungs == RUNG_COUNTS[n, prec]

    @pytest.mark.parametrize("n", [151, 175, 199, 299, 599])
    def test_orders_past_the_isolation_grid(self, n):
        # A uniform 1,024-panel grid in q cannot separate the outermost
        # roots here; Bruns' separators, proven by their position, can.
        # Oracle nodes at ten more digits serve both the node and the
        # weight check.
        prec = 50
        rule = gauss_rule(n, prec)
        with localcontext(Context(prec=prec + 20)):
            oracle = legendre_nodes(n + 1, prec + 10)
            for node, weight, x in zip(rule.nodes, rule.weights, oracle, strict=True):
                assert abs(node - x) <= Decimal(1).scaleb(-(prec - 2))
                _, dp = legendre_eval(n + 1, x)
                want = 1 / ((1 - x * x) * dp * dp)
                assert abs(weight - want) <= want * Decimal(1).scaleb(-(prec - 5))

    def test_asymptotic_starts_save_evaluations(self, monkeypatch):
        # Recurrences per nonnegative node, counted by arithmetic: floats
        # refine the start, the lower rungs of the precision ladder bring it
        # to about half the working digits, and the working precision takes
        # Newton's last step and the gate's evaluation.  Before the ladder,
        # all 4.75 evaluations of (W, W') per node ran at the working
        # precision, and each weight added a V recurrence.
        calls = Counter()
        exact = gausscf._denominator_and_derivative
        exact_float = gausscf._float_denominator_and_derivative

        def counting(x, coefficients):
            calls[getcontext().prec] += 1
            return exact(x, coefficients)

        def counting_float(x, v):
            calls["float"] += 1
            return exact_float(x, v)

        monkeypatch.setattr(gausscf, "_denominator_and_derivative", counting)
        monkeypatch.setattr(gausscf, "_float_denominator_and_derivative", counting_float)
        gauss_rule(100, 50)
        full = calls.pop(working_context(50).prec)
        floats = calls.pop("float")
        assert full / 51 <= 2.2
        assert floats / 50 <= gausscf._FLOAT_STEPS
        assert 0 < sum(calls.values()) / 50 <= 3
        assert all(prec < working_context(50).prec for prec in calls)

    def test_weight_sum_checked_at_rule_precision(self, monkeypatch):
        # Decimal derivatives off by one part in 1e40 leave the nodes alone
        # but move the weights; the rule's own check catches what QuadRule's
        # fixed 1e-25 tolerance would let through.  The float starts, which
        # one part in 1e40 cannot move, have their own evaluator and are left
        # exact.  Precision 200 checks a ladder of four rungs.
        exact = gausscf._denominator_and_derivative

        def skewed(x, coefficients):
            w, dw = exact(x, coefficients)
            return w, dw * (1 + Decimal("1e-40"))

        monkeypatch.setattr(gausscf, "_denominator_and_derivative", skewed)
        for prec in (50, 200):
            with pytest.raises(ArithmeticError, match="unit mass"):
                gauss_rule(20, prec)


def _root_near(m: int, x: Decimal, prec: int) -> Decimal:
    # The root of P_m next to x, a float start, by Newton on the oracle's
    # u-form recurrence with ten more digits, rounded to prec digits.
    with localcontext(Context(prec=prec + 10)):
        step = 1
        while abs(step) > Decimal(1).scaleb(-(prec + 5)):
            p, dp = legendre_eval(m, x)
            step = p / dp
            x -= step
    with localcontext(Context(prec=prec)):
        return +x


class TestContractedEvaluator:
    """The decimal evaluator, the even contraction of the recurrence in
    q = u**2, against the exact (W, W') of legendre_pair at the precisions of
    the ladder's rungs."""

    @pytest.mark.parametrize("m", [*range(1, 41), 101, 300])
    def test_against_exact_values(self, m):
        w_exact = legendre_pair(m).denominator
        dw_exact = w_exact.derivative()
        starts = gausscf._float_starts(m, gausscf._bruns_separators(m))
        for prec in (34, 60, 210):
            evaluate = gausscf._decimal_evaluator(m)
            # The smallest and the largest positive root, and mid-interval.
            points = [_root_near(m, x, prec) for x in starts[:1] + starts[-1:]]
            with localcontext(Context(prec=prec)):
                # At u = 0 both values are exact, rounded once, so W'(0) = 0
                # for even m; a division by u there would raise.
                w, dw = evaluate(Decimal(0))
                assert w == Decimal(w_exact.eval(0).numerator) / w_exact.eval(0).denominator
                assert dw == Decimal(dw_exact.eval(0).numerator) / dw_exact.eval(0).denominator
                for x in [*points, Decimal("0.5")]:
                    w, dw = evaluate(x)
                    step = w_exact.eval(F(x)) / dw_exact.eval(F(x))
                    assert abs(F(w) / F(dw) - step) <= F(10) ** (3 - prec)

    @pytest.mark.parametrize("m", [999, 1000])
    def test_near_zero_at_the_largest_orders(self, m):
        # Near u = 0 the step loses most at the largest orders: at the
        # smallest positive root and 1e-30 to either side, at 60 digits,
        # against the u-form recurrence of the oracle with 30 more digits.
        k = m // 2
        start = Decimal(math.cos(math.pi * (4 * k - 1) / (4 * m + 2)))
        root = _root_near(m, start, 60)
        evaluate = gausscf._decimal_evaluator(m)
        for x in (root, root - Decimal("1e-30"), root + Decimal("1e-30")):
            with localcontext(Context(prec=60)):
                w, dw = evaluate(x)
                step = w / dw
            with localcontext(Context(prec=90)):
                p, dp = legendre_eval(m, x)
                assert abs(step - p / dp) <= Decimal("1e-57")


def _misrounded(nodes, poly: RatPoly, prec: int) -> list[Decimal]:
    # Nonzero nodes b whose half-ulp neighbours at prec digits do not
    # bracket a sign change of the exact poly: the root nearest such a b
    # does not round to b.
    ctx = Context(prec=prec)
    bad = []
    for b in nodes:
        if b != 0:
            lo = (F(b) + F(ctx.next_minus(b))) / 2
            hi = (F(b) + F(ctx.next_plus(b))) / 2
            if poly.eval(lo) * poly.eval(hi) >= 0:
                bad.append(b)
    return bad


# Rules whose t-nodes, mapped from rounded u-nodes rather than from the
# iterates, come out misrounded: 1 of 5, 4 of 13, 11 of 29, 50 of 101, 56 of
# 151, 37 of 97 and 6 of 13.  Each rule is checked as gauss_rule builds it in
# either convention and as to_convention maps it from the other one.
_ROUNDING_RULES = [(4, 50), (12, 50), (28, 50), (100, 50), (150, 50), (96, 200), (12, 1000)]


class TestCorrectRounding:
    """Every node is its root correctly rounded, certified by exact signs of
    the rational node polynomial at the half-ulp neighbours."""

    @pytest.mark.parametrize("n, prec, convention, mapped", [
        *(pytest.param(n, prec, U11, False, id=f"{n}-{prec}") for n, prec in _ROUNDING_RULES),
        *(pytest.param(n, prec, T01, False, id=f"t01-{n}-{prec}") for n, prec in _ROUNDING_RULES),
        *(pytest.param(n, prec, U11, True, id=f"from-t01-{n}-{prec}")
          for n, prec in _ROUNDING_RULES),
        *(pytest.param(n, prec, T01, True, id=f"t01-from-u11-{n}-{prec}")
          for n, prec in _ROUNDING_RULES),
    ])
    def test_nodes_are_correctly_rounded(self, n, prec, convention, mapped):
        if mapped:
            other = T01 if convention == U11 else U11
            rule = to_convention(gauss_rule(n, prec, other), convention, prec)
        else:
            rule = gauss_rule(n, prec, convention)
        assert _misrounded(rule.nodes, rule.nodepoly, prec) == []

    @pytest.mark.parametrize("n", [4, 12, 100])
    def test_more_digits_than_the_rule_carries(self, n):
        # The iterates are mapped to at most the rule's own 50 digits.
        rule = to_convention(gauss_rule(n, 50), T01, 100)
        assert rule.nodes == gauss_rule(n, 50, T01).nodes

    @pytest.mark.parametrize("n, prec", [(0, 50), (12, 50), (100, 50), (96, 200)])
    def test_round_trip(self, n, prec):
        rule = gauss_rule(n, prec)
        back = to_convention(to_convention(rule, T01, prec), U11, prec)
        assert back.nodes == rule.nodes
        assert back == rule

    def test_node_one_ulp_off_is_caught(self):
        rule = gauss_rule(28, 50)
        nodes = list(rule.nodes)
        nodes[20] = Context(prec=50).next_plus(nodes[20])
        assert _misrounded(nodes, rule.nodepoly, 50) == [nodes[20]]


def _weight_ulps(n: int, prec: int) -> list[Decimal]:
    # Error of each weight of gauss_rule(n, prec) in units of the last
    # place, against the half measure's 1/((1-x^2) P'(x)^2) at oracle nodes
    # with fifteen more digits.
    rule = gauss_rule(n, prec)
    with localcontext(Context(prec=prec + 30)):
        out = []
        for w, x in zip(rule.weights, legendre_nodes(n + 1, prec + 15), strict=True):
            _, dp = legendre_eval(n + 1, x)
            want = 1 / ((1 - x * x) * dp * dp)
            out.append(abs(w - want).scaleb(prec - 1 - want.adjusted()))
    return out


class TestCorrectlyRoundedWeights:
    """Every weight is the oracle's weight correctly rounded: within half an
    ulp.  Weights taken at the rounded node, which carries the node's
    rounding error times |w'/w| ~ n^2, missed by 30 ulps at (28, 50) and
    by 1,679 at (151, 50)."""

    # The orders of the fingerprint below, and five more up to n = 151 and
    # precision 1000.
    @pytest.mark.parametrize("n, prec", [(0, 50), (1, 50), (4, 50), (12, 50), (28, 50), (52, 50),
                                         (151, 50), (96, 200), (48, 1000)])
    def test_weights_within_half_an_ulp(self, n, prec):
        assert max(_weight_ulps(n, prec)) <= Decimal("0.5")


class TestWeightPolynomial:
    def test_small_orders(self):
        assert weight_polynomial(0) == RatPoly.one()
        assert weight_polynomial(1) == RatPoly((F(1, 2),))
        assert weight_polynomial(2) == RatPoly((F(4, 9), 0, F(-5, 18)))

    @pytest.mark.parametrize("n", range(9))
    def test_interpolates_weights(self, n):
        rho = weight_polynomial(n)
        assert rho.degree <= n
        rule = gauss_rule(n)
        with localcontext(Context(prec=60)):
            for b, w in zip(rule.nodes, rule.weights):
                assert abs(rho.eval_hp(b) - w) < Decimal("1e-42")

    @pytest.mark.parametrize("n", [*range(61), 150])
    def test_q_form_equals_u_form_inversion(self, n):
        # The inversion in q = u**2 gives the very polynomial that the
        # inversion on V, W' modulo W in u gives.
        pair = legendre_pair(n + 1)
        w = pair.denominator
        assert weight_polynomial(n) == mod_inverse_eval(pair.numerator, w.derivative(), w)


# sha256 over repr(gauss_rule(n, 50)) for n in FINGERPRINT_ORDERS, then
# repr(weight_polynomial(n)) for n = 0..40.  The nodes and the weight
# polynomials are those of the u-form weight inversion and the per-order
# lru_cache convergents; the weights are the correctly rounded ones that
# TestCorrectlyRoundedWeights proves at every order listed here.
FINGERPRINT_ORDERS = (0, 1, 4, 28, 52)
FINGERPRINT = "5d59dca829efe6699f9cedb9f60227e32c38670b166094f924cc8569fe4f26c3"


def test_rules_and_weight_polynomials_fingerprint():
    h = hashlib.sha256()
    for n in FINGERPRINT_ORDERS:
        h.update(repr(gauss_rule(n, 50)).encode())
    for n in range(41):
        h.update(repr(weight_polynomial(n)).encode())
    assert h.hexdigest() == FINGERPRINT


# sha256 over repr(gauss_rule(n, 50)) for n = 299, 599 and 999, as the rules
# came when exact signs of W at the separators certified each bracket.
LARGE_FINGERPRINT = "fe361bb4abf4638151696d366141fc1461719baeb6774947d32b6fe72bd24ad2"


def test_large_order_rules_fingerprint():
    h = hashlib.sha256()
    for n in (299, 599, 999):
        h.update(repr(gauss_rule(n, 50)).encode())
    assert h.hexdigest() == LARGE_FINGERPRINT


# sha256 over repr(gauss_rule(n, p)) in the u- and then the t-convention for
# precisions 200 and 1000, as the rules came when the evaluator ran the
# u-form recurrence on rounded v(k).
HIGH_PRECISION_RULES = ((28, 200), (96, 200), (12, 1000), (48, 1000), (96, 1000))
HIGH_PRECISION_FINGERPRINT = "8805e4a9afe5da71bb8d6a70729a0faf50a747e09385f9332260279b8daefd98"


def test_high_precision_rules_fingerprint():
    h = hashlib.sha256()
    for n, prec in HIGH_PRECISION_RULES:
        for convention in (U11, T01):
            h.update(repr(gauss_rule(n, prec, convention)).encode())
    assert h.hexdigest() == HIGH_PRECISION_FINGERPRINT


class TestLeadingErrorConstant:
    @pytest.mark.parametrize(
        "n, c, k_first",
        [
            (0, F(1, 3), F(1, 12)),
            (1, F(4, 45), F(1, 180)),
            (2, F(4, 175), F(1, 2800)),
        ],
    )
    def test_spot_values(self, n, c, k_first):
        assert leading_error_constant(n) == (c, k_first)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_series_subtraction(self, m):
        # Independent route: expand phi - V/W and read the first surviving term.
        pair = legendre_pair(m)
        count = 2 * m + 2
        phi = moment_series_u(count)
        approx = frac_series_quotient(pair.numerator.coeffs, pair.denominator.coeffs, count)
        diff = [a - b for a, b in zip(phi.coeffs, approx)]
        assert all(d == 0 for d in diff[: 2 * m])
        assert diff[2 * m] == leading_error_constant(m - 1)[0]

    def test_t_form_bridge_via_direct_moments(self):
        # k_first(1) is the exact error of the two-point rule on t^4.
        rule = gauss_rule(1, convention=T01)
        ks = error_coefficients(rule, 5)
        assert ks[4] == leading_error_constant(1)[1] == F(1, 180)


class TestValidation:
    def test_negative_order(self):
        with pytest.raises(ValueError):
            gauss_rule(-1)
        with pytest.raises(ValueError):
            legendre_pair(-1)
        with pytest.raises(ValueError):
            weight_polynomial(-1)
        with pytest.raises(ValueError):
            leading_error_constant(-1)
        with pytest.raises(ValueError):
            annihilating_node_poly(-1)
