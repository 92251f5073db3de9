"""Root extraction: parity reduction, certified isolation, Newton polishing."""

from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from gaussquad.gausscf import (
    _bruns_separators,
    _decimal_evaluator,
    _float_starts,
    legendre_pair,
)
from gaussquad.numerics import format_sig, working_context
from gaussquad.ratpoly import RatPoly
from gaussquad.rootfind import (
    RootIsolationError,
    _ladder,
    _parity_split,
    _polish,
    _separator_brackets,
    real_roots_symmetric,
)
from oracles import legendre_nodes, newton_sqrt

F = Fraction


def _horner(poly: RatPoly):
    # Horner's scheme on the monomial coefficients: exact enough for toy
    # polynomials and small Legendre degrees, cancelling near +-1 at large ones.
    deriv = poly.derivative()
    return lambda x: (poly.eval_hp(x), deriv.eval_hp(x))


def _toy_roots(poly: RatPoly, separators, starts):
    # Roots of a toy polynomial from hand-made separators and starts.
    return real_roots_symmetric(poly, 50, _horner(poly), separators=separators,
                                starts=[Decimal(x) for x in starts])


def _legendre_roots(m: int, prec: int = 50, *, evaluate=None, separators=None, starts=None):
    # Roots of the monic Legendre W of degree m as gauss_rule finds them:
    # Bruns' separators, float-refined Tricomi starts and the recurrence
    # evaluator, which keeps every digit at m = 40, where Horner on the
    # monomial coefficients would not, unless a test replaces one of them.
    seps = _bruns_separators(m)
    return real_roots_symmetric(
        legendre_pair(m).denominator, prec,
        _decimal_evaluator(m) if evaluate is None else evaluate,
        separators=seps if separators is None else separators,
        starts=_float_starts(m, seps) if starts is None else starts,
    )


class TestSmallCases:
    def test_two_point(self):
        got = _toy_roots(RatPoly((F(-1, 3), 0, 1)), [F(0), F(1, 2)], ["0.5"])
        want = newton_sqrt(F(1, 3), 50)
        assert len(got.roots) == 2
        assert abs(got.roots[1] - want) < Decimal("1e-45")
        assert abs(got.roots[0] + want) < Decimal("1e-45")
        assert format_sig(got.roots[1], 16) == "0.5773502691896258"

    def test_odd_case_has_exact_origin(self):
        got = _toy_roots(RatPoly((0, F(-3, 5), 0, 1)), [F(1, 2), F(1)], ["0.77"])
        assert got.roots[1] == 0
        want = newton_sqrt(F(3, 5), 50)
        assert abs(got.roots[2] - want) < Decimal("1e-45")


class TestLegendreFamily:
    def test_seven_point_against_oracle(self):
        got = _legendre_roots(7).roots
        want = legendre_nodes(7, 50)
        assert len(got) == 7
        for a, b in zip(got, want):
            assert abs(a - b) < Decimal("1e-45")
            assert format_sig(a, 16) == format_sig(b, 16)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_interlacing(self, m):
        inner = _legendre_roots(m).roots
        outer = _legendre_roots(m + 1).roots
        for i, r in enumerate(inner):
            assert outer[i] < r < outer[i + 1]

    @pytest.mark.parametrize("m", range(1, 10))
    def test_residual_bound(self, m):
        got = _legendre_roots(m)
        assert got.residual_bound <= Decimal("1e-45")
        assert len(got.roots) == m
        for a, b in zip(got.roots, got.roots[1:]):
            assert a < b

    @pytest.mark.parametrize("m", range(1, 9))
    def test_symmetry(self, m):
        roots = _legendre_roots(m).roots
        for i in range(m):
            assert abs(roots[i] + roots[m - 1 - i]) < Decimal("1e-42")

    def test_determinism(self):
        a = _legendre_roots(6)
        b = _legendre_roots(6)
        assert a.roots == b.roots
        assert a.residual_bound == b.residual_bound

    def test_precision_scales(self):
        lo = _legendre_roots(5, 40).roots
        hi = _legendre_roots(5, 70).roots
        for a, b in zip(lo, hi):
            assert abs(a - b) < Decimal("1e-38")


class TestPolish:
    @pytest.mark.parametrize("top, rungs", [(50, [29, 50]), (60, [34, 60]), (210, [33, 58, 109, 210]),
                                            (1010, [39, 70, 133, 258, 509, 1010])])
    def test_ladder_doubles_up_to_the_working_precision(self, top, rungs):
        assert _ladder(top) == rungs

    def test_step_leaving_the_bracket_costs_one_bisection(self):
        # x^3 - 2x + 2 on [-2, 1/2]: from the start -3/4, Newton jumps to
        # about 9.1.  One bisection step replaces it and Newton resumes, where
        # bisecting the whole bracket down to 1e-45 would take 150 steps.
        calls = []

        def evaluate(x):
            calls.append(x)
            return x ** 3 - 2 * x + 2, 3 * x * x - 2

        with localcontext(Context(prec=60)):
            root, _, _ = _polish(evaluate, Decimal(-2), Decimal("0.5"), -1, Decimal("1e-45"),
                                 Decimal("-0.75"))
            assert abs(root ** 3 - 2 * root + 2) < Decimal("1e-44")
        assert calls[1] == (Decimal(-2) + Decimal("-0.75")) / 2
        assert len(calls) <= 12

    def test_custom_evaluator_is_used(self):
        w = legendre_pair(6).denominator
        horner = _horner(w)
        seen = []

        def evaluate(x):
            seen.append(x)
            return horner(x)

        got = _legendre_roots(6, evaluate=evaluate).roots
        assert seen
        for a, b in zip(got, legendre_nodes(6, 50), strict=True):
            assert abs(a - b) < Decimal("1e-45")
            assert format_sig(a, 16) == format_sig(b, 16)


class TestPolishStarts:
    @pytest.mark.parametrize("start", ["-5", "0.1", "0.1000001", "0.5", "0.8999999", "0.9", "7"])
    def test_far_or_outside_start_still_converges(self, start):
        # The root of x^2 - 1/3 in [0.1, 0.9], from starts at, near and
        # beyond both bracket ends.
        def evaluate(x):
            assert Decimal("0.1") < x < Decimal("0.9")
            return x * x - third, 2 * x

        with localcontext(Context(prec=60)):
            third = Decimal(1) / 3
            root, _, _ = _polish(evaluate, Decimal("0.1"), Decimal("0.9"), -1, Decimal("1e-45"),
                                 Decimal(start))
        assert abs(root - newton_sqrt(F(1, 3), 55)) < Decimal("1e-45")

    @pytest.mark.parametrize("bad", ["0", "0.99999", "-3"])
    def test_bad_starts_cost_time_not_digits(self, bad):
        got = _legendre_roots(30, starts=[Decimal(bad)] * 15)
        for a, b in zip(got.roots, legendre_nodes(30, 50), strict=True):
            assert abs(a - b) <= Decimal("1e-48")

    def test_one_start_per_positive_root(self):
        with pytest.raises(ValueError, match="starts"):
            _legendre_roots(7, starts=[Decimal("0.5")])


def _moved_across_a_root(m: int, j: int) -> list[Fraction]:
    # Bruns' separators with point j moved across its neighbouring root,
    # halfway to the next separator beyond that root.
    seps = _bruns_separators(m)
    q_roots = [r * r for r in legendre_nodes(m, 30) if r > 0]
    if j < len(q_roots):
        seps[j] = (F(q_roots[j]) + seps[j + 1]) / 2
    else:
        seps[j] = (F(q_roots[j - 1]) + seps[j - 1]) / 2
    assert all(a < b for a, b in zip(seps, seps[1:]))
    return seps


# Points that do not certify the one root 1/4 of q - 1/4 in (0, 1).
UNCERTIFIED = [
    [F(1, 2), F(1)],          # q - 1/4 is negative at both
    [F(1, 4), F(1)],          # a root sits on a separator
    [F(0), F(1, 2), F(1)],    # one pair too many
    [F(1), F(0)],             # not rising
    [F(-1), F(1)],            # outside [0, 1]
    [F(0), F(2)],
]


class TestSeparators:
    def test_bruns_separators_certify_up_to_order_200(self):
        for m in range(1, 201):
            q = _parity_split(legendre_pair(m).denominator)[1]
            brackets = _separator_brackets(q, _bruns_separators(m))
            assert brackets is not None and len(brackets) == m // 2, m

    @pytest.mark.parametrize("m", [299, 300, 451, 600])
    def test_bruns_separators_certify_at_large_orders(self, m):
        # The points are multiples of 2^-32, at most 2^-33 from the floats.
        seps = _bruns_separators(m)
        assert all((2 ** 32) % x.denominator == 0 for x in seps)
        q = _parity_split(legendre_pair(m).denominator)[1]
        brackets = _separator_brackets(q, seps)
        assert brackets is not None and len(brackets) == m // 2

    def test_certified_separators_match_the_oracle(self):
        got = _legendre_roots(40).roots
        for a, b in zip(got, legendre_nodes(40, 50), strict=True):
            assert abs(a - b) <= Decimal("1e-48")

    @pytest.mark.parametrize("j", [0, 7, 20])
    def test_point_moved_across_a_root_raises(self, j):
        with pytest.raises(RootIsolationError, match="separators do not certify"):
            _legendre_roots(40, separators=_moved_across_a_root(40, j))

    def test_point_moved_across_a_root_never_returns_roots(self):
        # Past order 150 as well, uncertified separators end in an error,
        # not in roots.
        with pytest.raises(RootIsolationError, match="separators do not certify"):
            _legendre_roots(152, separators=_moved_across_a_root(152, 3))

    @pytest.mark.parametrize("points", UNCERTIFIED)
    def test_uncertified_points_are_refused(self, points):
        assert _separator_brackets(RatPoly((F(-1, 4), 1)), points) is None

    @pytest.mark.parametrize("points", UNCERTIFIED)
    def test_uncertified_points_raise(self, points):
        with pytest.raises(RootIsolationError, match="separators do not certify"):
            _toy_roots(RatPoly((F(-1, 4), 0, 1)), points, ["0.5"])

    def test_certified_points_give_signed_brackets(self):
        q = RatPoly((F(3, 16), F(-1), 1))  # roots 1/4 and 3/4
        assert _separator_brackets(q, [F(0), F(1, 2), F(1)]) == [
            (F(0), F(1, 2), 1), (F(1, 2), F(1), -1)]


class TestDerivatives:
    @pytest.mark.parametrize("m", [6, 7])
    def test_derivative_at_every_root(self, m):
        # W' at the unrounded final iterate that each root was rounded from.
        evaluate = _decimal_evaluator(m)
        got = _legendre_roots(m, evaluate=evaluate)
        assert len(got.derivatives) == len(got.iterates) == m
        with localcontext(working_context(50)):
            for root, x, dw in zip(got.roots, got.iterates, got.derivatives):
                assert dw == evaluate(x)[1]
                assert format_sig(x, 50) == format_sig(root, 50)
                if root:
                    assert x != root


class TestRejection:
    def test_mixed_parity(self):
        with pytest.raises(ValueError, match="parity"):
            _toy_roots(RatPoly((F(-1, 3), 1, 1)), [F(0), F(1)], ["0.5"])

    def test_not_monic(self):
        with pytest.raises(ValueError, match="monic"):
            _toy_roots(RatPoly((F(-1, 3), 0, 2)), [F(0), F(1)], ["0.5"])

    def test_constant(self):
        with pytest.raises(ValueError):
            _toy_roots(RatPoly.one(), [F(1)], [])

    def test_no_real_roots_detected(self):
        with pytest.raises(RootIsolationError):
            _toy_roots(RatPoly((1, 0, 1)), [F(0), F(1)], ["0.5"])  # u^2 + 1

    def test_roots_outside_interval_detected(self):
        with pytest.raises(RootIsolationError):
            _toy_roots(RatPoly((-4, 0, 1)), [F(0), F(1)], ["0.5"])  # roots at +-2

    @pytest.mark.parametrize("m", [57, 81])
    def test_lost_digits_raise(self, m):
        # Horner on the monomial coefficients cancels near +-1 for large m;
        # the residual at the rounded roots then exceeds 1e-45 and must not
        # be returned as if certified.
        with pytest.raises(RootIsolationError, match="residual"):
            _legendre_roots(m, evaluate=_horner(legendre_pair(m).denominator))

    def test_boundary_roots_detected(self):
        # Roots at +-sqrt(1 - 1e-60), which round to +-1 at 50 digits.
        poly = RatPoly((-(1 - F(1, 10**60)), 0, 1))
        with pytest.raises(RootIsolationError, match="open interval"):
            _toy_roots(poly, [F(0), F(1)], ["0.5"])
