"""Root extraction: Bruns brackets proven by position, plain Newton
polishing inside them, the residual gate and the mirror."""

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from gaussquad import gausscf
from gaussquad.gausscf import (
    _bruns_brackets,
    _bruns_separators,
    _decimal_evaluator,
    _float_starts,
    gauss_rule,
    legendre_pair,
)
from gaussquad.numerics import format_sig, working_context
from gaussquad.ratpoly import RatPoly
from gaussquad.rootfind import (
    _RUNG_STEPS,
    RootIsolationError,
    _ladder,
    _polish,
    real_roots_symmetric,
)
from oracles import cos_pi, legendre_nodes, legendre_q_signs, newton_sqrt

F = Fraction


def _horner(poly: RatPoly):
    # Horner's scheme on the monomial coefficients: exact enough for toy
    # polynomials and small Legendre degrees, cancelling near +-1 at large ones.
    deriv = poly.derivative()
    return lambda x: (poly.eval_hp(x), deriv.eval_hp(x))


def _toy_roots(poly: RatPoly, brackets, starts):
    # Roots of a toy polynomial from hand-made brackets and starts.
    return real_roots_symmetric(poly.degree % 2, 50, _horner(poly), brackets=brackets,
                                starts=[Decimal(x) for x in starts])


def _legendre_roots(m: int, prec: int = 50, *, evaluate=None, starts=None):
    # Roots of the monic Legendre W of degree m as gauss_rule finds them:
    # Bruns' brackets, float-refined Tricomi starts and the recurrence
    # evaluator, which keeps every digit at m = 40, where Horner on the
    # monomial coefficients would not, unless a test replaces one of them.
    seps = _bruns_separators(m)
    return real_roots_symmetric(
        m % 2, prec, _decimal_evaluator(m) if evaluate is None else evaluate,
        brackets=_bruns_brackets(m, seps),
        starts=_float_starts(m, seps) if starts is None else starts,
    )


class TestSmallCases:
    def test_two_point(self):
        got = _toy_roots(RatPoly((F(-1, 3), 0, 1)), [(0, 0.5)], ["0.5"])
        want = newton_sqrt(F(1, 3), 50)
        assert len(got.roots) == 2
        assert abs(got.roots[1] - want) < Decimal("1e-45")
        assert abs(got.roots[0] + want) < Decimal("1e-45")
        assert format_sig(got.roots[1], 16) == "0.5773502691896258"

    def test_odd_case_has_exact_origin(self):
        got = _toy_roots(RatPoly((0, F(-3, 5), 0, 1)), [(0.5, 1)], ["0.77"])
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

    def test_step_leaving_the_bracket_raises(self):
        # x^3 - 2x + 2 on [-2, 1/2]: from the start -3/4, Newton jumps to
        # about 9.1.  The bracket is the caller's proof of one root, so the
        # jump ends the search after one evaluation, naming the bracket.
        calls = []

        def evaluate(x):
            calls.append(x)
            return x ** 3 - 2 * x + 2, 3 * x * x - 2

        with localcontext(Context(prec=60)), \
                pytest.raises(RootIsolationError, match=r"left the bracket.*\(bracket"):
            _polish(evaluate, Decimal(-2), Decimal("0.5"), Decimal("-0.75"))
        assert calls == [Decimal("-0.75")]

    def test_vanishing_derivative_raises(self):
        with localcontext(Context(prec=60)), \
                pytest.raises(RootIsolationError, match=r"W' vanished.*\(bracket"):
            _polish(lambda x: (x - Decimal("0.3"), Decimal(0)), Decimal("0.1"),
                    Decimal("0.9"), Decimal("0.5"))

    def test_unsettled_newton_raises_within_the_rung_budget(self):
        # From 0, Newton on x^3 - 2x + 2 cycles exactly between 0 and 1,
        # inside (-1/2, 3/2): the lowest rung spends its budget and raises.
        calls = []

        def evaluate(x):
            calls.append(x)
            return x ** 3 - 2 * x + 2, 3 * x * x - 2

        with localcontext(Context(prec=60)), \
                pytest.raises(RootIsolationError, match=r"did not settle.*\(bracket"):
            _polish(evaluate, Decimal("-0.5"), Decimal("1.5"), Decimal(0))
        assert len(calls) == _RUNG_STEPS
        assert set(calls) == {0, 1}

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
    @staticmethod
    def _third_root(start: str):
        # The root of x^2 - 1/3 in (0.1, 0.9), from a start that is clipped
        # to the inner 7/8 of the bracket, [0.15, 0.85].
        def evaluate(x):
            assert Decimal("0.1") < x < Decimal("0.9")
            return x * x - third, 2 * x

        with localcontext(Context(prec=60)):
            third = Decimal(1) / 3
            return _polish(evaluate, Decimal("0.1"), Decimal("0.9"), Decimal(start))[0]

    @pytest.mark.parametrize("start", ["0.5", "0.8999999", "0.9", "7"])
    def test_far_or_outside_start_still_converges(self, start):
        root = self._third_root(start)
        assert abs(root - newton_sqrt(F(1, 3), 55)) < Decimal("1e-45")

    @pytest.mark.parametrize("start", ["-5", "0.1", "0.1000001"])
    def test_start_that_newton_carries_out_of_its_bracket_raises(self, start):
        # From 0.15, Newton jumps to about 1.19, past the bracket's upper end.
        with pytest.raises(RootIsolationError, match=r"left the bracket.*\(bracket"):
            self._third_root(start)

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_bad_starts_cost_time_not_digits(self, bad):
        # Clipped to the lower end of every bracket, Newton still converges
        # in each of the 15 brackets of order 30.
        got = _legendre_roots(30, starts=[Decimal(bad)] * 15)
        for a, b in zip(got.roots, legendre_nodes(30, 50), strict=True):
            assert abs(a - b) <= Decimal("1e-48")

    def test_bad_start_raises_rather_than_costing_digits(self):
        # Clipped to the upper end of each bracket, Newton leaves the innermost.
        with pytest.raises(RootIsolationError, match="left the bracket"):
            _legendre_roots(30, starts=[Decimal("0.99999")] * 15)

    def test_one_start_per_positive_root(self):
        with pytest.raises(ValueError, match="starts"):
            _legendre_roots(7, starts=[Decimal("0.5")])


def _moved_across_a_root(m: int, i: int) -> list[float]:
    # Bruns' separators with the i-th from the innermost moved across its
    # neighbouring root, halfway to the next separator beyond that root.
    seps = _bruns_separators(m)
    q_roots = [r * r for r in legendre_nodes(m, 30) if r > 0]
    if i < len(q_roots):
        seps[i] = float((F(q_roots[i]) + F(seps[i + 1])) / 2)
    else:
        seps[i] = float((F(q_roots[i - 1]) + F(seps[i - 1])) / 2)
    assert all(a < b for a, b in zip(seps, seps[1:]))
    return seps


def _signs(m: int) -> list[int]:
    # (-1)^j at Bruns' separator j = m//2, ..., 0, in rising q.
    return [-1 if j % 2 else 1 for j in range(m // 2, -1, -1)]


def _uncertified() -> list[list[float]]:
    # Ways to spoil the 21 Bruns separators of order 40, none of which a
    # position check can prove.
    seps = _bruns_separators(40)
    on_root = float([x * x for x in legendre_nodes(40, 30) if x > 0][3])
    return [
        seps[:3] + [on_root] + seps[4:],                   # a point on a root
        seps[:3] + [(seps[3] + seps[4]) / 2] + seps[3:],   # one point too many
        seps[:3] + seps[4:],                               # one point too few
        seps[:5] + [seps[6], seps[5]] + seps[7:],          # not rising
        [-seps[0]] + seps[1:],                             # below q = 0
        seps[:-1] + [1.5],                                 # the last point is not 1
    ]


UNCERTIFIED = _uncertified()


class TestSeparators:
    """Bruns' separators are proven by their position alone; the exact sign
    of Q at each, from tests/oracles.py, is the oracle for the theorem."""

    def test_bruns_separators_certify_up_to_order_200(self):
        for m in range(1, 201):
            seps = _bruns_separators(m)
            brackets = _bruns_brackets(m, seps)
            assert legendre_q_signs(m, seps) == _signs(m), m
            assert brackets == list(zip(seps, seps[1:])), m

    @pytest.mark.parametrize("m", [299, 300, 451, 600])
    def test_bruns_separators_certify_at_large_orders(self, m):
        seps = _bruns_separators(m)
        brackets = _bruns_brackets(m, seps)
        assert legendre_q_signs(m, seps) == _signs(m)
        assert len(brackets) == m // 2

    @pytest.mark.parametrize("m", [*range(1, 41), 57, 100, 151, 200, 300, 600])
    def test_theorem_bounds_hold_against_the_oracle(self, m):
        # The zero theta_j of P_m(cos theta), j-th from theta = 0, lies
        # strictly between (j - 1/2) pi/(m + 1/2) and j pi/(m + 1), checked
        # in u = cos theta at 40 digits.
        positive = sorted(legendre_nodes(m, 40), reverse=True)[: m // 2]
        for j, x in enumerate(positive, start=1):
            assert cos_pi(F(j, m + 1), 40) < x < cos_pi(F(2 * j - 1, 2 * m + 1), 40), (m, j)

    def test_certified_separators_match_the_oracle(self):
        got = _legendre_roots(40).roots
        for a, b in zip(got, legendre_nodes(40, 50), strict=True):
            assert abs(a - b) <= Decimal("1e-48")

    @pytest.mark.parametrize("j, side", [(1, "above"), (1, "below"), (7, "above"),
                                         (13, "below"), (20, "above")])
    def test_point_outside_its_interval_raises_between_the_same_zeros(self, j, side):
        # Separator j of order 40 moved out of its interval, to halfway to
        # the zero above it (towards q = 1) or below it, so that it still
        # lies strictly between the same two zeros and the exact signs of Q
        # would still certify it.  The position check refuses it.
        m = 40
        seps = _bruns_separators(m)
        i = m // 2 - j
        with localcontext(Context(prec=40)):
            x = sorted(legendre_nodes(m, 40), reverse=True)
            if side == "above":
                q = (x[j - 1] ** 2 + cos_pi(F(j, m + 1), 40) ** 2) / 2
            else:
                q = (x[j] ** 2 + cos_pi(F(2 * j + 1, 2 * m + 1), 40) ** 2) / 2
        seps[i] = float(q)
        assert legendre_q_signs(m, seps) == _signs(m)
        with pytest.raises(RootIsolationError, match=f"separator {j} of order {m}"):
            _bruns_brackets(m, seps)

    @pytest.mark.parametrize("j", [0, 7, 20])
    def test_point_moved_across_a_root_raises(self, j):
        with pytest.raises(RootIsolationError, match="separator"):
            _bruns_brackets(40, _moved_across_a_root(40, j))

    def test_point_moved_across_a_root_never_returns_roots(self, monkeypatch):
        # Past order 150 as well, gauss_rule ends in an error, not in roots.
        moved = _moved_across_a_root(152, 3)
        monkeypatch.setattr(gausscf, "_bruns_separators", lambda m: moved)
        with pytest.raises(RootIsolationError, match="separator"):
            gauss_rule(151)

    @pytest.mark.parametrize("points", UNCERTIFIED)
    def test_uncertified_points_are_refused(self, points):
        with pytest.raises(RootIsolationError):
            _bruns_brackets(40, points)

    @pytest.mark.parametrize("points", UNCERTIFIED)
    def test_uncertified_points_raise(self, monkeypatch, points):
        # gauss_rule runs the check on its separators before any polishing.
        monkeypatch.setattr(gausscf, "_bruns_separators", lambda m: points)
        with pytest.raises(RootIsolationError):
            gauss_rule(39)

    def test_certified_points_give_brackets(self):
        seps = _bruns_separators(4)
        assert seps == [math.cos(j * math.pi / 4.5) ** 2 for j in (2, 1, 0)]
        assert _bruns_brackets(4, seps) == [(seps[0], seps[1]), (seps[1], 1.0)]

    def test_interval_check_accepts_every_separator_at_order_10000(self):
        # The tight margin, next to q = 1, is about pi^2/m^3 = 9.9e-12 here.
        # Float separators keep inside it; rounding them to multiples of
        # 2^-32, up to 1.2e-10 away, does not.
        seps = _bruns_separators(10_000)
        assert len(_bruns_brackets(10_000, seps)) == 5_000
        with pytest.raises(RootIsolationError, match="separator 2 of order 10000"):
            _bruns_brackets(10_000, [round(q * 2 ** 32) / 2 ** 32 for q in seps])


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
    def test_no_real_roots_detected(self):
        # u^2 + 1 has no root in the claimed bracket; the residual gate refuses
        # what Newton ends on.
        with pytest.raises(RootIsolationError):
            _toy_roots(RatPoly((1, 0, 1)), [(0, 1)], ["0.5"])

    def test_roots_outside_interval_detected(self):
        with pytest.raises(RootIsolationError):
            _toy_roots(RatPoly((-4, 0, 1)), [(0, 1)], ["0.5"])  # roots at +-2

    @pytest.mark.parametrize("m", [57, 81])
    def test_lost_digits_raise(self, m):
        # Horner on the monomial coefficients cancels near +-1 for large m:
        # Newton's step never falls below the rounding noise, or the
        # residual at the rounded roots exceeds 1e-45.  Either way the roots
        # must not be returned as if certified.
        with pytest.raises(RootIsolationError, match="residual|bracket"):
            _legendre_roots(m, evaluate=_horner(legendre_pair(m).denominator))

    def test_boundary_root_leaves_the_bracket_at_once(self):
        # x^2 - (1 - 1e-60), convex: from 0.5 Newton overshoots the root
        # just below 1, past the bracket end, after one evaluation rather
        # than a bisection per bit down to the root.
        poly = RatPoly((-(1 - F(1, 10**60)), 0, 1))
        horner, calls = _horner(poly), []

        def evaluate(x):
            calls.append(x)
            return horner(x)

        with pytest.raises(RootIsolationError, match="left the bracket"):
            real_roots_symmetric(0, 50, evaluate, brackets=[(0, 1)], starts=[Decimal("0.5")])
        assert calls == [Decimal("0.5")]

    def test_boundary_roots_detected(self):
        # -u^4 + 4u^2 + (1 + e)^2 - 4 has roots in q = u^2 at 1 - e and
        # 3 + e; near u = 1 it is concave and rising, so Newton from below
        # stays below the root, which rounds to +-1 at 50 digits for
        # e = 1e-54.
        e = F(1, 10**54)
        poly = RatPoly(((1 + e) ** 2 - 4, 0, 4, 0, -1))
        with pytest.raises(RootIsolationError, match="open interval"):
            _toy_roots(poly, [(0.5, 1)], ["0.99"])
