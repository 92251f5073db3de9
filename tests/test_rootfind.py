"""Root extraction: parity reduction, exact isolation, Newton polishing."""

from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from gaussquad import rootfind
from gaussquad.gausscf import (
    _bruns_separators,
    _denominator_and_derivative,
    _tricomi_starts,
    cf_coefficient,
    legendre_pair,
)
from gaussquad.numerics import _as_decimal, format_sig, working_context
from gaussquad.ratpoly import RatPoly
from gaussquad.rootfind import (
    RootIsolationError,
    _polish,
    _separator_brackets,
    real_roots_symmetric,
)
from oracles import legendre_nodes, newton_sqrt

F = Fraction


class TestSmallCases:
    def test_two_point(self):
        got = real_roots_symmetric(RatPoly((F(-1, 3), 0, 1)), 50)
        want = newton_sqrt(F(1, 3), 50)
        assert len(got.roots) == 2
        assert abs(got.roots[1] - want) < Decimal("1e-45")
        assert abs(got.roots[0] + want) < Decimal("1e-45")
        assert format_sig(got.roots[1], 16) == "0.5773502691896258"

    def test_odd_case_has_exact_origin(self):
        got = real_roots_symmetric(RatPoly((0, F(-3, 5), 0, 1)), 50)
        assert got.roots[1] == 0
        want = newton_sqrt(F(3, 5), 50)
        assert abs(got.roots[2] - want) < Decimal("1e-45")

    def test_rational_root_on_grid(self):
        # q = 1/4 sits exactly on the isolation grid; the dyadic shortcut
        # must still deliver both mirrored roots.
        got = real_roots_symmetric(RatPoly((F(-1, 4), 0, 1)), 50)
        assert got.roots == (Decimal("-0.5"), Decimal("0.5"))


class TestLegendreFamily:
    def test_seven_point_against_oracle(self):
        w = legendre_pair(7).denominator
        got = real_roots_symmetric(w, 50).roots
        want = legendre_nodes(7, 50)
        assert len(got) == 7
        for a, b in zip(got, want):
            assert abs(a - b) < Decimal("1e-45")
            assert format_sig(a, 16) == format_sig(b, 16)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_interlacing(self, m):
        inner = real_roots_symmetric(legendre_pair(m).denominator, 50).roots
        outer = real_roots_symmetric(legendre_pair(m + 1).denominator, 50).roots
        for i, r in enumerate(inner):
            assert outer[i] < r < outer[i + 1]

    @pytest.mark.parametrize("m", range(1, 10))
    def test_residual_bound(self, m):
        got = real_roots_symmetric(legendre_pair(m).denominator, 50)
        assert got.residual_bound <= Decimal("1e-45")
        assert len(got.roots) == m
        for a, b in zip(got.roots, got.roots[1:]):
            assert a < b

    @pytest.mark.parametrize("m", range(1, 9))
    def test_symmetry(self, m):
        roots = real_roots_symmetric(legendre_pair(m).denominator, 50).roots
        for i in range(m):
            assert abs(roots[i] + roots[m - 1 - i]) < Decimal("1e-42")

    def test_determinism(self):
        w = legendre_pair(6).denominator
        a = real_roots_symmetric(w, 50)
        b = real_roots_symmetric(w, 50)
        assert a.roots == b.roots
        assert a.residual_bound == b.residual_bound

    def test_precision_scales(self):
        w = legendre_pair(5).denominator
        lo = real_roots_symmetric(w, 40).roots
        hi = real_roots_symmetric(w, 70).roots
        for a, b in zip(lo, hi):
            assert abs(a - b) < Decimal("1e-38")


class TestPolish:
    def test_step_leaving_the_bracket_costs_one_bisection(self):
        # x^3 - 2x + 2 on [-2, 1/2]: from the midpoint -3/4, Newton jumps to
        # about 9.1.  One bisection step replaces it and Newton resumes, where
        # bisecting the whole bracket down to 1e-45 would take 150 steps.
        calls = []

        def evaluate(x):
            calls.append(x)
            return x ** 3 - 2 * x + 2, 3 * x * x - 2

        with localcontext(Context(prec=60)):
            root = _polish(evaluate, Decimal(-2), Decimal("0.5"), -1, Decimal("1e-45"))
            assert abs(root ** 3 - 2 * root + 2) < Decimal("1e-44")
        assert calls[1] == (Decimal(-2) + Decimal("-0.75")) / 2
        assert len(calls) <= 12

    def test_custom_evaluator_is_used(self):
        w = legendre_pair(6).denominator
        d = w.derivative()
        seen = []

        def horner(x):
            seen.append(x)
            return w.eval_hp(x), d.eval_hp(x)

        got = real_roots_symmetric(w, 50, horner)
        assert seen
        assert got == real_roots_symmetric(w, 50)


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
            root = _polish(evaluate, Decimal("0.1"), Decimal("0.9"), -1, Decimal("1e-45"),
                           Decimal(start))
        assert abs(root - newton_sqrt(F(1, 3), 55)) < Decimal("1e-45")

    @pytest.mark.parametrize("bad", ["0", "0.99999", "-3"])
    def test_bad_starts_cost_time_not_digits(self, bad):
        w = legendre_pair(30).denominator
        got = real_roots_symmetric(w, 50, starts=[Decimal(bad)] * 15)
        for a, b in zip(got.roots, legendre_nodes(30, 50), strict=True):
            assert abs(a - b) <= Decimal("1e-48")

    def test_one_start_per_positive_root(self):
        with pytest.raises(ValueError, match="starts"):
            real_roots_symmetric(legendre_pair(7).denominator, 50, starts=[Decimal("0.5")])


def _grid_spy(monkeypatch) -> list[int]:
    # Counts calls of the grid isolation, which must run only as a fallback.
    calls: list[int] = []
    grid = rootfind._isolate_unit_interval

    def spy(q):
        calls.append(q.degree)
        return grid(q)

    monkeypatch.setattr(rootfind, "_isolate_unit_interval", spy)
    return calls


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


def _recurrence_evaluator(m: int):
    # The recurrence evaluation gauss_rule uses, which keeps every digit at
    # m = 40, where Horner on the monomial coefficients would not.
    with localcontext(working_context(50)):
        v = [_as_decimal(cf_coefficient(k)) for k in range(1, m)]
    return lambda x: _denominator_and_derivative(x, v)


class TestSeparators:
    def test_certified_separators_replace_the_grid(self, monkeypatch):
        w = legendre_pair(40).denominator
        evaluate = _recurrence_evaluator(40)
        plain = real_roots_symmetric(w, 50, evaluate)
        calls = _grid_spy(monkeypatch)
        got = real_roots_symmetric(w, 50, evaluate, separators=_bruns_separators(40),
                                   starts=_tricomi_starts(40))
        assert calls == []
        assert got == plain

    @pytest.mark.parametrize("j", [0, 7, 20])
    def test_point_moved_across_a_root_falls_back_to_the_grid(self, monkeypatch, j):
        w = legendre_pair(40).denominator
        evaluate = _recurrence_evaluator(40)
        plain = real_roots_symmetric(w, 50, evaluate)
        calls = _grid_spy(monkeypatch)
        got = real_roots_symmetric(w, 50, evaluate, separators=_moved_across_a_root(40, j))
        assert calls == [20]
        assert got == plain

    def test_point_moved_across_a_root_never_returns_roots(self):
        # At 152 points the fallback grid cannot separate the outer roots, so
        # the uncertified separators must end in an error, not in roots.
        w = legendre_pair(152).denominator
        with pytest.raises(RootIsolationError, match="isolation failed"):
            real_roots_symmetric(w, 50, _recurrence_evaluator(152),
                                 separators=_moved_across_a_root(152, 3))

    @pytest.mark.parametrize("points", [
        [F(1, 2), F(1)],          # q - 1/4 is negative at both
        [F(1, 4), F(1)],          # a root sits on a separator
        [F(0), F(1, 2), F(1)],    # one pair too many
        [F(1), F(0)],             # not rising
        [F(-1), F(1)],            # outside [0, 1]
        [F(0), F(2)],
    ])
    def test_uncertified_points_are_refused(self, points):
        assert _separator_brackets(RatPoly((F(-1, 4), 1)), points) is None

    def test_certified_points_give_signed_brackets(self):
        q = RatPoly((F(3, 16), F(-1), 1))  # roots 1/4 and 3/4
        assert _separator_brackets(q, [F(0), F(1, 2), F(1)]) == [
            (F(0), F(1, 2), 1), (F(1, 2), F(1), -1)]


class TestDerivatives:
    @pytest.mark.parametrize("m", [6, 7])
    def test_derivative_at_every_root(self, m):
        w = legendre_pair(m).denominator
        d = w.derivative()
        got = real_roots_symmetric(w, 50)
        assert len(got.derivatives) == m
        with localcontext(working_context(50)):
            for root, dw in zip(got.roots, got.derivatives):
                assert dw == d.eval_hp(root)


class TestRejection:
    def test_mixed_parity(self):
        with pytest.raises(ValueError, match="parity"):
            real_roots_symmetric(RatPoly((F(-1, 3), 1, 1)), 50)

    def test_not_monic(self):
        with pytest.raises(ValueError, match="monic"):
            real_roots_symmetric(RatPoly((F(-1, 3), 0, 2)), 50)

    def test_constant(self):
        with pytest.raises(ValueError):
            real_roots_symmetric(RatPoly.one(), 50)

    def test_no_real_roots_detected(self):
        with pytest.raises(RootIsolationError):
            real_roots_symmetric(RatPoly((1, 0, 1)), 50)  # u^2 + 1

    def test_roots_outside_interval_detected(self):
        with pytest.raises(RootIsolationError):
            real_roots_symmetric(RatPoly((-4, 0, 1)), 50)  # roots at +-2

    @pytest.mark.parametrize("m", [57, 81])
    def test_lost_digits_raise(self, m):
        # Horner on the monomial coefficients cancels near +-1 for large m;
        # the residual at the rounded roots then exceeds 1e-45 and must not
        # be returned as if certified.
        with pytest.raises(RootIsolationError, match="residual"):
            real_roots_symmetric(legendre_pair(m).denominator, 50)

    def test_boundary_roots_detected(self):
        with pytest.raises(RootIsolationError, match="open interval"):
            real_roots_symmetric(RatPoly((-1, 0, 1)), 50)  # roots at +-1
