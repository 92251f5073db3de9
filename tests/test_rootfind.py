"""Root extraction: parity reduction, exact isolation, Newton polishing."""

from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from gaussquad.gausscf import legendre_pair
from gaussquad.numerics import format_sig
from gaussquad.ratpoly import RatPoly
from gaussquad.rootfind import RootIsolationError, _polish, real_roots_symmetric
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
