"""Exact polynomial algebra: construction, division, modular inverses, integrals."""

from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussquad.gausscf import legendre_pair, weight_polynomial
from gaussquad.ratpoly import RatPoly, _ext_gcd_s, mod_inverse_eval
from oracles import (
    frac_divrem,
    frac_eval,
    frac_eval_hp,
    frac_ext_gcd,
    frac_mod_inverse_eval,
    frac_mul,
    frac_poly,
    frac_sub,
    monic_legendre_coeffs,
)

F = Fraction

small_rationals = st.fractions(
    min_value=F(-8), max_value=F(8), max_denominator=12
)
coeff_lists = st.lists(small_rationals, min_size=0, max_size=7)


def poly(*coeffs):
    return RatPoly(coeffs)


class TestConstruction:
    def test_from_single_root(self):
        assert RatPoly.from_roots([F(1, 2)]) == poly(F(-1, 2), 1)

    def test_empty_product(self):
        assert RatPoly.from_roots([]) == RatPoly.one()

    def test_three_roots(self):
        got = RatPoly.from_roots([0, F(1, 2), 1])
        assert got == poly(0, F(1, 2), F(-3, 2), 1)

    # Ints, zero and negative roots, and a repeat of the first root.
    @given(roots=st.lists(st.one_of(st.integers(min_value=-9, max_value=9), small_rationals),
                          max_size=8).map(lambda rs: rs + rs[:1]))
    @example(roots=[0, 0, -3, F(-1, 2), F(-1, 2), 5])
    @settings(max_examples=100)
    def test_from_roots_is_product_of_linear_factors(self, roots):
        want = (F(1),)
        for r in roots:
            want = frac_mul(want, (-F(r), F(1)))
        assert RatPoly.from_roots(roots).coeffs == want

    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0, 0).is_zero

    @given(roots=st.lists(small_rationals, min_size=1, max_size=8))
    def test_roots_evaluate_to_zero(self, roots):
        p = RatPoly.from_roots(roots)
        assert p.leading == 1
        for r in roots:
            assert p.eval(r) == 0


class TestDivision:
    def test_exact_factor(self):
        q, r = poly(F(-1, 4), 0, 1).divrem(poly(F(-1, 2), 1))
        assert q == poly(F(1, 2), 1)
        assert r.is_zero

    def test_cube_by_linear(self):
        q, r = poly(0, 0, 0, 1).divrem(poly(-1, 1))
        assert q == poly(1, 1, 1)
        assert r == poly(1)

    def test_unit_divisor(self):
        f = poly(F(1, 3), -2, 5)
        q, r = f.divrem(RatPoly.one())
        assert q == f and r.is_zero

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            poly(1, 1).divrem(RatPoly.zero())

    @given(f=coeff_lists, g=coeff_lists)
    @settings(max_examples=80)
    def test_reconstruction(self, f, g):
        fp, gp = RatPoly(f), RatPoly(g)
        if gp.is_zero:
            return
        q, r = fp.divrem(gp)
        assert q * gp + r == fp
        assert r.degree < gp.degree


class TestDerivative:
    def test_linear(self):
        assert poly(F(-1, 2), 1).derivative() == RatPoly.one()

    def test_quadratic(self):
        assert poly(F(-1, 3), 0, 1).derivative() == poly(0, 2)

    def test_constant(self):
        assert poly(5).derivative().is_zero

    @given(f=coeff_lists, g=coeff_lists)
    def test_linearity(self, f, g):
        fp, gp = RatPoly(f), RatPoly(g)
        assert (fp + gp).derivative() == fp.derivative() + gp.derivative()


class TestEvaluation:
    def test_root_value(self):
        assert poly(F(-1, 2), 1).eval(F(1, 2)) == 0

    def test_direct_substitution(self):
        assert poly(F(-1, 3), 0, 1).eval(1) == F(2, 3)

    def test_odd_at_origin(self):
        assert poly(0, F(-3, 5), 0, 1).eval(0) == 0

    def test_eval_hp_matches_exact(self):
        p = poly(F(1, 6), -1, 1)
        with localcontext(Context(prec=50)):
            got = p.eval_hp(Decimal(1) / 3)
            want = p.eval(F(1, 3))
            err = abs(got - Decimal(want.numerator) / Decimal(want.denominator))
        assert err < Decimal("1e-45")


class TestIntegrals:
    @pytest.mark.parametrize("m", range(9))
    def test_unit_interval_monomials(self, m):
        mono = RatPoly([0] * m + [1])
        assert mono.integral_01() == F(1, m + 1)


class TestModInverseEval:
    def test_identity_quotient(self):
        got = mod_inverse_eval(RatPoly.one(), RatPoly.one(), poly(F(-1, 3), 0, 1))
        assert got == RatPoly.one()

    def test_two_point_weight_function(self):
        # Node polynomial t^2 - t + 1/6 with split part t - 1/2: both weights 1/2.
        zetap = poly(F(1, 6), -1, 1)
        got = mod_inverse_eval(poly(F(-1, 2), 1), zetap.derivative(), zetap)
        assert got == poly(F(1, 2))

    def test_constant_ratio(self):
        got = mod_inverse_eval(poly(0, 1), poly(0, 2), poly(F(-1, 3), 0, 1))
        assert got == poly(F(1, 2))

    def test_shared_root_rejected(self):
        zeta = poly(F(-1, 2), 1)
        zetap = zeta * poly(1, 1)
        with pytest.raises(ValueError, match="shared|share"):
            mod_inverse_eval(RatPoly.one(), zeta, zetap)

    @given(
        c=st.lists(small_rationals, min_size=2, max_size=4).filter(lambda c: c[-1] != 0),
        a=st.lists(small_rationals, min_size=1, max_size=4).filter(lambda a: a[-1] != 0),
        b=st.lists(small_rationals, min_size=1, max_size=4).filter(lambda b: b[-1] != 0),
        z=coeff_lists,
    )
    @settings(max_examples=100)
    def test_common_factor_rejected(self, c, a, b, z):
        # zeta = C*A and zetap = C*B share every root of C, deg C >= 1, so
        # Euclid's gcd has positive degree whatever A and B are.
        C = RatPoly(c)
        with pytest.raises(ValueError, match="share a root"):
            mod_inverse_eval(RatPoly(z), C * RatPoly(a), C * RatPoly(b))

    @given(
        zp_roots=st.lists(
            st.integers(min_value=-6, max_value=6).map(lambda k: F(k, 3)),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        z_coeffs=st.lists(small_rationals, min_size=1, max_size=3),
        zeta_shift=st.integers(min_value=7, max_value=10),
    )
    @settings(max_examples=60)
    def test_agrees_with_quotient_at_roots(self, zp_roots, z_coeffs, zeta_shift):
        zetap = RatPoly.from_roots(zp_roots)
        # Roots of zeta sit far from every root of zetap, so they are coprime.
        zeta = RatPoly.from_roots([F(zeta_shift)])
        Z = RatPoly(z_coeffs)
        got = mod_inverse_eval(Z, zeta, zetap)
        assert got.degree < zetap.degree
        for r in zp_roots:
            assert got.eval(r) * zeta.eval(r) == Z.eval(r)


class TestExtGcd:
    @given(f=coeff_lists, g=coeff_lists)
    @settings(max_examples=60)
    def test_bezout_identity(self, f, g):
        # Euclid's cofactor s of f: s*f = d modulo g, with d = gcd(f, g).
        fp, gp = RatPoly(f), RatPoly(g)
        d, s = _ext_gcd_s(fp, gp)
        assert (s * fp - d if gp.is_zero else (s * fp - d) % gp).is_zero
        if not d.is_zero:
            assert d.leading == 1
            assert (fp % d).is_zero and (gp % d).is_zero


class TestAffine:
    def test_square_bridge(self):
        # (2t-1)^2 = 4t^2 - 4t + 1
        assert poly(0, 0, 1).compose_affine(2, -1) == poly(1, -4, 4)

    def test_inverse_maps_compose(self):
        p = poly(F(1, 6), -1, 1)
        back = p.compose_affine(2, -1).compose_affine(F(1, 2), F(1, 2))
        assert back == p

    def test_format(self):
        assert poly(F(1, 6), -1, 1).format("t") == "t^2 - t + 1/6"
        assert RatPoly.zero().format() == "0"
        assert poly(0, F(-3, 5), 0, 1).format("u") == "u^3 - 3/5*u"


def assert_canonical(p: RatPoly, want: tuple) -> None:
    """p holds exactly the reference coefficients, in canonical form."""
    assert p.coeffs == want
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.degree == len(want) - 1
    assert p == RatPoly(want) and hash(p) == hash(RatPoly(want))
    # Integer kernel: positive common denominator, primitive numerators.
    assert p._den > 0
    assert gcd(p._den, *p._num) == 1 if p._num else p._den == 1


wide_rationals = st.fractions(
    min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6
)
wide_lists = st.lists(wide_rationals, min_size=0, max_size=9)


class TestIntegerKernelAgainstFractionReference:
    """RatPoly against the plain-Fraction algorithms of oracles.py."""

    @given(f=wide_lists, g=wide_lists)
    @settings(max_examples=150)
    def test_mul_sub_divrem(self, f, g):
        fp, gp = RatPoly(f), RatPoly(g)
        rf, rg = frac_poly(f), frac_poly(g)
        assert_canonical(fp, rf)
        assert_canonical(fp * gp, frac_mul(rf, rg))
        assert_canonical(fp - gp, frac_sub(rf, rg))
        assert_canonical(-gp, frac_sub((), rg))
        if rg:
            q, r = fp.divrem(gp)
            rq, rr = frac_divrem(rf, rg)
            assert_canonical(q, rq)
            assert_canonical(r, rr)

    @given(f=wide_lists, x=wide_rationals)
    @settings(max_examples=150)
    def test_eval(self, f, x):
        assert RatPoly(f).eval(x) == frac_eval(frac_poly(f), x)

    @given(f=wide_lists, a=wide_rationals, b=wide_rationals, x=small_rationals)
    @settings(max_examples=100)
    def test_compose_affine(self, f, a, b, x):
        got = RatPoly(f).compose_affine(a, b)
        if a:
            assert got.degree == len(frac_poly(f)) - 1
        assert got.eval(x) == frac_eval(frac_poly(f), a * x + b)

    @given(f=coeff_lists, g=coeff_lists)
    @settings(max_examples=100)
    def test_ext_gcd(self, f, g):
        got = _ext_gcd_s(RatPoly(f), RatPoly(g))
        for p, want in zip(got, frac_ext_gcd(frac_poly(f), frac_poly(g))):
            assert_canonical(p, want)

    @given(
        zp_roots=st.lists(small_rationals, min_size=1, max_size=6, unique=True),
        z=coeff_lists,
        zeta_roots=st.lists(
            st.integers(min_value=64, max_value=200).map(lambda k: F(k, 7)), max_size=5
        ),
    )
    @settings(max_examples=100)
    def test_mod_inverse_eval(self, zp_roots, z, zeta_roots):
        # Roots of zeta lie above 9, those of zetap within [-8, 8]: coprime.
        zetap = RatPoly.from_roots(zp_roots)
        zeta = RatPoly.from_roots(zeta_roots).scale(F(3, 5))
        got = mod_inverse_eval(RatPoly(z), zeta, zetap)
        want = frac_mod_inverse_eval(frac_poly(z), zeta.coeffs, zetap.coeffs)
        assert_canonical(got, want)

    def test_equal_polynomials_from_different_routes(self):
        p = RatPoly([F(1, 6), F(-5, 4), F(7, 3)])
        via_product = (p * RatPoly([F(2, 9), 3])).divrem(RatPoly([F(2, 9), 3]))[0]
        via_sum = (p + p).scale(F(1, 2))
        via_compose = p.compose_affine(2, -1).compose_affine(F(1, 2), F(1, 2))
        for other in (via_product, via_sum, via_compose):
            assert_canonical(other, p.coeffs)
        assert len({p, via_product, via_sum, via_compose}) == 1

    @given(f=wide_lists, x=st.decimals(min_value=-2, max_value=2, places=30))
    @settings(max_examples=80)
    def test_eval_hp_cache_follows_context(self, f, x):
        # One instance, evaluated under several contexts in turn: every
        # result must be the reference's, bit for bit, so a cache entry
        # served under the wrong precision or rounding shows.
        p, ref = RatPoly(f), frac_poly(f)
        contexts = [
            Context(prec=30, rounding=ROUND_HALF_EVEN),
            Context(prec=60, rounding=ROUND_HALF_EVEN),
            Context(prec=30, rounding=ROUND_DOWN),
            Context(prec=30, rounding=ROUND_HALF_EVEN),
        ]
        for ctx in contexts:
            with localcontext(ctx):
                got, want = p.eval_hp(x), frac_eval_hp(ref, x)
            assert str(got) == str(want)


class TestLargeOrderExact:
    """The exact layer beyond the n <= 12 the rest of the suite covers."""

    @pytest.mark.parametrize("m", [29, 53, 77, 101, 300, 1000])
    def test_legendre_denominator_closed_form(self, m):
        assert legendre_pair(m).denominator.coeffs == monic_legendre_coeffs(m)

    @pytest.mark.parametrize("n", [28, 52, 76, 100])
    def test_weight_polynomial_congruence(self, n):
        # weight_polynomial(n) * W' == V modulo W, checked with the
        # plain-Fraction reference rather than the kernel under test.
        pair = legendre_pair(n + 1)
        w = pair.denominator.coeffs
        wd = pair.denominator.derivative().coeffs
        wp = weight_polynomial(n)
        assert wp.degree <= n
        diff = frac_sub(frac_mul(wp.coeffs, wd), pair.numerator.coeffs)
        assert frac_divrem(diff, w)[1] == ()
