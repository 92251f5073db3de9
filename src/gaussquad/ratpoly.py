"""Dense univariate polynomials over exact rationals, on an integer kernel.

A polynomial is held as a tuple of integer numerators, ascending by degree,
over one positive common denominator, in primitive form: the gcd of the
numerators shares no factor with the denominator.  The denominator is then
the least common denominator of the coefficients, so the form is unique and
equal polynomials have equal representations.  The zero polynomial has no
numerators and denominator 1.  Every arithmetic method works on Python ints
and restores the primitive form with one gcd over the result, instead of one
gcd per coefficient as Fraction arithmetic would; evaluation at p/q is a
homogeneous Horner scheme that builds a single Fraction at the end.

``coeffs``, the canonical tuple of Fractions, is built on first use and
kept.  ``eval_hp`` keeps its Decimal coefficients per decimal context
(precision, rounding and exponent limits); each is the correctly rounded
quotient of numerator by denominator, the same value a conversion of the
Fraction gives, so results do not depend on the cache.

Gauss rules up to n = 100 build node polynomials of degree 101, and their
weight polynomials, inverted in q = u**2, take about fifty extended-Euclid
division steps; the dense schoolbook algorithms below serve those sizes.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

_set = object.__setattr__


def _fill(p: "RatPoly", num: tuple[int, ...], den: int, coeffs=None) -> "RatPoly":
    _set(p, "_num", num)
    _set(p, "_den", den)
    _set(p, "_coeffs", coeffs)
    _set(p, "_hp", None)
    return p


def _make(num: list[int], den: int) -> "RatPoly":
    """The polynomial num/den in primitive form; den is a nonzero int."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return _fill(object.__new__(RatPoly), tuple(num), den)


class RatPoly:
    """Immutable dense polynomial with rational coefficients."""

    __slots__ = ("_num", "_den", "_coeffs", "_hp")

    _num: tuple[int, ...]
    _den: int

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # Reduced Fractions over their lcm are already primitive: for each
        # prime of the lcm, the coefficient whose denominator carries its
        # full power keeps a numerator free of it.
        den = lcm(*(c.denominator for c in cs))
        _fill(self, tuple(c.numerator * (den // c.denominator) for c in cs), den, tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def identity(cls) -> "RatPoly":
        """The polynomial x."""
        return cls((0, 1))

    @classmethod
    def from_numerators(cls, num: Iterable[int], den: int) -> "RatPoly":
        """The polynomial with coefficients num[i]/den, ascending; den is a nonzero int."""
        return _make(list(num), den)

    @classmethod
    def from_roots(cls, roots: Sequence[Fraction | int]) -> "RatPoly":
        """Monic polynomial with exactly the given roots (with multiplicity)."""
        out = cls.one()
        for r in roots:
            out = out * cls((-Fraction(r), 1))
        return out

    # -- basic structure ----------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients ascending by degree, as canonical Fractions."""
        cs = self._coeffs
        if cs is None:
            den = self._den
            cs = tuple(Fraction(a, den) for a in self._num)
            _set(self, "_coeffs", cs)
        return cs

    @property
    def numerators(self) -> tuple[tuple[int, ...], int]:
        """(numerators, denominator): the integer form in primitive form."""
        return self._num, self._den

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def leading(self) -> Fraction:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatPoly) and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __repr__(self) -> str:
        return f"RatPoly({[str(c) for c in self.coeffs]})"

    def format(self, var: str = "t") -> str:
        """Human-readable rendering, highest degree first."""
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                xpow = var if i == 1 else f"{var}^{i}"
                term = xpow if mag == 1 else f"{mag}*{xpow}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "RatPoly":
        return _make([-a for a in self._num], self._den)

    def _plus(self, other: "RatPoly", sign: int) -> "RatPoly":
        # self + sign*other over the lcm of the two denominators.
        da, db = self._den, other._den
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        a, b = self._num, other._num
        out = [x * fa for x in a]
        if len(b) > len(a):
            out.extend([0] * (len(b) - len(a)))
        for i, y in enumerate(b):
            out[i] += y * fb
        return _make(out, da * fa)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, RatPoly):
            a, b = self._num, other._num
            if not a or not b:
                return RatPoly.zero()
            if len(a) < len(b):
                a, b = b, a
            la = len(a)
            out = [0] * (la + len(b) - 1)
            for i, y in enumerate(b):
                if y:
                    out[i:i + la] = [o + x * y for o, x in zip(out[i:i + la], a)]
            return _make(out, self._den * other._den)
        return self.scale(Fraction(other))

    def __rmul__(self, other):
        return self.scale(Fraction(other))

    def scale(self, c: Fraction | int) -> "RatPoly":
        c = Fraction(c)
        p = c.numerator
        return _make([a * p for a in self._num] if p else [], self._den * c.denominator)

    def divrem(self, g: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        """Euclidean division: self = q*g + r with deg r < deg g, exactly.

        Runs on numerators: whenever the divisor's leading numerator does
        not divide the next remainder coefficient, the remainder and the
        quotient so far are multiplied by the missing factor, and the
        product of those factors joins the denominators at the end.
        """
        if g.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = g._num
        dg = len(b) - 1
        if len(self._num) <= dg:
            return RatPoly.zero(), self
        lead = b[-1]
        low = b[:-1]
        rem = list(self._num)
        quot: list[int] = []  # highest degree first
        mult = 1  # self * mult = quot * g + rem, on numerators
        for i in range(len(rem) - 1, dg - 1, -1):
            c = rem[i]
            if not c:
                quot.append(0)
                continue
            k = gcd(c, lead)
            m = lead // k
            if m != 1:
                rem[:i] = [x * m for x in rem[:i]]
                quot = [x * m for x in quot]
                mult *= m
            f = c // k
            quot.append(f)
            base = i - dg
            rem[base:i] = [x - f * y for x, y in zip(rem[base:i], low)]
        quot.reverse()
        den = mult * self._den
        return _make([x * g._den for x in quot], den), _make(rem[:dg], den)

    def __mod__(self, g: "RatPoly") -> "RatPoly":
        return self.divrem(g)[1]

    def derivative(self) -> "RatPoly":
        return _make([i * a for i, a in enumerate(self._num)][1:], self._den)

    # -- evaluation and integration -------------------------------------

    def eval(self, x: Fraction | int) -> Fraction:
        """Exact Horner evaluation at a rational point.

        At x = p/q the scheme is homogeneous, sum a_i p^i q^(d-i), so it
        stays in integers and divides once at the end.
        """
        x = Fraction(x)
        num = self._num
        if not num:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc = num[-1]
        qk = 1
        for a in reversed(num[:-1]):
            qk *= q
            acc = acc * p + a * qk
        return Fraction(acc, self._den * qk)

    def eval_hp(self, x: Decimal) -> Decimal:
        """Horner evaluation at a Decimal point under the ambient context."""
        ctx = getcontext()
        key = (ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax)
        cache = self._hp
        if cache is None:
            cache = {}
            _set(self, "_hp", cache)
        cs = cache.get(key)
        if cs is None:
            den = Decimal(self._den)
            cs = cache[key] = tuple(Decimal(a) / den for a in reversed(self._num))
        # Start from zero, not from the leading coefficient: the start sets
        # the exponent, hence the printed digits, of exact results.
        acc = Decimal(0)
        for c in cs:
            acc = acc * x + c
        return acc

    def integral_01(self) -> Fraction:
        """Exact definite integral over [0, 1]."""
        return sum((c / (i + 1) for i, c in enumerate(self.coeffs)), Fraction(0))

    def integral_pm1(self) -> Fraction:
        """Exact definite integral over [-1, 1]; odd monomials drop out."""
        return sum(
            (2 * c / (i + 1) for i, c in enumerate(self.coeffs) if i % 2 == 0),
            Fraction(0),
        )

    def compose_affine(self, a: Fraction | int, b: Fraction | int) -> "RatPoly":
        """Return the polynomial self(a*x + b), exactly.

        With a*x + b = (c0 + c1*x)/d, Horner runs homogeneously on the
        integer linear form c0 + c1*x, and d**degree joins the denominator.
        """
        a, b = Fraction(a), Fraction(b)
        d = a.denominator * b.denominator
        c0, c1 = b.numerator * a.denominator, a.numerator * b.denominator
        num = self._num
        if not num:
            return RatPoly.zero()
        acc = [num[-1]]
        dk = 1
        for coef in reversed(num[:-1]):
            dk *= d
            acc = [c0 * x + c1 * y for x, y in zip(acc + [0], [0] + acc)]
            acc[0] += coef * dk
        return _make(acc, self._den * dk)


def _ext_gcd_s(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly]:
    # Extended Euclid tracking only the cofactor of a: returns (g, s) with
    # g = gcd(a, b), monic or zero, and s*a = g mod b.  Remainders are made
    # monic at every step, which keeps coefficient growth tame.
    r0, s0 = a, RatPoly.one()
    r1, s1 = b, RatPoly.zero()
    while not r1.is_zero:
        q, r = r0.divrem(r1)
        s = s0 - q * s1
        if not r.is_zero:
            inv = 1 / r.leading
            r, s = r.scale(inv), s.scale(inv)
        r0, s0, r1, s1 = r1, s1, r, s
    if not r0.is_zero and r0.leading != 1:
        inv = 1 / r0.leading
        r0, s0 = r0.scale(inv), s0.scale(inv)
    return r0, s0


def poly_ext_gcd(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly, RatPoly]:
    """Extended Euclid over Q[x]: returns (g, s, t) with s*a + t*b = g.

    g is canonical (monic, or zero).  The cofactor t is the exact quotient
    (g - s*a)/b, unique under the degree bounds of Euclid's cofactors.
    """
    g, s = _ext_gcd_s(a, b)
    if b.is_zero:
        return g, s, RatPoly.zero()
    return g, s, (g - s * a).divrem(b)[0]


def mod_inverse_eval(Z: RatPoly, zeta: RatPoly, zetap: RatPoly) -> RatPoly:
    """Polynomial of degree < deg(zetap) agreeing with Z/zeta at every root of zetap.

    Computed as Z * zeta^(-1) in the quotient ring Q[x]/(zetap) via extended
    Euclid.  Requires gcd(zeta, zetap) = 1: a shared root would make the
    target quotient undefined there.
    """
    if zetap.is_zero:
        raise ZeroDivisionError("modulus polynomial is zero")
    if zeta.is_zero:
        raise ValueError("zeta and zetap share a root (zeta is identically zero)")
    if zetap.degree == 0:
        return RatPoly.zero()
    g, s = _ext_gcd_s(zeta, zetap)
    if g.degree > 0:
        raise ValueError(
            f"zeta and zetap share a root (gcd has degree {g.degree})"
        )
    # g is the monic unit 1, so s is the inverse of zeta modulo zetap.
    return (Z * s) % zetap
