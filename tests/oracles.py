"""Independent oracles for the test suite.

Nothing here goes through the package's construction path: roots come from
Newton iteration on the classical three-term recurrence for Legendre
polynomials, weights from integrating Lagrange basis polynomials or from
solving the moment system with a local exact linear solver, and square
roots from a self-contained Newton iteration on x^2 - v.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, InvalidOperation, localcontext
from fractions import Fraction
from functools import lru_cache

from gaussquad.interprule import POLY_MAX_DIGITS, T01, U11
from gaussquad.ratpoly import RatPoly


def _ctx(prec: int) -> Context:
    return Context(prec=prec + 10, rounding=ROUND_HALF_EVEN)


def newton_sqrt(value: Fraction | int, prec: int) -> Decimal:
    """Square root by Newton iteration on x^2 - value."""
    value = Fraction(value)
    if value < 0:
        raise ValueError("negative input")
    if value == 0:
        return Decimal(0)
    with localcontext(_ctx(prec)):
        v = Decimal(value.numerator) / Decimal(value.denominator)
        x = Decimal(repr(math.sqrt(value)))
        tol = Decimal(1).scaleb(-(prec + 3))
        for _ in range(300):
            nx = (x + v / x) / 2
            done = abs(nx - x) <= tol
            x = nx
            if done:
                break
        out = +x
    with localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN)):
        return +out


def legendre_eval(m: int, x: Decimal) -> tuple[Decimal, Decimal]:
    """(P_m(x), P_m'(x)) with the P(1)=1 normalization, via the recurrence
    (k+1) P_{k+1}(x) = (2k+1) x P_k(x) - k P_{k-1}(x)."""
    p_prev, p = Decimal(1), x
    if m == 0:
        return p_prev, Decimal(0)
    for k in range(1, m):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = m * (x * p - p_prev) / (x * x - 1)
    return p, dp


def legendre_nodes(m: int, prec: int) -> list[Decimal]:
    """All m roots of P_m, ascending, by Newton from Chebyshev-angle guesses."""
    roots = []
    with localcontext(_ctx(prec)):
        tol = Decimal(1).scaleb(-(prec + 3))
        for k in range(1, m + 1):
            x = Decimal(repr(math.cos(math.pi * (4 * k - 1) / (4 * m + 2))))
            for _ in range(300):
                p, dp = legendre_eval(m, x)
                step = p / dp
                x -= step
                if abs(step) <= tol:
                    break
            roots.append(+x)
    roots.sort()
    with localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN)):
        return [+r for r in roots]


def lagrange_weights_exact(nodes: list[Fraction], convention: str = T01) -> list[Fraction]:
    """Interpolatory weights by integrating each Lagrange basis polynomial.

    The node polynomial is the ``frac_mul`` product of the factors x - a; the
    basis at node a_j is its quotient by x - a_j, integrated term by term.
    """
    full = (Fraction(1),)
    for a in nodes:
        full = frac_mul(full, (-Fraction(a), Fraction(1)))
    step = 1 if convention == T01 else 2  # odd powers integrate to 0 on [-1, 1]
    out = []
    for aj in nodes:
        basis, _ = frac_divrem(full, (-Fraction(aj), Fraction(1)))
        integral = sum((basis[k] / (k + 1) for k in range(0, len(basis), step)), Fraction(0))
        out.append(integral / frac_eval(basis, aj))
    return out


def lagrange_weights_hp(nodes: list[Decimal], convention: str, prec: int) -> list[Decimal]:
    """Lagrange-basis weights in decimal arithmetic, for irrational nodes."""
    out = []
    with localcontext(_ctx(prec)):
        for j, aj in enumerate(nodes):
            coeffs = [Decimal(1)]
            for i, r in enumerate(nodes):
                if i == j:
                    continue
                coeffs = [Decimal(0)] + coeffs
                for p in range(len(coeffs) - 1):
                    coeffs[p] -= r * coeffs[p + 1]
            denom = Decimal(0)
            for c in reversed(coeffs):
                denom = denom * aj + c
            if convention == T01:
                integral = sum(
                    (c / (k + 1) for k, c in enumerate(coeffs)), Decimal(0)
                )
            else:
                integral = sum(
                    (c / (k + 1) for k, c in enumerate(coeffs) if k % 2 == 0),
                    Decimal(0),
                )
            out.append(integral / denom)
        with localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN)):
            return [+w for w in out]


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination, local to the test suite."""
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        div = aug[col][col]
        aug[col] = [x / div for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def moment_system_weights(nodes: list[Fraction], convention: str = T01) -> list[Fraction]:
    """Interpolatory weights by solving the moment system directly."""
    n = len(nodes)
    matrix = [[Fraction(a) ** m for a in nodes] for m in range(n)]
    if convention == T01:
        rhs = [Fraction(1, m + 1) for m in range(n)]
    else:
        rhs = [Fraction(1, m + 1) if m % 2 == 0 else Fraction(0) for m in range(n)]
    return solve_linear(matrix, rhs)


# High-precision reference digits, frozen from an independent
# multiple-precision computation.
LN_100000 = Decimal("11.51292546497022842008995727342182103800550744314386488")
LN_2 = Decimal("0.6931471805599453094172321214581765680755001343602552541")
LOG10_SCALED_HALF = Decimal("8.698970004336018804786261105275506973231810118537891459")

# The seven totals of the classical convergence demonstration, as printed.
DEMO_PRINTED = [
    "8390.394608",
    "8405.954599",
    "8406.236775",
    "8406.242970",
    "8406.243117",
    "8406.243121",
    "8406.2431211",
]

# The 1815 table's seventh entry is a misprint: its seven hand-rounded
# products drifted by about +2.6e-7, while the exact 7-node total is
# 8406.2431208437 (frozen from eigenvalue-based software) and the true
# integral, li(200000) - li(100000), is 8406.2431208462.
DEMO_EXACT_7 = Decimal("8406.2431208437")


@lru_cache(maxsize=None)
def demo_gauss_totals() -> tuple[Decimal, ...]:
    """The (n+1)-point Gauss totals of the integral of 1/ln x over
    [100000, 200000], n = 0..6, from recurrence nodes, Lagrange-basis
    weights on [-1, 1] (summing to 1) and ``Decimal.ln``, at 60 digits.

    Checks itself before returning: rows n = 0..5 lie within one unit of
    the last printed digit of ``DEMO_PRINTED``, and row n = 6 matches
    ``DEMO_EXACT_7`` to 1e-10.
    """
    start, width, prec = 100000, 100000, 60
    totals = []
    for m in range(1, 8):
        nodes = legendre_nodes(m, prec)
        weights = lagrange_weights_hp(nodes, U11, prec)
        with localcontext(_ctx(prec)):
            total = width * sum(
                (w / (start + width * (1 + u) / 2).ln() for u, w in zip(nodes, weights)),
                Decimal(0),
            )
        with localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN)):
            totals.append(+total)
    for n, (total, printed) in enumerate(zip(totals[:6], DEMO_PRINTED)):
        if abs(total - Decimal(printed)) > Decimal("1e-6"):
            raise AssertionError(f"demo oracle n={n}: {total} vs printed {printed}")
    if abs(totals[6] - DEMO_EXACT_7) > Decimal("1e-10"):
        raise AssertionError(f"demo oracle n=6: {totals[6]} vs {DEMO_EXACT_7}")
    return tuple(totals)


# -- plain-Fraction polynomial reference ---------------------------------------
#
# Coefficient tuples ascending by degree, one Fraction per coefficient and no
# trailing zeros: the textbook algorithms, with none of RatPoly's integer
# kernel or caches, for property tests of it.


def frac_poly(coeffs) -> tuple[Fraction, ...]:
    """Canonical coefficient tuple: Fractions, trailing zeros stripped."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def frac_sub(a, b) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return frac_poly(x - y for x, y in zip(a, b))


def frac_mul(a, b) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return frac_poly(out)


def frac_scale(a, c) -> tuple[Fraction, ...]:
    return frac_poly(x * c for x in a)


def frac_divrem(f, g) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Long division f = q*g + r with deg r < deg g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = len(g) - 1
    if len(rem) <= dg:
        return (), frac_poly(rem)
    quot = [Fraction(0)] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        factor = rem[i] / g[-1]
        quot[i - dg] = factor
        for j, c in enumerate(g):
            rem[i - dg + j] -= factor * c
    return frac_poly(quot), frac_poly(rem[:dg])


def frac_eval(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * Fraction(x) + c
    return acc


def frac_eval_hp(a, x: Decimal) -> Decimal:
    """Horner under the ambient context, converting each coefficient anew."""
    acc = Decimal(0)
    for c in reversed(a):
        acc = acc * x + Decimal(c.numerator) / Decimal(c.denominator)
    return acc


def frac_product_split(c, mu, tail_len: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Polynomial part and first tail_len tail coefficients of c times the
    descending series mu, one Fraction sum per coefficient."""
    d = len(c) - 1
    poly = [sum((c[i] * mu[i - p - 1] for i in range(p + 1, d + 1)), Fraction(0)) for p in range(d)]
    tail = [sum((c[i] * mu[q + i] for i in range(d + 1)), Fraction(0)) for q in range(tail_len)]
    return frac_poly(poly), tuple(tail)


def frac_series_quotient(num, den, count: int) -> tuple[Fraction, ...]:
    """First count coefficients of num/den at x**-1, x**-2, ..., for
    deg num < deg den: the quotient of num * x**count by den, read backwards."""
    num, den = frac_poly(num), frac_poly(den)
    if len(num) >= len(den):
        raise ValueError("numerator degree must be below denominator degree")
    quot, _ = frac_divrem((Fraction(0),) * count + num, den)
    return tuple(reversed(quot + (Fraction(0),) * (count - len(quot))))


def frac_ext_gcd(a, b):
    """Extended Euclid with monic remainders: (g, s, t) with s*a + t*b = g."""
    r0, s0, t0 = a, (Fraction(1),), ()
    r1, s1, t1 = b, (), (Fraction(1),)
    while r1:
        q, r = frac_divrem(r0, r1)
        s, t = frac_sub(s0, frac_mul(q, s1)), frac_sub(t0, frac_mul(q, t1))
        if r:
            inv = 1 / r[-1]
            r, s, t = frac_scale(r, inv), frac_scale(s, inv), frac_scale(t, inv)
        r0, s0, t0, r1, s1, t1 = r1, s1, t1, r, s, t
    if r0 and r0[-1] != 1:
        inv = 1 / r0[-1]
        r0, s0, t0 = frac_scale(r0, inv), frac_scale(s0, inv), frac_scale(t0, inv)
    return r0, s0, t0


def frac_mod_inverse_eval(Z, zeta, zetap) -> tuple[Fraction, ...]:
    """Z * zeta^(-1) reduced modulo zetap; zeta and zetap must be coprime."""
    g, s, _ = frac_ext_gcd(zeta, zetap)
    if len(g) != 1:
        raise ValueError("zeta and zetap share a root")
    return frac_divrem(frac_mul(Z, s), zetap)[1]


def monic_legendre_coeffs(m: int) -> tuple[Fraction, ...]:
    """Coefficients of the monic Legendre polynomial of degree m, closed form:
    (-1)^k C(m,k) C(2m-2k,m) / C(2m,m) at x^(m-2k)."""
    out = [Fraction(0)] * (m + 1)
    for k in range(m // 2 + 1):
        out[m - 2 * k] = Fraction(
            (-1) ** k * math.comb(m, k) * math.comb(2 * m - 2 * k, m), math.comb(2 * m, m)
        )
    return tuple(out)


def legendre_q_signs(m: int, points) -> list[int]:
    """Exact sign of Q at each point q, a float or Fraction, where the monic
    Legendre polynomial of degree m is u^s Q(u^2) with s = m % 2.

    With d = m // 2 and q = a/b, the sign of Q(a/b) is that of the integer
    b^d C(2m, m) Q(a/b), summed by homogeneous Horner on the closed-form
    numerators of ``monic_legendre_coeffs``: (-1)^k C(m,k) C(2m-2k,m) at
    q^(d-k)."""
    nums = [(-1) ** k * math.comb(m, k) * math.comb(2 * m - 2 * k, m) for k in range(m // 2 + 1)]
    signs = []
    for q in points:
        a, b = Fraction(q).as_integer_ratio()
        acc, power = 0, 1
        for c in nums:
            acc = acc * a + c * power
            power *= b
        signs.append((acc > 0) - (acc < 0))
    return signs


# pi to 60 digits.
PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def cos_pi(c: Fraction, prec: int) -> Decimal:
    """cos(c pi) for 0 <= c <= 1/2, by its Taylor series with ten guard digits."""
    if not 0 <= c <= Fraction(1, 2) or prec > 50:
        raise ValueError("need 0 <= c <= 1/2 and at most 50 digits")
    with localcontext(_ctx(prec)):
        t2 = -(PI_60 * c.numerator / c.denominator) ** 2
        term = total = Decimal(1)
        k = 0
        while abs(term) > Decimal(1).scaleb(-(prec + 5)):
            k += 2
            term = term * t2 / (k * (k - 1))
            total += term
    with localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN)):
        return +total


# -- poly: integrand specs ------------------------------------------------------


def parse_poly_spec_fractions(spec: str) -> RatPoly:
    """``interprule.parse_poly_spec`` with every coefficient read by Fraction.

    Each coefficient is size-checked through Decimal first, then the list is
    converted by Fraction and handed to RatPoly's Fraction constructor: the
    values and error messages the integer reader must reproduce.
    """
    body = spec.split(":", 1)[1] if spec.startswith("poly:") else spec
    parts = [part.strip() for part in body.split(",") if part.strip()]
    for part in parts:
        try:
            _, digits, exponent = Decimal(part).as_tuple()
            too_big = isinstance(exponent, int) and len(digits) + abs(exponent) > POLY_MAX_DIGITS
        except InvalidOperation:
            too_big = "e" in part.lower()
        if too_big:
            raise ValueError(f"polynomial coefficient {part!r} is not a decimal of at most "
                             f"{POLY_MAX_DIGITS} digits")
    try:
        coeffs = [Fraction(part) for part in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad polynomial coefficient list {body!r}") from exc
    if not coeffs:
        raise ValueError("polynomial integrand needs at least one coefficient")
    return RatPoly(coeffs)
