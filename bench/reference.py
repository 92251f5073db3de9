"""Independent references for the benchmark's output checks.

Nothing here imports gaussquad.  Gauss-Legendre nodes come from Newton
iteration on the classical three-term recurrence for P_m, started from
Chebyshev-angle guesses; weights of the half measure (1/2)du on [-1, 1] are
1/((1-x^2) P_m'(x)^2).  Interpolatory weights come from integrating the
Lagrange basis polynomials, exactly for rational nodes and in decimal for
decimal nodes.  Logarithms use the decimal module's correctly rounded ln.
All decimal work runs with GUARD extra digits.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, getcontext, localcontext
from fractions import Fraction

GUARD = 12


def context(prec: int) -> Context:
    return Context(prec=prec + GUARD, rounding=ROUND_HALF_EVEN)


def to_dec(x: Fraction | int | Decimal) -> Decimal:
    """Convert under the ambient context."""
    if isinstance(x, Decimal):
        return +x
    x = Fraction(x)
    return Decimal(x.numerator) / Decimal(x.denominator)


def legendre_eval(m: int, x: Decimal) -> tuple[Decimal, Decimal]:
    """(P_m(x), P_m'(x)) with P_m(1) = 1, under the ambient context."""
    p_prev, p = Decimal(1), x
    if m == 0:
        return p_prev, Decimal(0)
    for k in range(1, m):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, m * (x * p - p_prev) / (x * x - 1)


def gauss_u11(points: int, prec: int) -> tuple[list[Decimal], list[Decimal]]:
    """Ascending nodes and half-measure weights of the points-point Gauss rule."""
    nodes, weights = [], []
    with localcontext(context(prec)):
        tol = Decimal(1).scaleb(-(prec + GUARD - 2))
        for k in range(1, points + 1):
            x = Decimal(repr(math.cos(math.pi * (4 * k - 1) / (4 * points + 2))))
            for _ in range(400):
                p, dp = legendre_eval(points, x)
                step = p / dp
                x -= step
                if abs(step) <= tol:
                    break
            else:
                raise ArithmeticError(f"reference Newton did not converge for {points} points")
            if points % 2 == 1 and k == (points + 1) // 2:
                x = Decimal(0)
            _, dp = legendre_eval(points, x)
            nodes.append(x)
            weights.append(1 / ((1 - x * x) * dp * dp))
    order = sorted(range(points), key=lambda i: nodes[i])
    return [nodes[i] for i in order], [weights[i] for i in order]


def gauss_t01(points: int, prec: int) -> tuple[list[Decimal], list[Decimal]]:
    """The same rule mapped to t = (u+1)/2 on [0, 1]; weights are unchanged."""
    nodes, weights = gauss_u11(points, prec)
    with localcontext(context(prec)):
        return [(x + 1) / 2 for x in nodes], weights


def gauss_error_series_t01(n: int) -> list[Fraction]:
    """Closed-form error coefficients k[0..2n+3] of the (n+1)-point rule on [0, 1].

    k[m] = 0 below 2n+2, k[2n+2] = prod k^2/((2k-1)(2k+1)) / 4^(n+1), and the
    symmetry of the rule about t = 1/2 gives k[2n+3] = (2n+3)/2 * k[2n+2].
    """
    c = Fraction(1)
    for k in range(1, n + 2):
        c *= Fraction(k * k, (2 * k - 1) * (2 * k + 1))
    lead = c / 4 ** (n + 1)
    return [Fraction(0)] * (2 * n + 2) + [lead, Fraction(2 * n + 3, 2) * lead]


def _poly_from_roots(roots: list, one) -> list:
    coeffs = [one]
    for r in roots:
        coeffs = [0 * one] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def _integral_t01(coeffs: list):
    return sum((c / (k + 1) for k, c in enumerate(coeffs)), 0 * coeffs[0])


def lagrange_weights_exact(nodes: list[Fraction]) -> list[Fraction]:
    """Interpolatory weights on [0, 1] for rational nodes, exactly."""
    out = []
    for j, aj in enumerate(nodes):
        basis = _poly_from_roots([a for i, a in enumerate(nodes) if i != j], Fraction(1))
        out.append(_integral_t01(basis) / poly_eval(basis, aj))
    return out


def lagrange_weights_dec(nodes: list[Decimal], prec: int) -> list[Decimal]:
    """Interpolatory weights on [0, 1] for decimal nodes, at prec + GUARD digits."""
    out = []
    with localcontext(context(prec)):
        for j, aj in enumerate(nodes):
            basis = _poly_from_roots([+a for i, a in enumerate(nodes) if i != j], Decimal(1))
            out.append(_integral_t01(basis) / poly_eval(basis, aj))
    return out


def newton_cotes_exact(n: int) -> tuple[list[Fraction], list[Fraction]]:
    nodes = [Fraction(i, n) for i in range(n + 1)]
    return nodes, lagrange_weights_exact(nodes)


def poly_eval(coeffs, x):
    """Horner evaluation of ascending coefficients; exact for Fractions."""
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_integral_01(coeffs: list[Fraction]) -> Fraction:
    return sum((Fraction(c) / (k + 1) for k, c in enumerate(coeffs)), Fraction(0))


# -- integrands and their derivatives, under the ambient context ---------------


# Each returns (f(x), f'(x)).


def recip_log(x: Decimal) -> tuple[Decimal, Decimal]:
    lx = x.ln()
    return 1 / lx, -1 / (x * lx * lx)


def runge(x: Decimal) -> tuple[Decimal, Decimal]:
    d = 1 + 25 * x * x
    return 1 / d, -50 * x / (d * d)


def poly_with_derivative(coeffs: list[Fraction]):
    der = [k * Fraction(c) for k, c in enumerate(coeffs)][1:] or [Fraction(0)]
    converted = {}  # context precision -> decimal coefficients

    def fdf(x: Decimal) -> tuple[Decimal, Decimal]:
        prec = getcontext().prec
        if prec not in converted:
            converted[prec] = [to_dec(c) for c in coeffs], [to_dec(c) for c in der]
        dec, ddec = converted[prec]
        return poly_eval(dec, x), poly_eval(ddec, x)

    return fdf


# -- comparisons ----------------------------------------------------------------


def promise(prec: int) -> Decimal:
    """The package's accuracy promise at prec digits: 10**-(prec-5)."""
    return Decimal(1).scaleb(-(prec - 5))


def digits(err: Decimal, scale: Decimal, prec: int) -> int:
    """Correct significant digits of a value off by err on a quantity of size scale."""
    if err == 0:
        return prec
    with localcontext(Context(prec=40)):
        rel = abs(err) / abs(scale) if scale else abs(err)
        return max(0, min(prec, -rel.adjusted() - 1))


def apply_reference(nodes, weights, fdf, g, delta, prec: int):
    """Reference sum delta * sum w f(g + delta a) over a reference rule on [0, 1].

    Returns (terms, tolerances): per-node terms and the error each may carry
    when the rule under test meets the promise on its nodes and weights, so
    the propagated tolerance is promise * delta * w * (|f| + delta |f'|).
    """
    terms, tols = [], []
    with localcontext(context(prec)):
        gd, dd = to_dec(g), to_dec(delta)
        eps = promise(prec)
        for a, w in zip(nodes, weights):
            x = gd + dd * to_dec(a)
            wd = to_dec(w)
            fx, dfx = fdf(x)
            terms.append(dd * wd * fx)
            tols.append(eps * abs(dd * wd) * (abs(fx) + abs(dd * dfx)))
    return terms, tols
