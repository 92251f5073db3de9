"""Gaussian rules of maximal degree via continued-fraction convergents.

The moment series of the half measure on [-1, 1] has a continued-fraction
expansion whose convergents V/W obey a three-term recurrence with
partial numerators v(m) = -m^2 / ((2m-1)(2m+1)).  The denominators W are
the monic Legendre polynomials; taking the roots of W of degree n+1 as
nodes yields the unique (n+1)-point rule of degree 2n+1, and the numerator
V doubles as the polynomial part of W times the moment series, so the
weight at node b is V(b) / W'(b).  Each call builds one order on its own:
W by Bonnet's recurrence on the integer polynomials 2^k P_k, and V, on
first use, from the product split of W.  Nothing is kept between calls,
so every function here is pure.

The exact polynomials V and W are the rule's exact outputs.  Its decimal
nodes come from evaluating W and W' at decimal points by the recurrence
itself, in q = u^2: the recurrence has no diagonal term, so its even
contraction X(k+2) = (q + v(k) + v(k+1)) X(k) - v(k-1) v(k) X(k-2) takes
two degrees per step, with W(u) = E(q) for even degree and u Y(q) for odd.
Its coefficients are rounded once per precision.  Unlike Horner's scheme
on the expanded coefficients of W, which cancel near u = +-1, it keeps its
relative accuracy there.  Near u = 0 its characteristic roots merge, and
the Newton step W/W' loses up to three of the ten guard digits: at 60
digits, at the smallest positive root and 1e-30 to either side, it errs by
up to 1.6e-59 at order 300 and 4.6e-59 at orders 999 and 1,000, against at
most 2.2e-61 at the largest root, where the recurrence in u erred by at
most 1.4e-61 at both roots.  At u = 0 itself the values come from exact
products instead.  The roots are bracketed by Bruns' separators
cos^2(k pi/(m + 1/2)) in q = u^2, each proven by its position against
bounds on the zeros, with no evaluation of W; one outside its interval
raises RootIsolationError.  Plain Newton starts from
Tricomi's asymptotic guesses, refined by Newton in floats on the
recurrence in u, which keeps the starts' last bits near u = 0, and climbs
a ladder of decimal precisions inside each proven bracket, so that each
node costs about one Newton step and one gate evaluation at the working
precision; floats propose separators and starts, so a poor start may
cost iterations or raise RootIsolationError, and a poor separator raises
it, but neither can yield a wrong root.  Each weight comes from W' at the
unrounded final iterate, by the Christoffel-Darboux form of V/W', with no
V recurrence.  Root isolation holds the one mirror of the roots.

The small linear-system construction (choose the node polynomial so that
the first coefficients of the split tail vanish) is also provided; it is
the brute-force cross-check for the continued-fraction route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest

from .interprule import T01, U11, QuadRule, _moments, to_convention
from .momseries import moment_series_u, product_split
from .numerics import _as_decimal, resolve_precision, round_to, working_context
from .ratpoly import RatPoly, mod_inverse_eval
from .rootfind import RootIsolationError, real_roots_symmetric


@dataclass(frozen=True)
class LegendrePair:
    """Convergent of order m: monic denominator W of degree m, numerator V of degree m-1.

    V, the polynomial part of W times the moment series, is built on first
    use and kept, so callers that need only W never pay for it.
    """

    order: int
    denominator: RatPoly

    @cached_property
    def numerator(self) -> RatPoly:
        return product_split(self.denominator, moment_series_u(self.order + 1), tail_len=0)[0]


def cf_coefficient(m: int) -> Fraction:
    """Partial numerator v(m) = -m^2/((2m-1)(2m+1)) of the continued fraction."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Fraction(-m * m, (2 * m - 1) * (2 * m + 1))


def legendre_pair(m: int) -> LegendrePair:
    """Numerator/denominator pair (V, W) of the order-m convergent.

    W = P_m / lead(P_m), the monic Legendre polynomial, from Q_k = 2^k P_k,
    whose coefficients are integers: Bonnet's recurrence
    (k+1) Q(k+1) = 2(2k+1) u Q(k) - 4k Q(k-1), from Q(-1) = 0 and Q(0) = 1,
    divides exactly.  It runs on the coefficients of u^(k mod 2),
    u^(k mod 2 + 2), ..., the only nonzero ones, so u Q(k) is Q(k) itself
    for even k and Q(k) shifted up one place for odd k.  V comes from the
    product split of W on first use.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    prev, cur = [], [1]
    for k in range(m):
        up = cur if k % 2 == 0 else [0] + cur
        prev, cur = cur, [(2 * (2 * k + 1) * a - 4 * k * b) // (k + 1)
                          for a, b in zip_longest(up, prev, fillvalue=0)]
    dense = [0] * (m + 1)
    dense[m % 2::2] = cur
    return LegendrePair(m, RatPoly.from_numerators(dense, cur[-1]))


def _derivative(m, x, w, w_prev):
    # W_m'(x) from W_m(x) and W_(m-1)(x), in the arithmetic of x: floats, or
    # decimals under the ambient context.  It is (1-x^2) P_m' = m (P_(m-1) -
    # x P_m) written for the monic W_m = P_m/a_m, where a_(m-1)/a_m =
    # m/(2m-1); the factor (1-x)(1+x) keeps its relative accuracy near the
    # ends, where 1-x*x would cancel.
    return m * (w_prev * m / (2 * m - 1) - x * w) / ((1 - x) * (1 + x))


def _float_denominator_and_derivative(x: float, v: list[float]) -> tuple[float, float]:
    # (W(x), W'(x)) in floats for the monic Legendre W of degree m =
    # len(v) + 1, by W(k+1) = x*W(k) + v(k)*W(k-1) with W(0) = 1 and
    # W(1) = x.  The contracted recurrence in q = x^2 would lose the float
    # starts' last bits near x = 0, where its characteristic roots merge.
    w_prev, w = 1.0, x
    for vk in v:
        w_prev, w = w, x * w + vk * w_prev
    return w, _derivative(len(v) + 1, x, w, w_prev)


# The contraction's starting values, built once rather than per evaluation.
_ZERO, _ONE = Decimal(0), Decimal(1)


def _contracted_step(k: int) -> tuple[int, int, int]:
    # (a, b, c) with s(k) = v(k) + v(k+1) = a/c and d(k) = -v(k-1) v(k) =
    # b/c, from the closed forms s(k) = -(4k^3 + 6k^2 - 1)/((2k-1)(2k+1)(2k+3))
    # and d(k) = -(k-1)^2 k^2/((2k-3)(2k-1)^2 (2k+1)), which hold at k = 0
    # with v(0) = 0.
    c = (2 * k - 3) * (2 * k - 1) ** 2 * (2 * k + 1) * (2 * k + 3)
    a = -(4 * k ** 3 + 6 * k * k - 1) * (2 * k - 3) * (2 * k - 1)
    b = -((k - 1) * k) ** 2 * (2 * k + 3)
    return a, b, c


def _denominator_and_derivative(x: Decimal, rung: tuple) -> tuple[Decimal, Decimal]:
    # (W(x), W'(x)) for the monic Legendre W of degree m under the ambient
    # context.  The recurrence X(k+1) = u*X(k) + v(k)*X(k-1) has no
    # diagonal term, so two of its steps fold into one in q = x^2, its even
    # contraction: X(k+2) = (q + s(k))*X(k) + d(k)*X(k-2).  rung is
    # (m, v(m-1), steps), rounded, with one step (s, d) per two degrees.
    # From X = 1 and X(k-2) = 0 at k = m mod 2, m//2 steps give
    # W = E(q) for even m and W = x*Y(q) for odd m.  W' comes from W and
    # W_(m-1), which is Y - v(m-1)*Y_prev for odd m and
    # (E - v(m-1)*E_prev)/x for even m; at a root the first term vanishes,
    # so the difference does not cancel.  Near x = 0 the characteristic
    # roots of the contraction merge, and the step W/W' loses up to three
    # of the ten guard digits at m = 1,000; at x = 0 itself, where W(0) and
    # W'(0) would lose four, they come from the products
    # W_2j(0) = v(1) v(3) ... v(2j-1), exact and rounded once.
    m, v_last, steps = rung
    if not x:
        num, den = 1, 1
        for i in range(1, m // 2 + 1):
            num, den = -num * (2 * i - 1) ** 2, den * (4 * i - 3) * (4 * i - 1)
        if m % 2:
            return _ZERO, Decimal(num * m * m) / (den * (2 * m - 1))
        return Decimal(num) / den, _ZERO
    q = x * x
    prev, cur = _ZERO, _ONE
    for s, d in steps:
        prev, cur = cur, (q + s) * cur + d * prev
    below = cur - v_last * prev
    if m % 2:
        w = x * cur
        return w, _derivative(m, x, w, below)
    return cur, _derivative(m, x, cur, below / x)


def _decimal_evaluator(m: int):
    # (W, W') of degree m by the contracted recurrence under the ambient
    # context.  The integer coefficients are built once, and v(m-1) and the
    # steps (s, d) are rounded once for each precision that asks: once per
    # rung of the root finder's ladder.
    steps = [_contracted_step(k) for k in range(m % 2, m - 1, 2)]
    rungs: dict[int, tuple] = {}

    def evaluate(x: Decimal) -> tuple[Decimal, Decimal]:
        prec = getcontext().prec
        rung = rungs.get(prec)
        if rung is None:
            v_last = Decimal(-(m - 1) ** 2) / ((2 * m - 3) * (2 * m - 1))
            rung = rungs[prec] = (m, v_last, [(Decimal(a) / c, Decimal(b) / c)
                                              for a, b, c in steps])
        return _denominator_and_derivative(x, rung)

    return evaluate


def _bruns_separators(m: int) -> list[float]:
    # cos^2(j pi/(m + 1/2)) in q = u^2 for j = m//2, ..., 0, rising: the
    # float nearest each, which _bruns_brackets proves by its position.
    # Let theta_1 < theta_2 < ... be the zeros of P_m(cos theta) in
    # (0, pi/2].  Bruns' inequality, the case lambda = 1/2 of Theorem 6.21.3
    # in Szego, Orthogonal Polynomials (4th ed., 1975), puts theta_j above
    # (j - 1/2) pi/(m + 1/2).  Theorem 6.21.1 there, with the Jacobi
    # parameters alpha = beta rising from 0 (Legendre) to 1/2 (Chebyshev U,
    # zeros j pi/(m + 1)), puts it below j pi/(m + 1).  So the interval
    # [j pi/(m + 1), (j + 1/2) pi/(m + 1/2)] lies strictly between theta_j
    # and theta_(j+1) for j = 1, ..., m//2, and separator j lies inside it
    # with room: in q, about pi^2/m^3 below the top (at least 1.23/m^3, and
    # 9.9e-12 at m = 10,000) and at least 0.38/m^2 above the bottom.  The
    # float's error, below about 1e-15, fits in that room up to m of about
    # 10^5, where multiples of 2^-32, up to 1.2e-10 away, would not.
    return [math.cos(j * math.pi / (m + 0.5)) ** 2 for j in range(m // 2, -1, -1)]


# pi to 40 digits, within 1e-39; the digits, series cut-off and error bound
# of _cos2_pi.
_PI = Decimal("3.141592653589793238462643383279502884197")
_COS2_DIGITS, _COS2_TAIL, _COS2_ERROR = 24, Decimal("1e-24"), Decimal("1e-20")


def _cos2_pi(a: int, b: int) -> Decimal:
    # cos^2(pi a/b) for 0 <= a/b <= 1/2 under a 24-digit context, by the
    # Taylor series of cos at t = pi a/b.  Each rounding errs by at most
    # u = 5e-24 relative: t by 2u, t^2 by 5u, the k-th term by 7ku, 13u in
    # all as the exact terms sum with weight k to (t/2) sinh t < 1.9, and the
    # at most 15 additions by 2.6u each, as cosh(pi/2) < 2.6.  The tail,
    # alternating and falling, is below its first term and _COS2_TAIL.  So
    # cos errs by less than 2.7e-22 and its square by less than 6e-22, well
    # inside _COS2_ERROR even after the rounding of adding that to a bound.
    t2 = -(_PI * a / b) ** 2
    term = total = Decimal(1)
    k = 0
    while abs(term) > _COS2_TAIL:
        k += 2
        term = term * t2 / (k * (k - 1))
        total += term
    return total * total


def _bruns_brackets(m: int, separators: list[float]) -> list[tuple[float, float]]:
    # Brackets (lo, hi) between consecutive separators in q, where
    # W_m(u) = u^s Q(u^2), once each separator j >= 1 is proven inside its
    # interval of _bruns_separators, with the ends in q, cos^2, to within
    # _COS2_ERROR, or else RootIsolationError.  For even m the innermost
    # needs only q > 0, as its theta_(j+1) is past pi/2; separator 0 is q = 1.
    # Separator j has the j roots cos^2(theta_1), ..., cos^2(theta_j) of Q
    # above it, so each bracket holds exactly one root of Q.
    if len(separators) != m // 2 + 1 or separators[-1] != 1:
        raise RootIsolationError(f"need {m // 2 + 1} separators ending at q = 1")
    brackets = []
    with localcontext(Context(prec=_COS2_DIGITS)):
        for j, q, above in zip(range(m // 2, 0, -1), separators, separators[1:]):
            bottom = 0 if 2 * j == m else _cos2_pi(2 * j + 1, 2 * m + 1) + _COS2_ERROR
            if not bottom < q <= _cos2_pi(j, m + 1) - _COS2_ERROR:
                raise RootIsolationError(f"separator {j} of order {m}, q = {q!r}, is not "
                                         f"proven to lie between zeros {j} and {j + 1}")
            brackets.append((q, above))
    return brackets


# Newton steps in floats that refine each of Tricomi's guesses; two reach
# a float's accuracy from its O(m^-4) error, and the third is a spare.
_FLOAT_STEPS = 3


def _float_starts(m: int, separators: list[float]) -> list[Decimal]:
    # Newton starts for the positive zeros of P_m in increasing order:
    # Tricomi's asymptotic guess (1 - 1/(8m^2) + 1/(8m^3)) cos(pi (4k-1)/(4m+2))
    # for the k-th largest zero, clipped into the float image of its
    # bracket between separators and refined there by Newton in floats on
    # the recurrence in u.  A step that would leave the bracket, or a value
    # that under- or overflows, stops the refinement; floats only propose.
    scale = 1 - 1 / (8 * m * m) + 1 / (8 * m ** 3)
    v = [float(cf_coefficient(k)) for k in range(1, m)]
    ends = [math.sqrt(q) for q in separators]
    starts = []
    for k, lo, hi in zip(range(m // 2, 0, -1), ends, ends[1:]):
        x = min(max(scale * math.cos(math.pi * (4 * k - 1) / (4 * m + 2)), lo), hi)
        for _ in range(_FLOAT_STEPS):
            if not lo < x < hi:
                break
            w, dw = _float_denominator_and_derivative(x, v)
            if not dw:
                break
            x_new = x - w / dw
            if x_new == x or not lo < x_new < hi:
                break
            x = x_new
        starts.append(Decimal(x))
    return starts


def gauss_rule(n: int, prec: int | None = None, convention: str = U11) -> QuadRule:
    """The (n+1)-point rule of degree 2n+1.

    Nodes are the roots of the degree n+1 convergent denominator W, found to
    the requested precision.  Bruns' separators bracket the roots once
    their positions are proven against bounds on the zeros, and Newton
    starts from Tricomi's asymptotic guesses refined by Newton in floats;
    both come from floats, so a poor one may cost iterations or raise
    RootIsolationError, but never digits.  Plain decimal Newton then
    climbs a precision ladder to the working precision inside each
    bracket, evaluating W and W' at decimal points by the
    continued-fraction recurrence itself, contracted to two degrees per
    step in q = u^2, which stays accurate near +-1 where Horner's scheme on
    the monomial coefficients cancels.  The weight at a node comes from the
    final, unrounded Newton iterate x and the W'(x) its residual gate
    computed, by the Christoffel-Darboux form
    1/((1-x)(1+x) a_m^2 W'(x)^2) with a_m = (2m)!/(2^m m!^2) the leading
    coefficient of P_m and m = n+1; it equals V/W' at the node, the half
    measure's 1/((1-x^2) P_m'(x)^2).  The form is even in x and in W', so
    the iterates and derivatives that root isolation mirrored give weights
    symmetric bit for bit; a weight sum that misses 1 by more than
    10**-(prec-5) raises ArithmeticError.  The rule keeps those iterates, and
    is built on [-1, 1] and mapped by ``to_convention`` when the t-form is
    requested, so each t-node, like each u-node, is rounded once from its
    unrounded iterate.  Tested up to n = 999 at precision 50.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prec = resolve_precision(prec)
    m = n + 1
    pair = legendre_pair(m)
    separators = _bruns_separators(m)
    brackets = _bruns_brackets(m, separators)
    with localcontext(working_context(prec)):
        found = real_roots_symmetric(
            m % 2, prec, _decimal_evaluator(m),
            brackets=brackets, starts=_float_starts(m, separators),
        )
        # a_m^2 = (C(2m, m)/2^m)^2, rounded once.
        lead2 = _as_decimal(Fraction(math.comb(2 * m, m) ** 2, 4 ** m))
        weights = tuple(round_to(1 / ((1 - x) * (1 + x) * lead2 * dw * dw), prec)
                        for x, dw in zip(found.iterates, found.derivatives))
        defect = abs(sum(weights, Decimal(0)) - 1)
    if defect > Decimal(1).scaleb(-(prec - 5)):
        raise ArithmeticError(
            f"weights of the {n + 1}-point rule miss unit mass by {defect:.3e}"
        )
    rule = QuadRule(
        convention=U11,
        nodes=found.roots,
        weights=weights,
        nodes_exact=(Fraction(0),) if n == 0 else None,
        weights_exact=(Fraction(1),) if n == 0 else None,
        nodepoly=pair.denominator,
        degree=2 * n + 1,
        iterates=found.iterates,
    )
    return rule if convention == U11 else to_convention(rule, convention, prec)


def _in_q(poly: RatPoly) -> RatPoly:
    # Q with poly(u) = u**s * Q(u**2), for poly of definite parity s.
    num, den = poly.numerators
    return RatPoly.from_numerators(num[poly.degree % 2::2], den)


def weight_polynomial(n: int) -> RatPoly:
    """Exact polynomial of degree <= n whose value at each node is its weight.

    Solves the modular-inverse problem with Z the convergent numerator,
    zeta the derivative of the node polynomial, and the node polynomial
    itself as modulus, so the result agrees with Z/zeta at every node.
    Z/zeta is even, so the inversion runs in q = u**2 on polynomials of
    half the degree: with W(u) = u**s Q(u**2), Z and zeta both carry the
    factor u**(1-s), which cancels, and the modulus q**s Q(q), the split of
    the even u**s W(u), has the squared nodes for roots.  Its result R
    gives R(u**2), the unique polynomial of degree below n+1 that takes
    the weights at the nodes.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    pair = legendre_pair(n + 1)
    s = (n + 1) % 2
    w, den = pair.denominator.numerators
    modulus = _in_q(RatPoly.from_numerators((0,) * s + w, den))
    r, den = mod_inverse_eval(_in_q(pair.numerator), _in_q(pair.denominator.derivative()),
                              modulus).numerators
    spread = [0] * (2 * len(r) - 1)
    spread[::2] = r
    return RatPoly.from_numerators(spread, den)


def leading_error_constant(n: int) -> tuple[Fraction, Fraction]:
    """Leading error coefficients of the (n+1)-point rule, in both conventions.

    Returns (c, k_first): c is the first nonzero coefficient of the split
    tail on [-1, 1] (the product of the continued-fraction partial
    numerators, in absolute value), sitting at u**-(n+2) in the tail and at
    u**-(2n+3) in the error series; k_first = c / 4**(n+1) is the same
    leading coefficient after the affine change to [0, 1], i.e. the error
    of the rule on t**(2n+2).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    c = Fraction(1)
    for k in range(1, n + 2):
        c *= Fraction(k * k, (2 * k - 1) * (2 * k + 1))
    return c, c / Fraction(4) ** (n + 1)


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    # Gaussian elimination over Q with first-nonzero pivoting.
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def annihilating_node_poly(n: int, convention: str = T01) -> RatPoly:
    """Monic node polynomial of degree n+1 by the direct linear-system route.

    Chooses the n+1 free coefficients so that the first n+1 coefficients of
    the split tail vanish, which is an (n+1)x(n+1) Hankel system in the
    moments, solved exactly.  Serves as an independent cross-check of the
    continued-fraction construction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    mu = _moments(convention, 2 * (n + 1) + 1).coeffs
    size = n + 1
    matrix = [[mu[q + i] for i in range(size)] for q in range(size)]
    rhs = [-mu[q + size] for q in range(size)]
    coeffs = _solve_exact(matrix, rhs)
    return RatPoly(coeffs + [Fraction(1)])
