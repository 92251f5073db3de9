"""High-precision real roots of even/odd node polynomials on (-1, 1).

The polynomials handled here have a definite parity, all roots real and
simple inside (-1, 1), and at most one root at the origin.  Parity is
exploited: W(u) = u**s * Q(u**2) with s in {0, 1}, and the roots of Q are
bracketed in (0, 1) by exact sign changes of Q at rational points, so
isolation can never be fooled by rounding.  The caller, who knows where the
roots lie (for Legendre polynomials, Bruns' separators), passes the points,
and they are certified exactly: Q must be nonzero at each, change sign
across every consecutive pair, and the pairs must number deg Q, which puts
exactly one root in each.  Points that fail any check raise; no root ever
comes from an uncertified bracket.  Each bracket is polished in decimal
arithmetic by safeguarded Newton from a caller-supplied start, with the
caller's evaluation of (W, W'): each evaluation narrows the bracket, and a
step that would leave it is replaced by one bisection step, after which
Newton resumes.  Newton climbs a precision ladder: it iterates on the
lowest rung, at 24 digits or more, until its step is below half of them,
then takes one step per rung, each rung about twice the one below, up to
the working precision, where it iterates until the step is negligible;
that last evaluation serves the gate below.  Negative
roots come from mirroring, and a root at the origin is exact.  That mirror
and the split into u**s Q(u**2) are the only uses of parity.

Floats may propose points and starts, but never decide a result: exact
signs certify every bracket and the residual gate below every root.
Violations of the expected root structure are detected and reported as
:class:`RootIsolationError`; the module never silently returns a wrong
root count, nor a root r rounded from the final iterate x unless
|W(x)/W'(x)| + |r - x|, a bound on the distance from r to the root
up to second order, is within the promised 10**-(prec-5).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from typing import Callable, Sequence

from .numerics import MAX_PRECISION, _as_decimal, resolve_precision, round_to, working_context
from .ratpoly import RatPoly

# Bisection alone needs log2(10) < 3.4 steps per digit.
_MAX_STEPS = 4 * MAX_PRECISION

# The lowest rung of the precision ladder has at least this many digits,
# half again a float's 16, so that Newton from a float start fills it in
# one or two steps.
_LOWEST_RUNG = 24

# evaluate(x) -> (W(x), W'(x)) under the ambient decimal context.
Evaluator = Callable[[Decimal], tuple[Decimal, Decimal]]


class RootIsolationError(RuntimeError):
    """Raised when isolation or polishing cannot certify the expected roots."""

    def __init__(self, message: str, bracket: tuple | None = None):
        super().__init__(message if bracket is None else f"{message} (bracket {bracket})")
        self.bracket = bracket


@dataclass(frozen=True)
class RootSet:
    """Sorted roots, the largest residual bound |W(x)/W'(x)| + |r - x| over
    the roots r and the final Newton iterates x they were rounded from, the
    iterates themselves, and W' at each iterate as the evaluator gave it;
    each sequence covers every root, mirrored exactly for the negative ones."""

    roots: tuple[Decimal, ...]
    residual_bound: Decimal
    iterates: tuple[Decimal, ...]
    derivatives: tuple[Decimal, ...]


def _parity_split(poly: RatPoly) -> tuple[int, RatPoly]:
    # (s, Q) with poly(u) = u**s * Q(u**2) and s the parity of the degree;
    # raises if a coefficient of the other parity is nonzero.
    num, den = poly.numerators
    s = poly.degree % 2
    if any(num[1 - s::2]):
        raise ValueError("polynomial does not have a definite parity")
    return s, RatPoly.from_numerators(num[s::2], den)


def _separator_brackets(q: RatPoly, separators: Sequence[Fraction]
                        ) -> list[tuple[Fraction, Fraction, int]] | None:
    # Brackets (lo, hi, sign of q at lo) between consecutive separators, or
    # None unless the points rise strictly in [0, 1], number deg q + 1, and
    # q is nonzero at each and changes sign across every pair: deg q sign
    # changes on deg q disjoint intervals leave exactly one root in each.
    points = [Fraction(x) for x in separators]
    if (len(points) != q.degree + 1 or not 0 <= points[0] or not points[-1] <= 1
            or any(a >= b for a, b in zip(points, points[1:]))):
        return None
    signs: list[int] = []
    for x in points:
        value = q.eval(x)
        sign = (value > 0) - (value < 0)
        if sign == 0 or (signs and sign == signs[-1]):
            return None
        signs.append(sign)
    return list(zip(points, points[1:], signs))


def _ladder(top: int) -> list[int]:
    # Precisions rising to top, each rung four digits more than half the
    # next: [34, 60] for top = 60 and [39, 70, 133, 258, 509, 1010] for
    # top = 1010.  Newton from an iterate with about half a rung's digits
    # fills the rung in one step, with four digits to spare for the factor
    # |W''/2W'| that multiplies the squared error.
    rungs = [top]
    while rungs[-1] // 2 + 4 >= _LOWEST_RUNG:
        rungs.append(rungs[-1] // 2 + 4)
    return rungs[::-1]


def _polish(evaluate: Evaluator, lo: Decimal, hi: Decimal, sign_lo: int,
            tol: Decimal, start: Decimal) -> tuple[Decimal, Decimal, Decimal]:
    # Safeguarded Newton on [lo, hi], whose ends bracket one sign change of
    # W, with sign_lo the sign at lo.  Every evaluation shrinks the bracket
    # to the side that keeps the root; a Newton step that would leave it is
    # replaced by one bisection step, and Newton resumes from there.  The
    # iterate stays strictly inside the bracket, so an evaluator is never
    # asked for a value at a bracket end such as u = 1: the start is clipped
    # to the inner 7/8 of the bracket.
    #
    # Evaluations climb _ladder up to the ambient precision.  The lowest
    # rung iterates until the step is below half its digits, or the bracket
    # is that narrow; each rung above takes one step.  The top rung
    # iterates until |W/W'| at the iterate is within six digits of the
    # ambient precision, and returns (x, W(x), W'(x)) from that evaluation;
    # a bracket narrower than tol ends it at its midpoint instead.  A root
    # within rounding of a bracket end, where the Newton step from a
    # converged iterate lands on the end, is the one case that evaluates
    # there.
    rungs = _ladder(getcontext().prec)
    top = len(rungs) - 1
    settled = Decimal(1).scaleb(-(rungs[0] // 2))
    converged = Decimal(1).scaleb(6 - rungs[top])
    rung = 0
    margin = (hi - lo) / 16
    x = min(max(start, lo + margin), hi - margin)
    for _ in range(_MAX_STEPS):
        with localcontext() as ctx:
            ctx.prec = rungs[rung]
            fx, dfx = evaluate(x)
            step = fx / dfx if dfx != 0 else None
            if rung == top and step is not None and abs(step) <= converged:
                return x, fx, dfx
            # A sign taken within the rung's rounding noise of the root may
            # be wrong, and would then move a bracket end past the root.
            if fx != 0 and (step is None or abs(step) > Decimal(1).scaleb(4 - ctx.prec)):
                if (fx > 0) == (sign_lo > 0):
                    lo = x
                else:
                    hi = x
            if step is not None and (lo < x - step < hi or (rung == top and abs(step) <= tol
                                                            and lo <= x - step <= hi)):
                x -= step
            elif rung == top and hi - lo <= tol:
                break
            else:
                step = None
                x = (lo + hi) / 2
            if rung < top and (rung > 0 or hi - lo <= settled
                               or (step is not None and abs(step) <= settled)):
                rung += 1
    else:
        raise RootIsolationError("safeguarded Newton did not converge", bracket=(lo, hi))
    x = (lo + hi) / 2
    return (x, *evaluate(x))


def real_roots_symmetric(poly: RatPoly, prec: int | None, evaluate: Evaluator, *,
                         separators: Sequence[Fraction],
                         starts: Sequence[Decimal]) -> RootSet:
    """All real roots of a definite-parity polynomial with roots in (-1, 1).

    The returned roots are strictly increasing and symmetric about the
    origin.  Each is rounded from a final Newton iterate x evaluated at the
    working precision, and |poly(x)/poly'(x)| + |r - x| <= 10**-(prec-5)
    holds for every root r; a root that misses this bound raises
    RootIsolationError.  ``evaluate(x)`` returns (poly(x), poly'(x)) under
    the ambient decimal context, which Newton sets to each rung of its
    precision ladder in turn; it must keep its relative accuracy near the
    roots, which Horner's scheme on the monomial coefficients does not at
    large degree.  The result's ``iterates`` are those x and its
    ``derivatives`` the evaluator's poly'(x), both mirrored by parity for
    the negative roots.

    ``separators``, rationals rising in [0, 1] in q = u**2, one more than
    there are positive roots, bracket one root between each consecutive
    pair once exact signs certify them (see the module docstring); points
    that fail certification raise RootIsolationError.  ``starts``, one per
    positive root in increasing order, start Newton in their brackets.
    Identical input and precision give bit-identical output.
    """
    prec = resolve_precision(prec)
    if poly.is_zero or poly.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if poly.leading != 1:
        raise ValueError("polynomial must be monic")
    s, q = _parity_split(poly)
    if len(starts) != q.degree:
        raise ValueError(f"need {q.degree} starts, one per positive root, got {len(starts)}")
    brackets = _separator_brackets(q, separators)
    if brackets is None:
        raise RootIsolationError(
            f"separators do not certify {q.degree} roots of Q in (0, 1), "
            f"where poly(u) = u**{s} Q(u**2), by exact sign changes"
        )
    tol = Decimal(1).scaleb(-(prec - 5))
    positives: list[tuple[Decimal, Decimal, Decimal]] = []
    residual = Decimal(0)
    with localcontext(working_context(prec)):
        for (qlo, qhi, sign_lo), start in zip(brackets, starts):
            # Sign of W on (0,1) matches the sign of Q at the q-bracket ends.
            x, fx, dfx = _polish(evaluate, _as_decimal(qlo).sqrt(), _as_decimal(qhi).sqrt(),
                                 sign_lo, tol, start)
            if dfx == 0:
                raise RootIsolationError("derivative vanished at a computed root",
                                         bracket=(qlo, qhi))
            root = round_to(x, prec)
            residual = max(residual, abs(fx / dfx) + abs(root - x))
            positives.append((root, x, dfx))
        residual = round_to(residual, prec)
        if residual > tol:
            raise RootIsolationError(
                f"residual {residual:.3e} exceeds the promised 1e-{prec - 5}: "
                f"the evaluation of the polynomial lost too many digits"
            )
        if positives and positives[-1][0] >= 1:
            raise RootIsolationError(
                f"root {positives[-1][0]} is not inside the open interval (-1, 1)"
            )
        # W' has the parity opposite to W's: W'(-x) = -W'(x) when W is even.
        triples = [(-r, -x, d if s else -d) for r, x, d in reversed(positives)]
        if s == 1:
            triples.append((Decimal(0), Decimal(0), evaluate(Decimal(0))[1]))
        triples.extend(positives)
    roots, iterates, derivatives = zip(*triples)
    return RootSet(roots=roots, residual_bound=residual, iterates=iterates,
                   derivatives=derivatives)
