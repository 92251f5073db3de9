"""High-precision real roots of even/odd node polynomials on (-1, 1).

The polynomials handled here have a definite parity, all roots real and
simple inside (-1, 1), and at most one root at the origin: W(u) =
u**s * Q(u**2) with s in {0, 1}.  The caller passes one bracket per root of
Q in q = u**2, with the sign of Q at its lower end, and proves them: for
Legendre polynomials, gausscf proves Bruns' separators by their position.
Each bracket is polished in decimal arithmetic by safeguarded Newton from a
caller-supplied start, with the caller's evaluation of (W, W'): each
evaluation narrows the bracket, and a step that would leave it is replaced
by one bisection step, after which Newton resumes.  Newton climbs a
precision ladder: it iterates on the lowest rung, at 24 digits or more,
until its step is below half of them, then takes one step per rung, each
about twice the one below, up to the working precision, where it iterates
until the step is negligible; that last evaluation serves the gate below.
Negative roots come from mirroring, the one use of parity, and a root at
the origin is exact.

Floats may propose starts, but never decide a result.  The module never
returns a root r rounded from the final iterate x unless |W(x)/W'(x)| +
|r - x|, a bound on the distance from r to the root up to second order, is
within the promised 10**-(prec-5); it raises :class:`RootIsolationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from typing import Callable, Sequence

from .numerics import MAX_PRECISION, resolve_precision, round_to, working_context

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


def real_roots_symmetric(parity: int, prec: int | None, evaluate: Evaluator, *,
                         brackets: Sequence[tuple[float, float, int]],
                         starts: Sequence[Decimal]) -> RootSet:
    """All real roots of W(u) = u**parity * Q(u**2), one root of Q per bracket.

    ``brackets`` are triples (lo, hi, sign of Q at lo) in q = u**2, rising in
    [0, 1], with ends that Decimal takes exactly; the caller proves that each
    holds exactly one root of Q.  ``starts``, one per bracket, start Newton
    in the u-image of their bracket.  ``evaluate(x)`` returns (W(x), W'(x))
    under the ambient context, which Newton sets to each rung of its ladder;
    it must keep its relative accuracy near the roots, which Horner's scheme
    on the monomial coefficients does not at large degree.  The roots rise
    strictly and are symmetric about the origin; each is rounded from a
    final iterate x with |W(x)/W'(x)| + |r - x| <= 10**-(prec-5), or
    RootIsolationError is raised.  ``iterates`` and ``derivatives`` hold
    those x and W'(x), mirrored for the negative roots.  Identical input
    and precision give bit-identical output.
    """
    prec = resolve_precision(prec)
    if len(starts) != len(brackets):
        raise ValueError(f"need {len(brackets)} starts, one per bracket, got {len(starts)}")
    tol = Decimal(1).scaleb(-(prec - 5))
    positives: list[tuple[Decimal, Decimal, Decimal]] = []
    residual = Decimal(0)
    with localcontext(working_context(prec)):
        for (qlo, qhi, sign_lo), start in zip(brackets, starts):
            # Sign of W on (0,1) matches the sign of Q at the q-bracket ends.
            x, fx, dfx = _polish(evaluate, Decimal(qlo).sqrt(), Decimal(qhi).sqrt(),
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
        triples = [(-r, -x, d if parity else -d) for r, x, d in reversed(positives)]
        if parity == 1:
            triples.append((Decimal(0), Decimal(0), evaluate(Decimal(0))[1]))
        triples.extend(positives)
    roots, iterates, derivatives = zip(*triples)
    return RootSet(roots=roots, residual_bound=residual, iterates=iterates,
                   derivatives=derivatives)
