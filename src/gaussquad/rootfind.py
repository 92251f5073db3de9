"""High-precision real roots of even/odd node polynomials on (-1, 1).

The polynomials handled here have a definite parity, all roots real and
simple inside (-1, 1), and at most one root at the origin: W(u) =
u**s * Q(u**2) with s in {0, 1}.  The caller passes one bracket per root of
Q in q = u**2 and proves it: for Legendre polynomials, gausscf proves
Bruns' separators by their position.  Each root is polished in decimal
arithmetic by plain Newton from a caller-supplied start, with the caller's
evaluation of (W, W'), on a precision ladder: Newton iterates on the lowest
rung, at 24 digits or more, until its step is below half of them, then
takes one step per rung, each about twice the one below, up to the working
precision, where it iterates until the step is negligible; that last
evaluation serves the gate below.  An iterate that leaves its bracket, a
vanishing W', or a rung that does not settle within a few steps raises
:class:`RootIsolationError` naming the bracket.  Negative roots come from
mirroring, the one use of parity, and a root at the origin is exact.

Floats may propose starts, but never decide a result.  The module never
returns a root r rounded from the final iterate x unless |W(x)/W'(x)| +
|r - x|, a bound on the distance from r to the root up to second order, is
within the promised 10**-(prec-5); it raises :class:`RootIsolationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from typing import Callable, Sequence

from .numerics import resolve_precision, round_to, working_context

# The lowest rung of the precision ladder has at least this many digits,
# half again a float's 16, so that Newton from a float start fills it in
# one or two steps.
_LOWEST_RUNG = 24

# Evaluations allowed on one rung.  From a float start the lowest rung
# settles in one or two, and the top rung takes one step and the gate's
# evaluation; the rest is room for a start from a poor guess.
_RUNG_STEPS = 8

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


def _polish(evaluate: Evaluator, lo: Decimal, hi: Decimal,
            start: Decimal) -> tuple[Decimal, Decimal, Decimal]:
    # Plain Newton inside (lo, hi), which the caller has proven to hold one
    # root of W.  The start is clipped to the inner 7/8 of the bracket, and
    # every iterate must stay strictly inside it, so an evaluator is never
    # asked for a value at a bracket end such as u = 1.
    #
    # Evaluations climb _ladder up to the ambient precision.  The lowest
    # rung iterates until the step is below half its digits; each rung
    # above takes one step.  The top rung iterates until |W/W'| at the
    # iterate is within six digits of the ambient precision, and returns
    # (x, W(x), W'(x)) from that evaluation.
    rungs = _ladder(getcontext().prec)
    top = len(rungs) - 1
    settled = Decimal(1).scaleb(-(rungs[0] // 2))
    converged = Decimal(1).scaleb(6 - rungs[top])
    margin = (hi - lo) / 16
    x = min(max(start, lo + margin), hi - margin)
    rung = steps = 0
    while True:
        if steps == _RUNG_STEPS:
            raise RootIsolationError(f"Newton did not settle in {_RUNG_STEPS} steps at "
                                     f"{rungs[rung]} digits", bracket=(lo, hi))
        steps += 1
        with localcontext() as ctx:
            ctx.prec = rungs[rung]
            fx, dfx = evaluate(x)
            if dfx == 0:
                raise RootIsolationError(f"W' vanished at the Newton iterate {x}",
                                         bracket=(lo, hi))
            step = fx / dfx
            if rung == top and abs(step) <= converged:
                return x, fx, dfx
            x -= step
        if not lo < x < hi:
            raise RootIsolationError(f"a Newton step left the bracket, to {x}", bracket=(lo, hi))
        if rung < top and (rung > 0 or abs(step) <= settled):
            rung, steps = rung + 1, 0


def real_roots_symmetric(parity: int, prec: int | None, evaluate: Evaluator, *,
                         brackets: Sequence[tuple[float, float]],
                         starts: Sequence[Decimal]) -> RootSet:
    """All real roots of W(u) = u**parity * Q(u**2), one root of Q per bracket.

    ``brackets`` are pairs (lo, hi) in q = u**2, rising in [0, 1], with ends
    that Decimal takes exactly; the caller proves that each holds exactly
    one root of Q.  ``starts``, one per bracket, start Newton in the u-image
    of their bracket, which every iterate must keep strictly inside.  ``evaluate(x)`` returns (W(x), W'(x))
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
        for (qlo, qhi), start in zip(brackets, starts):
            x, fx, dfx = _polish(evaluate, Decimal(qlo).sqrt(), Decimal(qhi).sqrt(), start)
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
