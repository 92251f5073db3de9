"""High-precision real roots of even/odd node polynomials on (-1, 1).

The polynomials handled here have a definite parity, all roots real and
simple inside (-1, 1), and at most one root at the origin.  Parity is
exploited: W(u) = u**s * Q(u**2) with s in {0, 1}, the roots of Q are
isolated in (0, 1) by exact sign changes of Q at rational grid points (so
isolation can never be fooled by rounding), and each bracket is polished
with a bracket-guarded Newton iteration in decimal arithmetic.  Negative
roots come from mirroring, and a root at the origin is exact.

Violations of the expected root structure are detected and reported as
:class:`RootIsolationError`; the module never silently returns a wrong
root count.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .numerics import _as_decimal, resolve_precision, round_to, working_context
from .ratpoly import RatPoly

_MAX_PANELS = 1024
_MAX_NEWTON = 200
_MAX_BISECT = 4000


class RootIsolationError(RuntimeError):
    """Raised when isolation or polishing cannot certify the expected roots."""

    def __init__(self, message: str, bracket: tuple | None = None):
        super().__init__(message if bracket is None else f"{message} (bracket {bracket})")
        self.bracket = bracket


@dataclass(frozen=True)
class RootSet:
    """Sorted roots plus the largest Newton residual |W(r)/W'(r)| observed."""

    roots: tuple[Decimal, ...]
    residual_bound: Decimal


def _parity_split(poly: RatPoly) -> tuple[int, RatPoly]:
    # W(u) = u**s * Q(u**2); raises if coefficients of mixed parity appear.
    deg = poly.degree
    s = deg % 2
    for i, c in enumerate(poly.coeffs):
        if c != 0 and i % 2 != s:
            raise ValueError("polynomial does not have a definite parity")
    return s, RatPoly(poly.coeffs[s::2])


def _isolate_unit_interval(q: RatPoly) -> list[tuple[Fraction, Fraction]]:
    # Exact sign-change brackets for all roots of q in (0, 1).
    want = q.degree
    if want == 0:
        return []
    panels = 16
    grid = [Fraction(j, panels) for j in range(panels + 1)]
    vals = [q.eval(x) for x in grid]
    while True:
        brackets: list[tuple[Fraction, Fraction]] = []
        for j in range(panels):
            if vals[j] == 0:
                # A rational root sitting exactly on the grid.
                brackets.append((grid[j], grid[j]))
            elif (vals[j] > 0) != (vals[j + 1] > 0) and vals[j + 1] != 0:
                brackets.append((grid[j], grid[j + 1]))
        if vals[-1] == 0:
            brackets.append((grid[-1], grid[-1]))
        seen = len(brackets)
        if seen == want:
            return brackets
        # More crossings than roots would mean a non-real-rooted input.
        if seen > want or panels == _MAX_PANELS:
            break
        # Double the panels: the old grid points are the even ones of the
        # new grid, so only the odd ones need evaluating.
        panels *= 2
        odd = [Fraction(j, panels) for j in range(1, panels, 2)]
        grid = [x for pair in zip(grid, odd) for x in pair] + [grid[-1]]
        vals = [v for pair in zip(vals, [q.eval(x) for x in odd]) for v in pair] + [vals[-1]]
    raise RootIsolationError(
        f"root isolation failed: expected {want} sign changes in (0, 1), "
        f"found {seen} with up to {panels} panels"
    )


def _polish(w: RatPoly, wd: RatPoly, lo: Decimal, hi: Decimal,
            sign_lo: int, tol: Decimal) -> Decimal:
    # Bracket-guarded Newton on w over [lo, hi]; falls back to bisection.
    x = (lo + hi) / 2
    for _ in range(_MAX_NEWTON):
        fx = w.eval_hp(x)
        dfx = wd.eval_hp(x)
        if dfx == 0:
            break
        step = fx / dfx
        x_new = x - step
        if x_new < lo or x_new > hi:
            break
        if abs(step) <= tol:
            return x_new
        # Keep the bracket current so a later fallback stays valid.
        if (fx > 0) == (sign_lo > 0):
            lo = x
        else:
            hi = x
        x = x_new
    # Bisection fallback: linear but unconditionally convergent.
    for _ in range(_MAX_BISECT):
        if hi - lo <= tol:
            return (lo + hi) / 2
        mid = (lo + hi) / 2
        fm = w.eval_hp(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (sign_lo > 0):
            lo = mid
        else:
            hi = mid
    raise RootIsolationError("bisection stalled", bracket=(lo, hi))


def real_roots_symmetric(poly: RatPoly, prec: int | None = None) -> RootSet:
    """All real roots of a definite-parity polynomial with roots in (-1, 1).

    The returned roots are strictly increasing, symmetric about the origin,
    and each satisfies |poly(r)/poly'(r)| <= 10**-(prec-5).  Identical input
    and precision give bit-identical output.
    """
    prec = resolve_precision(prec)
    if poly.is_zero or poly.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if poly.leading != 1:
        raise ValueError("polynomial must be monic")
    s, q = _parity_split(poly)
    brackets = _isolate_unit_interval(q)
    deriv = poly.derivative()
    tol = Decimal(1).scaleb(-(prec - 5))
    positives: list[Decimal] = []
    residual = Decimal(0)
    with localcontext(working_context(prec)):
        for qlo, qhi in brackets:
            if qlo == qhi:
                root = _as_decimal(qlo).sqrt()
            else:
                lo = _as_decimal(qlo).sqrt()
                hi = _as_decimal(qhi).sqrt()
                # Sign of W on (0,1) matches the sign of Q at the q-bracket ends.
                sign_lo = 1 if q.eval(qlo) > 0 else -1
                root = _polish(poly, deriv, lo, hi, sign_lo, tol)
            dfx = deriv.eval_hp(root)
            if dfx == 0:
                raise RootIsolationError("derivative vanished at a computed root",
                                         bracket=(qlo, qhi))
            residual = max(residual, abs(poly.eval_hp(root) / dfx))
            positives.append(round_to(root, prec))
        positives.sort()
        if positives and positives[-1] >= 1:
            raise RootIsolationError(
                f"root {positives[-1]} is not inside the open interval (-1, 1)"
            )
        roots = [-r for r in reversed(positives)]
        if s == 1:
            roots.append(Decimal(0))
        roots.extend(positives)
        if len(roots) != poly.degree:
            raise RootIsolationError(
                f"found {len(roots)} roots for a degree {poly.degree} polynomial"
            )
        residual = round_to(residual, prec)
    return RootSet(roots=tuple(roots), residual_bound=residual)
