"""Interpolatory quadrature rules, Newton-Cotes rules, and error series.

A rule lives in one of two conventions:

* ``T01``: variable t on [0, 1] with unit measure dt;
* ``U11``: variable u on [-1, 1] with the half measure (1/2)du.

Both measures have total mass 1, so weights sum to 1 either way and are
unchanged by the affine bridge t = (u+1)/2 between the conventions.

Weights come from the product-split construction: with T the monic node
polynomial and T' the polynomial part of T times the moment series, the
weight at node a is T'(a) / (dT/dt)(a).  This runs in exact rational
arithmetic for every rule, whatever type its nodes have: a Decimal node is the
rational it denotes.  The rule keeps its exact nodes, weights and node
polynomial, and each node and weight is rounded once to the rule's precision.

Error coefficients k[m] (true m-th moment minus the rule's m-th moment) are
always computed two ways, once directly from the definition and once by
long division of the split tail by the node polynomial, and the two results
must agree; a disagreement signals an internal bug and raises.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field, replace
from decimal import Context, Decimal, InvalidOperation, localcontext
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from . import numerics
from .momseries import (
    SeriesTail,
    _split_tail,
    cauchy_expansion_of_rule,
    divide_tail_by_poly,
    moment_series_t,
    moment_series_u,
    product_split,
)
from .numerics import _as_decimal, resolve_precision, round_to, to_hp, working_context
from .ratpoly import RatPoly

T01 = "t01"
U11 = "u11"

_INTERVALS = {T01: (0, 1), U11: (-1, 1)}


def _moments(convention: str, count: int) -> SeriesTail:
    if convention == T01:
        return moment_series_t(count)
    if convention == U11:
        return moment_series_u(count)
    raise ValueError(f"unknown convention {convention!r}")


@dataclass(frozen=True)
class QuadRule:
    """An immutable quadrature rule.

    Decimal nodes and weights are always present.  Every interpolatory rule,
    and the one-point Gauss rule, also carries its exact Fraction nodes and
    weights; every rule the library builds carries its exact monic node
    polynomial.  A Gauss rule keeps ``iterates``, the unrounded values its
    nodes were rounded from, outside ``repr`` and ``==``.  ``degree`` is the
    claimed degree of precision.
    """

    convention: str
    nodes: tuple[Decimal, ...]
    weights: tuple[Decimal, ...]
    nodes_exact: tuple[Fraction, ...] | None = None
    weights_exact: tuple[Fraction, ...] | None = None
    nodepoly: RatPoly | None = None
    degree: int = 0
    iterates: tuple[Decimal, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.convention not in _INTERVALS:
            raise ValueError(f"unknown convention {self.convention!r}")
        if not self.nodes or len(self.nodes) != len(self.weights):
            raise ValueError("rule needs equally many nodes and weights, at least one")
        if self.iterates is not None and len(self.iterates) != len(self.nodes):
            raise ValueError("rule needs one iterate per node")
        for lo, hi in zip(self.nodes, self.nodes[1:]):
            if not lo < hi:
                raise ValueError("nodes must be strictly increasing")
        with localcontext(Context(prec=80)):
            mass = sum(self.weights, Decimal(0))
            off = abs(mass - 1)
        if off > Decimal("1e-25"):
            raise ValueError(f"weights sum to {mass}, expected 1")

    @property
    def npoints(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class ErrorSeries(SeriesTail):
    """Error coefficients k[m] for the monomials x**m of the rule's variable."""

    convention: str

    @property
    def k(self) -> tuple[Fraction, ...]:
        """The coefficients: k[m] is the rule's error on x**m."""
        return self.coeffs


def _carried_digits(rule: QuadRule, prec: int) -> int:
    # The most significant digits any node or weight carries, capped at prec.
    return min(prec, max(len(x.as_tuple().digits) for x in rule.nodes + rule.weights))


def _check_interval(nodes, convention: str) -> None:
    lo, hi = _INTERVALS[convention]
    for a in nodes:
        if a < lo or a > hi:
            warnings.warn(
                f"node {a} lies outside the {convention} interval; rule is still defined",
                RuntimeWarning,
                stacklevel=3,
            )


def interpolatory_rule(
    nodes: Sequence, convention: str = T01, prec: int | None = None
) -> QuadRule:
    """Build the unique interpolatory rule on the given distinct nodes.

    Each node is the rational it denotes: an int or a Fraction as given, any
    other value as the Decimal it gives at the working precision.  The rule
    keeps these exact nodes, their exact weights and the monic node
    polynomial, and rounds each node and weight once to ``prec`` digits.
    ``nodes`` is read once, so an iterator will do.  A NaN or an infinite
    node raises ValueError.
    """
    if convention not in _INTERVALS:
        raise ValueError(f"unknown convention {convention!r}")
    prec = resolve_precision(prec)
    with localcontext(working_context(prec)):
        given = [Fraction(a) if isinstance(a, (int, Fraction)) else _as_decimal(a) for a in nodes]
        if not given:
            raise ValueError("at least one node is required")
        for a in given:
            if isinstance(a, Decimal) and not a.is_finite():
                raise ValueError(f"node {a} is not a finite number")
        given.sort()
        pts = [Fraction(a) for a in given]
        if any(a == b for a, b in zip(pts, pts[1:])):
            raise ValueError("duplicate nodes")
        _check_interval(given, convention)
        node_poly = RatPoly.from_roots(pts)
        tprime, _ = product_split(node_poly, _moments(convention, len(pts)), tail_len=0)
        deriv = node_poly.derivative()
        wts = [tprime.eval(a) / deriv.eval(a) for a in pts]
    return QuadRule(
        convention=convention,
        nodes=tuple(to_hp(a, prec) for a in given),
        weights=tuple(to_hp(w, prec) for w in wts),
        nodes_exact=tuple(pts),
        weights_exact=tuple(wts),
        nodepoly=node_poly,
        degree=len(pts) - 1,
    )


def newton_cotes(n: int, prec: int | None = None) -> QuadRule:
    """Closed Newton-Cotes rule on the n+1 equispaced nodes i/n of [0, 1].

    Weights are exact rationals.  For even n the rule picks up one bonus
    degree of precision by symmetry, so that is what the rule claims.
    """
    if n < 1:
        raise ValueError("closed Newton-Cotes rules need n >= 1")
    rule = interpolatory_rule([Fraction(i, n) for i in range(n + 1)], T01, prec)
    return replace(rule, degree=n + 1 if n % 2 == 0 else n)


def error_coefficients(rule: QuadRule, count: int, prec: int | None = None) -> ErrorSeries:
    """Error coefficients k[0..count-1] of the rule, exact.

    The values come from long division of the product-split tail (the tail
    alone; its polynomial part is not built) by the node polynomial; the
    defining moment differences are recomputed independently and any
    disagreement raises ArithmeticError naming both values.  The rule's own
    moments are exact when it carries exact nodes and weights, as every
    interpolatory rule does, and otherwise the fixed-point power sums of
    :func:`cauchy_expansion_of_rule` at ``prec`` plus the guard digits,
    compared in decimal.  The decimal check allows 10**-(d-8), where d is
    the most significant digits any node or weight carries, capped at
    ``prec``.
    """
    prec = resolve_precision(prec)
    node_poly = rule.nodepoly
    if node_poly is None and rule.nodes_exact is not None:
        node_poly = RatPoly.from_roots(rule.nodes_exact)
    if node_poly is None:
        raise ValueError("rule carries no exact node polynomial")
    D = node_poly.degree
    moments = _moments(rule.convention, max(count, D))
    tail = _split_tail(node_poly, moments, max(count - D, 0))
    theta = divide_tail_by_poly(tail, node_poly, count)
    # The rule's own moments take the exact path exactly when the rule is exact.
    exact = rule.nodes_exact is not None and rule.weights_exact is not None
    digits = _carried_digits(rule, prec)
    conv, tol = (Fraction, 0) if exact else (_as_decimal, Decimal(1).scaleb(-(digits - 8)))
    with localcontext(working_context(prec)):
        sums = cauchy_expansion_of_rule(rule, count)
        for m in range(count):
            direct = conv(moments[m]) - sums[m]
            if abs(direct - conv(theta[m])) > tol:
                raise ArithmeticError(
                    f"error coefficient mismatch at m={m}: direct {direct}, series {theta[m]}"
                )
    return ErrorSeries(theta.coeffs, rule.convention)


def _node_values(rule: QuadRule, f: Callable[[Decimal], Decimal], g, delta):
    # Ambient context.  Yields (delta, R_j, f(x_j)) with node j mapped into
    # [g, g+delta]: x = g + delta*a for T01, x = g + delta*(u+1)/2 for U11.
    gd = _as_decimal(g)
    dd = _as_decimal(delta)
    for name, value in (("g", gd), ("delta", dd)):
        if not value.is_finite():
            raise ValueError(f"{name} {value} is not a finite number")
    if dd == 0:
        raise ValueError("delta must be nonzero")
    for j, (a, w) in enumerate(zip(rule.nodes, rule.weights)):
        x = gd + dd * a if rule.convention == T01 else gd + dd * (a + 1) / 2
        try:
            y = f(x)
        except Exception as exc:
            raise RuntimeError(f"integrand evaluation failed at node {j} (x={x})") from exc
        yield dd, w, y


def apply_rule(
    rule: QuadRule,
    f: Callable[[Decimal], Decimal],
    g=0,
    delta=1,
    prec: int | None = None,
) -> Decimal:
    """Apply the rule to the integral of f over [g, g+delta].

    Nodes are mapped into the target interval (x = g + delta*a for T01,
    x = g + delta*(u+1)/2 for U11) and the weighted sum is scaled by delta.
    A failure inside the integrand is re-raised with the node index attached.
    """
    prec = resolve_precision(prec)
    with localcontext(working_context(prec)):
        acc = Decimal(0)
        for dd, w, y in _node_values(rule, f, g, delta):
            acc += w * y
        out = dd * acc
    return round_to(out, prec)


def node_terms(
    rule: QuadRule,
    f: Callable[[Decimal], Decimal],
    g=0,
    delta=1,
    prec: int | None = None,
) -> list[Decimal]:
    """Per-node contributions delta * R_j * f(x_j), in node order."""
    prec = resolve_precision(prec)
    with localcontext(working_context(prec)):
        return [round_to(dd * w * y, prec) for dd, w, y in _node_values(rule, f, g, delta)]


def to_convention(rule: QuadRule, convention: str, prec: int | None = None) -> QuadRule:
    """Map a rule to the other convention via t = (u+1)/2; weights are unchanged.

    Each node is mapped from its exact value, else from its iterate, else from
    itself, and rounded once: to ``prec`` digits, but from an iterate to no more
    digits than the rule's nodes and weights carry.  A rounded node is the last
    resort, as its rounding error swamps a mapped node near 0.
    """
    if convention not in _INTERVALS:
        raise ValueError(f"unknown convention {convention!r}")
    if rule.convention == convention:
        return rule
    prec = resolve_precision(prec)
    # to_new maps Fraction and Decimal nodes alike; the old variable is
    # scale * new + shift, which carries the node polynomial across.
    if convention == T01:
        to_new, scale, shift = (lambda b: (b + 1) / 2), 2, -1
    else:
        to_new, scale, shift = (lambda a: 2 * a - 1), Fraction(1, 2), Fraction(1, 2)
    source = rule.nodes_exact or rule.iterates or rule.nodes
    prec = _carried_digits(rule, prec) if source is rule.iterates else prec
    with localcontext(working_context(prec)):
        return replace(
            rule,
            convention=convention,
            nodes=tuple(to_hp(to_new(x), prec) for x in source),
            nodes_exact=None if rule.nodes_exact is None else tuple(map(to_new, rule.nodes_exact)),
            nodepoly=None if rule.nodepoly is None else (
                rule.nodepoly.compose_affine(scale, shift).scale(Fraction(1, scale) ** rule.npoints)
            ),
            iterates=None if rule.iterates is None else tuple(map(to_new, rule.iterates)),
        )


# -- built-in integrands -------------------------------------------------


# A coefficient of a ``poly:`` spec may span at most this many digits: its
# significant digits plus the magnitude of its exponent.  That bounds the
# numerator and denominator of its Fraction, which Fraction builds in full
# (Fraction('1e9999999') takes seconds), well inside the 4300 digits that
# Python converts to a string.  A ``p/q`` is bounded by that conversion alone.
POLY_MAX_DIGITS = 1000

# A coefficient read straight into integers: an optional sign, ASCII digits
# and an optional ``/`` with a nonzero ASCII-digit denominator.  Every other
# form (decimals, exponents, underscores, other digits, a zero denominator,
# malformed text) is left to Decimal and Fraction.
_INT_OR_RATIO = re.compile(r"([+-]?)([0-9]+)(?:/(0*[1-9][0-9]*))?")


def _size_error(text: str) -> ValueError:
    return ValueError(f"polynomial coefficient {text!r} is not a decimal of at most "
                      f"{POLY_MAX_DIGITS} digits")


def _check_coefficient_size(text: str) -> None:
    try:
        _, digits, exponent = Decimal(text).as_tuple()
        # NaN and Infinity carry a letter for an exponent; Fraction refuses them.
        too_big = isinstance(exponent, int) and len(digits) + abs(exponent) > POLY_MAX_DIGITS
    except InvalidOperation:
        # p/q is left to Fraction.  A text with an exponent that Decimal
        # refuses is malformed or has an exponent beyond Decimal's range.
        too_big = "e" in text.lower()
    if too_big:
        raise _size_error(text)


def _bad_list(body: str) -> ValueError:
    return ValueError(f"bad polynomial coefficient list {body!r}")


def parse_poly_spec(spec: str) -> RatPoly:
    """Parse ``poly:c0,c1,...`` coefficient lists (ascending, rationals).

    Each coefficient is an integer, a decimal (exponent form allowed) or
    ``p/q``; an integer or decimal spanning more than ``POLY_MAX_DIGITS``
    digits is refused with ValueError before its value is built.  A list of
    ASCII integers and ``p/q`` alone is read with ``int`` onto the integer
    kernel; any other form sends the whole list through Fraction.  Either
    way the values and the errors are the same.
    """
    body = spec.split(":", 1)[1] if spec.startswith("poly:") else spec
    parts = [part.strip() for part in body.split(",") if part.strip()]
    if not parts:
        raise ValueError("polynomial integrand needs at least one coefficient")
    matches = [_INT_OR_RATIO.fullmatch(part) for part in parts]
    if not all(matches):
        for part in parts:
            _check_coefficient_size(part)
        try:
            return RatPoly(Fraction(part) for part in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise _bad_list(body) from exc
    groups = [m.groups() for m in matches]
    # Every size error comes before any conversion error, as on the Fraction path.
    for part, (_, digits, den) in zip(parts, groups):
        if den is None and len(digits.lstrip("0")) > POLY_MAX_DIGITS:
            raise _size_error(part)
    try:
        pairs = [(-int(digits) if sign == "-" else int(digits), int(den or 1))
                 for sign, digits, den in groups]
    except ValueError as exc:  # past the interpreter's int conversion limit
        raise _bad_list(body) from exc
    den = lcm(*(q for _, q in pairs))
    return RatPoly.from_numerators((p * (den // q) for p, q in pairs), den)


def named_integrand(name: str, prec: int | None = None) -> Callable[[Decimal], Decimal]:
    """Resolve a registry name to an evaluation callback over Decimal.

    Known names: ``reciprocal-log`` (1/ln x), ``runge`` (1/(1+25x^2)) and
    ``poly:<c0,c1,...>`` with rational coefficients.
    """
    prec = resolve_precision(prec)
    if name == "reciprocal-log":
        return lambda x: 1 / numerics.hp_ln(x, prec)
    if name == "runge":
        return lambda x: 1 / (1 + 25 * x * x)
    if name.startswith("poly:"):
        poly = parse_poly_spec(name)
        return poly.eval_hp
    raise ValueError(f"unknown integrand {name!r}")
