"""Formal descending series and the polynomial/tail product split.

A :class:`SeriesTail` holds the first K coefficients of a series in
descending powers: ``coeffs[m]`` multiplies ``x**-(m+1)``.  The moment
series of the two integration conventions live here, as does the central
operation of the whole construction: multiplying a node polynomial by a
moment series and splitting the result into its polynomial part and its
descending tail.  Truncation lengths are explicit everywhere; an operation
that would need more coefficients than its input carries raises instead of
silently returning garbage.

All series arithmetic is exact (Fraction coefficients).  Decimal values
enter only through :func:`cauchy_expansion_of_rule` when a rule has no
exact node data.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .ratpoly import RatPoly


@dataclass(frozen=True)
class SeriesTail:
    """Truncated series in descending powers; coeffs[m] multiplies x**-(m+1)."""

    coeffs: tuple

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, m: int):
        return self.coeffs[m]

    def first_nonzero(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all are zero."""
        for m, c in enumerate(self.coeffs):
            if c != 0:
                return m
        return None


def moment_series_t(count: int) -> SeriesTail:
    """Moments of dt on [0, 1]: coefficient of t**-(m+1) is 1/(m+1)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return SeriesTail(tuple(Fraction(1, m + 1) for m in range(count)))


def moment_series_u(count: int) -> SeriesTail:
    """Moments of the half measure (1/2)du on [-1, 1]; odd moments vanish."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return SeriesTail(
        tuple(Fraction(1, m + 1) if m % 2 == 0 else Fraction(0) for m in range(count))
    )


def product_split(
    node_poly: RatPoly, moments: SeriesTail, tail_len: int | None = None
) -> tuple[RatPoly, SeriesTail]:
    """Split node_poly * moments into (polynomial part, descending tail).

    With node_poly of degree d and moment coefficients mu[j], the polynomial
    part has coefficient sum(c[i] * mu[i-p-1], i > p) at degree p (so degree
    d-1, and leading coefficient mu[0] for monic input), and the tail has
    coefficient sum(c[i] * mu[q+i], 0 <= i <= d) at x**-(q+1).  Computing L
    tail coefficients therefore consumes moments up to index d+L-1; the
    moment series must carry at least d + L coefficients or a ValueError is
    raised.  When ``tail_len`` is omitted, every tail coefficient the input
    supports is produced.
    """
    d = node_poly.degree  # -1 for the zero polynomial, whose tail is all zeros
    room = len(moments) - max(d, 0)  # tail coefficients the moments support
    L = room if tail_len is None else tail_len
    if not 0 <= L <= room:
        raise ValueError(
            f"tail length {L} not in 0..{room}" if L < 0 <= room else
            f"moment series too short: need {max(d, 0) + max(L, 0)} coefficients, "
            f"have {len(moments)}"
        )
    # Integer kernel: with c[i] = a[i]/den and mu[j] = M[j]/big over the
    # least common denominator big, every output is one integer dot product
    # over den*big, reduced once.  The zero polynomial has no numerators a,
    # so every dot product is empty and the length of mu does not matter.
    a, den = node_poly.numerators
    mu = moments.coeffs[:d + L]
    big = lcm(*(m.denominator for m in mu))
    M = [m.numerator * (big // m.denominator) for m in mu]
    scale = den * big
    poly_part = RatPoly.from_numerators([sum(map(mul, a[p + 1:], M)) for p in range(d)], scale)
    tail = tuple(Fraction(sum(map(mul, a, M[q:q + d + 1])), scale) for q in range(L))
    return poly_part, SeriesTail(tail)


def _power_series_div(num: Sequence[Fraction], den: Sequence[Fraction], count: int):
    # Ascending power-series division; den[0] must be nonzero.  Zero terms
    # are skipped: an error series starts with as many zeros as the rule's
    # degree of precision, and a zero product leaves acc unchanged.
    out = []
    for j in range(count):
        acc = num[j] if j < len(num) else Fraction(0)
        for i in range(1, min(j, len(den) - 1) + 1):
            if out[j - i]:
                acc -= den[i] * out[j - i]
        out.append(acc / den[0])
    return out


def divide_tail_by_poly(tail: SeriesTail, den: RatPoly, out_len: int) -> SeriesTail:
    """First ``out_len`` coefficients of the descending series tail / den.

    The quotient has its first deg(den) coefficients identically zero; the
    remaining ones come from ordinary ascending power-series division of the
    reversed coefficient sequences.  The tail must carry at least
    out_len - deg(den) coefficients.
    """
    if den.is_zero:
        raise ZeroDivisionError("division of a series by the zero polynomial")
    D = den.degree
    if out_len <= D:
        return SeriesTail((Fraction(0),) * out_len)
    need = out_len - D
    if len(tail) < need:
        raise ValueError(
            f"tail too short: need {need} coefficients, have {len(tail)}"
        )
    rev_den = tuple(reversed(den.coeffs))
    quot = _power_series_div(tail.coeffs, rev_den, need)
    return SeriesTail((Fraction(0),) * D + tuple(quot))


def rational_function_tail(num: RatPoly, den: RatPoly, count: int) -> SeriesTail:
    """Descending expansion of num/den at infinity, requiring deg num < deg den.

    num/den is x**D times the tail num(x) * x**-D over den, D = deg den; that
    tail has num[D-1-q] at x**-(q+1) and exact zeros beyond, so one division
    by den to count + D terms, less its first D, gives the expansion.
    """
    if den.is_zero:
        raise ZeroDivisionError("expansion of a quotient with zero denominator")
    D = den.degree
    if num.degree >= D:
        raise ValueError("numerator degree must be below denominator degree")
    zero = (Fraction(0),)
    tail = zero * (D - 1 - num.degree) + tuple(reversed(num.coeffs)) + zero * count
    return SeriesTail(divide_tail_by_poly(SeriesTail(tail), den, count + D).coeffs[D:])


def cauchy_expansion_of_rule(rule, count: int) -> SeriesTail:
    """Rule moments as a descending series: coeffs[m] = sum_j R_j * a_j**m.

    Exact (Fraction) when the rule carries exact nodes and weights, Decimal
    otherwise; the ambient decimal context governs the inexact path.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    nodes = getattr(rule, "nodes_exact", None)
    weights = getattr(rule, "weights_exact", None)
    kind = Fraction
    if nodes is None or weights is None:
        nodes, weights, kind = rule.nodes, rule.weights, Decimal
    # terms[j] = R_j * a_j**m, one multiplication per node and power.
    terms = list(weights)
    out = []
    for _ in range(count):
        out.append(sum(terms, kind(0)))
        terms = [t * a for t, a in zip(terms, nodes)]
    return SeriesTail(tuple(out))
