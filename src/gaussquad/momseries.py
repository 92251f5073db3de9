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
exact node data, and even there the power sums run on Python integers in
binary fixed point: each Decimal node and weight is converted once,
exactly, and only the sums come back as Decimals at the ambient precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .ratpoly import RatPoly

# Wide enough that a Decimal times a power of two is never rounded.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


@dataclass(frozen=True)
class SeriesTail:
    """Truncated series in descending powers; coeffs[m] multiplies x**-(m+1)."""

    coeffs: tuple

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, m: int):
        return self.coeffs[m]


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


def _split_kernel(node_poly: RatPoly, moments: SeriesTail, tail_len: int | None):
    # The split on integers: with node_poly's coefficients a[i]/den and the
    # moments M[j]/big over their least common denominator big, every output
    # is one integer dot product over scale = den*big, reduced once.  Returns
    # (a, M, scale, tail), so that product_split can build the polynomial
    # part from the same integers.  The zero polynomial has no numerators a,
    # so every dot product is empty and the length of the moments does not
    # matter.
    d = node_poly.degree  # -1 for the zero polynomial, whose tail is all zeros
    room = len(moments) - max(d, 0)  # tail coefficients the moments support
    L = room if tail_len is None else tail_len
    if not 0 <= L <= room:
        raise ValueError(
            f"tail length {L} not in 0..{room}" if L < 0 <= room else
            f"moment series too short: need {max(d, 0) + max(L, 0)} coefficients, "
            f"have {len(moments)}"
        )
    a, den = node_poly.numerators
    mu = moments.coeffs[:d + L]
    big = lcm(*(m.denominator for m in mu))
    M = [m.numerator * (big // m.denominator) for m in mu]
    scale = den * big
    tail = tuple(Fraction(sum(map(mul, a, M[q:q + d + 1])), scale) for q in range(L))
    return a, M, scale, SeriesTail(tail)


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
    a, M, scale, tail = _split_kernel(node_poly, moments, tail_len)
    poly = [sum(map(mul, a[p + 1:], M)) for p in range(len(a) - 1)]
    return RatPoly.from_numerators(poly, scale), tail


def _split_tail(node_poly: RatPoly, moments: SeriesTail, tail_len: int) -> SeriesTail:
    # The tail of product_split alone, for callers that discard its polynomial part.
    return _split_kernel(node_poly, moments, tail_len)[3]


def _power_series_div(num: Sequence[Fraction], den: Sequence[Fraction], count: int):
    # Ascending power-series division; den[0] must be nonzero.  Only nonzero
    # outputs enter later terms, and a term with nothing to subtract stays
    # zero: an error series starts with as many zeros as the rule's degree of
    # precision, which the loop then passes over without arithmetic.
    out = [Fraction(0)] * count
    nonzero = []  # indices of the nonzero outputs so far, ascending
    top = len(den) - 1
    for j in range(count):
        acc = num[j] if j < len(num) else 0
        for k in reversed(nonzero):
            if j - k > top:
                break
            acc -= den[j - k] * out[k]
        if acc:
            out[j] = acc / den[0]
            nonzero.append(j)
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


def cauchy_expansion_of_rule(rule, count: int) -> SeriesTail:
    """Rule moments as a descending series: coeffs[m] = sum_j R_j * a_j**m.

    Exact (Fraction) when the rule carries exact nodes and weights.
    Otherwise the rule's Decimal nodes and weights are summed in binary fixed
    point at the ambient decimal precision P: with B = 10*P//3 + 4 bits, each
    value x becomes the integer int(x * 2**B) (exact, then truncated), every
    power steps as (t * a) >> B, and each sum S_m is returned as the Decimal
    S_m / 2**B, rounded once to P digits.  For n nodes and weights in
    [-1, 1], as in every Gauss rule, and count**2 < 2**B, S_m lies within
    2*n*(m+1) of 2**B times the exact power sum of those Decimal values, so
    coeffs[m] lies within 2*n*(m+1) * 2**-B of it, plus that one rounding.
    Larger nodes or weights scale the bound with the size of the terms.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    nodes = getattr(rule, "nodes_exact", None)
    weights = getattr(rule, "weights_exact", None)
    out = []
    if nodes is not None and weights is not None:
        # terms[j] = R_j * a_j**m, one multiplication per node and power.
        terms = list(weights)
        for _ in range(count):
            out.append(sum(terms, Fraction(0)))
            terms = [t * a for t, a in zip(terms, nodes)]
        return SeriesTail(tuple(out))
    # Python integers stand for multiples of 2**-bits.
    bits = getcontext().prec * 10 // 3 + 4
    one = Decimal(1 << bits)
    with localcontext(_EXACT):
        A = [int(a * one) for a in rule.nodes]
        T = [int(w * one) for w in rule.weights]
    for _ in range(count):
        out.append(Decimal(sum(T)) / one)
        T = [t * a >> bits for t, a in zip(T, A)]
    return SeriesTail(tuple(out))
