"""Scalar arithmetic for the quadrature engine.

Two scalar kinds are used throughout the package:

* ``Rational`` (= :class:`fractions.Fraction`): exact signed fractions in
  canonical form (positive denominator, reduced).  All symbolic polynomial
  and series work stays in this type end to end.
* ``HPScalar`` (= :class:`decimal.Decimal`): floating values carrying a
  configurable number of significant decimal digits.  Every public function
  here computes with :data:`GUARD_DIGITS` extra digits and rounds the result
  back to the requested precision, so results are correctly rounded at the
  precision the caller asked for.

The default precision is 50 significant digits; anything below 40 is
rejected because downstream root polishing assumes that much headroom, and
anything above 1000, the largest precision the package is tested at.
"""

from __future__ import annotations

from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, InvalidOperation,
                     localcontext)
from fractions import Fraction

Rational = Fraction
HPScalar = Decimal

DEFAULT_PRECISION = 50
MIN_PRECISION = 40
MAX_PRECISION = 1000
GUARD_DIGITS = 10

# ln(2) cache keyed by working-context precision.
_LN2_CACHE: dict[int, Decimal] = {}

# _ln reduces its argument into [_LN_LO, _LN_HI).
_LN_LO = Decimal("0.75")
_LN_HI = Decimal("1.5")


def resolve_precision(prec: int | None) -> int:
    """Return the effective precision, defaulting and validating the range."""
    if prec is None:
        return DEFAULT_PRECISION
    prec = int(prec)
    if not MIN_PRECISION <= prec <= MAX_PRECISION:
        raise ValueError(f"precision must lie in [{MIN_PRECISION}, {MAX_PRECISION}], got {prec}")
    return prec


def working_context(prec: int) -> Context:
    """Context used for intermediate work: requested digits plus guard digits."""
    return Context(prec=prec + GUARD_DIGITS, rounding=ROUND_HALF_EVEN)


def round_to(x: Decimal, prec: int) -> Decimal:
    """Round ``x`` to ``prec`` significant digits (half even)."""
    with localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN)):
        return +x


def _as_decimal(value) -> Decimal:
    """Convert to Decimal under the ambient context (Fraction via division).

    A string that is no decimal number, and a signalling NaN, which no
    arithmetic accepts, raise ValueError.
    """
    if isinstance(value, str):
        try:
            value = Decimal(value)
        except InvalidOperation:
            raise ValueError(f"{value!r} is not a decimal number") from None
    if isinstance(value, Decimal):
        if value.is_snan():
            raise ValueError(f"cannot convert the signalling NaN {value}")
        return +value
    if isinstance(value, int):
        return +Decimal(value)
    if isinstance(value, Fraction):
        return Decimal(value.numerator) / Decimal(value.denominator)
    raise TypeError(f"cannot convert {type(value).__name__} to Decimal")


def to_hp(value, prec: int | None = None) -> Decimal:
    """Convert an int/Fraction/str/Decimal to an HPScalar at the given precision.

    Fraction conversion is a single correctly rounded division, hence exact to
    within half an ulp at the requested precision.  A NaN or an infinity
    raises ValueError: it has no digits to round.
    """
    prec = resolve_precision(prec)
    with localcontext(working_context(prec)):
        out = _as_decimal(value)
    if not out.is_finite():
        raise ValueError(f"to_hp requires a finite value, got {value}")
    return round_to(out, prec)


def _atanh_series(z: Decimal) -> Decimal:
    # Ambient context; caller guarantees |z| <= 1/3 so convergence is geometric.
    zz = z * z
    power = z
    total = z
    n = 1
    last = None
    while total != last:
        last = total
        n += 2
        power *= zz
        total += power / n
    return total


def _ln2() -> Decimal:
    from decimal import getcontext

    prec = getcontext().prec
    cached = _LN2_CACHE.get(prec)
    if cached is None:
        cached = 2 * _atanh_series(Decimal(1) / 3)
        _LN2_CACHE[prec] = cached
    return cached


def _ln(x: Decimal) -> Decimal:
    # Ambient context.  Reduce x = m * 2**k with m in [3/4, 3/2), then
    # ln(m) = 2 atanh((m-1)/(m+1)) with |argument| <= 1/5.  The interval
    # holds 1 inside it, so x near 1 on either side keeps k = 0 and an
    # exact m - 1; with k = -1, ln(2x) - ln 2 would cancel.
    m = x
    k = 0
    while m >= _LN_HI:
        m /= 2
        k += 1
    while m < _LN_LO:
        m *= 2
        k -= 1
    total = 2 * _atanh_series((m - 1) / (m + 1))
    if k:
        total += k * _ln2()
    return total


def hp_ln(x, prec: int | None = None) -> Decimal:
    """Natural logarithm of a finite ``x > 0`` at the given significant-digit precision.

    A NaN, an infinity or ``x <= 0`` raises ValueError.
    """
    prec = resolve_precision(prec)
    with localcontext(working_context(prec)):
        xd = _as_decimal(x)
        if not xd.is_finite() or xd <= 0:
            raise ValueError(f"hp_ln requires a finite x > 0, got {x}")
        out = _ln(xd)
    return round_to(out, prec)


def hp_log10_scaled(w, prec: int | None = None) -> Decimal:
    """Return log10(1e9 * w) for a finite ``w > 0``, i.e. ``9 + ln(w)/ln(10)``.

    The 1e9 scaling keeps the logarithms of small weights positive, which is
    how the classical tables render them.
    """
    prec = resolve_precision(prec)
    with localcontext(working_context(prec)):
        wd = _as_decimal(w)
        if not wd.is_finite() or wd <= 0:
            raise ValueError(f"hp_log10_scaled requires a finite w > 0, got {w}")
        out = 9 + _ln(wd) / _ln(Decimal(10))
    return round_to(out, prec)


def format_sig(x: Decimal, sig: int) -> str:
    """Render ``x`` rounded once, half-even, to ``sig`` significant digits.

    Fixed-point notation is used while the leading digit's exponent lies
    in [-5, 20]; smaller or larger magnitudes render as ``d.dddE+xx``.
    Zero renders with a full run of zeros so column widths stay stable.
    A NaN or an infinity raises ValueError: no digit string renders it.
    """
    if sig < 1:
        raise ValueError("sig must be >= 1")
    if not x.is_finite():
        raise ValueError(f"cannot render non-finite value {x}")
    if x == 0:
        return "0." + "0" * sig
    ctx = Context(prec=sig, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX)
    r = ctx.plus(x)
    adj = r.adjusted()
    # Exact: pads r with trailing zeros to exactly sig digits.
    q = r.quantize(Decimal((0, (1,), adj - sig + 1)), context=ctx)
    return format(q, "f" if -5 <= adj <= 20 else "E")


def format_fixed(x: Decimal, places: int) -> str:
    """Render ``x`` rounded once, half-even, to a fixed number of decimal places."""
    with localcontext(Context(rounding=ROUND_HALF_EVEN)):
        return format(x, f".{places}f")
