"""Command-line surface of the quadrature engine.

Subcommands: ``tables`` (node/weight tables with exact polynomials),
``demo-1815`` (the classical seven-rule convergence demonstration of
the integral of 1/ln x from 100000 to 200000), ``integrate`` (apply a
rule to a named integrand or a samples file) and ``error-coeffs``
(exact error coefficients of a rule).

Each subcommand validates its own arguments and returns a ``Report``: a
JSON document, a CSV header and rows, and text lines.  ``_render`` is the
one place that knows the three ``--format`` outputs, and ``main`` has one
path for every subcommand: parse, resolve the precision, run, render.

Exit codes: 0 on success, 2 for usage errors, 3 for data errors.  A
usage error found while parsing or validating arguments prints argparse's
usage message; every other error prints one ``error:`` line on stderr.
The environment variable QUAD_PRECISION overrides the default precision;
an explicit ``--precision`` flag wins over the environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, Overflow, Underflow, localcontext
from fractions import Fraction

from .gausscf import (
    gauss_rule,
    leading_error_constant,
    weight_polynomial,
)
from .interprule import (
    T01,
    U11,
    QuadRule,
    apply_rule,
    error_coefficients,
    named_integrand,
    newton_cotes,
    node_terms,
    parse_poly_spec,
    to_convention,
)
from .momseries import moment_series_t, moment_series_u, product_split
from .numerics import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    MIN_PRECISION,
    format_fixed,
    format_sig,
    hp_log10_scaled,
    resolve_precision,
    to_hp,
    working_context,
)

MAX_ORDER = 12
MAX_K = 64

DEMO_FROM = 100000
DEMO_WIDTH = 100000
BESSEL_REFERENCE = "8406.24312"


class CliError(Exception):
    """An error ``main`` reports as one ``error:`` line on stderr, exiting with ``code``.

    The default, 3, is a data error: bad input data or an integrand that
    fails on it.
    """

    def __init__(self, message: str, code: int = 3):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Report:
    """One subcommand's output: its JSON document, CSV header and rows, and text lines."""

    doc: object
    header: list[str]
    rows: list
    lines: list[str]


def _render(fmt: str, report: Report) -> str:
    if fmt == "json":
        return json.dumps(report.doc, indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([report.header, *report.rows])
        return buf.getvalue()
    return "\n".join(report.lines) + "\n"


def _rat_str(x: Fraction) -> str:
    # str() refuses an int with more digits than the interpreter's limit
    # (4300 by default; 0, or no limit at all before Python 3.10.7, means
    # none).  A number that may exceed it is a data error, found from its
    # bit length before str() is tried: bits * log10(2) + 1 bounds the digits.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for part in (x.numerator, x.denominator):
        if limit and part.bit_length() * 30103 // 100000 + 1 > limit:
            raise CliError(f"an exact value may have more than {limit} digits "
                           f"in its numerator or denominator; it is not printed")
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# -- tables ----------------------------------------------------------------

TABLES_HEADER = ["n", "node_index", "node_t", "node_u", "weight", "log10_weight_scaled",
                 "leading_error_rational", "leading_error_decimal"]


def cmd_tables(args, parser) -> Report:
    if not (0 <= args.n_min <= args.n_max <= MAX_ORDER):
        parser.error(f"need 0 <= n-min <= n-max <= {MAX_ORDER}")
    prec = args.prec
    doc, rows, lines = [], [], []
    for n in range(args.n_min, args.n_max + 1):
        rule_u = gauss_rule(n, prec, convention=U11)
        rule_t = to_convention(rule_u, T01, prec)
        u_poly, t_poly = rule_u.nodepoly, rule_t.nodepoly
        u_prime, _ = product_split(u_poly, moment_series_u(u_poly.degree), tail_len=0)
        t_prime, _ = product_split(t_poly, moment_series_t(t_poly.degree), tail_len=0)
        c, k_first = leading_error_constant(n)
        nodes_t = [format_sig(a, 16) for a in rule_t.nodes]
        nodes_u = [format_sig(b, 16) for b in rule_u.nodes]
        weights = [format_sig(w, 16) for w in rule_u.weights]
        logs = [format_sig(hp_log10_scaled(w, prec), 10) for w in rule_u.weights]
        k_rat, k_dec = _rat_str(k_first), format_sig(to_hp(k_first, prec), 16)
        doc.append({"n": n, "convention": T01, "nodes": nodes_t, "weights": weights,
                    "log10_scaled_weights": logs,
                    "leading_error": {"rational": k_rat, "decimal": k_dec}})
        if lines:
            lines.append("")
        lines += [
            f"n={n}  ({n + 1} {'point' if n == 0 else 'points'}, degree {rule_u.degree})",
            f"  U  (u) = {u_poly.format('u')}",
            f"  U' (u) = {u_prime.format('u')}",
            f"  T  (t) = {t_poly.format('t')}",
            f"  T' (t) = {t_prime.format('t')}",
            f"  weight polynomial (u) = {weight_polynomial(n).format('u')}",
            f"  leading error: k[{2 * n + 2}] = {k_rat} ~ {k_dec}  (u-form constant {_rat_str(c)})",
            "  j   node_t              node_u               weight              log10(1e9*R)",
        ]
        for j, row in enumerate(zip(nodes_t, nodes_u, weights, logs)):
            rows.append([n, j, *row, k_rat, k_dec])
            lines.append(f"  {j:<3d} {row[0]:<19s} {row[1]:<20s} {row[2]:<19s} {row[3]}")
    return Report(doc, TABLES_HEADER, rows, lines)


# -- demo ------------------------------------------------------------------


def cmd_demo(args, parser) -> Report:
    if not (0 <= args.n_max <= MAX_ORDER):
        parser.error(f"need 0 <= n-max <= {MAX_ORDER}")
    prec = args.prec
    f = named_integrand("reciprocal-log", prec)
    rules = [gauss_rule(n, prec, convention=T01) for n in range(args.n_max + 1)]
    values = [format_fixed(apply_rule(rule, f, DEMO_FROM, DEMO_WIDTH, prec), 6 if n <= 5 else 7)
              for n, rule in enumerate(rules)]
    doc, rows, lines = [], [], []
    for n, (rule, value) in enumerate(zip(rules, values)):
        terms = [format_fixed(t, 7) for t in node_terms(rule, f, DEMO_FROM, DEMO_WIDTH, prec)]
        stable = os.path.commonprefix([value, values[-1]])
        doc.append({"n": n, "value": value, "stable": stable, "terms": terms})
        rows += [[n, value, stable, j, term] for j, term in enumerate(terms)]
        lines.append(f"n={n}  value={value}  stable={stable}")
        lines += [f"  term[{j}]={term}" for j, term in enumerate(terms)]
    lines.append(f"Bessel: {BESSEL_REFERENCE}")
    return Report(doc, ["n", "value", "stable", "term_index", "term"], rows, lines)


# -- integrate -------------------------------------------------------------


def _build_rule(args, parser) -> QuadRule:
    lowest = 0 if args.rule == "gauss" else 1
    if not (lowest <= args.n <= MAX_ORDER):
        parser.error(f"{args.rule} rules support {lowest} <= n <= {MAX_ORDER}")
    if args.rule == "gauss":
        return gauss_rule(args.n, args.prec, convention=T01)
    return newton_cotes(args.n, args.prec)


def _parse_decimal(text: str, what: str, prec: int) -> Decimal:
    """Decimal(text), unchanged, if it is finite and ``working_context(prec)`` holds it.

    Raises ValueError otherwise, naming an overflow or an underflow of that context."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"{what} {text!r} is not a decimal number") from None
    if not value.is_finite():
        raise ValueError(f"{what} {text!r} is not a finite number")
    ctx = working_context(prec)
    ctx.traps[Underflow] = True
    try:
        ctx.plus(value)
    except Overflow:
        raise ValueError(f"{what} {text!r} overflows the decimal exponent range") from None
    except Underflow:
        raise ValueError(f"{what} {text!r} underflows the decimal exponent range") from None
    return value


def _read_samples(path: str, kind: str, n: int, prec: int):
    values = []
    header_checks = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                header_checks.append(line.lstrip("#").split())
                continue
            values.append(_parse_decimal(line, "sample", prec))
    for tokens in header_checks:
        if not tokens or tokens[0] != "rule":
            continue
        if len(tokens) > 1 and tokens[1] != kind:
            raise ValueError(f"samples file is for rule {tokens[1]!r}, requested {kind!r}")
        for tok in tokens[2:]:
            if tok.startswith("n=") and int(tok[2:]) != n:
                raise ValueError(f"samples file is for n={tok[2:]}, requested n={n}")
    return values


def _warn_if_pole(start: Decimal, width: Decimal, prec: int) -> None:
    # 1/ln x is not integrable across x = 1 (nor up to it): the rule still
    # returns a finite number, which approximates no integral.
    with localcontext(working_context(prec)):
        lo, hi = sorted((start, start + width))
    if lo <= 1 <= hi:
        print(f"warning: 1/ln x has a pole at x = 1 in [{lo}, {hi}]; its integral diverges "
              f"there and the printed value approximates nothing", file=sys.stderr)


def cmd_integrate(args, parser) -> Report:
    rule = _build_rule(args, parser)
    prec = args.prec
    try:
        start = _parse_decimal(args.start, "--from", prec)
        width = _parse_decimal(args.width, "--width", prec)
    except ValueError as exc:
        parser.error(str(exc))
    if width == 0:
        parser.error("--width must be nonzero")
    exact = None
    if args.samples:
        try:
            values = _read_samples(args.samples, args.rule, args.n, prec)
        except (OSError, ValueError) as exc:
            raise CliError(f"bad samples file: {exc}") from None
        if len(values) != rule.npoints:
            raise CliError(f"samples file has {len(values)} values, rule needs {rule.npoints}")
        try:
            with localcontext(working_context(prec)):
                value = width * sum(
                    (w * a for w, a in zip(rule.weights, values)), Decimal(0)
                )
        except Overflow:
            raise CliError("the weighted sum of the samples overflows the decimal "
                           "exponent range") from None
    else:
        if not args.fn:
            parser.error("one of --fn or --samples is required")
        poly = None
        try:
            if args.fn.startswith("poly:"):
                poly = parse_poly_spec(args.fn)
                f = poly.eval_hp
            else:
                f = named_integrand(args.fn, prec)
        except ValueError as exc:
            raise CliError(str(exc), code=2) from None
        if poly is not None and start == 0 and width == 1:
            # One error coefficient per polynomial coefficient, as many as --K allows.
            exact = poly
            if exact.degree >= MAX_K:
                raise CliError(f"the exact report needs a polynomial of degree below {MAX_K}, "
                               f"got degree {exact.degree}", code=2)
        try:
            value = apply_rule(rule, f, start, width, prec)
        except RuntimeError as exc:
            raise CliError(str(exc)) from None
        except Overflow:
            raise CliError("the integral overflows the decimal exponent range") from None
        if args.fn == "reciprocal-log":
            _warn_if_pole(start, width, prec)
    result = {"rule": args.rule, "n": args.n, "value": format_sig(value, 16)}
    if exact is not None:
        ks = error_coefficients(rule, exact.degree + 1, prec)
        err = sum(
            (ks[m] * c for m, c in enumerate(exact.coeffs)), Fraction(0)
        )
        truth = exact.integral_01()
        result["exact_value"] = _rat_str(truth - err)
        result["exact_error"] = _rat_str(err)
        result["true_integral"] = _rat_str(truth)
    return Report(result, list(result), [list(result.values())],
                  [f"{key}={val}" for key, val in result.items()])


# -- error coefficients ------------------------------------------------------


def cmd_error_coeffs(args, parser) -> Report:
    rule = _build_rule(args, parser)
    if not (1 <= args.K <= MAX_K):
        parser.error(f"need 1 <= K <= {MAX_K}")
    ks = [_rat_str(k) for k in error_coefficients(rule, args.K, args.prec).k]
    return Report({"rule": args.rule, "n": args.n, "convention": rule.convention, "k": ks},
                  ["m", "k"], list(enumerate(ks)), [f"k[{m}]={k}" for m, k in enumerate(ks)])


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quad",
        description="Quadrature rules rebuilt from exact rational series algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--precision",
        type=int,
        default=None,
        help=f"significant decimal digits (default {DEFAULT_PRECISION}, min {MIN_PRECISION}, "
        f"max {MAX_PRECISION}; QUAD_PRECISION env var also honored)",
    )
    common.add_argument(
        "--format",
        choices=["text", "csv", "json"],
        default="text",
        help="output format (default text)",
    )

    p_tables = sub.add_parser("tables", parents=[common], help="node/weight tables")
    p_tables.add_argument("--n-min", type=int, default=0)
    p_tables.add_argument("--n-max", type=int, default=6)
    p_tables.set_defaults(run=cmd_tables)

    p_demo = sub.add_parser(
        "demo-1815", parents=[common],
        help="seven-rule convergence demo for the integral of 1/ln x on [100000, 200000]",
    )
    p_demo.add_argument("--n-max", type=int, default=6)
    p_demo.set_defaults(run=cmd_demo)

    p_int = sub.add_parser("integrate", parents=[common], help="apply a rule")
    p_int.add_argument("--rule", choices=["gauss", "cotes"], default="gauss")
    p_int.add_argument("--n", type=int, required=True)
    p_int.add_argument("--fn", help="integrand name: reciprocal-log, runge, poly:<c0,c1,...>")
    p_int.add_argument("--samples", help="file of node-aligned integrand values")
    p_int.add_argument("--from", dest="start", default="0", help="lower limit g")
    p_int.add_argument("--width", default="1", help="interval width Delta")
    p_int.set_defaults(run=cmd_integrate)

    p_err = sub.add_parser("error-coeffs", parents=[common], help="error coefficients")
    p_err.add_argument("--rule", choices=["gauss", "cotes"], default="gauss")
    p_err.add_argument("--n", type=int, required=True)
    p_err.add_argument("--K", type=int, default=8, help=f"number of coefficients (max {MAX_K})")
    p_err.set_defaults(run=cmd_error_coeffs)

    return parser


# Options whose value may be negative.  argparse takes a value such as -1e5
# for an option string (it knows only forms like -5 and -0.5 as numbers), so
# such a value is attached to its option as --from=-1e5 before parsing.
_SIGNED_OPTIONS = ("--from", "--width")


def _attach_signed_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_OPTIONS and tok.startswith("-"):
            try:
                Decimal(tok)
            except InvalidOperation:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


def _resolve_cli_precision(args, parser) -> int:
    prec = args.precision
    if prec is None:
        env = os.environ.get("QUAD_PRECISION")
        if env is not None:
            try:
                prec = int(env)
            except ValueError:
                parser.error(f"QUAD_PRECISION must be an integer, got {env!r}")
        else:
            prec = DEFAULT_PRECISION
    try:
        return resolve_precision(prec)
    except ValueError as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    args.prec = _resolve_cli_precision(args, parser)
    try:
        report = args.run(args, parser)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    sys.stdout.write(_render(args.format, report))
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
