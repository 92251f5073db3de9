"""Command-line surface of the quadrature engine.

Subcommands: ``tables`` (node/weight tables with exact polynomials),
``demo-1815`` (the classical seven-rule convergence demonstration of
the integral of 1/ln x from 100000 to 200000), ``integrate`` (apply a
rule to a named integrand or a samples file) and ``error-coeffs``
(exact error coefficients of a rule).

Exit codes: 0 on success, 2 for usage errors, 3 for data errors.
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
from decimal import Decimal, InvalidOperation, Overflow, Underflow, localcontext
from fractions import Fraction

from .gausscf import (
    gauss_rule,
    leading_error_constant,
    legendre_pair,
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
from .momseries import moment_series_t, product_split
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

DEMO_FROM = 100000
DEMO_WIDTH = 100000
BESSEL_REFERENCE = "8406.24312"


class DataError(Exception):
    """Bad input data or an integrand that fails on it; ``main`` exits 3."""


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# -- tables ----------------------------------------------------------------


def _table_entry(n: int, prec: int) -> dict:
    pair = legendre_pair(n + 1)
    rule_u = gauss_rule(n, prec, convention=U11)
    rule_t = to_convention(rule_u, T01, prec)
    u_poly = pair.denominator
    t_poly = rule_t.nodepoly
    u_prime = pair.numerator
    t_prime, _ = product_split(t_poly, moment_series_t(t_poly.degree), tail_len=0)
    c, k_first = leading_error_constant(n)
    return {
        "n": n,
        "points": n + 1,
        "degree": rule_u.degree,
        "rule_u": rule_u,
        "rule_t": rule_t,
        "u_poly": u_poly,
        "u_prime": u_prime,
        "t_poly": t_poly,
        "t_prime": t_prime,
        "weight_poly": weight_polynomial(n),
        "c": c,
        "k_first": k_first,
        "nodes_t": [format_sig(a, 16) for a in rule_t.nodes],
        "nodes_u": [format_sig(b, 16) for b in rule_u.nodes],
        "weights": [format_sig(w, 16) for w in rule_u.weights],
        "logs": [format_sig(hp_log10_scaled(w, prec), 10) for w in rule_u.weights],
        "k_first_dec": format_sig(to_hp(k_first, prec), 16),
    }


def _tables_text(entries) -> str:
    out = []
    for e in entries:
        noun = "point" if e["points"] == 1 else "points"
        out.append(f"n={e['n']}  ({e['points']} {noun}, degree {e['degree']})")
        out.append(f"  U  (u) = {e['u_poly'].format('u')}")
        out.append(f"  U' (u) = {e['u_prime'].format('u')}")
        out.append(f"  T  (t) = {e['t_poly'].format('t')}")
        out.append(f"  T' (t) = {e['t_prime'].format('t')}")
        out.append(f"  weight polynomial (u) = {e['weight_poly'].format('u')}")
        out.append(
            f"  leading error: k[{2 * e['n'] + 2}] = {_rat_str(e['k_first'])}"
            f" ~ {e['k_first_dec']}  (u-form constant {_rat_str(e['c'])})"
        )
        out.append("  j   node_t              node_u               weight              log10(1e9*R)")
        for j in range(e["points"]):
            out.append(
                f"  {j:<3d} {e['nodes_t'][j]:<19s} {e['nodes_u'][j]:<20s} "
                f"{e['weights'][j]:<19s} {e['logs'][j]}"
            )
        out.append("")
    return "\n".join(out)


def _tables_json(entries) -> str:
    rows = []
    for e in entries:
        rows.append(
            {
                "n": e["n"],
                "convention": T01,
                "nodes": e["nodes_t"],
                "weights": e["weights"],
                "log10_scaled_weights": e["logs"],
                "leading_error": {
                    "rational": _rat_str(e["k_first"]),
                    "decimal": e["k_first_dec"],
                },
            }
        )
    return _json_dumps(rows)


def _tables_csv(entries) -> str:
    rows = [
        [
            "n",
            "node_index",
            "node_t",
            "node_u",
            "weight",
            "log10_weight_scaled",
            "leading_error_rational",
            "leading_error_decimal",
        ]
    ]
    for e in entries:
        for j in range(e["points"]):
            rows.append(
                [
                    e["n"],
                    j,
                    e["nodes_t"][j],
                    e["nodes_u"][j],
                    e["weights"][j],
                    e["logs"][j],
                    _rat_str(e["k_first"]),
                    e["k_first_dec"],
                ]
            )
    return _csv(rows)


def cmd_tables(n_min: int, n_max: int, fmt: str, prec: int) -> str:
    entries = [_table_entry(n, prec) for n in range(n_min, n_max + 1)]
    if fmt == "json":
        return _tables_json(entries)
    if fmt == "csv":
        return _tables_csv(entries)
    return _tables_text(entries)


# -- demo ------------------------------------------------------------------


def cmd_demo(n_max: int, prec: int) -> str:
    f = named_integrand("reciprocal-log", prec)
    values = []
    terms = []
    for n in range(n_max + 1):
        rule = gauss_rule(n, prec, convention=T01)
        values.append(apply_rule(rule, f, DEMO_FROM, DEMO_WIDTH, prec))
        terms.append(node_terms(rule, f, DEMO_FROM, DEMO_WIDTH, prec))
    rendered = [format_fixed(v, 6 if n <= 5 else 7) for n, v in enumerate(values)]
    final = rendered[-1]
    out = []
    for n, (text, row) in enumerate(zip(rendered, terms)):
        stable = ""
        for a, b in zip(text, final):
            if a != b:
                break
            stable += a
        out.append(f"n={n}  value={text}  stable={stable}")
        for j, term in enumerate(row):
            out.append(f"  term[{j}]={format_fixed(term, 7)}")
    out.append(f"Bessel: {BESSEL_REFERENCE}")
    return "\n".join(out) + "\n"


# -- integrate -------------------------------------------------------------


def _build_rule(kind: str, n: int, prec: int) -> QuadRule:
    if kind == "gauss":
        return gauss_rule(n, prec, convention=T01)
    return newton_cotes(n, prec)


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


def cmd_integrate(args, parser) -> int:
    """Write the integral to stdout; data errors raise DataError."""
    prec = args.prec
    try:
        start = _parse_decimal(args.start, "--from", prec)
        width = _parse_decimal(args.width, "--width", prec)
    except ValueError as exc:
        parser.error(str(exc))
    if width == 0:
        parser.error("--width must be nonzero")
    rule = _build_rule(args.rule, args.n, prec)
    fmt = args.format
    if args.samples:
        try:
            values = _read_samples(args.samples, args.rule, args.n, prec)
        except (OSError, ValueError) as exc:
            raise DataError(f"bad samples file: {exc}") from None
        if len(values) != rule.npoints:
            raise DataError(f"samples file has {len(values)} values, rule needs {rule.npoints}")
        try:
            with localcontext(working_context(prec)):
                value = width * sum(
                    (w * a for w, a in zip(rule.weights, values)), Decimal(0)
                )
        except Overflow:
            raise DataError("the weighted sum of the samples overflows the decimal "
                            "exponent range") from None
    else:
        if not args.fn:
            parser.error("one of --fn or --samples is required")
        try:
            f = named_integrand(args.fn, prec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            value = apply_rule(rule, f, start, width, prec)
        except RuntimeError as exc:
            raise DataError(str(exc)) from None
        except Overflow:
            raise DataError("the integral overflows the decimal exponent range") from None
        if args.fn == "reciprocal-log":
            _warn_if_pole(start, width, prec)
    result = {"rule": args.rule, "n": args.n, "value": format_sig(value, 16)}
    if not args.samples and args.fn.startswith("poly:") and start == 0 and width == 1:
        poly = parse_poly_spec(args.fn)
        ks = error_coefficients(rule, poly.degree + 1, prec)
        err = sum(
            (ks[m] * c for m, c in enumerate(poly.coeffs)), Fraction(0)
        )
        truth = poly.integral_01()
        result["exact_value"] = _rat_str(truth - err)
        result["exact_error"] = _rat_str(err)
        result["true_integral"] = _rat_str(truth)
    if fmt == "json":
        sys.stdout.write(_json_dumps(result))
    elif fmt == "csv":
        sys.stdout.write(_csv([list(result.keys()), list(result.values())]))
    else:
        for key, val in result.items():
            sys.stdout.write(f"{key}={val}\n")
    return 0


# -- error coefficients ------------------------------------------------------


def cmd_error_coeffs(rule_kind: str, n: int, count: int, fmt: str, prec: int) -> str:
    rule = _build_rule(rule_kind, n, prec)
    ks = error_coefficients(rule, count, prec)
    if fmt == "json":
        return _json_dumps(
            {
                "rule": rule_kind,
                "n": n,
                "convention": rule.convention,
                "k": [_rat_str(k) for k in ks.k],
            }
        )
    if fmt == "csv":
        return _csv([["m", "k"]] + [[m, _rat_str(k)] for m, k in enumerate(ks.k)])
    lines = [f"k[{m}]={_rat_str(k)}" for m, k in enumerate(ks.k)]
    return "\n".join(lines) + "\n"


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

    p_demo = sub.add_parser(
        "demo-1815", parents=[common],
        help="seven-rule convergence demo for the integral of 1/ln x on [100000, 200000]",
    )
    p_demo.add_argument("--n-max", type=int, default=6)

    p_int = sub.add_parser("integrate", parents=[common], help="apply a rule")
    p_int.add_argument("--rule", choices=["gauss", "cotes"], default="gauss")
    p_int.add_argument("--n", type=int, required=True)
    p_int.add_argument("--fn", help="integrand name: reciprocal-log, runge, poly:<c0,c1,...>")
    p_int.add_argument("--samples", help="file of node-aligned integrand values")
    p_int.add_argument("--from", dest="start", default="0", help="lower limit g")
    p_int.add_argument("--width", default="1", help="interval width Delta")

    p_err = sub.add_parser("error-coeffs", parents=[common], help="error coefficients")
    p_err.add_argument("--rule", choices=["gauss", "cotes"], default="gauss")
    p_err.add_argument("--n", type=int, required=True)
    p_err.add_argument("--K", type=int, default=8, help="number of coefficients (max 64)")

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

    if args.command == "tables":
        if not (0 <= args.n_min <= args.n_max <= MAX_ORDER):
            parser.error(f"need 0 <= n-min <= n-max <= {MAX_ORDER}")
        sys.stdout.write(cmd_tables(args.n_min, args.n_max, args.format, args.prec))
        return 0

    if args.command == "demo-1815":
        if not (0 <= args.n_max <= MAX_ORDER):
            parser.error(f"need 0 <= n-max <= {MAX_ORDER}")
        sys.stdout.write(cmd_demo(args.n_max, args.prec))
        return 0

    if args.command in ("integrate", "error-coeffs"):
        lowest = 0 if args.rule == "gauss" else 1
        if not (lowest <= args.n <= MAX_ORDER):
            parser.error(f"{args.rule} rules support {lowest} <= n <= {MAX_ORDER}")

    if args.command == "integrate":
        try:
            return cmd_integrate(args, parser)
        except DataError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    if args.command == "error-coeffs":
        if not (1 <= args.K <= 64):
            parser.error("need 1 <= K <= 64")
        sys.stdout.write(
            cmd_error_coeffs(args.rule, args.n, args.K, args.format, args.prec)
        )
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
