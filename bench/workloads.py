"""The three workloads: inputs from a seed, the operations, and their checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  ``setup`` builds the inputs (and, for apply,
the prebuilt rules); ``ops`` returns the operations of one pass in visiting
order; the timed loop repeats that pass until its time is up; ``verify``
checks each output against the independent references of ``reference.py``
after the loop, outside every timed region.

Each operation's ``run`` takes a per-pass scratch dict, which carries
outputs an operation depends on (sweep's to_convention needs the rule that
gauss_rule returned).  A dependency that failed raises ``Skipped``.  An
operation that does work of its own besides calling the package adds that
time to ``scratch[OWN_S]``, so the traced run can tell it from time spent in
no span.

Package functions are always looked up on the module at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from time import perf_counter
from typing import Callable

import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
WORK = ROOT / ".bench_work"

SWEEP_PREC = 50
APPLY_PREC = 50
CLI_PREC = 50  # the CLI's default; the cli workload never passes --precision
OWN_S = "own_s"


class Skipped(Exception):
    """An operation could not start because an operation it depends on failed."""


@dataclass
class Op:
    kind: str
    run: Callable[[dict], object]
    spec: dict = field(default_factory=dict)
    # What must repeat exactly from pass to pass.
    fingerprint: Callable[[object], object] = lambda out: out


@dataclass
class Verdict:
    ok: bool
    digits: float | None = None  # correct digits / requested digits, if decimal
    why: str = ""


@lru_cache(maxsize=None)
def _gauss_u11(points: int, prec: int):
    return ref.gauss_u11(points, prec)


@lru_cache(maxsize=None)
def _gauss_t01(points: int, prec: int):
    return ref.gauss_t01(points, prec)


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def _gq():
    return sys.modules["gaussquad"]


def _worst(verdicts: list[Verdict]) -> Verdict:
    ok = all(v.ok for v in verdicts)
    ds = [v.digits for v in verdicts if v.digits is not None]
    why = "; ".join(v.why for v in verdicts if not v.ok)
    return Verdict(ok, min(ds) if ds else None, why)


def _compare(values, refs, prec: int, relative: bool, what: str) -> Verdict:
    """Each value within the promise of its reference (absolute on nodes)."""
    eps = ref.promise(prec)
    worst = prec
    bad = []
    with localcontext(ref.context(prec)):
        if len(values) != len(refs):
            return Verdict(False, 0.0, f"{what}: {len(values)} values, expected {len(refs)}")
        for j, (v, r) in enumerate(zip(values, refs)):
            r = ref.to_dec(r)
            err = abs(ref.to_dec(v) - r)
            scale = abs(r) if relative else Decimal(1)
            worst = min(worst, ref.digits(err, scale, prec))
            if err > eps * scale:
                bad.append(j)
    why = f"{what}: {len(bad)} of {len(values)} off by more than 1e-{prec - 5}" if bad else ""
    return Verdict(not bad, worst / prec, why)


def _check_sum(value, terms, tols, prec: int, what: str) -> Verdict:
    """A rounded weighted sum against the reference terms and propagated tolerances.

    Digits are counted on the scale the tolerances carry, sum |delta w| (|f| +
    |delta f'|), so a sum that cancels to nearly zero is not charged with
    digits no rule could deliver.
    """
    with localcontext(ref.context(prec)):
        r = sum(terms, Decimal(0))
        budget = sum(tols, Decimal(0))
        err = abs(ref.to_dec(value) - r)
        ok = err <= budget + abs(r).scaleb(1 - prec)
        scale = budget / ref.promise(prec) or abs(r) or Decimal(1)
        return Verdict(ok, ref.digits(err, scale, prec) / prec, "" if ok else f"{what}: off by {err:.3e}")


# -- sweep -------------------------------------------------------------------------

# Every 24th order from 4 to 100, so that a pass takes about 3 s at the seed
# commit and a 36 s run makes about twelve.  The set is fixed and the seed sets
# the visiting order: which orders lose digits at the seed commit is
# irregular (README.md), so a seeded set would make pass_share spread from
# seed to seed.  Every pass after the first runs in a fresh interpreter
# (FRESH_PASSES), because in-process repeats would find legendre_pair's
# cache warm.
SWEEP_ORDERS = range(4, 101, 24)


def sweep_setup(seed: int) -> dict:
    orders = list(SWEEP_ORDERS)
    _rng("sweep", seed, "orders").shuffle(orders)
    return {"orders": orders}


def _sweep_ops(n: int) -> list[Op]:
    def gauss(s):
        rule = _gq().gauss_rule(n, SWEEP_PREC)
        s[n, "u"] = rule
        return rule

    def to_t(s):
        if (n, "u") not in s:
            raise Skipped
        rule = _gq().to_convention(s[n, "u"], _gq().T01, SWEEP_PREC)
        s[n, "t"] = rule
        return rule

    def wpoly(s):
        return _gq().weight_polynomial(n)

    def errs(s):
        if (n, "t") not in s:
            raise Skipped
        return _gq().error_coefficients(s[n, "t"], 2 * n + 4, SWEEP_PREC)

    spec = {"n": n}
    return [Op("gauss_rule", gauss, spec), Op("to_convention", to_t, spec),
            Op("weight_polynomial", wpoly, spec), Op("error_coefficients", errs, spec)]


def sweep_ops(state: dict, traced: bool = False) -> list[Op]:
    return [op for n in state["orders"] for op in _sweep_ops(n)]


def sweep_verify(state: dict, ops: list[Op], outputs: list) -> list[Verdict]:
    refs = {n: _gauss_u11(n + 1, SWEEP_PREC) for n in state["orders"]}
    out = []
    for op, value in zip(ops, outputs):
        n = op.spec["n"]
        nodes, weights = refs[n]
        if op.kind == "gauss_rule":
            out.append(_worst([_compare(value.nodes, nodes, SWEEP_PREC, False, f"n={n} nodes"),
                               _compare(value.weights, weights, SWEEP_PREC, True, f"n={n} weights")]))
        elif op.kind == "to_convention":
            with localcontext(ref.context(SWEEP_PREC)):
                t_nodes = [(x + 1) / 2 for x in nodes]
            out.append(_worst([_compare(value.nodes, t_nodes, SWEEP_PREC, False, f"n={n} t-nodes"),
                               _compare(value.weights, weights, SWEEP_PREC, True, f"n={n} t-weights")]))
        elif op.kind == "weight_polynomial":
            # Monomial coefficients up to 1e28 cancel at the nodes; carry that many more digits.
            extra = max(0, len(str(int(sum(abs(c) for c in value.coeffs)))))
            with localcontext(ref.context(SWEEP_PREC + extra)):
                dec = [ref.to_dec(c) for c in value.coeffs]
                at_nodes = [ref.poly_eval(dec, x) for x in nodes]
            out.append(_compare(at_nodes, weights, SWEEP_PREC, True, f"n={n} weight polynomial"))
        else:
            want = ref.gauss_error_series_t01(n)
            ok = list(value.k) == want
            out.append(Verdict(ok, None, "" if ok else f"n={n} error series differs from closed form"))
    return out


# -- apply -------------------------------------------------------------------------

APPLY_GAUSS = (6, 12, 24)
APPLY_COTES = (2, 4, 8)
# Requests per kind and pass.  The four kinds get equal counts: no request
# mix is known, so none is weighted.  apply, terms and report split theirs
# equally over the six rules, interpolatory builds equally over the two
# branches.  What a request costs most, its integrand kind, polynomial
# degree and number of nodes, follows from its index, so every seed makes
# the same mix of shapes.  Seeded shapes would move one pass's time by 6%
# and op_p99_ms by 40% from seed to seed.
APPLY_KINDS = ("apply", "terms", "report", "interp")
APPLY_PER_KIND = 540


def _rand_poly(rng: random.Random, degree: int) -> list[Fraction]:
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)]
    return coeffs + [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))]


def _poly_name(coeffs: list[Fraction]) -> str:
    return "poly:" + ",".join(str(c) for c in coeffs)


INTEGRANDS = ("reciprocal-log", "runge", "poly")
POLY_MAX_DEGREE = 8


def _rand_integrand(rng: random.Random, j: int) -> dict:
    """The j-th integrand of a stream: the kind and polynomial degree follow
    from j, so that a pass's work hardly depends on the seed; the seed draws
    the interval and the coefficients."""
    kind = INTEGRANDS[j % len(INTEGRANDS)]
    if kind == "reciprocal-log":
        g = round(10 ** rng.uniform(0.31, 6))
        return {"fn": kind, "g": Fraction(g), "delta": Fraction(g * rng.randint(1, 100), 100)}
    if kind == "runge":
        return {"fn": kind, "g": Fraction(rng.randint(-16, 8), 8), "delta": Fraction(rng.randint(1, 12), 4)}
    coeffs = _rand_poly(rng, 1 + j // len(INTEGRANDS) % POLY_MAX_DEGREE)
    return {"fn": _poly_name(coeffs), "coeffs": coeffs,
            "g": Fraction(rng.randint(-4, 4), 4), "delta": Fraction(rng.randint(1, 8), 4)}


def _rand_nodes(rng: random.Random, k: int) -> list[Fraction]:
    # One node per k-th of [0, 1], kept away from its neighbours.
    return [Fraction(4 * i + 1 + rng.randrange(3), 4 * k) for i in range(k)]


def apply_setup(seed: int) -> dict:
    gq = _gq()
    rules = {}
    for n in APPLY_GAUSS:
        rules["gauss", n] = gq.gauss_rule(n, APPLY_PREC, gq.T01)
    for n in APPLY_COTES:
        rules["cotes", n] = gq.newton_cotes(n, APPLY_PREC)
    integrands = {"reciprocal-log": gq.named_integrand("reciprocal-log", APPLY_PREC),
                  "runge": gq.named_integrand("runge", APPLY_PREC)}
    integrands["reciprocal-log"](Decimal(3))  # fills the package's lazy ln 2 cache

    rng = _rng("apply", seed, "requests")
    rule_ids = list(rules)
    reqs = []
    for kind in APPLY_KINDS:
        for i in range(APPLY_PER_KIND):
            if kind == "interp":
                branch = ("exact", "decimal")[i % 2]
                nodes = _rand_nodes(rng, 2 + i // 2 % 7)  # 2 to 8 nodes
                if branch == "decimal":
                    # Irrational-looking decimal nodes: perturb by a seeded 30-digit offset.
                    nodes = [Decimal(a.numerator) / Decimal(a.denominator)
                             + Decimal(rng.randrange(10 ** 30)).scaleb(-34) for a in nodes]
                rng.shuffle(nodes)
                req = {"kind": "interp_" + branch, "nodes": nodes}
                req.update(_rand_integrand(rng, i // 2))
            else:
                rule_id = rule_ids[i % len(rule_ids)]
                j = i // len(rule_ids)  # the request's rank among those on its rule
                req = {"kind": kind, "rule": rule_id}
                if kind == "report":
                    kind_, n = rule_id
                    top = 2 * n + 3 if kind_ == "gauss" else n + 3
                    req["coeffs"] = _rand_poly(rng, 1 + j % top)
                    req["fn"] = _poly_name(req["coeffs"])
                else:
                    req.update(_rand_integrand(rng, j))
            reqs.append(req)
    rng.shuffle(reqs)
    for req in reqs:
        name = req["fn"]
        if name not in integrands:
            integrands[name] = gq.named_integrand(name, APPLY_PREC)
    return {"rules": rules, "integrands": integrands, "requests": reqs}


def _apply_op(state: dict, req: dict) -> Op:
    rules, integrands = state["rules"], state["integrands"]
    kind = req["kind"]
    f = integrands[req["fn"]]
    if kind == "apply":
        rule = rules[req["rule"]]
        return Op(kind, lambda s: _gq().apply_rule(rule, f, req["g"], req["delta"], APPLY_PREC), req)
    if kind == "terms":
        rule = rules[req["rule"]]
        return Op(kind, lambda s: _gq().node_terms(rule, f, req["g"], req["delta"], APPLY_PREC), req)
    if kind == "report":
        rule = rules[req["rule"]]

        def report(s):
            # The exact report of `quad integrate --fn poly:... ` on [0, 1].
            gq = _gq()
            coeffs = req["coeffs"]
            value = gq.apply_rule(rule, f, 0, 1, APPLY_PREC)
            ks = gq.error_coefficients(rule, len(coeffs), APPLY_PREC)
            t0 = perf_counter()
            err = sum((ks[m] * c for m, c in enumerate(coeffs)), Fraction(0))
            truth = sum((c / (m + 1) for m, c in enumerate(coeffs)), Fraction(0))
            s[OWN_S] = s.get(OWN_S, 0.0) + perf_counter() - t0
            return value, truth - err, err, truth

        return Op(kind, report, req)

    def interp(s):
        gq = _gq()
        rule = gq.interpolatory_rule(req["nodes"], gq.T01, APPLY_PREC)
        return rule, gq.apply_rule(rule, f, req["g"], req["delta"], APPLY_PREC)

    return Op(kind, interp, req)


def apply_ops(state: dict, traced: bool = False) -> list[Op]:
    return [_apply_op(state, req) for req in state["requests"]]


def _integrand_ref(req: dict):
    name = req["fn"]
    if name == "reciprocal-log":
        return ref.recip_log
    if name == "runge":
        return ref.runge
    return ref.poly_with_derivative(req["coeffs"])


def _exact_report(rule_id: tuple[str, int], nodes, weights, coeffs: list[Fraction]):
    """(exact value, exact error, true integral) of the rule on a polynomial over [0, 1]."""
    kind, n = rule_id
    if kind == "gauss":
        ks = ref.gauss_error_series_t01(n)
    else:
        ks = [Fraction(1, m + 1) - sum((w * a ** m for a, w in zip(nodes, weights)), Fraction(0))
              for m in range(len(coeffs))]
    err = sum((ks[m] * c for m, c in enumerate(coeffs)), Fraction(0))
    truth = ref.poly_integral_01(coeffs)
    return truth - err, err, truth


def apply_verify(state: dict, ops: list[Op], outputs: list) -> list[Verdict]:
    p = APPLY_PREC
    ref_rules = {("gauss", n): _gauss_t01(n + 1, p) for n in APPLY_GAUSS}
    ref_rules.update({("cotes", n): ref.newton_cotes_exact(n) for n in APPLY_COTES})
    out = []
    for op, value in zip(ops, outputs):
        req = op.spec
        fdf = _integrand_ref(req)
        if op.kind in ("apply", "terms"):
            nodes, weights = ref_rules[req["rule"]]
            terms, tols = ref.apply_reference(nodes, weights, fdf, req["g"], req["delta"], p)
            if op.kind == "apply":
                out.append(_check_sum(value, terms, tols, p, "apply_rule"))
            elif len(value) != len(terms):
                out.append(Verdict(False, 0.0, "node_terms: wrong length"))
            else:
                out.append(_worst([_check_sum(v, [t], [e], p, f"node_terms[{j}]")
                                   for j, (v, t, e) in enumerate(zip(value, terms, tols))]))
        elif op.kind == "report":
            nodes, weights = ref_rules[req["rule"]]
            dec, *report = value
            terms, tols = ref.apply_reference(nodes, weights, fdf, 0, 1, p)
            exact_ok = tuple(report) == _exact_report(req["rule"], nodes, weights, req["coeffs"])
            out.append(_worst([_check_sum(dec, terms, tols, p, "report value"),
                               Verdict(exact_ok, None, "" if exact_ok else "exact report differs")]))
        else:
            rule, applied = value
            nodes = sorted(req["nodes"])
            if op.kind == "interp_exact":
                weights = ref.lagrange_weights_exact(nodes)
                ok = list(rule.nodes_exact) == nodes and list(rule.weights_exact) == weights
                parts = [Verdict(ok, None, "" if ok else "exact interpolatory weights differ"),
                         _compare(rule.weights, weights, p, True, "weights")]
            else:
                weights = ref.lagrange_weights_dec(nodes, p)
                parts = [_compare(rule.nodes, nodes, p, False, "nodes"),
                         _compare(rule.weights, weights, p, True, "weights")]
            terms, tols = ref.apply_reference(nodes, weights, fdf, req["g"], req["delta"], p)
            parts.append(_check_sum(applied, terms, tols, p, "application"))
            out.append(_worst(parts))
    return out


# -- cli ---------------------------------------------------------------------------

CLI_TABLES = ["tables", "--n-min", "0", "--n-max", "12"]
CLI_MAX_ORDER = 12
CLI_DIGITS = 16  # the CLI prints values to 16 significant digits


def _dec_str(x: Fraction) -> str:
    # Exact: the benchmark's limits have denominators dividing 100.
    with localcontext(ref.context(CLI_PREC)):
        return str(ref.to_dec(x).normalize())


def golden_name(args: list[str]) -> str:
    return "_".join(a.lstrip("-") for a in args) + ".out"


def cli_fixed_invocations() -> list[list[str]]:
    """Invocations whose stdout is compared byte for byte with golden/."""
    fixed = [CLI_TABLES, CLI_TABLES + ["--format", "csv"], CLI_TABLES + ["--format", "json"],
             ["demo-1815"]]
    fixed += [["error-coeffs", "--n", str(n), "--K", "64"] for n in range(CLI_MAX_ORDER + 1)]
    return fixed


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("QUAD_PRECISION", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_setup(seed: int) -> dict:
    rng = _rng("cli", seed, "invocations")
    WORK.mkdir(exist_ok=True)
    invocations = [{"args": a, "golden": golden_name(a)} for a in cli_fixed_invocations()[:4]]
    n = rng.randint(0, CLI_MAX_ORDER)
    invocations.append({"args": ["error-coeffs", "--n", str(n), "--K", "64"],
                        "golden": golden_name(["error-coeffs", "--n", str(n), "--K", "64"])})

    kind = rng.choice(["gauss", "cotes"])
    n = rng.randint(0 if kind == "gauss" else 1, CLI_MAX_ORDER)
    coeffs = _rand_poly(rng, rng.randint(1, 2 * n + 3))
    invocations.append({"args": ["integrate", "--rule", kind, "--n", str(n), "--fn", _poly_name(coeffs)],
                        "rule": (kind, n), "coeffs": coeffs})

    kind = rng.choice(["gauss", "cotes"])
    n = rng.randint(0 if kind == "gauss" else 1, CLI_MAX_ORDER)
    samples = [Decimal(rng.randrange(-10 ** 20, 10 ** 20)).scaleb(-rng.randint(10, 20))
               for _ in range(n + 1)]
    path = WORK / "samples.txt"
    path.write_text(f"# rule {kind} n={n}\n" + "".join(f"{v}\n" for v in samples), encoding="utf-8")
    invocations.append({"args": ["integrate", "--rule", kind, "--n", str(n), "--samples", str(path)],
                        "rule": (kind, n), "samples": samples})

    kind = rng.choice(["gauss", "cotes"])
    n = rng.randint(0 if kind == "gauss" else 1, CLI_MAX_ORDER)
    req = _rand_integrand(rng, INTEGRANDS.index("reciprocal-log"))
    invocations.append({"args": ["integrate", "--rule", kind, "--n", str(n), "--fn", "reciprocal-log",
                                 "--from", _dec_str(req["g"]), "--width", _dec_str(req["delta"])],
                        "rule": (kind, n), "g": req["g"], "delta": req["delta"]})
    rng.shuffle(invocations)
    # Start the interpreter once so that byte-code compilation and the file cache
    # are not charged to the first timed invocation.
    subprocess.run([sys.executable, "-m", "gaussquad.cli", "--help"], cwd=ROOT, env=cli_env(),
                   capture_output=True, check=True)
    return {"invocations": invocations}


def cli_command(args: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, "-X", "importtime", str(BENCH / "cli_traced.py"), *args]
    return [sys.executable, "-m", "gaussquad.cli", *args]


def cli_ops(state: dict, traced: bool = False) -> list[Op]:
    env = cli_env()

    def make(inv):
        cmd = cli_command(inv["args"], traced)

        def invoke(s):
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
            return proc

        return Op(inv["args"][0], invoke, inv, fingerprint=lambda proc: proc.stdout)

    return [make(inv) for inv in state["invocations"]]


def _parse_kv(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _check_printed(printed: str, r: Decimal, what: str, scale: Decimal | None = None) -> Verdict:
    """A 16-digit printed value within one unit in the 16th digit of the reference.

    For a sum, scale is the sum of the magnitudes of its terms: a sum that
    cancels to nearly zero is judged on that scale, as the CLI's own working
    precision is.
    """
    with localcontext(ref.context(CLI_PREC)):
        err = abs(Decimal(printed) - r)
        size = max(abs(r), scale or 0) or Decimal(1)
        ok = err <= Decimal(1).scaleb(size.adjusted() - (CLI_DIGITS - 1))
        return Verdict(ok, ref.digits(err, size, CLI_DIGITS) / CLI_DIGITS,
                       "" if ok else f"{what}: printed {printed}, reference {r:.20e}")


def _sum_and_scale(terms) -> tuple[Decimal, Decimal]:
    with localcontext(ref.context(CLI_PREC)):
        return sum(terms, Decimal(0)), sum((abs(t) for t in terms), Decimal(0))


def _cli_ref_rule(rule: tuple[str, int]):
    kind, n = rule
    return _gauss_t01(n + 1, CLI_PREC) if kind == "gauss" else ref.newton_cotes_exact(n)


def _check_tables_json(text: str) -> Verdict:
    import json

    parts = []
    for row in json.loads(text):
        nodes, weights = _gauss_t01(row["n"] + 1, CLI_PREC)
        parts += [_check_printed(v, r, f"tables n={row['n']} node") for v, r in zip(row["nodes"], nodes)]
        parts += [_check_printed(v, r, f"tables n={row['n']} weight") for v, r in zip(row["weights"], weights)]
    return _worst(parts)


def _check_error_coeffs(text: str, n: int) -> Verdict:
    want = ref.gauss_error_series_t01(n)
    got = [Fraction(line.split("=", 1)[1]) for line in text.splitlines()]
    ok = got[:len(want)] == want
    return Verdict(ok, None, "" if ok else f"error-coeffs n={n} differs from closed form")


def cli_verify(state: dict, ops: list[Op], outputs: list) -> list[Verdict]:
    out = []
    for op, proc in zip(ops, outputs):
        inv = op.spec
        text = proc.stdout.decode("utf-8")
        if "golden" in inv:
            same = proc.stdout == (GOLDEN / inv["golden"]).read_bytes()
            parts = [Verdict(same, None, "" if same else f"{inv['golden']}: stdout differs")]
            if inv["args"][-1] == "json":
                parts.append(_check_tables_json(text))
            if inv["args"][0] == "error-coeffs":
                parts.append(_check_error_coeffs(text, int(inv["args"][2])))
            out.append(_worst(parts))
            continue
        got = _parse_kv(text)
        nodes, weights = _cli_ref_rule(inv["rule"])
        if "coeffs" in inv:
            coeffs = inv["coeffs"]
            fdf = ref.poly_with_derivative(coeffs)
            terms, _ = ref.apply_reference(nodes, weights, fdf, 0, 1, CLI_PREC)
            quad, scale = _sum_and_scale(terms)
            try:
                report = tuple(Fraction(got[k]) for k in ("exact_value", "exact_error", "true_integral"))
            except (KeyError, ValueError):
                report = None
            ok = report == _exact_report(inv["rule"], nodes, weights, coeffs)
            out.append(_worst([_check_printed(got.get("value", "NaN"), quad, "integrate poly value", scale),
                               Verdict(ok, None, "" if ok else "integrate poly: exact report differs")]))
        elif "samples" in inv:
            with localcontext(ref.context(CLI_PREC)):
                terms = [ref.to_dec(w) * v for w, v in zip(weights, inv["samples"])]
            r, scale = _sum_and_scale(terms)
            out.append(_check_printed(got.get("value", "NaN"), r, "integrate samples", scale))
        else:
            terms, _ = ref.apply_reference(nodes, weights, ref.recip_log,
                                           inv["g"], inv["delta"], CLI_PREC)
            r, scale = _sum_and_scale(terms)
            out.append(_check_printed(got.get("value", "NaN"), r, "integrate reciprocal-log", scale))
    return out


# Workloads whose passes after the first each run in a fresh interpreter.
FRESH_PASSES = {"sweep"}

WORKLOADS = {
    "sweep": (sweep_setup, sweep_ops, sweep_verify),
    "apply": (apply_setup, apply_ops, apply_verify),
    "cli": (cli_setup, cli_ops, cli_verify),
}
