"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``; pytest also
shows the captured line whenever a test fails).

Criterion 1 and the 1815 misprint: the demo's first six totals are held
within one unit of the last printed digit of the classical table.  Its
seventh entry, 8406.2431211, is not: it was assembled from seven
hand-computed 7-decimal products, each carrying about one unit of error in
its last digit, and their drift accumulated to +2.6e-7.  The exact 7-node
value is 8406.2431208437... and the true integral is 8406.2431208462...
(from the independent classical-recurrence oracle in ``oracles.py`` and
externally from eigenvalue-based software), so no correct computation lands
within one unit of that entry.  The seventh total is therefore held, at the
same one-unit tolerance of 1e-7, to the oracle's exact 7-node value, and the
test also asserts that the printed entry lies more than one unit from it.
"""

import random
import re
import time
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from gaussquad.cli import main
from gaussquad.gausscf import (
    annihilating_node_poly,
    gauss_rule,
    leading_error_constant,
    legendre_pair,
    weight_polynomial,
)
from gaussquad.interprule import (
    T01,
    U11,
    apply_rule,
    error_coefficients,
    interpolatory_rule,
    named_integrand,
    newton_cotes,
)
from gaussquad.momseries import moment_series_u, product_split
from gaussquad.numerics import format_sig
from oracles import (
    DEMO_PRINTED,
    demo_gauss_totals,
    lagrange_weights_hp,
    legendre_nodes,
)

F = Fraction

ABS_40 = Decimal("1e-40")


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def test_criterion_1_demo_reproduction(capsys):
    exact_7 = demo_gauss_totals()[6]
    one_unit_7 = Decimal("1e-7")
    start = time.perf_counter()
    code = main(["demo-1815", "--n-max", "6"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    values = re.findall(r"^n=\d+\s+value=([0-9.]+)", out, re.M)
    references = [(want, "table prints") for want in DEMO_PRINTED[:6]]
    references.append((exact_7, "exact 7-node value is"))
    units = [Decimal("1e-6")] * 6 + [one_unit_7]
    mismatches = []
    for n, (got, (want, source), unit) in enumerate(zip(values, references, units)):
        deviation = abs(Decimal(got) - Decimal(want))
        if deviation > unit:
            mismatches.append(
                f"n={n}: computed {got}, {source} {want} "
                f"({deviation / unit:.2f} units of the last printed digit)"
            )
    misprint_units = abs(Decimal(DEMO_PRINTED[6]) - exact_7) / one_unit_7
    ok = (
        code == 0
        and len(values) == 7
        and elapsed < 5.0
        and not mismatches
        and misprint_units > 1
    )
    report(
        "criterion 1: demo totals within 1 unit of the printed table (n=0..5) "
        "and of the exact 7-node value (n=6), < 5 s",
        ok,
        f"{elapsed:.2f} s; printed n=6 entry {misprint_units:.2f} units off",
    )
    assert code == 0
    assert len(values) == 7
    assert elapsed < 5.0, f"demo took {elapsed:.2f} s"
    assert not mismatches, (
        "demo totals outside one unit of the last printed digit: "
        + "; ".join(mismatches)
    )
    assert misprint_units > 1, (
        f"the 1815 seventh entry {DEMO_PRINTED[6]} is a known misprint, yet it "
        f"lies within one unit of the exact 7-node value {exact_7}"
    )


def test_criterion_2_exactness_degree(capsys):
    spot = {0: F(1, 12), 1: F(1, 180), 2: F(1, 2800)}
    problems = []
    for n in range(9):
        rule_t = gauss_rule(n, convention=T01)
        ks = error_coefficients(rule_t, 2 * n + 3)
        k_first = leading_error_constant(n)[1]
        if any(ks[m] != 0 for m in range(2 * n + 2)):
            problems.append(f"n={n}: nonzero error below degree 2n+1")
        if ks[2 * n + 2] != k_first:
            problems.append(f"n={n}: leading error {ks[2 * n + 2]} != {k_first}")
        if n in spot and ks[2 * n + 2] != spot[n]:
            problems.append(f"n={n}: spot value mismatch")
        # Decimal route: monomials through the rule at high precision.
        rule60 = gauss_rule(n, prec=60, convention=T01)
        with localcontext(Context(prec=70)):
            for m in range(2 * n + 2):
                got = apply_rule(rule60, lambda x, m=m: x**m, prec=60)
                if abs(got - Decimal(1) / (m + 1)) > ABS_40:
                    problems.append(f"n={n}, m={m}: decimal route off")
            m = 2 * n + 2
            got = apply_rule(rule60, lambda x, m=m: x**m, prec=60)
            err = Decimal(1) / (m + 1) - got
            want = Decimal(k_first.numerator) / k_first.denominator
            if abs(err - want) > Decimal("1e-35") * abs(want):
                problems.append(f"n={n}: decimal leading error off ({err} vs {want})")
    ok = not problems
    report("criterion 2: degree 2n+1 exactness and leading error, n=0..8", ok)
    assert ok, "; ".join(problems)


def test_criterion_3_annihilation_identity(capsys):
    problems = []
    for n in range(9):
        w = legendre_pair(n + 1).denominator
        _, tail = product_split(w, moment_series_u(2 * (n + 1) + 3))
        if any(tail[q] != 0 for q in range(n + 1)):
            problems.append(f"n={n}")
    ok = not problems
    report("criterion 3: first n+1 tail coefficients vanish exactly, n=0..8", ok)
    assert ok, f"annihilation fails for {problems}"


def test_criterion_4_oracle_node_agreement(capsys):
    problems = []
    for n in range(9):
        got = gauss_rule(n, 50).nodes
        want = legendre_nodes(n + 1, 50)
        for a, b in zip(got, want):
            if abs(a - b) > ABS_40:
                problems.append(f"n={n}: |{a} - {b}| > 1e-40")
            if format_sig(a, 16) != format_sig(b, 16):
                problems.append(f"n={n}: 16-digit strings differ")
    ok = not problems
    report("criterion 4: nodes match the classical-recurrence oracle, n=0..8", ok)
    assert ok, "; ".join(problems)


def test_criterion_5_weight_triple_agreement(capsys):
    problems = []
    for n in range(7):
        rule = gauss_rule(n)
        residue = list(rule.weights)
        lagrange = lagrange_weights_hp(list(rule.nodes), U11, 50)
        rho = weight_polynomial(n)
        with localcontext(Context(prec=60)):
            poly_vals = [rho.eval_hp(b) for b in rule.nodes]
            for j in range(rule.npoints):
                pairs = [
                    ("residue/lagrange", residue[j] - lagrange[j]),
                    ("residue/polynomial", residue[j] - poly_vals[j]),
                    ("lagrange/polynomial", lagrange[j] - poly_vals[j]),
                ]
                for label, diff in pairs:
                    if abs(diff) > ABS_40:
                        problems.append(f"n={n}, j={j}: {label} differ by {diff}")
        if n == 0:
            if not (residue[0] == 1 and rho == legendre_pair(1).numerator):
                problems.append("n=0: exact path should give weight exactly 1")
    ok = not problems
    report("criterion 5: three weight routes agree pairwise, n=0..6", ok)
    assert ok, "; ".join(problems)


def test_criterion_6_error_series_dual_computation(capsys):
    rng = random.Random(20150101)
    node_sets = []
    while len(node_sets) < 20:
        size = rng.randint(1, 6)
        nodes = set()
        while len(nodes) < size:
            nodes.add(F(rng.randint(0, 36), 36))
        node_sets.append(sorted(nodes))
    rules = [interpolatory_rule(nodes, T01) for nodes in node_sets]
    rules += [newton_cotes(n) for n in range(1, 7)]
    problems = []
    for idx, rule in enumerate(rules):
        ks = error_coefficients(rule, 13)  # series route, checked to m = 12
        powers = [F(1)] * rule.npoints
        for m in range(13):
            direct = F(1, m + 1) - sum(
                (w * p for w, p in zip(rule.weights_exact, powers)), F(0)
            )
            if direct != ks[m]:
                problems.append(f"rule {idx}, m={m}: {direct} != {ks[m]}")
            powers = [p * a for p, a in zip(powers, rule.nodes_exact)]
    ok = not problems
    report(
        "criterion 6: direct and series error coefficients equal exactly, m<=12",
        ok,
        f"{len(rules)} rules",
    )
    assert ok, "; ".join(problems)


def test_criterion_7_even_cotes_bonus_degree(capsys):
    problems = []
    for n in (2, 4, 6):
        ks = error_coefficients(newton_cotes(n), n + 2)
        if ks[n + 1] != 0:
            problems.append(f"n={n}: k[{n + 1}] = {ks[n + 1]}")
    ok = not problems
    report("criterion 7: even-n Cotes rules kill the n+1 coefficient exactly", ok)
    assert ok, "; ".join(problems)


def test_criterion_8_linear_system_equivalence(capsys):
    problems = []
    for n in range(4):
        w = legendre_pair(n + 1).denominator
        bridged = w.compose_affine(2, -1).scale(F(1, 2 ** (n + 1)))
        if annihilating_node_poly(n, T01) != bridged:
            problems.append(f"n={n} (t form)")
        if annihilating_node_poly(n, U11) != w:
            problems.append(f"n={n} (u form)")
    ok = not problems
    report("criterion 8: direct annihilation solve matches the recurrence, n=0..3", ok)
    assert ok, "; ".join(problems)


def test_criterion_9_exponential_convergence(capsys):
    f = named_integrand("reciprocal-log")
    values = [
        apply_rule(gauss_rule(n, convention=T01), f, 100000, 100000)
        for n in range(7)
    ]
    with localcontext(Context(prec=60)):
        errors = [abs(v - values[6]) for v in values[:6]]
    problems = []
    factors = []
    for n in range(1, 6):
        if not errors[n] < errors[n - 1]:
            problems.append(f"n={n}: error did not decrease")
        elif errors[n - 1] < 5 * errors[n]:
            problems.append(
                f"n={n}: factor {errors[n - 1] / errors[n]:.1f} below 5"
            )
        else:
            factors.append(float(errors[n - 1] / errors[n]))
    ok = not problems
    report(
        "criterion 9: demo error shrinks by at least 5x per added node",
        ok,
        "factors " + ", ".join(f"{x:.0f}" for x in factors),
    )
    assert ok, "; ".join(problems)
