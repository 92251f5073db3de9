"""Benchmark of gaussquad: one workload per run, end to end or traced.

    python3 bench/run.py --workload {sweep,apply,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  The
run starts in a fresh interpreter, builds its inputs from the seed, times
a closed loop of operations, then checks every output against the
independent references in reference.py.  The last stdout line is a JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it records the environment and details of the run.

The loop repeats one fixed pass of operations until --seconds have passed,
and each operation counts with its median pass (README.md, "Noise").
Outputs must repeat exactly from pass to pass.  Workloads in
workloads.FRESH_PASSES run every pass after the first in a fresh
interpreter (--fresh-pass), so that no pass finds a cache warm.  setup_s is
timed in fresh interpreters too (--setup-probe), so every set-up is cold.  A traced run gives half its time
to an untraced run of the same seed in a child interpreter, for the tracing
overhead, and half to the loop with the span wrappers of tracing.py
installed.

`correct` is true when every output was checked and the run's own
invariants held.  Operations that raised or returned an output that misses
its reference are counted in `failed` and in the pass_share metric; see
README.md for why the sweep workload keeps its known failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# The fewest passes an untraced loop makes, however long they take.
MIN_PASSES = 3
# Share of the traced operations' time, less the work they time as their own
# (workloads.OWN_S), that must lie inside spans.  The rest is call overhead.
MIN_SPAN_COVER = 0.97

END_TO_END = ["wall_s", "ops_per_s", "op_p50_ms", "op_p99_ms", "pass_share", "digits_kept",
              "setup_s", "peak_rss_mb"]
UNITS = {"wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
         "pass_share": "ratio", "digits_kept": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

SPANS = ["gausscf.legendre_pair", "gausscf.gauss_rule", "gausscf.weight_polynomial",
         "rootfind.real_roots_symmetric", "ratpoly.eval", "ratpoly.eval_hp", "ratpoly.mul",
         "ratpoly.divrem", "ratpoly.mod_inverse_eval", "momseries.product_split",
         "momseries.divide_tail_by_poly", "interprule.error_coefficients", "interprule.apply_rule",
         "interprule.node_terms", "interprule.to_convention", "interprule.interpolatory_rule.exact",
         "interprule.interpolatory_rule.decimal", "numerics.hp_ln", "numerics.format_sig",
         "numerics.hp_log10_scaled", "cli.main"]
CLI_SUBCOMMANDS = ["tables", "demo-1815", "integrate", "error-coeffs"]
PER_LAYER = ([(f"{s}.calls", "count") for s in SPANS] + [(f"{s}.self_s", "s") for s in SPANS]
             + [("rootfind.roots", "count"), ("rootfind.evals_exact_per_root", "evals/root"),
                ("rootfind.evals_hp_per_root", "evals/root"), ("cli.import_s", "s")]
             + [(f"cli.{c}.wall_ms", "ms") for c in CLI_SUBCOMMANDS]
             + [("trace.overhead_s", "s"), ("trace.bench_self_s", "s")])


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def _decimal_backend() -> str:
    import decimal

    try:
        import _decimal
    except ImportError:
        _decimal = None
    if _decimal is None or decimal.Decimal is not _decimal.Decimal:
        raise BenchError("decimal is the pure-Python _pydecimal; its timings are not comparable")
    return f"_decimal (libmpdec {_decimal.__libmpdec_version__})"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        loose = git / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": _git_commit(),
        "seed": args.seed,
        "decimal": _decimal_backend(),
    }


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _fingerprint(op, out) -> str:
    return hashlib.sha256(repr(op.fingerprint(out)).encode()).hexdigest()


def _one_pass(ops) -> tuple[list, float]:
    """(latency, output, exception) per operation, in a fresh scratch, and the
    operations' own time outside the package.

    The latency is None for a skipped operation.
    """
    scratch: dict = {}
    out = []
    for op in ops:
        t0 = perf_counter()
        try:
            value, exc = op.run(scratch), None
        except workloads.Skipped as skipped:  # counted as failed, with no latency sample
            out.append((None, None, skipped))
            continue
        except Exception as error:  # a failing operation is counted, not fatal
            value, exc = None, error
        out.append((perf_counter() - t0, value, exc))
    return out, scratch.get(workloads.OWN_S, 0.0)


def _untraced_cmd(args, *extra: str, seconds: int | None = None) -> list[str]:
    """This script, untraced, for the same workload and seed."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds or args.seconds), "--trace", "0",
            *extra]


def _child_json(args, flag: str):
    """The last stdout line of this script run with flag in a child interpreter."""
    proc = subprocess.run(_untraced_cmd(args, flag), cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"{flag} failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_loop(ops, seconds: float, min_passes: int, max_passes: int | None = None,
                fresh_args=None, after_pass=None) -> tuple[list, float, int]:
    """Repeats the pass of ops until seconds have passed, making at least
    min_passes and at most max_passes passes.  after_pass, if given, is
    called with the seconds elapsed after each pass.

    Returns, per operation, (latencies, first output, exception, changed),
    with one latency per pass it completed; the time the
    passes made in this process spent in the package, that is the summed
    latencies less the operations' own time; and the number of passes.

    With fresh_args, passes after the first run in child interpreters and are
    compared by fingerprint; otherwise all passes run here and outputs are
    compared directly.
    """
    def key(op, out, exc):
        if fresh_args is not None:
            return type(exc).__name__, None if exc else _fingerprint(op, out)
        return type(exc), None if exc else op.fingerprint(out)

    def package_s(one_pass, own_s):
        return sum(lat for lat, *_ in one_pass if lat is not None) - own_s

    t0 = perf_counter()
    first, own_s = _one_pass(ops)
    here_s = package_s(first, own_s)
    if after_pass:
        after_pass(perf_counter() - t0)
    lats = [[] if lat is None else [lat] for lat, _, _ in first]
    want = [key(op, out, exc) for op, (_, out, exc) in zip(ops, first)]
    changed = [False] * len(ops)
    passes = 1

    def another() -> bool:
        if passes < min_passes:
            return True
        if max_passes is not None and passes >= max_passes:
            return False
        # Start a pass only if at least half of an average one still fits.
        now = perf_counter()
        return now + (now - t0) / passes / 2 < t0 + seconds

    while another():
        if fresh_args is not None:
            again = [(lat, (name, fp)) for lat, name, fp in _child_json(fresh_args, "--fresh-pass")]
        else:
            one, own_s = _one_pass(ops)
            here_s += package_s(one, own_s)
            again = [(lat, key(op, out, exc)) for op, (lat, out, exc) in zip(ops, one)]
        for i, (lat, got) in enumerate(again):
            changed[i] |= got != want[i]
            if lat is not None:
                lats[i].append(lat)
        passes += 1
        if after_pass:
            after_pass(perf_counter() - t0)
    return ([(lats[i], first[i][1], first[i][2], changed[i]) for i in range(len(ops))],
            here_s, passes)


def _untraced_child(args, seconds: int) -> tuple[dict, dict]:
    """Detail and result of an untraced run of seconds, without setup_s, in a child."""
    proc = subprocess.run(_untraced_cmd(args, "--overhead-ref", seconds=seconds), cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"untraced reference run failed: {proc.stderr[-500:]}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _merge_cli_traces(tracer, results) -> list[float]:
    """Fold the BENCH_TRACE lines of traced CLI subprocesses into tracer; returns import times."""
    imports = []
    for _, proc, _, _ in results:
        if proc is None:
            continue
        seen = False
        import_us = 0
        for line in proc.stderr.decode(errors="replace").splitlines():
            if line.startswith("BENCH_TRACE "):
                data = json.loads(line[len("BENCH_TRACE "):])
                for name, (calls, total, child) in data["stats"].items():
                    st = tracer.stats[name]
                    st[0] += calls
                    st[1] += total
                    st[2] += child
                for name, count in data["counts"].items():
                    tracer.counts[name] += count
                tracer.root_s += data["root_s"]
                seen = True
            elif line.startswith("import time:"):
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() in ("gaussquad", "gaussquad.cli"):
                    import_us += int(fields[1])
        if not seen:
            raise BenchError("a traced CLI invocation wrote no BENCH_TRACE line")
        imports.append(import_us / 1e6)
    return imports


def _check_trace(workload: str, tracer, state: dict, ops, results, passes: int,
                 ops_s: float) -> None:
    """Consistency counts that hold only if every binding site was wrapped, and,
    in process, that spans cover the time ops_s the operations spent in the package."""

    def c(name):
        calls = tracer.calls(name)
        if calls % passes:
            raise BenchError(f"{name}.calls = {calls} is not a multiple of {passes} passes")
        return calls // passes

    if workload != "cli" and not MIN_SPAN_COVER * ops_s <= tracer.root_s <= ops_s:
        raise BenchError(f"spans cover {tracer.root_s:.4f} s of {ops_s:.4f} s spent in the package; "
                         f"a package call outside every span?")
    done = {}
    for op, (_, out, exc, _) in zip(ops, results):
        key = (op.kind, exc is None)
        done[key] = done.get(key, 0) + 1

    def expect(what, got, want):
        if got != want:
            raise BenchError(f"trace self-check on {workload}: {what} = {got}, expected {want}")

    if workload == "sweep":
        expect("gausscf.gauss_rule.calls", c("gausscf.gauss_rule"), len(state["orders"]))
        expect("rootfind.real_roots_symmetric.calls", c("rootfind.real_roots_symmetric"),
               c("gausscf.gauss_rule"))
        expect("gausscf.legendre_pair.calls", c("gausscf.legendre_pair"),
               c("gausscf.gauss_rule") + c("gausscf.weight_polynomial"))
        expect("ratpoly.mod_inverse_eval.calls", c("ratpoly.mod_inverse_eval"), len(state["orders"]))
        expect("interprule.to_convention.calls", c("interprule.to_convention"),
               done.get(("gauss_rule", True), 0))
        expect("interprule.error_coefficients.calls", c("interprule.error_coefficients"),
               done.get(("to_convention", True), 0))
    if workload == "apply":
        kinds = {}
        for op in ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        interp = kinds.get("interp_exact", 0) + kinds.get("interp_decimal", 0)
        expect("interprule.apply_rule.calls", c("interprule.apply_rule"),
               kinds.get("apply", 0) + kinds.get("report", 0) + interp)
        expect("interprule.node_terms.calls", c("interprule.node_terms"), kinds.get("terms", 0))
        expect("interprule.error_coefficients.calls", c("interprule.error_coefficients"),
               kinds.get("report", 0))
        expect("interprule.interpolatory_rule.exact.calls",
               c("interprule.interpolatory_rule.exact"), kinds.get("interp_exact", 0))
        expect("interprule.interpolatory_rule.decimal.calls",
               c("interprule.interpolatory_rule.decimal"), kinds.get("interp_decimal", 0))
    if workload == "cli":
        expect("cli.main.calls", c("cli.main"), len(ops))


def run(args) -> tuple[dict, dict, dict]:
    """Returns (environment, detail, result) for one run."""
    if not (SRC / "gaussquad" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'gaussquad'}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    env = _environment(args)

    # A traced run gives half its time to the untraced child and half to its loop.
    seconds = args.seconds / 2 if args.trace else args.seconds
    child_detail, child_result = ({}, {})
    if args.trace:
        child_detail, child_result = _untraced_child(args, max(1, args.seconds // 2))

    setup_fn, ops_fn, verify_fn = workloads.WORKLOADS[args.workload]
    fresh = args.workload in workloads.FRESH_PASSES
    # A traced run makes one pass at least; on a fresh-pass workload, its one
    # in-process pass only.
    min_passes, max_passes = (1, 1 if fresh else None) if args.trace else (MIN_PASSES, None)
    import gaussquad  # noqa: F401  (imported before the wrappers are installed)

    tracer = None
    if args.trace and args.workload != "cli":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif not args.trace:
        tracing.check_not_installed()

    state = setup_fn(args.seed)
    ops = ops_fn(state, traced=bool(args.trace))
    if tracer:
        tracer.reset()

    # A set-up is `import gaussquad` plus one input build, in a fresh
    # interpreter.  The probes are spread over the loop, so that setup_s meets
    # the machine's slow and fast spells as the loop does.
    setups: list[float] = []

    def probe_setups(elapsed: float) -> None:
        while len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(sum(_child_json(args, "--setup-probe")))

    probing = not args.trace and not args.overhead_ref
    t0 = perf_counter()
    results, ops_s, passes = _timed_loop(ops, seconds, min_passes, max_passes,
                                         args if fresh else None, probe_setups if probing else None)
    loop_s = perf_counter() - t0
    # cli's spans come from the processes of its first pass.
    traced_passes = 1 if fresh or args.workload == "cli" else passes
    rss = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    if args.workload != "cli":  # the CLI processes run cli's loop, this one only waits
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    if args.trace:
        if tracer is None:
            tracer = tracing.Tracer()
            imports = _merge_cli_traces(tracer, results)
        else:
            tracing.check_installed(tracer)
            imports = []
        _check_trace(args.workload, tracer, state, ops, results, traced_passes, ops_s)
    else:
        tracing.check_not_installed()

    ok_idx = [i for i, (_, _, exc, _) in enumerate(results) if exc is None]
    verdicts = verify_fn(state, [ops[i] for i in ok_idx], [results[i][1] for i in ok_idx])
    if len(verdicts) != len(ok_idx):
        raise BenchError("verification skipped an output")
    verdict_of = dict(zip(ok_idx, verdicts))

    reasons = []
    passed = 0
    digits = []
    for i, (_, _, exc, changed) in enumerate(results):
        if exc is not None:
            if isinstance(exc, workloads.Skipped):
                what = "skipped, its input failed"
            else:
                what = f"raised {type(exc).__name__}"
            reasons.append(f"{ops[i].kind} {ops[i].spec.get('n', '')}: {what}")
            continue
        v = verdict_of[i]
        if v.digits is not None:
            digits.append(v.digits)
        if changed:
            reasons.append(f"{ops[i].kind}: output changed between passes")
        elif v.ok:
            passed += 1
        else:
            reasons.append(f"{ops[i].kind}: {v.why}")
    attempted = len(results)
    failed = attempted - passed
    per_op = [lats for lats, _, _, _ in results if lats]
    if not per_op or not digits:
        raise BenchError("no operation completed, nothing to measure")
    latencies = [statistics.median(lats) for lats in per_op]
    wall_s = sum(latencies)

    kinds = {}
    for op, (lats, _, _, _) in zip(ops, results):
        if lats and args.workload == "cli":
            kinds.setdefault(op.kind, []).append(statistics.median(lats) * 1000)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": passes, "loop_s": loop_s,
        "pass_share": passed / attempted, "digits_kept": min(digits),
        "failures": sorted(set(reasons))[:12],
        "cli_wall_ms": {k: statistics.median(v) for k, v in sorted(kinds.items())},
    }
    if args.trace and args.workload != "cli":
        detail["span_cover"] = tracer.root_s / ops_s

    if not args.trace:
        values = {
            "wall_s": wall_s,
            "ops_per_s": passed / wall_s,
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_p99_ms": _percentile(latencies, 99) * 1000,
            "pass_share": passed / attempted,
            "digits_kept": min(digits),
            "peak_rss_mb": max(rss) / 1024,
        }
        if probing:
            probe_setups(float("inf"))
            values["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END if k in values}
    else:
        # Counts and self times are per pass: loop totals over the passes made here.
        roots = tracer.counts.get("rrs.roots", 0)
        values = {}
        for s in SPANS:
            values[f"{s}.calls"] = tracer.calls(s) // traced_passes
            values[f"{s}.self_s"] = tracer.self_s(s) / traced_passes
        values["rootfind.roots"] = roots // traced_passes
        values["rootfind.evals_exact_per_root"] = tracer.counts.get("rrs.evals_exact", 0) / roots if roots else 0
        values["rootfind.evals_hp_per_root"] = tracer.counts.get("rrs.evals_hp", 0) / roots if roots else 0
        values["cli.import_s"] = statistics.median(imports) if imports else 0.0
        for sub in CLI_SUBCOMMANDS:
            values[f"cli.{sub}.wall_ms"] = child_detail["cli_wall_ms"].get(sub, 0.0)
        values["trace.overhead_s"] = wall_s - child_result["metrics"]["wall_s"]["value"]
        values["trace.bench_self_s"] = loop_s / passes - tracer.root_s / traced_passes
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    return env, detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--fresh-pass", action="store_true",
                        help="internal: time one untraced pass and print its latencies and fingerprints")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time the import and one set-up in this fresh interpreter")
    parser.add_argument("--overhead-ref", action="store_true",
                        help="internal: an untraced run for a traced parent, without setup_s")
    args = parser.parse_args(argv)
    if args.fresh_pass:
        return fresh_pass_main(args)
    if args.setup_probe:
        return setup_probe_main(args)
    try:
        env, detail, result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        _clean_workdir()
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps(result))
    return 0


def fresh_pass_main(args) -> int:
    """One pass in this fresh interpreter, for a parent run's FRESH_PASSES workload."""
    sys.path.insert(0, str(SRC))
    setup_fn, ops_fn, _ = workloads.WORKLOADS[args.workload]
    import gaussquad  # noqa: F401

    tracing.check_not_installed()
    ops = ops_fn(setup_fn(args.seed))
    print(json.dumps([[lat, type(exc).__name__, None if exc else _fingerprint(op, out)]
                      for op, (lat, out, exc) in zip(ops, _one_pass(ops)[0])]))
    return 0


def setup_probe_main(args) -> int:
    """Seconds for `import gaussquad` and for one set-up, cold, in this fresh interpreter."""
    sys.path.insert(0, str(SRC))
    setup_fn = workloads.WORKLOADS[args.workload][0]
    t0 = perf_counter()
    import gaussquad  # noqa: F401

    t1 = perf_counter()
    setup_fn(args.seed)
    print(json.dumps([t1 - t0, perf_counter() - t1]))
    return 0


def _clean_workdir() -> None:
    shutil.rmtree(workloads.WORK, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
