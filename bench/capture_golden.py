"""Capture the cli workload's golden stdout files and cross-check them.

    python3 bench/capture_golden.py

Run from the root of a checkout of the commit whose output is the golden
one.  Each fixed invocation's stdout is written to bench/golden/, after the
JSON tables have been checked against the reference nodes and weights and
each error series against its closed form; any mismatch aborts the capture.
"""

from __future__ import annotations

import subprocess
import sys

import workloads as w


def main() -> int:
    w.GOLDEN.mkdir(exist_ok=True)
    for args in w.cli_fixed_invocations():
        proc = subprocess.run(w.cli_command(args, traced=False), cwd=w.ROOT, env=w.cli_env(),
                              capture_output=True, check=True)
        text = proc.stdout.decode("utf-8")
        checks = []
        if args[-1] == "json":
            checks.append(w._check_tables_json(text))
        if args[0] == "error-coeffs":
            checks.append(w._check_error_coeffs(text, int(args[2])))
        bad = [v.why for v in checks if not v.ok]
        if bad:
            print(f"{' '.join(args)}: {'; '.join(bad)}", file=sys.stderr)
            return 1
        (w.GOLDEN / w.golden_name(args)).write_bytes(proc.stdout)
        print(f"{w.golden_name(args)}: {len(proc.stdout)} bytes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
