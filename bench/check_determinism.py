"""Check that one seed gives the same counts on every run.

    python3 bench/check_determinism.py [--workload W ...] [--seed N]

Makes two traced runs of each workload with the same seed and compares every
count they report: the *.calls metrics, rootfind.roots and
rootfind.evals_*_per_root, attempted and failed, and the pass_share and
digits_kept of the run's detail line.  Timings are not compared.  Exits 1 if
any count differs.  Takes about three minutes for all three workloads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ["sweep", "apply", "cli"]


def counts(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "36", "--trace", "1"],
                          cwd=BENCH.parent, capture_output=True, text=True, check=True)
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    detail, result = json.loads(detail_line)["detail"], json.loads(result_line)
    out = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "evals/root")}
    out.update(attempted=result["attempted"], failed=result["failed"],
               pass_share=detail["pass_share"], digits_kept=detail["digits_kept"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    bad = 0
    for workload in args.workload or WORKLOADS:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        status = "same" if not diff else f"DIFFERENT {diff}"
        print(f"{workload}: {len(first)} counts {status}")
        bad += bool(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
