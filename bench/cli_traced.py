"""Run ``gaussquad.cli`` with the benchmark's span wrappers installed.

Usage: python3 bench/cli_traced.py <quad arguments>

Behaves like ``python -m gaussquad.cli`` on stdout and exit code, and writes
one extra stderr line, ``BENCH_TRACE <json>``, with the span stats of the
invocation.  The cli workload's traced run starts it once per invocation.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    import gaussquad.cli  # noqa: F401  (loads the cli module so its bindings get wrapped)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = sys.modules["gaussquad.cli"].main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        print("BENCH_TRACE " + json.dumps({"stats": dict(tracer.stats), "counts": dict(tracer.counts),
                                           "root_s": tracer.root_s}), file=sys.stderr)
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    raise SystemExit(main())
