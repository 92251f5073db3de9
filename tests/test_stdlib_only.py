"""The package computes with the standard library alone.

Exact arithmetic is fractions.Fraction and floating point is
decimal.Decimal; no numerical library is imported at run time.  The check
runs in a fresh interpreter, so modules the test runner itself loaded do
not count, and it fails only if such a library is installed and something
imports it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NUMERICAL = ("numpy", "mpmath", "sympy", "scipy")

PROGRAM = """
import contextlib, io, json, sys
import gaussquad as gq
from gaussquad import cli

rule = gq.gauss_rule(12)
gq.error_coefficients(gq.to_convention(rule, gq.T01), 30)
gq.apply_rule(rule, lambda x: 1 / (1 + x * x), g=0, delta=1)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["tables", "--n-max", "3"])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def test_no_numerical_library_is_loaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("QUAD_PRECISION", None)
    done = subprocess.run([sys.executable, "-c", PROGRAM], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    result = json.loads(done.stdout)
    assert result["code"] == 0
    loaded = {name.partition(".")[0] for name in result["modules"]}
    assert loaded.isdisjoint(NUMERICAL), sorted(loaded.intersection(NUMERICAL))
