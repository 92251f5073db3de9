"""CLI stdout against golden files, byte for byte.

bench/golden/ holds the files kept with the benchmark; tests/golden/ holds
outputs they miss: integrate in every format, error-coeffs in CSV and JSON,
and a tables run at precision 80.  Each file is named after
its invocation: the subcommand, then option names and values joined by
underscores, so ``error-coeffs_n_3_K_64.out`` is the stdout of
``quad error-coeffs --n 3 --K 64`` at the default precision.  The command
runs in the file's own directory, so a ``--samples`` value names a file
kept next to the golden output.
"""

from pathlib import Path

import pytest

from gaussquad.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIRS = (ROOT / "bench" / "golden", ROOT / "tests" / "golden")


def argv_of(name: str) -> list[str]:
    command, *rest = Path(name).stem.split("_")
    argv = [command]
    for key, value in zip(rest[::2], rest[1::2]):
        argv += [f"--{key}", value]
    return argv


@pytest.mark.parametrize(
    "path",
    [pytest.param(p, id=p.name) for d in GOLDEN_DIRS for p in sorted(d.glob("*.out"))],
)
def test_stdout_matches_golden(path, capsys, monkeypatch):
    monkeypatch.delenv("QUAD_PRECISION", raising=False)
    monkeypatch.chdir(path.parent)
    assert main(argv_of(path.name)) == 0
    assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()


def test_golden_set_present():
    # An empty glob would leave the test above with nothing to check.
    assert all(any(d.glob("*.out")) for d in GOLDEN_DIRS)
