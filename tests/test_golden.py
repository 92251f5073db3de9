"""CLI stdout against the golden files kept with the benchmark, byte for byte.

Each file in bench/golden/ is named after its invocation: the subcommand,
then option names and values joined by underscores, so
``error-coeffs_n_3_K_64.out`` is the stdout of
``quad error-coeffs --n 3 --K 64`` at the default precision.
"""

from pathlib import Path

import pytest

from gaussquad.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


def argv_of(name: str) -> list[str]:
    command, *rest = Path(name).stem.split("_")
    argv = [command]
    for key, value in zip(rest[::2], rest[1::2]):
        argv += [f"--{key}", value]
    return argv


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.out")))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("QUAD_PRECISION", raising=False)
    assert main(argv_of(name)) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_golden_set_present():
    # An empty glob would leave the test above with nothing to check.
    assert any(GOLDEN.glob("*.out"))
