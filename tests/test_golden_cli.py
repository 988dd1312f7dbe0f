"""Golden CLI corpus: every subcommand, in all three formats, at the
default precision on a small (rho, n) grid, plus ``density --grid 101``
and ``bounds --alpha`` at precisions 6, 10 and 15, compared byte for
byte with the outputs stored in ``golden/cli_corpus.json``.

The fixture pins behaviour across refactors; it is not regenerated to
make a change pass.  To build it for a new set of commands, run

    PYTHONPATH=src python3 tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from corrconc.cli import main

FIXTURE = pathlib.Path(__file__).parent / "golden" / "cli_corpus.json"

_FORMATS = ("csv", "markdown", "jsonl")
_GRID = [(rho, n) for rho in (0.0, 0.56, -0.95) for n in (3, 4, 10, 30)]


def _commands() -> list[list[str]]:
    base = []
    for rho, n in _GRID:
        point = ["--rho", str(rho), "--n", str(n)]
        base.append(["moments", *point])
        base.append(["density", *point, "--grid", "21"])
        base.append(["density", *point, "--r", "-1", "--r", "0.3", "--r", "1"])
        base.append(["bounds", *point, "--t", "0.25"])
        base.append(["bounds", *point, "--alpha", "0.05"])
    base.append(["moments", "--rho", "1.0", "--n", "10"])
    base.append(["bounds", "--rho", "0.3", "--n", "3", "--alpha", "2"])
    base.append(["density", "--rho", "0.2", "--n", "10", "--grid", "0"])
    for n in (5, 10):
        base.append(["table1", "--n", str(n), "--reps", "500", "--seed", "11"])
        base.append(["coverage", "--n", str(n), "--reps", "500", "--seed", "11"])
    for precision in ("6", "10", "15"):
        at = ["--rho", "0.56", "--n", "10", "--precision", precision]
        base.append(["density", *at, "--grid", "101"])
        base.append(["bounds", *at, "--alpha", "0.05"])
    return [[*argv, "--format", fmt] for argv in base for fmt in _FORMATS]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def corpus():
    return {tuple(entry["argv"]): entry for entry in json.loads(FIXTURE.read_text())}


def test_corpus_covers_every_command(corpus):
    assert sorted(corpus) == sorted(tuple(argv) for argv in _commands())
    assert {argv[0] for argv in corpus} == {"moments", "table1", "coverage", "bounds", "density"}


def test_outputs_are_byte_identical(corpus):
    mismatched = [
        " ".join(argv) for argv in _commands() if _run(argv) != corpus[tuple(argv)]
    ]
    assert not mismatched, mismatched


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_cli.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps([_run(argv) for argv in _commands()], indent=1) + "\n")
