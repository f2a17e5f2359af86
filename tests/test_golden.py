"""Golden `--format machine` outputs: every byte and exit code is locked.

The files under tests/golden/ are the oracle for refactors that must not
change an answer.  Rewrite them only for a deliberate change to the report
output, from the root of a checkout:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from stratakit.cli import main

from conftest import FIXTURES, fixture_path

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXIT_CODES = os.path.join(GOLDEN, "exit_codes.json")

ALGEBRAS = sorted(name[:-4] for name in os.listdir(FIXTURES)
                  if name.endswith(".alg"))


def _cases():
    """(case name, argv) for every locked command."""
    out = []
    for cmd in ("analyze", "check"):
        for name in ALGEBRAS:
            out.append((f"{cmd}_{name}", [cmd, fixture_path(name + ".alg")]))
    out.append(("check_borelA_borelB",
                ["check", fixture_path("borelA.alg"),
                 "--borel", fixture_path("borelB.alg")]))
    for module in ("E(3)", "A", "P(1)", "Delta(2)"):
        tag = module.replace("(", "").replace(")", "")
        out.append((f"gfd_a3line_{tag}",
                    ["gfd", fixture_path("a3line.alg"), "--module", module]))
    return [(name, argv + ["--format", "machine"]) for name, argv in out]


CASES = _cases()


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def golden_path(name):
    return os.path.join(GOLDEN, name + ".txt")


@pytest.mark.parametrize("name,argv", CASES, ids=[n for n, _ in CASES])
def test_machine_output_matches_golden(name, argv):
    with open(EXIT_CODES, encoding="utf-8") as fh:
        want_code = json.load(fh)[name]
    with open(golden_path(name), encoding="utf-8", newline="") as fh:
        want_out = fh.read()
    code, out = run(argv)
    assert code == want_code
    assert out == want_out


def capture():
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name, argv in CASES:
        codes[name], out = run(argv)
        with open(golden_path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        print(name, codes[name])
    with open(EXIT_CODES, "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    capture()
