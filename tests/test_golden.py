"""Golden `--format machine` outputs: every byte and exit code is locked.

The files under tests/golden/ are the oracle for refactors that must not
change an answer.  The inputs are the fixtures and linear A_n over GF(101),
with rad^2 = 0 (n = 4, 6, 8) or no relations (n = 3, 5), whose description
files are generated here and written into a scratch directory before a run.
Rewrite the goldens only for a deliberate change to the report output, from
the root of a checkout:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from stratakit.cli import main

from conftest import FIXTURES, fixture_path

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXIT_CODES = os.path.join(GOLDEN, "exit_codes.json")

ALGEBRAS = sorted(name[:-4] for name in os.listdir(FIXTURES)
                  if name.endswith(".alg"))


def linear_a_text(n, rad2, p=101):
    """Linear A_n over GF(p), arrows i -> i+1, with every path of length 2
    zero or with no relations, as a description file named A<n>_rad2 or
    A<n>_free."""
    lines = [f"name A{n}_{'rad2' if rad2 else 'free'}", f"field GF {p}",
             "vertices " + " ".join(str(i) for i in range(1, n + 1))]
    lines += [f"arrow a{i} {i} {i + 1}" for i in range(1, n)]
    if rad2:
        lines += [f"relation 1*a{i + 1}.a{i}" for i in range(1, n - 1)]
    return "\n".join(lines) + "\n"


# generated inputs, by the file name that stands for them in an argv
GENERATED = {f"A{n}_{'rad2' if rad2 else 'free'}.alg": linear_a_text(n, rad2)
             for n, rad2 in [(4, True), (6, True), (8, True), (3, False),
                             (5, False)]}


def _cases():
    """(case name, argv) for every locked command."""
    out = []
    for cmd in ("analyze", "check"):
        for name in ALGEBRAS:
            out.append((f"{cmd}_{name}", [cmd, fixture_path(name + ".alg")]))
        for name in GENERATED:
            out.append((f"{cmd}_{name[:-4]}", [cmd, name]))
    out.append(("check_borelA_borelB",
                ["check", fixture_path("borelA.alg"),
                 "--borel", fixture_path("borelB.alg")]))
    for module in ("E(3)", "A", "P(1)", "Delta(2)"):
        tag = module.replace("(", "").replace(")", "")
        out.append((f"gfd_a3line_{tag}",
                    ["gfd", fixture_path("a3line.alg"), "--module", module]))
    return [(name, argv + ["--format", "machine"]) for name, argv in out]


CASES = _cases()


def run(argv, directory):
    """(exit code, stdout) of argv, each generated input in it written into
    directory first and passed by its path there."""
    args = []
    for x in argv:
        if x in GENERATED:
            path = os.path.join(directory, x)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(GENERATED[x])
            x = path
        args.append(x)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue()


def golden_path(name):
    return os.path.join(GOLDEN, name + ".txt")


@pytest.mark.parametrize("name,argv", CASES, ids=[n for n, _ in CASES])
def test_machine_output_matches_golden(name, argv, tmp_path):
    with open(EXIT_CODES, encoding="utf-8") as fh:
        want_code = json.load(fh)[name]
    with open(golden_path(name), encoding="utf-8", newline="") as fh:
        want_out = fh.read()
    code, out = run(argv, tmp_path)
    assert code == want_code
    assert out == want_out


def capture():
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as directory:
        for name, argv in CASES:
            codes[name], out = run(argv, directory)
            with open(golden_path(name), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(out)
            print(name, codes[name])
    with open(EXIT_CODES, "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    capture()
