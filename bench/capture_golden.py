"""Write the golden `--format machine` outputs that the benchmark checks.

The GF(p) families are captured at one prime; their answers must not depend
on it.  Rerun only for a deliberate change to the report output:

    PYTHONPATH=src python3 bench/capture_golden.py
"""

import contextlib
import io
import os
import tempfile

import workloads
from stratakit import cli


def main():
    with tempfile.TemporaryDirectory() as workdir:
        ops = (workloads.make_ops("borel_pair", 0, workdir)
               + workloads.family_ops(workdir, workloads.PRIMES[0]))
        for op in ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(op["argv"])
            if rc != op["ref"]["rc"]:
                raise SystemExit(f"{op['id']}: exit code {rc}")
            path = os.path.join(workloads.GOLDEN, op["ref"]["golden"])
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
            print("wrote", path)


if __name__ == "__main__":
    main()
