"""Self-tests for the benchmark's generators, checker, host probe and tracer.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  The name keeps the file out of
the repository's pytest collection; it runs with the stdlib unittest.
"""

from __future__ import annotations

import copy
import json
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def first(workload, kind_prefix, seed=4, limit=40):
    return next(op for op in gen.take(workload, seed, limit)
                if op.kind.startswith(kind_prefix))


class GeneratorTests(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for wl in gen.WORKLOADS:
            with self.subTest(workload=wl):
                a = [op.payload for op in gen.take(wl, 7, 12)]
                b = [op.payload for op in gen.take(wl, 7, 12)]
                c = [op.payload for op in gen.take(wl, 8, 12)]
                self.assertEqual(json.dumps(a), json.dumps(b))
                self.assertNotEqual(json.dumps(a), json.dumps(c))

    def test_planted_conic_points_lie_on_their_forms(self):
        for op in gen.take("conic", 3, 16):
            if op.expect.get("planted_point"):
                gram = check._gram(op.payload)
                pt = [Fraction(v) for v in op.expect["planted_point"]]
                self.assertEqual(check.form_value(gram, pt), 0)


class CheckerTests(unittest.TestCase):
    def report(self, op):
        from p1moduli import cli
        return run.call_cli(cli, op.command, op.payload)

    def test_analyze_flipped_verdict_fails(self):
        op = first("analyze", "twist-L0-d6")
        code, stdout = self.report(op)
        self.assertIsNone(check.check(op, code, stdout))
        bad = json.loads(stdout)
        bad["outcome"] = "NotDefined"
        self.assertIsNotNone(check.check(op, code, json.dumps(bad)))
        del bad["certificate_checked"]
        bad["outcome"] = "DefinedOnP1"
        self.assertIsNotNone(check.check(op, code, json.dumps(bad)))
        self.assertIsNotNone(check.check(op, 3, stdout))

    def test_equivalence_tampered_witness_fails(self):
        op = first("equivalence", "equiv-L0-d6")
        code, stdout = self.report(op)
        self.assertIsNone(check.check(op, code, stdout))
        report = json.loads(stdout)
        flipped = {"equivalent": False, "witness": None}
        self.assertIsNotNone(check.check(op, code, json.dumps(flipped)))
        bad = copy.deepcopy(report)
        bad["witness"][0][1] = [str(Fraction(bad["witness"][0][1][0]) + 1)]
        self.assertIsNotNone(check.check(op, code, json.dumps(bad)))

    def test_conic_point_off_the_form_fails(self):
        op = first("conic", "planted-diagonal")
        good = {"solvable": True, "failing": [],
                "point": op.expect["planted_point"]}
        self.assertIsNone(check.check(op, 0, json.dumps(good)))
        off = dict(good, point=[str(Fraction(v) + 1)
                                for v in good["point"]])
        self.assertIsNotNone(check.check(op, 0, json.dumps(off)))
        unsolvable = {"solvable": False, "point": None,
                      "failing": [{"place": 2, "symbol": -1},
                                  {"place": 3, "symbol": -1}]}
        self.assertIsNotNone(check.check(op, 0, json.dumps(unsolvable)))

    def test_counterexample_flipped_verdict_fails(self):
        op = next(gen.payloads("counterexample", 1))
        report = {"symbol": ["-1", "-1"], "requested_degree": op.expect["n"],
                  "verdict": {"outcome": "NotDefined",
                              "field_of_moduli": {"is_rationals": True}}}
        self.assertIsNone(check.check(op, 0, json.dumps(report)))
        report["verdict"]["outcome"] = "DefinedOnP1"
        self.assertIsNotNone(check.check(op, 0, json.dumps(report)))


class HostSpeedTests(unittest.TestCase):
    def test_probes_are_excluded_and_scale_the_reference_time(self):
        import hostspeed

        def busy():
            end = time.process_time() + 0.35
            while time.process_time() < end:
                pass
            return "done"

        speed = hostspeed.HostSpeed()
        speed.start()
        try:
            start = time.perf_counter()
            result, wall, ref = speed.timed(busy)
            total = time.perf_counter() - start
        finally:
            speed.stop()
        self.assertEqual(result, "done")
        # two bracketing probes and at least two timer probes inside
        self.assertGreaterEqual(len(speed.samples), 4)
        inside = sum(spent for t, _, spent in speed.samples[1:-1])
        self.assertLess(wall, total - inside + 1e-9)
        mean = sum(took for _, took, _ in speed.samples) / len(speed.samples)
        self.assertAlmostEqual(ref, wall * hostspeed.REF_PROBE_S / mean)


class TracerTests(unittest.TestCase):
    def test_install_counts_and_uninstall_restores(self):
        import importlib
        from tracer import Tracer
        decide_mod = importlib.import_module("p1moduli.decide")
        qfield = importlib.import_module("p1moduli.qfield")
        before = (decide_mod.compute_aut, qfield.FieldElem.__mul__)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(decide_mod.compute_aut, before[0])
            from p1moduli import cli
            op = first("analyze", "twist-L1-d6")
            tracer.op_id = 0
            run.call_cli(cli, op.command, op.payload)
        finally:
            tracer.uninstall()
        self.assertIs(decide_mod.compute_aut, before[0])
        self.assertIs(qfield.FieldElem.__mul__, before[1])
        metrics, _ = tracer.metrics(1)
        self.assertEqual(metrics["cli.run.calls"][0], 1)
        self.assertEqual(metrics["decide.decide.calls"][0], 1)
        self.assertGreater(metrics["qfield.mul.L1"][0], 0)
        root = [s for s in tracer.spans if s["parent"] is None]
        self.assertEqual([s["name"] for s in root], ["cli.run"])
        self.assertTrue(all(s["op"] == 0 for s in tracer.spans))


if __name__ == "__main__":
    unittest.main()
