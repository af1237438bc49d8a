"""Tests of the benchmark's own machinery.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


class TracedOutputTest(unittest.TestCase):
    """A traced invocation writes the same stdout bytes as the plain CLI."""

    def assert_identical(self, argv):
        plain = subprocess.run([sys.executable, "-m", "curvebound.cli"] + argv,
                               capture_output=True, env=ENV, cwd=ROOT, timeout=120)
        traced = subprocess.run([sys.executable, str(HERE / "worker.py"), "cli", "0"] + argv,
                                capture_output=True, env=ENV, cwd=ROOT, timeout=120)
        self.assertEqual(plain.returncode, 0, plain.stderr)
        self.assertEqual(traced.returncode, 0, traced.stderr)
        self.assertEqual(traced.stdout, plain.stdout)
        record = json.loads(traced.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1])
        self.assertIn("cli.main", record["passes"]["0"]["spans"])

    def test_enumerate_json(self):
        self.assert_identical(["enumerate", "--group", "alt7", "--char", "5", "--format", "json"])

    def test_prank_oracle_text(self):
        self.assert_identical(["prank", "--p", "5", "--curve", "y^2 = x^5 + 2*x + 1", "--oracle"])

    def test_bounds_csv(self):
        self.assert_identical(["bounds", "all", "--format", "csv"])


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        tree = [
            (0, -1, "root", 0.0, 10.0, 0),
            (1, 0, "a", 1.0, 4.0, 0),
            (2, 1, "c", 2.0, 3.0, 0),
            (3, 0, "b", 5.0, 9.0, 0),
            (4, 3, "d", 6.0, 7.0, 0),
            (5, 3, "e", 6.5, 8.0, 0),  # overlaps d: the union is counted once
            (6, 3, "f", 8.5, 9.5, 0),  # runs past its parent: clipped at 9.0
        ]
        got = spans.self_times(tree)
        want = {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0, 5: 1.5, 6: 1.0}
        for sid, value in want.items():
            self.assertAlmostEqual(got[sid], value, msg=f"span {sid}")

    def test_summary_counts_recursion_once(self):
        tracer = spans.Tracer()
        tracer.spans[:] = [(1, 0, "m.f", 1.0, 5.0, 0), (2, 0, "m.g", 6.0, 8.0, 0),
                           (0, -1, "m.f", 0.0, 10.0, 0), (3, -1, "m.g", 20.0, 21.0, 1)]
        summary = tracer.summary()
        self.assertEqual(summary["0"]["spans"], {"m.f": [2, 10.0, 8.0], "m.g": [1, 2.0, 2.0]})
        self.assertEqual(summary["1"]["spans"], {"m.g": [1, 1.0, 1.0]})
        self.assertEqual(tracer.spans, [])

    def test_wrapper_is_transparent(self):
        tracer = spans.Tracer()

        def fact(n):
            return 1 if n < 2 else n * traced(n - 1)

        def boom():
            raise KeyError("x")

        traced = tracer.timed("m.fact", fact)
        self.assertEqual(traced(5), 120)
        with self.assertRaises(KeyError):
            tracer.timed("m.boom", boom)()
        rows = tracer.summary()["0"]["spans"]
        self.assertEqual(rows["m.fact"][0], 5)
        self.assertEqual(rows["m.boom"][0], 1)


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, make in inputs.INPUTS.items():
            with self.subTest(workload=name):
                self.assertEqual(json.dumps(make(7)), json.dumps(make(7)))
        self.assertNotEqual(inputs.oracle_inputs(7), inputs.oracle_inputs(8))
        self.assertNotEqual(inputs.library_inputs(7), inputs.library_inputs(8))

    def test_oracle_draw(self):
        for model in inputs.oracle_inputs(3)["models"]:
            self.assertTrue(inputs.is_squarefree(model["f"], model["p"]))
            self.assertIn(model["genus"], (2, 3))
            self.assertNotEqual(model["m"] % model["p"], 0)

    def test_squarefree_and_genus(self):
        self.assertTrue(inputs.is_squarefree([0, 4, 0, 0, 0, 1], 5))  # x^5 - x over GF(5)
        self.assertFalse(inputs.is_squarefree([1, 2, 1], 5))  # (x + 1)^2
        self.assertFalse(inputs.is_squarefree([4, 0, 0, 0, 0, 1], 5))  # x^5 - 1 = (x - 1)^5
        self.assertEqual([inputs.genus(2, 5), inputs.genus(2, 6), inputs.genus(3, 4), inputs.genus(4, 3),
                          inputs.genus(4, 4), inputs.genus(2, 9)], [2, 2, 3, 3, 3, 4])


class ReferenceTest(unittest.TestCase):
    def test_supersingular_curve_has_p_rank_zero(self):
        # y^2 = x^5 - x over GF(5) is supersingular
        self.assertEqual(refs.p_rank(5, 2, [0, 4, 0, 0, 0, 1]), 0)

    def test_point_count_of_elliptic_curve(self):
        # y^2 = x^3 + 1 over GF(5): 5 affine points plus one at infinity
        self.assertEqual(refs.point_count(5, 2, [1, 0, 0, 1], 1), 6)

    def test_closure_orders(self):
        self.assertEqual(len(refs.closure(inputs.GENERATORS["alt7"])), 2520)
        self.assertEqual(len(refs.closure(inputs.GENERATORS["m11"])), 7920)


if __name__ == "__main__":
    unittest.main()
