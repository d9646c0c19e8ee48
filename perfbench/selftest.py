"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They run tiny passes (a few small instances per workload), so they finish in
well under a minute.  The file is not named test_*.py, so the repository's
pytest run does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from tracing import TARGETS, _bindings, _resolve  # noqa: E402

PL = run.load_program()


def tiny(workload, count=3):
    """A few of the cheapest instances of a workload (poly-large: the (3, 6) ones)."""
    instances = gen.instances(workload, 1)
    if workload == "poly-large":
        instances = [inst for inst in instances if inst["arity"] == 3]
    return instances[:count]


def first_call_only(edit):
    """A tamper hook that rewrites only the first document it sees."""
    calls = []

    def tamper(text):
        calls.append(1)
        return edit(text) if len(calls) == 1 else text

    return tamper


def edit_doc(change):
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)

    return edit


class GeneratorTests(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs_in_fresh_processes(self):
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import gen; "
            "print(json.dumps([gen.instances(w, 7) for w in gen.WORKLOADS])); "
            "assert not any(m == 'primlen' or m.startswith('primlen.') for m in sys.modules)"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code, str(HERE)], capture_output=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            ).stdout
            for hash_seed in ("1", "2")
        ]
        self.assertEqual(outputs[0], outputs[1])
        self.assertGreater(len(outputs[0]), 1000)

    def test_seeds_differ_and_shapes_hold(self):
        for workload in gen.WORKLOADS:
            a, b = gen.instances(workload, 1), gen.instances(workload, 2)
            self.assertNotEqual([i["expr"] for i in a], [i["expr"] for i in b])
            self.assertEqual(sorted((i["arity"], i["field"], i["degree"]) for i in a),
                             sorted((i["arity"], i["field"], i["degree"]) for i in b))

    def test_poly_inputs_have_the_stated_degree(self):
        for inst in gen.instances("poly-small", 3) + gen.instances("poly-large", 3):
            f = PL.parse_poly(inst["expr"], inst["arity"], PL.QQ)
            self.assertEqual(f.total_degree(), inst["degree"])


class MetricTests(unittest.TestCase):
    def test_tiny_pass_of_each_workload_reports_every_metric(self):
        for workload in gen.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    record = run.measure(PL, tiny(workload), 0, trace)
                    result = run.summary(record)
                    expected = run.PER_LAYER if trace else run.END_TO_END
                    self.assertEqual(set(result["metrics"]), set(expected))
                    self.assertEqual(record["failed"], 0, record["failures"])
                    self.assertTrue(result["correct"])
                    for name, entry in result["metrics"].items():
                        self.assertIsInstance(entry["value"], (int, float), name)
                        self.assertEqual(entry["unit"], expected[name])
                    if not trace:
                        self.assertTrue(all(result["metrics"][n]["value"] > 0 for n in expected))

    def test_traced_pass_sees_the_layers_of_its_workload(self):
        poly = run.measure(PL, tiny("poly-small"), 0, True)["metrics"]
        lie = run.measure(PL, tiny("lie-mixed"), 0, True)["metrics"]
        for name in ("linalg.solve_square.calls", "parsing.parse_poly.calls", "multipoly.mul.calls",
                     "polyauto.certify_apply.calls_decompose", "polyauto.certify_apply.calls_verify",
                     "polydecomp.solve_degree.calls", "field.scalar_ops", "linalg.ops.multiplications"):
            self.assertGreater(poly[name], 0, name)
        for name in ("metalie.bracket.calls", "metalie.apply_endo.calls", "linalg.bareiss_determinant.calls",
                     "field.scalars_created"):
            self.assertGreater(lie[name], 0, name)
        self.assertEqual(lie["multipoly.mul.calls"], 0)
        self.assertEqual(poly["metalie.bracket.calls"], 0)
        self.assertGreater(poly["trace.overhead_ratio"], 0)

    def test_wrappers_are_removed_after_a_traced_pass(self):
        def bindings():
            found = {}
            for module_name, path, _ in TARGETS:
                owner, attr = _resolve(sys.modules[module_name], path)
                for namespace, name in _bindings(getattr(owner, attr)):
                    found[(id(namespace), name)] = getattr(namespace, name)
            return found

        before = bindings()
        self.assertIn(id(PL.polydecomp), {key[0] for key in before})  # polydecomp.solve_square
        run.measure(PL, tiny("poly-small", 1), 0, True)
        self.assertEqual(bindings(), before)

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.tail(list(range(99))))
        percentile, value = run.tail(list(range(1, 201)))
        self.assertEqual((percentile, value), (95.0, 190))

    def test_environment_record(self):
        env = run.environment(PL)
        self.assertEqual(set(env), {"backend", "python", "nproc", "commit", "src_lines"})
        self.assertIn(env["backend"], ("fractions", "gmpy2"))
        self.assertGreater(env["src_lines"], 0)


class CorrectnessCheckTests(unittest.TestCase):
    """Tampered documents must count as failed, so the check is not vacuous."""

    def run_tampered(self, edit, instances=None):
        instances = instances or tiny("poly-small")
        record = run.measure(PL, instances, 0, False, tamper=first_call_only(edit))
        return record, run.summary(record)

    def test_untouched_documents_pass(self):
        record, result = self.run_tampered(lambda text: text)
        self.assertEqual((record["failed"], result["correct"]), (0, True))

    def test_summand_edit_is_caught_by_the_verifier(self):
        def change(doc):
            doc["summands"][0]["summand"] = "x1 + 12345"

        record, result = self.run_tampered(edit_doc(change))
        self.assertEqual(record["failed"], 1)
        self.assertFalse(result["correct"])
        self.assertIn("verifier rejected", record["failures"][0]["problems"][0])

    def test_extra_summands_under_a_raised_bound_are_caught_by_the_harness(self):
        # x1 and -x1 are primitive and cancel, so the verifier, which trusts
        # the document's bound, accepts this document; the recomputed bound does not.
        def change(doc):
            d = doc["arity"]
            identity = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
            negate = [row[:] for row in identity]
            negate[0][0] = "-1"
            zero = ["0"] * d
            doc["summands"] += [
                {"summand": "x1", "generator": 1, "certificate": [{"kind": "affine", "matrix": identity, "offset": zero}]},
                {"summand": "-x1", "generator": 1, "certificate": [{"kind": "affine", "matrix": negate, "offset": zero}]},
            ]
            doc["bound"] = 99

        tampered = []

        def spy(text):
            tampered.append(edit_doc(change)(text))
            return tampered[-1]

        record, result = self.run_tampered(spy)
        self.assertTrue(PL.document.verify_document(PL.document.loads(tampered[0])).ok)
        self.assertEqual(record["failed"], 1)
        self.assertFalse(result["correct"])
        self.assertIn("exceed the bound", " ".join(record["failures"][0]["problems"]))

    def test_document_of_another_input_is_caught_by_the_harness(self):
        instances = tiny("poly-small")
        donor = []
        rec = run.run_instance(PL, instances[1], tamper=lambda text: donor.append(text) or text)
        self.assertTrue(rec["ok"])
        record, result = self.run_tampered(lambda text: donor[0], instances)
        self.assertEqual(record["failed"], 1)
        self.assertFalse(result["correct"])
        self.assertIn("does not re-parse", " ".join(record["failures"][0]["problems"]))

    def test_exception_is_a_failure_with_its_class_and_message(self):
        record, result = self.run_tampered(lambda text: text[:-5])
        self.assertEqual(record["failed"], 1)
        self.assertTrue(result["correct"])
        failure = record["failures"][0]
        self.assertEqual(failure["kind"], "error")
        self.assertIn("loads: JSONDecodeError", failure["problems"][0])


class CommandTests(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        # A copy of the harness alone, as in a checkout holding only the benchmark.
        import shutil
        import tempfile

        with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
            shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lie-mixed", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()
