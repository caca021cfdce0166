#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs every workload briefly, traced and untraced, on a held-out seed and
checks that it passes its gates: the per-layer rows plus the workload's
unattributed residual equal the untraced ns per write, no self row is
negative beyond noise, the rows explain the traced pass, every metric name
emitted is declared in BENCHMARK.json, and the traced pass leaves every
simulated output unchanged. Then checks that the gates reject a damaged
record. Builds the benchmark first if needed.
"""

import copy
import importlib.util
import json
import unittest
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SEED = 7  # Not the pinned default seed.
SECONDS = 2


class WorkloadGates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = run.load_benchmark()
        cls.binary = run.build()
        cls.records = {}
        for w in cls.bench["workloads"]:
            cls.records[w["name"], 0] = run.run_untraced(
                cls.binary, w["name"], SEED, SECONDS)
            cls.records[w["name"], 1] = run.run_binary(
                cls.binary, w["name"], SEED, SECONDS, 1)

    def test_every_run_passes_its_gates(self):
        for (name, trace), record in self.records.items():
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(run.gate(self.bench, record, SEED, trace), [])

    def test_untraced_run_spans_processes(self):
        for w in self.bench["workloads"]:
            record = self.records[w["name"], 0]
            with self.subTest(workload=w["name"]):
                self.assertEqual(len(record["process_metrics"]), SECONDS)
                self.assertTrue(record["checks"]["processes_agree"])

    def test_traced_pass_keeps_outputs(self):
        for w in self.bench["workloads"]:
            untraced = self.records[w["name"], 0]["outputs"]
            traced = self.records[w["name"], 1]
            with self.subTest(workload=w["name"]):
                self.assertTrue(traced["checks"]["traced_outputs_match"])
                for key, value in untraced.items():
                    self.assertEqual(traced["outputs"][key], value, key)

    def test_gates_reject_damage(self):
        def negative_self_row(r):
            m = r["metrics"]
            m["service.shard_self_ns"] = -0.1 * m["bench.traced_ns"]

        def rows_explain_nothing(r):
            # The traced pass took twice as long as its rows account for.
            m = r["metrics"]
            m["bench.traced_unattributed_ns"] += m["bench.traced_ns"]
            m["bench.traced_ns"] *= 2

        record = self.records["service_rt", 1]
        cases = {
            "check": lambda r: r["checks"].update(traced_outputs_match=False),
            "undeclared metric": lambda r: r["metrics"].update(extra_ns=1.0),
            "rows": lambda r: r["metrics"].update(
                {"service.queue_ns": r["metrics"]["service.queue_ns"] + 5}),
            "negative self row": negative_self_row,
            "rows explain nothing": rows_explain_nothing,
        }
        for label, damage in cases.items():
            bad = copy.deepcopy(record)
            damage(bad)
            with self.subTest(damage=label):
                self.assertNotEqual(run.gate(self.bench, bad, SEED, 1), [])

    def test_pins_apply_only_on_the_default_seed(self):
        record = copy.deepcopy(self.records["fleet_chaos", 0])
        record["outputs"]["fleet_digest"] = "0"
        self.assertEqual(run.gate(self.bench, record, SEED, 0), [])
        self.assertNotEqual(
            run.gate(self.bench, record, run.DEFAULT_SEED, 0), [])

    def test_missing_pinned_output_fails(self):
        record = copy.deepcopy(self.records["fleet_chaos", 0])
        pins = json.loads(run.PINS.read_text())["fleet_chaos"]
        record["outputs"].update(pins)
        self.assertEqual(run.gate(self.bench, record, run.DEFAULT_SEED, 0), [])
        del record["outputs"]["crashes"]
        self.assertNotEqual(
            run.gate(self.bench, record, run.DEFAULT_SEED, 0), [])

if __name__ == "__main__":
    unittest.main()
