#!/usr/bin/env python3
"""Checks BENCHMARK.json against the benchmark binary and its own rules.

    python3 perfbench/tests/test_contract.py <path to perfbench binary>

- every metric the binary can print (--list-metrics) has the same name
  and unit in BENCHMARK.json, in the matching section, and vice versa;
- the workloads (--list-workloads) are the ones BENCHMARK.json lists;
- names, units, bounds and the setup_s entry stay inside the format
  BENCHMARK.json must follow.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BINARY = None

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_metric_names_and_units_match_the_binary(self):
        out = subprocess.run([BINARY, "--list-metrics"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        printed = json.loads(out)
        for section in ("end_to_end", "per_layer"):
            binary = [(m["name"], m["unit"]) for m in printed[section]]
            listed = [(m["name"], m["unit"]) for m in self.spec[section]]
            self.assertEqual(binary, listed, section)

    def test_workloads_match_the_binary(self):
        out = subprocess.run([BINARY, "--list-workloads"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        self.assertEqual(out.split(),
                         [w["name"] for w in self.spec["workloads"]])

    def test_format(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200, w["name"])
            names.append(w["name"])
        bounds = {}
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25, m["name"])
            bounds[m["name"]] = m["bound"]
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names are unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(bounds.values()))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_contract.py <perfbench binary>")
    BINARY = sys.argv.pop(1)
    unittest.main()
