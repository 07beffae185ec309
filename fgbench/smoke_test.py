#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 fgbench/smoke_test.py

Runs every workload named in BENCHMARK.json at a tiny size (`--tiny`),
untraced and traced, and checks that the correctness check passes and
that every metric BENCHMARK.json names is printed with its unit, both on
a human-readable line and in the final JSON result. Also checks that the
benchmark refuses to run when an environment variable would change the
workload.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, env=None):
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=600,
    )


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.strip().splitlines()
        self.assertTrue(lines[0].startswith("host: "), lines[0])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        text = "\n".join(lines[:-1])
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            line = rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}$"
            self.assertRegex(text, re.compile(line, re.M))
        if not trace:
            for m in expected:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_refuses_race_check_env(self):
        for var in ["FGMON_RACE_CHECK", "PERFBENCH_TRACE_ALLOCS"]:
            env = dict(os.environ, **{var: "1"})
            out = run("rubis_rdma", 0, env)
            self.assertNotEqual(out.returncode, 0, var)
            self.assertNotIn('"correct"', out.stdout)


def add_workload_tests():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            name = f"test_{w['name']}_trace{trace}"
            setattr(Smoke, name, lambda self, w=w["name"], t=trace: self.check(w, t))


add_workload_tests()

if __name__ == "__main__":
    unittest.main()
