#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks, at smoke size.

    python3 perfbench/selftest.py

Each workload runs end to end (untraced and traced) and must pass; a
tampered committed digest and a broken exactly-once identity must each make
the run fail; bad command lines must give a one-line error and exit 2. The
whole file runs in well under a minute once perfbench is built.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
WORKLOADS = ["paper_figures", "faulty_fleet"]


def bench(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_coverage(events):
    """trace.coverage recomputed from a Chrome trace: self time of the
    layer-call spans (not the roots, not "bench." bookkeeping, not inside a
    replay or probe) over the roots' duration less replays and probes."""
    by_id = {e["args"]["id"]: e for e in events}
    self_us = {i: e["dur"] for i, e in by_id.items()}
    for e in events:
        if e["args"]["parent"] >= 0:
            self_us[e["args"]["parent"]] -= e["dur"]

    outside_wall = ("bench.replay", "bench.probe")

    def outside(e):
        while e["args"]["parent"] >= 0:
            if e["name"] in outside_wall:
                return True
            e = by_id[e["args"]["parent"]]
        return False

    wall = sum(e["dur"] for e in events if e["args"]["parent"] < 0)
    wall -= sum(e["dur"] for e in events if e["name"] in outside_wall)
    covered = sum(self_us[e["args"]["id"]] for e in events
                  if e["args"]["parent"] >= 0
                  and not e["name"].startswith("bench.")
                  and not outside(e))
    return covered / wall


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = [m["name"] for m in spec["end_to_end"]]
        cls.per_layer = [m["name"] for m in spec["per_layer"]]
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_declared_workloads(self):
        self.assertEqual(self.workloads, WORKLOADS)

    def test_smoke_runs_pass_and_report_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "1",
                             "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = result(proc)
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertEqual(list(out["metrics"]), self.end_to_end)
                for name, metric in out["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertIn('"simd":', proc.stdout)  # host fingerprint

    def test_traced_run_writes_a_loadable_trace(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                path = SCRATCH / f"{workload}.trace.json"
                proc = bench("--workload", workload, "--seed", "7",
                             "--trace", "1", "--trace-out", str(path))
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = result(proc)
                self.assertEqual(list(out["metrics"]), self.per_layer)
                self.assertGreaterEqual(
                    out["metrics"]["trace.coverage"]["value"], 0.95)
                trace = json.loads(path.read_text())
                events = trace["traceEvents"]
                names = {e["name"] for e in events}
                self.assertIn("tags.build", names)
                self.assertIn("common.simd.hash", names)
                self.assertIn("bench.check", names)
                self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0
                                    for e in events))
                self.assertAlmostEqual(
                    out["metrics"]["trace.coverage"]["value"],
                    layer_coverage(events), places=4)

    def test_bookkeeping_replays_and_probes_are_not_coverage(self):
        def span(i, name, dur, parent):
            return {"name": name, "dur": dur,
                    "args": {"id": i, "parent": parent}}
        events = [
            span(0, "sample", 16.0, -1),
            span(1, "core.tick", 6.0, 0),
            span(2, "bench.check", 3.0, 0),
            span(3, "bench.replay", 4.0, 0),
            span(4, "common.simd.hash", 1.0, 3),
            span(5, "bench.probe", 2.0, 0),
        ]
        self.assertAlmostEqual(layer_coverage(events), 0.6)

    def test_other_seeds_print_digests(self):
        proc = bench("--workload", "faulty_fleet", "--seed", "99",
                     "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertRegex(
            proc.stdout,
            r"(?m)^digest faulty_fleet smoke deployment [0-9a-f]{16}$")

    def test_tampered_digest_fails(self):
        lines = (HERE / "digests.txt").read_text().splitlines()
        tampered = []
        for line in lines:
            if line.startswith("paper_figures smoke TPP/n1000/t0 "):
                head, digest = line.rsplit(" ", 1)
                flipped = "0" if digest[-1] != "0" else "1"
                line = f"{head} {digest[:-1]}{flipped}"
            tampered.append(line)
        self.assertNotEqual(tampered, lines)
        path = SCRATCH / "tampered_digests.txt"
        path.write_text("\n".join(tampered) + "\n")
        proc = bench("--workload", "paper_figures", "--seed", "1",
                     "--trace", "0", "--digests", str(path))
        self.assertEqual(proc.returncode, 1)
        out = result(proc)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertIn("workload paper_figures", proc.stderr)
        self.assertIn("seed 1", proc.stderr)
        self.assertIn("TPP/n1000/t0: digest", proc.stderr)

    def test_broken_identity_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "5",
                             "--trace", "0", "--tamper", "identity")
                self.assertEqual(proc.returncode, 1)
                self.assertFalse(result(proc)["correct"])
                self.assertIn("exactly-once accounting broken", proc.stderr)
                self.assertIn(f"workload {workload}", proc.stderr)
                self.assertIn("seed 5", proc.stderr)

    def test_cli_errors_are_one_line(self):
        unwritable = str(HERE / "README.md" / "out.json")  # parent is a file
        cases = [
            ["--workload", "nosuch", "--seed", "1", "--trace", "0"],
            ["--workload", "faulty_fleet", "--seed", "12x", "--trace", "0"],
            ["--workload", "faulty_fleet", "--seed", "-1", "--trace", "0"],
            ["--workload", "faulty_fleet", "--seed", "1", "--trace", "2"],
            ["--workload", "faulty_fleet", "--seed", "1", "--trace", "1",
             "--trace-out", unwritable],
            ["--workload", "faulty_fleet", "--seed", "1", "--trace", "0",
             "--result-out", unwritable],
            ["--workload", "faulty_fleet", "--seed"],
        ]
        for args in cases:
            with self.subTest(args=args):
                proc = bench(*args)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                errors = [l for l in proc.stderr.splitlines()
                          if l.startswith("perfbench:")]
                self.assertEqual(len(errors), 1, proc.stderr)
                self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
