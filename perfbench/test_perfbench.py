#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny-scale workloads.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; the first run builds the binaries.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import compare  # noqa: E402
import run  # noqa: E402

SEED = 7


def bench(*args):
    """Run the benchmark command; returns (exit code, stdout, stderr)."""
    p = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout, p.stderr


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec(ROOT)
        cls.bins = run.build(ROOT)
        os.makedirs(os.path.join(ROOT, run.OUT_DIR), exist_ok=True)

    def test_every_named_metric_is_emitted_with_its_unit(self):
        for w in self.spec["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, out, err = bench("--workload", w["name"], "--seed", str(SEED),
                                           "--seconds", "0", "--trace", str(trace), "--tiny")
                    self.assertEqual(code, 0, err)
                    result = json.loads(out.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_perturbed_output_fails_the_digest_check(self):
        work = tempfile.mkdtemp(dir=os.path.join(ROOT, run.OUT_DIR))
        try:
            out = os.path.join(work, "out")
            res = run.spawn([self.bins[0]] + run.cli_args("report-small", run.DEFAULT_SEED, 600, out, True),
                            work, "rep")
            self.assertEqual(res["code"], 0, res["stderr"])
            names = run.WORKLOADS["report-small"]["outputs"]
            good = run.digest_files(out, names)
            pinned = run.load_pinned()
            self.assertEqual(good, pinned["tiny"]["report-small"], "pinned digest no longer matches")

            with open(os.path.join(out, "chunks.csv"), "r+b") as f:
                f.seek(-2, os.SEEK_END)
                last = f.read(1)
                f.seek(-2, os.SEEK_END)
                f.write(b"0" if last != b"0" else b"1")
            bad = run.digest_files(out, names)
            self.assertNotEqual(good, bad)

            # Against the pinned digest of the default seed.
            reps = [{"digest": good}, {"digest": bad}]
            problems = run.check_reps(reps, "report-small", run.DEFAULT_SEED, True, pinned)
            self.assertEqual([r["failed"] for r in reps], [False, True])
            self.assertEqual(len(problems), 1)
            # Across repetitions of any other seed.
            reps = [{"digest": good}, {"digest": good}, {"digest": bad}]
            run.check_reps(reps, "report-small", SEED, True, pinned)
            self.assertEqual([r["failed"] for r in reps], [False, False, True])
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_cross_host_comparison_is_refused(self):
        code, _, err = bench("--workload", "stream-30k", "--seed", str(SEED), "--seconds", "0",
                             "--trace", "0", "--tiny")
        self.assertEqual(code, 0, err)
        path = os.path.join(ROOT, run.OUT_DIR, "results", f"stream-30k-seed{SEED}-trace0-tiny.json")
        with open(path) as f:
            base = json.load(f)
        rows = compare.compare(base, copy.deepcopy(base), self.spec)
        self.assertEqual({r[0] for r in rows}, {m["name"] for m in self.spec["end_to_end"]})
        other = copy.deepcopy(base)
        other["host"]["cpu_model"] = "another CPU"
        other["host"]["host_id"] = "0000000000000000"
        with self.assertRaises(compare.Refused):
            compare.compare(base, other, self.spec)

    def test_workload_with_more_threads_than_cores_is_refused(self):
        host = dict(run.host_info(), nproc=1)
        with self.assertRaises(run.BenchError):
            run.run_one(ROOT, self.spec, "stream-30k", SEED, 0, False, True, self.bins, host)

    def test_fails_without_program_sources(self):
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, run.OUT_DIR))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "report-small",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
