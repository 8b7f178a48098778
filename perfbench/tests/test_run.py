# Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
"""Tests for the benchmark harness (argument checks, result assembly, log
directory hygiene). Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


def runner_report(**over):
    r = {
        "workload": "ycsb-update", "seed": 1, "trace": False, "correct": True,
        "attempted": 10, "failed": 0, "failed_checks": {},
        "errors": {},
        "end_to_end": {"throughput_tps": 5.0, "short_p50_us": 1.5,
                       "short_p99_us": 3.0, "commit_ratio": 1.0, "recover_s": 0.5,
                       "peak_rss_mb": 100.0, "setup_s": 0.9},
        "per_layer": {m["name"]: 0.0 for m in run.load_spec()["per_layer"]},
    }
    r.update(over)
    return r


class ArgsTest(unittest.TestCase):
    def test_rejects_unknown_workload_and_bad_seconds(self):
        spec = run.load_spec()
        base = ["--seed", "1", "--trace", "0"]
        with self.assertRaises(SystemExit):
            run.parse_args(["--workload", "nope", "--seconds", "10"] + base, spec)
        with self.assertRaises(SystemExit):
            run.parse_args(["--workload", "ycsb-update", "--seconds", "0"] + base, spec)
        args = run.parse_args(["--workload", "ycsb-update", "--seconds", "10"] + base, spec)
        self.assertEqual(args.seconds, 10)

    def test_held_back_workload_runs_but_is_not_listed(self):
        spec = run.load_spec()
        listed = [w["name"] for w in spec["workloads"]]
        for name in run.HELD_BACK:
            self.assertNotIn(name, listed)
            args = run.parse_args(["--workload", name, "--seed", "1",
                                   "--seconds", "10", "--trace", "0"], spec)
            self.assertEqual(args.workload, name)


class AssembleTest(unittest.TestCase):
    def test_untraced_result_has_every_end_to_end_metric_and_median_setup(self):
        spec = run.load_spec()
        args = run.parse_args(["--workload", "ycsb-update", "--seed", "1",
                               "--seconds", "10", "--trace", "0"], spec)
        result = run.assemble(spec, args, runner_report(), [1.0, 3.0, 0.9])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(result["metrics"]))
        self.assertEqual(result["metrics"]["setup_s"]["value"], 1.0)

    def test_traced_result_has_every_per_layer_metric(self):
        spec = run.load_spec()
        args = run.parse_args(["--workload", "ycsb-update", "--seed", "1",
                               "--seconds", "10", "--trace", "1"], spec)
        result = run.assemble(spec, args, runner_report(), [])
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(result["metrics"]))

    def test_missing_metric_is_an_error(self):
        spec = run.load_spec()
        args = run.parse_args(["--workload", "ycsb-update", "--seed", "1",
                               "--seconds", "10", "--trace", "0"], spec)
        report = runner_report()
        del report["end_to_end"]["recover_s"]
        with self.assertRaises(RuntimeError):
            run.assemble(spec, args, report, [1.0])

    def test_failed_oracle_is_reported_not_hidden(self):
        spec = run.load_spec()
        args = run.parse_args(["--workload", "ycsb-update", "--seed", "1",
                               "--seconds", "10", "--trace", "0"], spec)
        report = runner_report(correct=False, failed_checks={"0": "digest:x"})
        self.assertFalse(run.assemble(spec, args, report, [1.0])["correct"])


class RunDirTest(unittest.TestCase):
    def test_sweeps_directories_of_dead_processes_and_removes_its_own(self):
        with tempfile.TemporaryDirectory() as root:
            d = run.RunDir()
            d.base = os.path.join(root, ".bench_run")
            d.path = os.path.join(d.base, str(os.getpid()))
            dead = os.path.join(d.base, "999999999")
            os.makedirs(dead)
            d.sweep_stale()
            self.assertFalse(os.path.exists(dead))
            log_dir = d.fresh()
            self.assertTrue(os.path.isdir(log_dir))
            d.remove()
            self.assertFalse(os.path.exists(d.base))

    def test_build_dir_stays_inside_the_checkout(self):
        old = os.environ.get("CARGO_TARGET_DIR")
        try:
            os.environ["CARGO_TARGET_DIR"] = "/elsewhere"
            self.assertTrue(run.build_dir().startswith(run.ROOT))
            os.environ["CARGO_TARGET_DIR"] = ".bench_build"
            self.assertEqual(run.build_dir(),
                             os.path.join(run.ROOT, ".bench_build", "perfbench"))
        finally:
            if old is None:
                os.environ.pop("CARGO_TARGET_DIR", None)
            else:
                os.environ["CARGO_TARGET_DIR"] = old


if __name__ == "__main__":
    unittest.main()
