#!/usr/bin/env python3
# Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
"""ERMIA benchmark: builds the engine from source, runs one workload and
prints every metric by name with its unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The metric names, units and workloads come
from BENCHMARK.json; README.md next to this file explains the workloads.
With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer ones. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up trials per untraced run: the run's own load plus trials - 1
# load-only processes, half of them before the run and half after it, so
# that the sample spans the run rather than a few seconds of the host's
# speed; setup_s is their median. tpcc-hybrid's load takes about 0.2 s, and
# a median of three such loads spread by 21% over ten seeds, so it takes
# more trials; the YCSB loads take 1-5 s each.
SETUP_TRIALS = {"tpcc-hybrid": 9}
DEFAULT_SETUP_TRIALS = 3
# Wall-clock cap for one runner process, so the whole run stays within the
# 180 s a run may take.
RUNNER_TIMEOUT_S = 150
# perfbench_runner's exit code when a phase hung in the engine.
STALL_EXIT = 3
# Workloads the runner supports that BENCHMARK.json leaves out. Every
# tpcc-hybrid run fails its recovery check because of an engine defect
# (README.md, "Why tpcc-hybrid is held back"). It stays runnable, so the
# defect can be reproduced and the workload listed again once it is fixed.
HELD_BACK = ["tpcc-hybrid"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [w for w in HELD_BACK if w not in names]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in [1, 60]")
    return args


def inside_root(path):
    path = os.path.realpath(os.path.join(ROOT, path))
    root = os.path.realpath(ROOT)
    return path if path == root or path.startswith(root + os.sep) else None


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = inside_root(target) or os.path.join(ROOT, ".bench_build")
    return os.path.join(base, "perfbench")


def child_env():
    # The engine reads ERMIA_* overrides at Database construction; the
    # benchmark runs the default configuration only. Temporary files of the
    # compiler and the runner stay inside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ERMIA_")}
    env["TMPDIR"] = os.path.join(build_dir(), "tmp")
    return env


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "database.h")):
        raise RuntimeError("engine sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=child_env())
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench_runner"],
                   check=True, stdout=sys.stderr, env=child_env())
    return os.path.join(out, "perfbench_runner")


class RunDir:
    """Per-process scratch directory for logs under .bench_run/, removed on
    every exit path; directories left by killed runs are swept on start."""

    def __init__(self):
        self.base = os.path.join(ROOT, ".bench_run")
        self.path = os.path.join(self.base, str(os.getpid()))
        self.count = 0

    def sweep_stale(self):
        if not os.path.isdir(self.base):
            return
        for name in os.listdir(self.base):
            if name.isdigit() and not pid_alive(int(name)):
                shutil.rmtree(os.path.join(self.base, name), ignore_errors=True)

    def fresh(self):
        self.count += 1
        d = os.path.join(self.path, str(self.count))
        os.makedirs(d)
        return d

    def remove(self):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(self.base)
        except OSError:
            pass


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class Runner:
    """Starts runner processes one at a time and can kill the current one."""

    def __init__(self, binary, run_dir):
        self.binary = binary
        self.run_dir = run_dir
        self.proc = None

    def run(self, args, mode):
        log_dir = self.run_dir.fresh()
        cmd = [self.binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--mode", mode, "--log-dir", log_dir]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                                     text=True)
        try:
            out, _ = self.proc.communicate(timeout=RUNNER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"{mode} run exceeded {RUNNER_TIMEOUT_S} s")
        finally:
            shutil.rmtree(log_dir, ignore_errors=True)
        code, self.proc = self.proc.returncode, None
        lines = out.strip().splitlines()
        if code == STALL_EXIT:
            raise RuntimeError(f"{mode} run stalled in the engine (details above)")
        if code != 0 or not lines:
            raise RuntimeError(f"{mode} run exited with code {code}")
        return json.loads(lines[-1])

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def assemble(spec, args, run, setup_times):
    """The final result object from the runner's report."""
    if args.trace:
        wanted, source = spec["per_layer"], run["per_layer"]
    else:
        wanted, source = spec["end_to_end"], dict(run["end_to_end"])
        source["setup_s"] = statistics.median(setup_times)
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            raise RuntimeError(f"runner did not report {m['name']}")
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    return {"correct": bool(run["correct"]), "attempted": int(run["attempted"]),
            "failed": int(run["failed"]), "metrics": metrics}


def report(run, setup_times, result):
    """Human-readable lines before the result: every metric with its unit,
    sample counts, phase times, aborts by reason and any failed check."""
    print(f"workload {run['workload']} seed {run['seed']} trace {int(run['trace'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for section in ("end_to_end", "per_layer"):
        extra = {k: v for k, v in run.get(section, {}).items()
                 if k not in result["metrics"]}
        if extra:
            print(f"  other {section}: " +
                  ", ".join(f"{k}={v:.6g}" for k, v in extra.items()))
    if setup_times:
        print("  setup trials (s): " + ", ".join(f"{t:.4f}" for t in setup_times))
    print("  phases (s): " + ", ".join(f"{k}={v:.3f}" for k, v in run["phases"].items()))
    for phase, text in run["overruns"].items():
        print(f"  overrun {phase}: {text}")
    print("  aborts: " + ", ".join(f"{k}={v}" for k, v in run["aborts"].items() if v))
    print("  types: " + ", ".join(f"{k} n={v['committed']} commit_ratio="
                                  f"{v['commit_ratio']:.4g} p50={v['p50_us']:.4g}us"
                                  for k, v in run["types"].items()))
    for check in run["failed_checks"].values():
        print(f"  FAILED CHECK {check}")
    for err, n in run["errors"].items():
        print(f"  failed request x{n}: {err}")


def main(argv):
    spec = load_spec()
    args = parse_args(argv, spec)
    run_dir = RunDir()
    run_dir.sweep_stale()
    runner = None

    def on_signal(signum, _frame):
        if runner is not None:
            runner.kill()
        run_dir.remove()
        sys.exit(128 + signum)

    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    try:
        runner = Runner(build(), run_dir)
        setup_times = []
        extra = 0 if args.trace else \
            SETUP_TRIALS.get(args.workload, DEFAULT_SETUP_TRIALS) - 1
        for _ in range(extra // 2):
            setup_times.append(runner.run(args, "setup")["setup_s"])
        run = runner.run(args, "run")
        if not args.trace:
            setup_times.append(run["end_to_end"]["setup_s"])
        for _ in range(extra - extra // 2):
            setup_times.append(runner.run(args, "setup")["setup_s"])
        result = assemble(spec, args, run, setup_times)
    except (RuntimeError, OSError, subprocess.CalledProcessError, KeyError,
            ValueError) as e:
        log(f"error: {e}")
        return 1
    finally:
        if runner is not None:
            runner.kill()
        run_dir.remove()
    report(run, setup_times, result)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
