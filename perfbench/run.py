#!/usr/bin/env python3
"""Builds and runs the serving benchmark from the root of a source tree.

    python3 perfbench/run.py --workload nfv-match --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds the psi library and the benchmark from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark's self-test, clears every PSI_* variable (and records which), and
runs one workload. The last line of stdout is the result object; the full
record and, with --trace 1, the Chrome trace-event JSON land under
<build dir>/results/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures and builds; CMake's output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "psi", "engine.hpp")):
        log(f"no psi sources under {ROOT}/src; nothing to build")
        return False
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                      check=False).returncode != 0:
        # A build directory configured for another source tree: start over.
        shutil.rmtree(out, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S,
                          check=False).returncode != 0:
            return False
    cmd = ["cmake", "--build", out, "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                          check=False).returncode == 0


def git_sha():
    # Only a tree that is itself a git checkout; never a parent directory.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10,
                           check=False)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_child(cmd, env, timeout):
    """Runs `cmd` with stderr passed through; returns (code, stdout)."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=env) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"timed out after {timeout} s: {' '.join(cmd)}")
            return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run only the benchmark's self-test")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    if not build(out):
        log("build failed")
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("PSI_")}
    cleared = sorted(k for k in os.environ if k.startswith("PSI_"))
    if cleared:
        log(f"cleared {', '.join(cleared)}")

    code, text = run_child([os.path.join(out, "perfbench_selftest")], env, 60)
    sys.stderr.write(text)
    if code != 0:
        log("self-test failed")
        return 1
    if args.selftest:
        return 0

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env["PERFBENCH_GIT_SHA"] = git_sha()
    cmd = [os.path.join(out, "psi_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--result-out", stem + ".json",
           "--cleared-env", ",".join(cleared) or "none"]
    if args.trace == 1:
        cmd += ["--trace-out", stem + ".trace.json"]
    code, text = run_child(cmd, env, RUN_TIMEOUT_S)
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if code != 0 or not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(text)
        log(f"run failed (exit {code})")
        return code or 1
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
