#!/usr/bin/env python3
"""Build and run the chisimnet end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload NAME ... --scale smoke   # tiny inputs
    python3 e2ebench/run.py --self-test                         # all workloads

The first call configures and builds e2ebench/ (the chisimnet libraries
plus the e2e_bench driver) into .bench_build/. Every call then runs the
driver, whose last stdout line is the result: one JSON object with the keys
correct, attempted, failed and metrics. Full records (host and build
fingerprint, every sample, self time per span) and, for traced runs, a
Chrome trace-event file land in .bench_build/results/.

The exit code is non-zero, with no result line, when the sources are
missing, the build fails, or the driver crashes or runs past its deadline.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE = ROOT / ".bench_build"
BUILD = STATE / "cmake"
BINARY = BUILD / "e2e_bench"
DEADLINE_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no chisimnet sources at src/; nothing to benchmark")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    command = ["cmake", "--build", str(BUILD), "--target", "e2e_bench",
               "-j", "4"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return BINARY.is_file()


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for directory in (ROOT / "src", BENCH_DIR):
        for path in sorted(directory.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "source-" + digest.hexdigest()[:16]


def run_driver(workload, seed, seconds, trace, scale, commit):
    """Runs the driver once. Returns (exit code, stdout lines)."""
    work = STATE / "work" / f"{workload}-{os.getpid()}"
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", scale, "--work", str(work),
               "--out", str(STATE / "results"), "--commit", commit]
    env = dict(os.environ, TMPDIR=str(tmp))
    # A session of its own, so a timeout also stops the mp worker processes.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               env=env, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {DEADLINE_S} s")
        return 3, []
    finally:
        if process.poll() is None:  # timed out or interrupted
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
        shutil.rmtree(work, ignore_errors=True)
    return process.returncode, stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def self_test(commit):
    """Runs every workload at smoke scale, traced and untraced, on the
    pinned seed and on another one. Asserts that each run passes its output
    checks and emits every metric BENCHMARK.json names, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((0, 0), (0, 1), (1, 0)):
            tag = f"{workload} seed={seed} trace={trace}"
            before = len(problems)
            code, lines = run_driver(workload, seed, 1, trace, "smoke", commit)
            result = parse_result(lines)
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}, no result line")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: output checks failed")
            metrics = result["metrics"]
            for name, unit in wanted[trace].items():
                if name not in metrics:
                    problems.append(f"{tag}: metric {name} missing")
                elif metrics[name].get("unit") != unit:
                    problems.append(f"{tag}: {name} unit "
                                    f"{metrics[name].get('unit')} != {unit}")
            if set(metrics) - set(wanted[trace]):
                problems.append(f"{tag}: unexpected metrics "
                                f"{sorted(set(metrics) - set(wanted[trace]))}")
            if trace and metrics.get("trace.coverage", {}).get("value", 0) < 0.95:
                problems.append(f"{tag}: trace.coverage below 0.95")
            verdict = "ok" if len(problems) == before else "FAIL"
            print(f"{tag}: {verdict} ({result['attempted']} phases)")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    # SIGTERM unwinds like an error, so the driver's process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 2
    commit = commit_id()
    if args.self_test:
        return self_test(commit)
    code, lines = run_driver(args.workload, args.seed, args.seconds,
                             args.trace, args.scale, commit)
    if code != 0 or parse_result(lines) is None:
        log(f"driver exited {code} without a result")
        return code or 4
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
