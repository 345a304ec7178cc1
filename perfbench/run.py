#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload kron_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. It builds the library from ../src and the
benchmark program with CMake, generates the workload's input files from the
seed, measures, checks every answer, and prints one JSON result object as
the last line of stdout. It exits nonzero when the build fails, when any
answer is wrong, or when any request fails.

--smoke is the benchmark's self-check: tiny inputs, every workload once
untraced and once traced, every metric named in BENCHMARK.json present,
and a deliberately wrong reference diameter must make the run fail.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = ".bench_work"  # relative to ROOT: keeps socket paths short
TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "fdiam_perfbench")


def nproc():
    return len(os.sched_getaffinity(0))


def run_once(binary, workload, seed, seconds, trace, size="full", threads=0,
             corrupt_reference=False):
    """Generate inputs, measure, clean up. Returns (exit code, stdout lines)."""
    threads = threads or nproc()
    shutil.rmtree(os.path.join(ROOT, WORK_DIR), ignore_errors=True)
    work = os.path.join(WORK_DIR, "%s-%d" % (workload, seed))
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir", work,
                  "--size", size]
        subprocess.run([binary, "gen"] + common, cwd=ROOT, check=True,
                       stdout=sys.stderr, timeout=TIMEOUT_S)
        if corrupt_reference:
            path = os.path.join(ROOT, work, "reference.txt")
            lines = open(path).read().split("\n")
            lines = ["solve_diameter %d" % (int(l.split()[1]) + 1)
                     if l.startswith("solve_diameter ") else l for l in lines]
            open(path, "w").write("\n".join(lines))
        cmd = [binary, "run"] + common + ["--seconds", str(seconds),
                                          "--trace", str(trace),
                                          "--threads", str(threads)]
        # Every thread that starts an OpenMP team, the server's sweep
        # thread included, takes its default team size from here.
        env = dict(os.environ, OMP_NUM_THREADS=str(threads))
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S, env=env)
        return proc.returncode, proc.stdout.strip().split("\n")
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)


def smoke(binary):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            code, lines = run_once(binary, wl["name"], 1, 2, trace, size="tiny")
            result = json.loads(lines[-1])
            if code != 0 or not result["correct"] or result["failed"]:
                raise RuntimeError("smoke: %s trace=%d failed (exit %d)"
                                   % (wl["name"], trace, code))
            got = set(result["metrics"])
            if got != want[trace]:
                raise RuntimeError("smoke: %s trace=%d metrics differ: missing %s, extra %s"
                                   % (wl["name"], trace, sorted(want[trace] - got),
                                      sorted(got - want[trace])))
            log("smoke: %s trace=%d ok (%d metrics)" % (wl["name"], trace, len(got)))
    name = spec["workloads"][0]["name"]
    code, lines = run_once(binary, name, 1, 2, 0, size="tiny", corrupt_reference=True)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if code == 0 or result.get("correct", False):
        raise RuntimeError("smoke: a wrong reference diameter was not detected")
    log("smoke: wrong reference diameter detected (exit %d)" % code)
    log("smoke: ok")


def on_sigterm(signum, frame):
    # An exception unwinds through subprocess.run, which kills and reaps
    # the running child, and through the work-directory clean-up.
    raise KeyboardInterrupt("terminated by signal %d" % signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="OpenMP team size of solves and sweeps (default: nproc)")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        binary = build()
        if args.smoke:
            smoke(binary)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                               args.trace, threads=args.threads)
    except (RuntimeError, OSError, ValueError, KeyboardInterrupt,
            subprocess.SubprocessError) as e:
        log("perfbench: error: %s" % e)
        return 2
    if not lines or not lines[-1].startswith("{\"correct\""):
        log("perfbench: the benchmark printed no result (exit %d)" % code)
        return code or 2
    print(json.dumps({"runner": {
        "caller_OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": nproc()}}))
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
