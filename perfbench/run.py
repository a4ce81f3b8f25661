#!/usr/bin/env python3
"""Repository benchmark: build the runner from source, run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fmo_minlp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The runner (perfbench/src/main.cpp) is configured and built under
.bench_build/perfbench on first use. Its standard output is passed through:
an environment block, one line per metric, and the result as one JSON
object on the last line. A copy of the result, with the environment and the
spans of traced runs, lands in .bench_build/results/. The exit code is the
runner's: 0 when every check passed, non-zero otherwise. See README.md.
"""

import argparse
import ctypes
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("fmo_minlp", "fmo_adaptive", "service_stream")
RUN_TIMEOUT_S = 175
ADDR_NO_RANDOMIZE = 0x0040000  # linux/personality.h


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no HSLB sources next to perfbench/ (expected src/CMakeLists.txt)")
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=log, stderr=log, check=True)
    return os.path.join(BUILD, target)


def no_aslr():
    """Runs in the runner's process before exec: turn off address-space
    randomisation, so every run gets the same memory layout. With it on,
    runs of one input differed by up to 30% in wall time. Best effort: where
    the call is refused the runner runs randomised and reports so."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the sources the runner is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")

    try:
        runner = build("perfbench_runner")
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", RESULTS, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, preexec_fn=no_aslr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("runner exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
