#!/usr/bin/env python3
"""Builds and runs the dpack wall-clock benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload <deep_queue|grant_churn|service_socket> \
      --seed <n> --seconds <n> --trace <0|1>

The first run configures and builds the library and the benchmark binary (Release) under
.bench_build/perfbench; later runs rebuild only what changed. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. Flags are passed through to the
binary, which rejects any it does not know. Exits non-zero, without a result line, when the
build or any output check fails.
"""

import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dpack_perfbench")
# A run must end well inside three minutes; the binary's own budget is --seconds plus
# set-up and checks, so this only fires on a hang.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"the dpack sources (CMakeLists.txt, src/) are not in {ROOT}")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "dpack_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(step))
                return False
    return True


def main(argv):
    if not build():
        return 3
    child = subprocess.Popen([BINARY] + argv, cwd=ROOT, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s; killed")
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
