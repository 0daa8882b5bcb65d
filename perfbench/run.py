#!/usr/bin/env python3
"""End-to-end benchmark of the lid-qs library, CLI pipeline and serve daemons.

Run from the repository root:

    python3 perfbench/run.py --workload certify-100k --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

Builds the driver and the two daemons from the repository's sources into
.bench_build/perfbench (first run only), then runs one workload and relays the
driver's output. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("certify-100k", "size-sim", "serve-direct", "serve-cluster")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the driver; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("repository sources (src/) not found next to perfbench/; cannot build")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "e2e_driver", "lid_serve", "lid_cluster"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def run_driver(args, cwd):
    """Runs the driver in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("driver timed out")
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # any daemon left behind
        except ProcessLookupError:
            pass
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="feed every correctness check a deliberately wrong input")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(root, build_dir)
    driver = os.path.join(build_dir, "e2e_driver")
    if a.selftest:
        sys.exit(run_driver([driver, "--selftest"], build_dir))

    # The daemons' sockets are relative paths in this directory, which keeps
    # them short however deep the checkout sits.
    run_dir = os.path.join(build_dir, "run-" + a.workload)
    os.makedirs(run_dir, exist_ok=True)
    for name in os.listdir(run_dir):
        if name.endswith(".sock"):
            os.unlink(os.path.join(run_dir, name))
    sys.exit(run_driver([driver, "--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", str(a.trace),
                         "--bin-dir", build_dir], run_dir))


if __name__ == "__main__":
    main()
