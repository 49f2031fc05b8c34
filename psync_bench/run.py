#!/usr/bin/env python3
"""Build psync_bench from this checkout, then run it with the given arguments.

    python3 psync_bench/run.py --workload psync_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when it
is set, else .bench_build/; build output goes to stderr, so the benchmark's
own standard output (last line: the result JSON) is all that reaches stdout.
Temp files (journals, sockets, traces) live under <build>/tmp.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("psync_bench: simulator sources not found next to psync_bench/; "
              "run from a full checkout", file=sys.stderr)
        return 1
    build = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build = os.path.abspath(build)
    work_dir = os.path.join(build, "tmp")
    os.makedirs(work_dir, exist_ok=True)
    # The compiler's and the benchmark's scratch files stay in the checkout.
    os.environ["TMPDIR"] = work_dir
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs, "--target", "psync_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("psync_bench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    binary = os.path.join(build, "psync_bench")
    rel = os.path.relpath(work_dir)
    if len(rel) < len(work_dir):
        work_dir = rel  # Unix socket paths under here must stay short
    sys.stdout.flush()
    # A child, not exec: an exec'd benchmark would inherit this process's
    # rusage, and with it the compiler's peak RSS and CPU time.
    proc = subprocess.Popen([binary] + sys.argv[1:] + ["--work-dir", work_dir])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
