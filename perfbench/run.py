#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: table1-ref, fuzz-short, serve-mixed (perfbench/DESIGN.md).
The executable is built with dune into the checkout's own _build/
(dune's shared cache off, so nothing is written outside the checkout),
then run from the checkout root; its last stdout line is the JSON
report.  serve-mixed runs pinned to the CPU that was idle longest just
before it (perfbench/DESIGN.md).  Exits non-zero without a report when
the sources are missing, the build fails, or the run fails or overruns.
"""

import os
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def quietest_cpu():
    """The allowed CPU that was idle longest over a short sample, or None."""
    def idle_ticks():
        with open("/proc/stat") as f:
            rows = [line.split() for line in f]
        return {int(r[0][3:]): int(r[4]) for r in rows
                if r[0].startswith("cpu") and r[0][3:].isdigit()}
    try:
        allowed = os.sched_getaffinity(0)
        before = idle_ticks()
        time.sleep(0.3)
        after = idle_ticks()
    except (OSError, AttributeError, ValueError, IndexError):
        return None
    cpus = [c for c in allowed if c in before and c in after]
    return max(cpus, key=lambda c: after[c] - before[c]) if cpus else None


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        print("perfbench: no source tree (dune-project, lib/) beside perfbench/",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--display", "quiet",
             "./perfbench/main.exe"],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    args = sys.argv[1:]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "serve-mixed":
        # The daemon domain and its client share one CPU, so a round
        # trip's wake-up never depends on where the scheduler placed
        # the two domains (a cross-CPU wake-up costs the host's IPI
        # latency).  Falls back to no pinning where affinity is unknown.
        cpu = quietest_cpu()
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
    try:
        run = subprocess.run([exe] + args, cwd=root,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
