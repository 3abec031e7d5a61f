#!/usr/bin/env python3
"""Build the losac benchmark from source and run one measurement.

Run from the root of a losac checkout:

    python3 perfbench/run.py --workload synth_sweep --seed 1 --seconds 20 --trace 0

Builds bin/losac.exe and perfbench/driver.exe with dune (the dune cache
is disabled, so the build writes only under _build/ of the checkout),
then runs the driver.  The driver's last line on standard output is the
JSON result.  Exits non-zero, printing no result, when the build fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

DRIVER = os.path.join("_build", "default", "perfbench", "driver.exe")
LOSAC = os.path.join("_build", "default", "bin", "losac.exe")
SOURCES = ["dune-project", "dune", "lib", "bin", "perfbench"]
DRIVER_TIMEOUT_S = 175


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    paths = []
    for top in SOURCES:
        if os.path.isfile(top):
            paths.append(top)
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith(("_", ".")))
            paths.extend(os.path.join(base, f) for f in files)
    for path in sorted(paths):
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/driver.exe", "./bin/losac.exe"],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [DRIVER, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--losac", LOSAC, "--commit", commit(),
           "--source-digest", source_digest()]
    # Own process group: on a timeout the driver and any daemon it
    # started are killed together.
    proc = subprocess.Popen(cmd, start_new_session=True, stdin=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: driver timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
