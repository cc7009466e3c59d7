#!/usr/bin/env python3
"""The repo benchmark's single entry point.

    python3 perfbench/run.py --workload geo-read --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds the server (bin/madql.exe) and the
load generator (perfbench/bench.exe) with dune, removes every MAD_*
variable from the environment (recording what it removed), and runs the
load generator, whose last stdout line is the JSON result.  Exits
non-zero without a result when the repository sources are missing.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ("dune-project", "lib", "bin", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def revision():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(top)
            for f in files if not any(p.startswith(("_", ".")) for p in d.split(os.sep)))
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    for p in ("dune-project", "lib/serve/client.ml", "bin/madql.ml", "perfbench/dune"):
        if not os.path.exists(p):
            fail(p + " not found: run from the root of a checkout of the repository")

    scrubbed = sorted(k for k in os.environ if k.startswith("MAD_"))
    record = ";".join("%s=%s" % (k, os.environ[k]) for k in scrubbed)
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAD_")}

    # no shared dune cache: the benchmark writes only inside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "--cache", "disabled",
         "./perfbench/bench.exe", "./bin/madql.exe"],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    cmd = ["_build/default/perfbench/bench.exe",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--madql", "_build/default/bin/madql.exe",
           "--rev", revision(), "--scrubbed", record]
    # its own process group, so a timeout or a signal also stops the
    # server processes it started
    child = subprocess.Popen(cmd, env=env, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        stop()
    sys.exit(code)


if __name__ == "__main__":
    main()
