#!/usr/bin/env python3
"""Serve benchmark entry point.

    python3 perfbench/run.py --workload hit|miss|deadline|churn \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds `certdb` and the
benchmark's own program `pb` from source (dune, build directory
`.bench_build`), pins `pb` (the client) and the server it spawns to one
CPU with `taskset`, and runs `pb` in `.bench_run/`.  `--trace 0` prints the
end-to-end metrics of a timed socket run; `--trace 1` prints the
per-layer metrics of the traced in-process replay.  The last line of
standard output is the result object; the line before it is the
environment record.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
PB = os.path.join(BUILD_DIR, "default", "perfbench", "pb", "pb.exe")
CERTDB = os.path.join(BUILD_DIR, "default", "bin", "certdb.exe")
WORKLOADS = ("hit", "miss", "deadline", "churn")
SOURCES = ("dune-project", "bin/certdb.ml", "lib/service/server.ml",
           "perfbench/pb/pb.ml")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout
    or exit, so no server outlives the benchmark."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    # a terminated benchmark takes its process group with it
    signal.signal(signal.SIGTERM, lambda *_: (os.killpg(p.pid, signal.SIGKILL), sys.exit(143)))
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s", 4)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    return p.returncode, out, err


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _, _ = run_group(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "./bin/certdb.exe", "./perfbench/pb/pb.exe"],
        timeout=600, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        fail("build failed", 3)


def pin_cpu():
    """The highest CPU this process may use: pb (the client) and the
    server share it (steadier than letting the scheduler place them)."""
    if shutil.which("taskset") is None or not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        fail("not a certdb source checkout (missing " + ", ".join(missing) + ")", 2)
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    cpu = pin_cpu()
    cmd = [os.path.abspath(PB), "trace" if a.trace else "run",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds),
           "--certdb", os.path.abspath(CERTDB)]
    if cpu is not None:
        cmd = ["taskset", "-c", str(cpu)] + cmd
    code, out, err = run_group(cmd, timeout=170, cwd=RUN_DIR,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if code != 0 or len(lines) < 2:
        fail(f"pb exited with {code}", 5)
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    env = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        **detail,
    }
    print(json.dumps({"env": env}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
