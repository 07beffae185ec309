#!/usr/bin/env python3
"""Build and run the fgmon benchmark.

Run from the repository root:

    python3 fgbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Builds the `fgbench` package (release profile, offline) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset, prints one
`host:` line recording the machine and toolchain, then runs the benchmark
binary with the same arguments. The binary's last line of standard output
is the JSON result; this script exits with the binary's exit code, or
non-zero without a result when the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run measures for --seconds plus a reference run and set-up; none
# comes near this, and a hung run must not outlive the caller's limit.
RUN_TIMEOUT_S = 170


def git_commit():
    """The checked-out commit, read from the checkout's own .git, if any."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def arg_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("fgbench: build failed", file=sys.stderr)
        return 1
    host = {
        "host_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": rustc_version(),
        "commit": git_commit(),
        "seed": arg_value(args, "--seed"),
    }
    print("host: " + json.dumps(host), flush=True)
    binary = os.path.join(target, "release", "fgbench")
    try:
        run = subprocess.run([binary] + args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"fgbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
