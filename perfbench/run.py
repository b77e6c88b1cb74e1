#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload ycsb-serve|tpcc-wave|ycsb-par64 \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (perfbench/Cargo.toml, a workspace of its
own over the repository crates) in release mode, offline, into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then
runs it with the same arguments. The binary prints detail lines and a
final result object; this script adds the binary's peak resident memory
(`peak_rss_mb`, from wait4's rusage) to the end-to-end metrics and
prints the result object as its own last line.

Exits non-zero without a result when the build fails (for example when
the repository crates are not beside this directory) or the run fails.
"""

import json
import os
import platform
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ycsb-serve", "tpcc-wave", "ycsb-par64")
# Workloads whose simulation runs on one thread. They run pinned to one
# CPU, so the calibration kernels the binary times between passes run on
# the CPU the passes ran on.
SINGLE_THREADED = ("ycsb-serve", "tpcc-wave")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def parse(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            raise SystemExit(f"run.py: unknown argument {flag}")
        try:
            opts[flag] = next(it)
        except StopIteration:
            raise SystemExit(f"run.py: {flag} needs a value")
    missing = {"--workload", "--seed", "--seconds", "--trace"} - opts.keys()
    if missing:
        raise SystemExit(f"run.py: missing {', '.join(sorted(missing))}")
    if opts["--workload"] not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {opts['--workload']}")
    if opts["--trace"] not in ("0", "1"):
        raise SystemExit("run.py: --trace takes 0 or 1")
    return opts


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
                           stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise SystemExit("run.py: build timed out")
    except FileNotFoundError:
        raise SystemExit("run.py: cargo not found")
    if r.returncode != 0:
        raise SystemExit(f"run.py: build failed ({r.returncode})")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run(binary, opts, env):
    """Run the benchmark binary; return (exit code, stdout, peak RSS KiB).

    The child is reaped with wait4 so its own rusage (not the build's) is
    what reports the peak resident memory. A single-threaded workload is
    pinned to one CPU.
    """
    args = [binary]
    for k in ("--workload", "--seed", "--seconds", "--trace"):
        args += [k, opts[k]]
    p = subprocess.Popen(args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         text=True)
    if opts["--workload"] in SINGLE_THREADED:
        os.sched_setaffinity(p.pid, {max(os.sched_getaffinity(0))})
    timer = threading.Timer(RUN_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, ru.ru_maxrss


def main():
    opts = parse(sys.argv[1:])
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    env["PERFBENCH_HOST_TAG"] = f"{platform.node()}/{platform.machine()}"
    env["PERFBENCH_HOST_CPUS"] = str(os.cpu_count())
    binary = build(env)

    code, out, maxrss_kb = run(binary, opts, env)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if code != 0:
        raise SystemExit(f"run.py: benchmark exited with {code}")
    result = json.loads(lines[-1])
    if opts["--trace"] == "0":
        result["metrics"]["peak_rss_mb"] = {"value": maxrss_kb / 1024.0,
                                            "unit": "MB"}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
