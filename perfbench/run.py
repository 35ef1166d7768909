#!/usr/bin/env python3
"""Builds and runs the photon-zo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` cargo package
(a workspace of its own that depends on the repository's crates by path)
in release mode into $CARGO_TARGET_DIR, default `.bench_build`, runs the
binary in a fresh work directory under `.bench_work/` and passes its output
through. The last line printed is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. An untraced run (`--trace 0`) adds
`peak_rss_mb`, the binary's peak resident memory, read from its rusage when
it exits. Operation times are in multiples of a fixed reference kernel's
time, measured next to the operations (unit `ref`; see src/reference.rs).
A traced run (`--trace 1`) also leaves its spans and program events in
`.bench_work/spans-<workload>-seed<n>.jsonl`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("table1-lcng-calib", "table1-zoco-durable", "serve-sim-onchip")
# A run must end within 180 s; the binary is killed a little before.
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def build():
    """Builds the binary and returns its path; build output goes to stderr."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)  # a relative target dir is relative to the root
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run_binary(cmd):
    """Runs `cmd`, returning its stdout lines, exit code and peak RSS in MB."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_LIMIT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out.splitlines(), proc.returncode, usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    trace = args.trace == "1"
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")

    expected = expected_metrics(trace)
    binary = build()

    work_root = os.path.join(ROOT, ".bench_work")
    run_dir = os.path.join(work_root, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    fs = subprocess.run(
        ["stat", "-f", "-c", "%T", run_dir], capture_output=True, text=True
    ).stdout.strip()
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", run_dir,
    ]
    if trace:
        spans = os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--spans", spans]
    try:
        lines, code, peak_rss_mb = run_binary(cmd)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if code != 0 or not lines:
        fail(f"benchmark binary exited with {code}")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    if set(result["metrics"]) != expected:
        fail(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json's {sorted(expected)}")

    print(f"journal_dir: {os.path.relpath(run_dir, ROOT)} filesystem={fs or 'unknown'}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
