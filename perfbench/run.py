#!/usr/bin/env python3
"""Builds and runs the kivati benchmark (see README.md next to this file).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py compare RESULT_A.json RESULT_B.json

The first form builds perfbench/ (and the kivati sources it measures) in
Release mode under $CARGO_TARGET_DIR or .bench_build/, runs one workload and
passes kvbench's output through: the last stdout line is the JSON result.
Result files, and a Chrome trace_event file for traced runs, are written to
<build dir>/results/. The second form prints two result files side by side
and refuses to compare results whose workload parameters differ.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("apps-c2", "apps-c8", "hb-oracle", "bug-hunt")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the sources that make up the measured program."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_label():
    label = "src-sha256:" + source_digest()
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            label = head.stdout.strip() + " " + label
    return label


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("kivati sources (src/) not found next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(min(os.cpu_count() or 1, 4))],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir


def run(args):
    build_dir = build()
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    command = [
        os.path.join(build_dir, "kvbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--expected", os.path.join(HERE, "expected_digests.txt"),
        "--result", stem + ".json",
        "--commit", commit_label(),
    ]
    if args.trace:
        command += ["--spans", stem + ".trace.json"]
    sys.stdout.flush()
    return subprocess.run(command).returncode


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for key in ("workload", "trace", "params"):
        if a.get(key) != b.get(key):
            fail(f"refusing to compare: {key} differs\n  {a.get(key)}\n  {b.get(key)}")
    for side, result in (("A", a), ("B", b)):
        env = result["env"]
        print(f"{side}: {path_a if side == 'A' else path_b}  seed {result['seed']}  "
              f"commit {env['commit']}  {env['build_type']}  {env['compiler']}  "
              f"nproc {env['nproc']}  correct {result['correct']}")
        if env["build_type"] != "Release":
            print(f"warning: {side} is a {env['build_type']} build, not Release")
    print(f"{'metric':32} {'A':>14} {'B':>14} {'B/A-1':>9}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        change = f"{vb / va - 1:+.1%}" if va else "-"
        print(f"{name:32} {va:14.6g} {vb:14.6g} {change:>9}  {ma['unit']}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare RESULT_A.json RESULT_B.json")
        return compare(sys.argv[2], sys.argv[3])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
