#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig8_seq --seed 1 --seconds 30 --trace 0

The last line of standard output is the driver's JSON result; build output
goes to standard error.  Build files go to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; the traced run (--trace 1) also
writes its spans there, under spans/.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's unit tests, then checks that a tiny run of
every workload prints exactly the metrics BENCHMARK.json declares.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DRIVER_TIMEOUT_S = 175


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build(targets):
    out = build_dir()
    # A build file exists only after a configure step that succeeded.
    if not ((out / "build.ninja").exists() or (out / "Makefile").exists()):
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4", "--target", *targets],
                   check=True, stdout=sys.stderr)
    return out


def self_test() -> int:
    out = build(["perfbench_driver", "perfbench_tests"])
    if subprocess.run([str(out / "perfbench_tests")]).returncode != 0:
        return 1
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    failures = []
    for workload in declared["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [str(out / "perfbench_driver"), "--workload", workload["name"], "--seed", "5",
                   "--seconds", "0.5", "--trace", trace, "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
                failures.append(f"{where}: checks failed\n{proc.stderr}")
            if got != want:
                failures.append(f"{where}: emitted {sorted(got.items())}, declared {sorted(want.items())}")
            for name, unit in got.items():
                if not (name_re.fullmatch(name) and unit_re.fullmatch(unit)):
                    failures.append(f"{where}: illegal name or unit {name!r} {unit!r}")
    for f in failures:
        print("FAIL", f, file=sys.stderr)
    print("self-test", "failed" if failures else "passed", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    out = build(["perfbench_driver"])
    cmd = [str(out / "perfbench_driver"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = out / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--spans-out", str(spans)]
    try:
        return subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the driver ran past its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
