#!/usr/bin/env python3
"""Steadiness evidence for the benchmark: repeated runs, spreads, and the
comparison of two independent sets.

Run from the root of a checkout:

    python3 perfbench/steadiness.py run --seeds 1-10 --out perfbench/results/set_a.json
    python3 perfbench/steadiness.py run --seeds 11-20 --out perfbench/results/set_b.json
    python3 perfbench/steadiness.py compare perfbench/results/set_a.json perfbench/results/set_b.json

`run` runs every workload of BENCHMARK.json once per seed (end-to-end
metrics, --trace 0) and stores every result.  For each metric it reports
the spread: the distance between the first and third quartile of the runs
(statistics.quantiles(values, n=4)) as a share of their median.  `compare`
checks that each spread is within its metric's bound (setup_s excepted) and
that the second set's median is not worse than the first's by more than
the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs, declared):
    """{workload: {metric: {median, spread, bound, values}}}"""
    out = {}
    for workload, results in runs.items():
        out[workload] = {}
        for m in declared["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            out[workload][m["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values) if len(values) >= 2 else 0.0,
                "bound": m["bound"],
                "better": m["better"],
                "values": values,
            }
    return out


def print_summary(summary):
    for workload, metrics in summary.items():
        print(f"\n{workload}")
        print(f"  {'metric':<20} {'median':>14} {'spread':>8} {'bound':>6} {'spread/bound':>13}")
        for name, s in metrics.items():
            ratio = s["spread"] / s["bound"]
            print(f"  {name:<20} {s['median']:>14.6g} {s['spread']:>8.4f} {s['bound']:>6.2f} {ratio:>13.2f}")


def cmd_run(args):
    declared = json.loads(BENCHMARK.read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in declared["workloads"]]
    seconds = str(args.seconds or declared["run_seconds"])
    runs = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [*declared["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", seconds, "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                sys.exit(f"{workload} seed {seed} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = wall
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
    summary = summarize(runs, declared)
    print_summary(summary)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"seconds": float(seconds), "runs": runs,
                                              "summary": summary}, indent=1) + "\n")


def cmd_compare(args):
    a = json.loads(Path(args.first).read_text())["summary"]
    b = json.loads(Path(args.second).read_text())["summary"]
    ok = True
    print(f"{'workload':<11} {'metric':<18} {'spread A':>9} {'spread B':>9} {'shift':>8} {'bound':>6}  verdict")
    for workload in a:
        for name, sa in a[workload].items():
            sb = b[workload][name]
            shift = sb["median"] / sa["median"] - 1.0
            worse = shift if sa["better"] == "lower" else -shift
            bound = sa["bound"]
            good = worse <= bound and (name == "setup_s" or
                                       (sa["spread"] <= bound and sb["spread"] <= bound))
            ok &= good
            print(f"{workload:<11} {name:<18} {sa['spread']:>9.4f} {sb['spread']:>9.4f} "
                  f"{shift:>+8.4f} {bound:>6.2f}  {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9")
    run.add_argument("--workloads", help="comma-separated; default all")
    run.add_argument("--seconds", type=int, help="default: run_seconds")
    run.add_argument("--out")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
