#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads rpc-echo,stream --seeds 1-10 \
        [--trace 0] [--out summary.json]

Run it from the repository root. For every workload and metric it prints
the median, the quartiles and the spread (interquartile range over the
median, as statistics.quantiles(values, n=4) gives them), and with --out
it writes those, the raw per-run values and each run's environment stamp
as JSON. perfbench/baseline.json was written this way.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="a seed or a range such as 1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    summary = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            lines = out.stdout.strip().split("\n")
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"seed": seed, "env": record["env"], "counts": record["counts"], "result": result})
            print(f"{wl} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for name, m in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            metrics[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None, "values": values}
            print(f"{wl:14s} {name:30s} median={med:<12.5g} spread={metrics[name]['spread']}")
        summary[wl] = {"trace": int(args.trace), "runs": runs, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
