"""Measures the run-to-run spread of the end-to-end metrics.

Runs each workload once per seed, the workloads taking turns (seed 1 of
each, then seed 2 of each, ...), and prints every run's metrics and, for
every workload and metric, the median and the interquartile range over the
median, with the quartiles statistics.quantiles(values, n=4) gives. Run
from the repository root:

    python3 perfbench/spread.py --workloads solve-cold,serve-mixed --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="solve-cold,serve-mixed,exec-hardened",
                    help="comma-separated")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    for seed in seeds(args.seeds):
        for w in workloads:
            cmd = ["bash", "perfbench/run.sh", "--workload", w,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
            result = json.loads(lines[-1])
            print(f"{w} seed {seed}: attempted {result['attempted']} failed {result['failed']} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
                  flush=True)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    for w in workloads:
        print(f"== {w}")
        for name, vs in sorted(values[w].items()):
            if len(vs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            print(f"  {name:16} median {med:.5g}  iqr/median {(q3 - q1) / med if med else 0:.4f}")


if __name__ == "__main__":
    main()
