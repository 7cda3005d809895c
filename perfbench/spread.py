"""Run the benchmark on several seeds and report each metric's spread.

For every metric of the chosen mode this prints the median over the runs
and the distance between the first and third quartile as a share of that
median -- the figure a metric's bound in BENCHMARK.json must stay above.
Run from the repository root:

    python3 perfbench/spread.py --workload scan-flood --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="per-run budget (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = f"bound {bound}" + ("  OVER A THIRD" if spread > bound / 3 else "")
        print(f"  {name:34s} median {med:<14.6g} spread {spread:8.4f}  {flag}")


if __name__ == "__main__":
    main()
