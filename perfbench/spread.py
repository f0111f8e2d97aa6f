#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's median
and quartile spread, the way its bounds are checked.

Run from the repository root:

  python3 perfbench/spread.py --seeds 1-10 --workloads rpc-bulk,conn-churn
  python3 perfbench/spread.py --seeds 1-5 --holdout 101-105

For every workload and end-to-end metric it prints the median, the
spread (Q3 - Q1) / median with the quartiles from
statistics.quantiles(values, n=4), and the metric's bound from
BENCHMARK.json. A spread above a third of its bound is flagged. With
--holdout it also runs the hold-out seeds and prints how far their
median lies from the first seeds' median, against the same bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(cfg, workload, seed):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {res}")
    return res["metrics"]


def collect(cfg, workloads, seeds, log):
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            m = run_once(cfg, w, seed)
            runs[w].append(m)
            log.append({"workload": w, "seed": seed, "metrics": m})
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(m.items())), file=sys.stderr)
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--holdout", default="", help="hold-out seed range to compare medians against")
    ap.add_argument("--workloads", default="", help="comma-separated; default all in BENCHMARK.json")
    ap.add_argument("--json", default="", help="also write every run's metrics to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        cfg = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in cfg["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in cfg["end_to_end"]}

    log = []
    runs = collect(cfg, workloads, seed_range(args.seeds), log)
    hold = collect(cfg, workloads, seed_range(args.holdout), log) if args.holdout else None

    ok = True
    for w in workloads:
        print(f"{w} ({len(runs[w])} runs, seeds {args.seeds}):")
        for name in sorted(runs[w][0]):
            vals = [m[name]["value"] for m in runs[w]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            line = f"  {name:28s} median {med:<12.5g} spread {spread:7.2%}"
            if bound is not None:
                flag = "" if spread <= bound / 3 else "  <-- above bound/3"
                # setup_s is bounded only on its median, not its spread.
                if name != "setup_s":
                    ok = ok and spread <= bound
                line += f"  bound {bound:.0%}{flag}"
            if hold:
                hmed = statistics.median([m[name]["value"] for m in hold[w]])
                diff = hmed / med - 1 if med else float("nan")
                line += f"  hold-out median {hmed:<12.5g} ({diff:+.2%})"
                if bound is not None and abs(diff) > bound:
                    line += "  <-- outside bound"
            print(line)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(log, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
