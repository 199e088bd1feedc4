#!/usr/bin/env python3
"""Steadiness study for the wall-clock benchmark.

Runs the benchmark several times per workload, each run with its own
seed, and reports for every end-to-end metric its median, quartiles
(statistics.quantiles(values, n=4)), the quartile spread as a share of
the median, and min/max relative to the median. It also checks that the
behaviour counts of a traced run repeat exactly for one seed.

    python3 wallbench/steady.py --runs 10 --seeds-from 1 \
        --workloads cold-discovery churn-full churn-assim --out study.json

With --compare earlier.json it also prints how far each median moved
from an earlier study of the same code (or of a parent commit).

Run from the root of the repository. Each run's JSON line and stderr
tail are kept in the output file, so the numbers can be rechecked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(cfg, workload, seed, trace):
    cmd = list(cfg["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(cfg["run_seconds"]), "--trace", str(trace)]
    start = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return result, wall, p.stderr.strip().splitlines()[-5:]


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_rel": (q3 - q1) / med if med else 0.0,
        "min_rel": min(values) / med if med else 0.0,
        "max_rel": max(values) / med if med else 0.0,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds-from", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--traced-repeats", type=int, default=2,
                    help="traced runs of the first seed whose counts must repeat exactly")
    ap.add_argument("--out", required=True)
    ap.add_argument("--compare", metavar="STUDY",
                    help="an earlier study's output: print how far each median moved from it")
    args = ap.parse_args()

    cfg = bench_config()
    workloads = args.workloads or [w["name"] for w in cfg["workloads"]]
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    study = {"run_seconds": cfg["run_seconds"], "workloads": {}}
    for wl in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.seeds_from + i
            res, wall, tail = run_once(cfg, wl, seed, 0)
            runs.append({"seed": seed, "wall_s": wall, "result": res, "stderr_tail": tail})
            print(f"{wl} seed {seed}: {wall:.1f}s attempted {res['attempted']} failed {res['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                  flush=True)
        metrics = {}
        for name in bounds:
            s = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            s["bound"] = bounds[name]
            s["within_third_of_bound"] = s["iqr_rel"] < bounds[name] / 3
            metrics[name] = s
            print(f"  {name:14s} median {s['median']:.4g} iqr/med {s['iqr_rel']:.4f} "
                  f"min {s['min_rel']:.3f} max {s['max_rel']:.3f} (bound {bounds[name]})", flush=True)
        # Counts and simulated times repeat exactly for one seed: compare
        # traced runs of the first seed.
        traced = [run_once(cfg, wl, args.seeds_from, 1)[0] for _ in range(args.traced_repeats)]
        exact = ["sim.events", "fabric.pi4_pkts", "core.runs", "core.coalesced",
                 "rib.installs", "rib.leaves_changed", "sim.op_ms"]
        repeat = {k: [t["metrics"][k]["value"] for t in traced] for k in exact}
        repeat["failed"] = [t["failed"] for t in traced]
        repeats_exactly = all(len(set(v)) <= 1 for v in repeat.values())
        if traced:
            print(f"  traced repeat (seed {args.seeds_from}): {'exact' if repeats_exactly else 'DRIFT'} {repeat}",
                  flush=True)
        study["workloads"][wl] = {
            "runs": runs, "metrics": metrics,
            "traced": traced, "traced_repeats_exactly": repeats_exactly,
        }
    with open(args.out, "w") as f:
        json.dump(study, f, indent=1)
    print(markdown(study))
    if args.compare:
        with open(args.compare) as f:
            print(compare(json.load(f), study, {m["name"]: m["better"] for m in cfg["end_to_end"]}))


def compare(first, second, better):
    """Renders each end-to-end median of the second study against the
    first: the relative move, and how far it is worse in the metric's
    own direction (0 when it is better), next to the metric's bound."""
    lines = ["| workload | metric | first median | second median | second/first | worse by | bound |",
             "|---|---|---|---|---|---|---|"]
    for wl, w in second["workloads"].items():
        if wl not in first["workloads"]:
            continue
        for name, s in w["metrics"].items():
            a, b = first["workloads"][wl]["metrics"][name]["median"], s["median"]
            ratio = b / a if a else float("nan")
            worse = max(0.0, ratio - 1 if better[name] == "lower" else 1 - ratio)
            lines.append(f"| {wl} | {name} | {a:.4g} | {b:.4g} | {ratio:.3f} | {worse:.3f} | {s['bound']} |")
    return "\n".join(lines)


def markdown(study):
    """Renders the study's summary as a markdown table."""
    lines = ["| workload | metric | median | q1 | q3 | (q3-q1)/median | min/median | max/median | bound |",
             "|---|---|---|---|---|---|---|---|---|"]
    for wl, w in study["workloads"].items():
        for name, s in w["metrics"].items():
            lines.append(f"| {wl} | {name} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | "
                         f"{s['iqr_rel']:.4f} | {s['min_rel']:.3f} | {s['max_rel']:.3f} | {s['bound']} |")
    return "\n".join(lines)


if __name__ == "__main__":
    main()
