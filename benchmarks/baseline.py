"""Measure a baseline: every workload over several seeds, plus one traced run.

    python3 benchmarks/baseline.py [--seeds 10] [--first-seed 1]
                                   [--out benchmarks/baseline.json]

Each run is ``benchmarks/run.py`` in its own process, with BENCHMARK.json's
``run_seconds``.  For every workload and end-to-end metric the output holds
the median, the quartiles (``statistics.quantiles(values, n=4)``), the sample
count and the spread (quartile distance over the median, the figure each
metric's ``bound`` is compared with); the traced run of the first seed gives
the per-layer table.  Compare two commits by running this on both.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise SystemExit("%s seed %d (trace %d) failed with exit code %d"
                         % (workload, seed, trace, proc.returncode))
    return result, env


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values),
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    out = {"run_seconds": spec["run_seconds"], "seeds": seeds,
           "workloads": {}}
    for w in spec["workloads"]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            result, env = run(w["name"], seed, spec["run_seconds"], 0)
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(w["name"], seed, {k: round(v[-1], 4)
                                    for k, v in values.items()}, flush=True)
        traced, _ = run(w["name"], seeds[0], spec["run_seconds"], 1)
        out["env"] = env
        out["workloads"][w["name"]] = {
            "why": w["why"],
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
        for name, v in values.items():
            s = out["workloads"][w["name"]]["end_to_end"][name]
            print("  %-14s median %.6g  spread %.4f" % (name, s["median"],
                                                        s["spread"]))
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
