"""Run the rvbprep benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all [--seed N --seconds S]

One workload runs in this process: with ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run
(spans are written to ``benchmarks/out/``).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload of BENCHMARK.json, each
in its own process, untraced and then traced, and prints every metric.  The
exit code is non-zero when any output check or correctness gate fails.

The library is imported from ``src/`` next to this directory, after the BLAS
thread count is set, so the count is in effect when numpy loads OpenBLAS.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# On the 2-core reference box two BLAS threads left the N = 36 sweep's wall
# time unchanged (49.5 s against 49.6 s at T = 5) while doubling its CPU
# time, and with another process on one core a threaded run slowed up to
# tenfold, which no bound on the wall time survives.
BLAS_THREADS = 1


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print("%-30s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def run_one(args, spec):
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import rvbprep
    package = os.path.dirname(os.path.abspath(rvbprep.__file__))
    if package != os.path.join(SRC, "rvbprep"):
        raise SystemExit("rvbprep imported from %s, not from %s"
                         % (rvbprep.__file__, SRC))
    import harness
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0

    if args.workload not in WORKLOADS:
        raise SystemExit("unknown workload %r (have: %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    env = harness.environment(ROOT, BLAS_THREADS)
    print("env " + json.dumps(env, sort_keys=True))
    res = harness.run_workload(workload, args.seed, args.seconds,
                               trace=bool(args.trace))
    print("gate: " + res.gate)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        metrics = harness.per_layer_metrics(res, workload)
        os.makedirs(OUT, exist_ok=True)
        res.tracer.dump(os.path.join(
            OUT, "trace-%s-seed%d.json" % (workload.name, args.seed)),
            {"workload": workload.name, "seed": args.seed, "env": env})
    else:
        metrics = harness.end_to_end_metrics(res, import_s)
        print("%-30s %14.6g %s" % ("fail_rate", res.failed / res.attempted,
                                   "ratio"))
        print("%-30s %14d %s" % ("items", len(res.walls), "count"))
    if set(metrics) != set(units):
        raise SystemExit("metrics %s do not match BENCHMARK.json %s"
                         % (sorted(metrics), sorted(units)))
    correct = res.failed == 0
    report(correct, res.attempted, res.failed, metrics, units)
    return 0 if correct else 1


def run_all(args, spec):
    """Every workload in its own process, untraced then traced."""
    attempted = failed = 0
    correct = True
    metrics, units = {}, {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print("== %s (trace %d)" % (w["name"], trace), flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print("%s produced no result (exit %d)"
                      % (w["name"], proc.returncode), flush=True)
                correct = False
                continue
            correct = correct and result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                key = "%s/%s" % (w["name"], name)
                metrics[key], units[key] = m["value"], m["unit"]
    print("== all workloads")
    report(correct, attempted, failed, metrics, units)
    return 0 if correct else 1


def main(argv=None):
    args = parse(argv)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
