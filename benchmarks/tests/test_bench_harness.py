"""Tests of the benchmark harness at N = 12 and L = 4.

Run with ``python3 -m pytest benchmarks/tests``; the repository's own test
run (``tests/``) does not collect them.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness                      # noqa: E402
from tracing import Tracer, _targets  # noqa: E402
from workloads import WORKLOADS     # noqa: E402

NAMES = sorted(WORKLOADS)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workloads_match_benchmark_json():
    assert NAMES == sorted(w["name"] for w in _spec()["workloads"])


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("small", [False, True])
def test_same_seed_same_inputs(name, small):
    w = WORKLOADS[name]
    assert w.make_inputs(3, small) == w.make_inputs(3, small)
    assert w.make_inputs(3, small) != w.make_inputs(4, small)


@pytest.fixture(scope="module")
def contexts():
    out = {}
    for name in NAMES:
        w = WORKLOADS[name]
        x = w.make_inputs(1, small=True)
        out[name] = (w, x, w.setup(x))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_identical(contexts, name):
    w, x, ctx = contexts[name]
    carry = None
    for item in x["items"][:2]:
        cold = carry is None
        plain, _ = w.item(ctx, item, carry)
        tracer = Tracer()
        tracer.install(0)
        try:
            traced, carry = w.item(ctx, item, carry)
        finally:
            tracer.uninstall()
        assert tracer.spans
        if name == "tn-cylinder" and cold:
            # a cold start goes through ARPACK, which draws a new random
            # start vector on each call: equal to the solver tolerance only
            assert harness.outputs_match(plain, traced)
        else:
            assert plain == traced


def test_tracer_restores_the_library():
    before = [vars(owner)[attr] for owner, attr, _, _ in _targets()]
    tracer = Tracer()
    tracer.install(0)
    tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr, _, _ in _targets()] == before


def test_sweep_counts_agree_with_the_library():
    w = WORKLOADS["sweep-n36"]
    res = harness.run_workload(w, 2, 0.0, trace=True, small=True)
    assert res.failed == 0
    m = harness.per_layer_metrics(res, w)
    n_steps = res.outputs[0]["n_steps"]          # Trajectory.n_steps
    assert m["evolve.n_steps"] == n_steps
    # the floor the CLI's 200 samples impose: one step per sampling interval
    assert n_steps >= 199
    spans = [s for s in res.tracer.spans if s[5] == 0]
    per_call = {s[0]: 0 for s in spans if s[1] == "evolve.lanczos"}
    for s in spans:
        if s[1] == "model.apply" and s[4] in per_call:
            per_call[s[4]] += 1
    krylov_dim = 20                     # evolve_sweep's default
    assert per_call and all(1 <= n <= krylov_dim for n in per_call.values())
    assert m["evolve.matvecs_per_step"] * n_steps == pytest.approx(
        sum(per_call.values()))


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_metric(name):
    spec = _spec()
    res = harness.run_workload(WORKLOADS[name], 5, 0.0, trace=True, small=True)
    assert res.failed == 0 and res.attempted == 2
    layer = harness.per_layer_metrics(res, WORKLOADS[name])
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    e2e = harness.end_to_end_metrics(res, 0.5)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert all(e2e[m] > 0 for m in e2e)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "tn-cylinder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
