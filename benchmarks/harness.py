"""Timed loop, correctness accounting and result assembly for one workload.

A run sets the workload up ``SETUP_REPS`` times, then runs work items in a
closed loop (the next item starts when the previous one has finished) until
``seconds`` have passed, at least one item; each item's outputs are checked
outside its timed interval.  The workload's oracle gate runs last.  An item
that raises or fails its check, and a failed gate, each count as one failed
attempt.

With tracing on, every item runs twice from the same warm-start state, first
untraced and then traced; the two outputs must agree, and the pair gives
``trace_overhead``.  End-to-end figures come from untraced runs only.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from tracing import Tracer, layer_metrics

SETUP_REPS = 3
# ARPACK draws a fresh random start vector on every call, so a repeated cold
# solve agrees with the first one to the solver tolerance, not bit for bit
OUTPUT_RTOL = 1e-7


def outputs_match(a, b, rtol=OUTPUT_RTOL):
    """Structural equality of item outputs, numbers within ``rtol``."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(outputs_match(a[k], b[k], rtol) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(outputs_match(u, v, rtol) for u, v in zip(a, b)))
    if isinstance(a, (bool, str)) or a is None:
        return a == b
    return bool(np.isclose(a, b, rtol=rtol, atol=rtol * 1e-3))


def _run_item(workload, ctx, x, carry, tracer=None, item=None):
    """(output or None, carry, wall s, cpu s, ok) of one work item."""
    if tracer is not None:
        tracer.install(item)
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        out, carry = workload.item(ctx, x, carry)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    ok = False
    if out is not None:
        try:
            ok = bool(workload.check(ctx, x, out))
        except Exception:
            traceback.print_exc(file=sys.stderr)
    if not ok:
        print("item %r of %s failed its check" % (x, workload.name),
              file=sys.stderr)
    return out, carry, wall, cpu, ok


class RunResult:
    def __init__(self):
        self.setup_walls = []
        self.walls, self.cpus = [], []          # untraced items
        self.traced_walls = []
        self.outputs = []
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.gate = "not run"
        self.setup_items, self.timed_items = [], []

    def count(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


def run_workload(workload, seed, seconds, trace=False, small=False):
    """Set up, run the timed loop and the gate; returns a ``RunResult``."""
    x = workload.make_inputs(seed, small)
    res = RunResult()
    tracer = res.tracer = Tracer() if trace else None
    ctx = None
    for k in range(SETUP_REPS):
        ctx = None                  # let the previous set-up be freed first
        t0 = time.perf_counter()
        if tracer is not None:
            res.setup_items.append(("setup", k))
            tracer.install(("setup", k))
        try:
            ctx = workload.setup(x)
        finally:
            if tracer is not None:
                tracer.uninstall()
        res.setup_walls.append(time.perf_counter() - t0)

    items = x["items"]
    carry = None
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        xi = items[i % len(items)]
        out, new_carry, wall, cpu, ok = _run_item(workload, ctx, xi, carry)
        res.walls.append(wall)
        res.cpus.append(cpu)
        if tracer is not None:
            out_t, new_carry, wall_t, _, ok_t = _run_item(
                workload, ctx, xi, carry, tracer, i)
            res.timed_items.append(i)
            res.traced_walls.append(wall_t)
            if ok and not (ok_t and outputs_match(out, out_t)):
                print("traced output of item %d differs" % i, file=sys.stderr)
                ok = False
        res.count(ok)
        res.outputs.append(out)
        carry = new_carry
        i += 1
        if time.perf_counter() >= deadline:
            break

    gate_ok = False
    if res.outputs[0] is not None:
        try:
            gate_ok, res.gate = workload.gate(ctx, x, res.outputs[0])
        except Exception:
            traceback.print_exc(file=sys.stderr)
    if not gate_ok:
        print("correctness gate of %s failed" % workload.name, file=sys.stderr)
    res.count(gate_ok)
    return res


def end_to_end_metrics(res, import_s):
    return {
        "wall_s": statistics.median(res.walls),
        "setup_s": import_s + statistics.median(res.setup_walls),
        "cpu_s": statistics.median(res.cpus),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (res.attempted - res.failed) / res.attempted,
    }


def per_layer_metrics(res, workload):
    return layer_metrics(res.tracer, workload.layers, res.setup_items,
                         res.timed_items, res.traced_walls, res.walls)


def _blas_libraries():
    """OpenBLAS copies loaded in this process, with the thread count each
    reports through its own ``get_num_threads`` (threadpoolctl is not
    needed)."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                get = getattr(lib, prefix + "get_num_threads" + suffix, None)
                cfg = getattr(lib, prefix + "get_config" + suffix, None)
                if get is not None and cfg is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    cfg.restype, cfg.argtypes = ctypes.c_char_p, []
                    info["threads"] = get()
                    info["config"] = cfg().decode()
        found.append(info)
    return found


def _git_revision(root):
    """HEAD commit read from the ``.git`` directory, or None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, threads_set):
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_set": threads_set,
        "blas": _blas_libraries(),
        "git_revision": _git_revision(root),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "ram_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "machine": platform.machine(),
    }
