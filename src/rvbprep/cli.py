"""Experiment orchestration: configs, manifests, output files, goldens.

Each verb runs one family of computations from a JSON config; named
experiments provide default configs so standard production runs are
one-liners.  Every run writes a manifest (config echo, version, wall clock,
output digests) before heavy computation starts and finalizes it afterwards.

This is the only module that writes files: every CSV goes through
``write_csv`` and every JSON file through ``write_json``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
import time

import numpy as np
import scipy

from . import __version__
from .geometry import (build_cluster, cluster_preset, constraint_graph,
                       hexagon_loop, parallelogram_loop,
                       kitaev_preskill_regions, tee_cluster)
from .hilbert import (enumerate_basis, enumerate_maximal_covers, rvb_state,
                      abs_state)
from .model import (HamiltonianSpec, HamiltonianOperator, SweepSchedule,
                    full_rydberg_spec)
from .evolve import evolve_sweep
from .spectrum import fidelity_susceptibility_scan, groundstate
from .ansatz import AnsatzBuilder, fit_trajectory
from . import tnet
from . import entangle

OUTPUT_ROOT_ENV = "RVBPREP_OUTPUT_ROOT"
CLUSTER_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Schema violation; message enumerates the offending config paths."""


# --- config handling ------------------------------------------------------

def _need(cfg, key, types, path=""):
    where = "%s.%s" % (path, key) if path else key
    if key not in cfg:
        raise ConfigError("missing config key: %s" % where)
    val = cfg[key]
    if types is not None and not isinstance(val, types):
        raise ConfigError("config key %s has type %s, expected %s"
                          % (where, type(val).__name__, types))
    return val


def _grid(cfg, key):
    """A numeric grid given either as a list or as {min, max, num}."""
    val = _need(cfg, key, (list, dict))
    if isinstance(val, list):
        return np.asarray(val, dtype=float)
    lo = _need(val, "min", (int, float), key)
    hi = _need(val, "max", (int, float), key)
    num = _need(val, "num", int, key)
    return np.linspace(lo, hi, num)


def load_config(path):
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


# the keys each verb reads, and the keys read inside the objects (or lists
# of objects) that some keys hold; a run stops at any other key
SWEEP_KEYS = {"protocol", "delta0", "delta1", "stage_times"}
MODEL_KEYS = {"n_atoms", "cells", "model"}
VERB_KEYS = {
    "cluster": {"n_atoms", "cells", "constraint_radius"},
    "gs-scan": MODEL_KEYS | {"lambda"},
    "sweep": MODEL_KEYS | SWEEP_KEYS | {"sizes", "sweep_times", "delta1_grid",
                                        "n_samples", "write_trajectories"},
    "fit": MODEL_KEYS | SWEEP_KEYS | {
        "total_time", "delta_over_omega", "source"},
    "tn-grid": {"circumference", "projected", "z1", "z2", "loop_z", "loop_x"},
    "bffm-scaling": {"circumference", "loops", "z1", "z2"},
    "tee": SWEEP_KEYS | {"total_time", "n_atoms", "model", "source", "points",
                         "checkpoint_times"},
    "verify": {"golden_dir", "compare_dir", "tolerances"},
}
LOOP_KEYS = {"shape", "radius", "w", "h"}
NESTED_KEYS = dict(
    dict.fromkeys(("lambda", "sweep_times", "delta1_grid", "z1", "z2",
                   "delta_over_omega", "checkpoint_times"),
                  {"min", "max", "num"}),
    loop_z=LOOP_KEYS, loop_x=LOOP_KEYS, loops=LOOP_KEYS,
    points={"label", "limb", "z1", "z2"})


def check_keys(verb, cfg):
    """Raise ConfigError naming every config key ``verb`` does not read."""
    unknown = sorted(set(cfg) - VERB_KEYS[verb])
    for key, val in cfg.items():
        for item in val if isinstance(val, list) else [val]:
            if key in NESTED_KEYS and isinstance(item, dict):
                unknown += ["%s.%s" % (key, k)
                            for k in sorted(set(item) - NESTED_KEYS[key])]
    if unknown:
        raise ConfigError("config keys not read by %s: %s"
                          % (verb, ", ".join(unknown)))


def _build_loop(spec):
    shape = _need(spec, "shape", str, "loop")
    if shape == "hexagon":
        return hexagon_loop("diagonal", _need(spec, "radius", int, "loop"))
    if shape == "parallelogram":
        return parallelogram_loop("diagonal", _need(spec, "w", int, "loop"),
                                  _need(spec, "h", int, "loop"))
    raise ConfigError("loop.shape must be hexagon or parallelogram")


def _make_schedule(cfg, total):
    """The configured protocol over a sweep of duration ``total``."""
    protocol = cfg.get("protocol", "default")
    delta0 = cfg.get("delta0", -5.0)
    delta1 = cfg.get("delta1", 1.5 if protocol == "default" else 3.5)
    stages = cfg.get("stage_times")
    if stages is not None:
        if len(stages) != 3:
            raise ConfigError("stage_times must have exactly 3 entries")
        if abs(sum(stages) - total) > 1e-9 * max(total, 1.0):
            raise ConfigError(
                "stage_times sum to %.17g but the sweep lasts %.17g"
                % (sum(stages), total))
        return SweepSchedule(total, stages[0], stages[1], stages[2],
                             delta0=delta0, delta1=delta1)
    if protocol == "default":
        return SweepSchedule.default_protocol(total, delta0, delta1)
    if protocol == "two_stage":
        return SweepSchedule.two_stage_protocol(total, delta0, delta1)
    raise ConfigError("protocol must be default or two_stage")


# --- output files ---------------------------------------------------------

def _csv_cell(x):
    """A string as it is, a sequence as ';'-separated numbers, else a number."""
    if isinstance(x, str):
        return x
    if np.ndim(x):
        return ";".join("%.17g" % v for v in x)
    return "%.17g" % x


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(x) for x in row) + "\n")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- manifests ------------------------------------------------------------

def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _openblas_threads():
    """The OpenBLAS copies loaded in this process, each with the thread count
    that its own ``get_num_threads`` reports (None when it has none)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:                     # no /proc: not Linux
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path), "threads": None}
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                get = getattr(lib, prefix + "get_num_threads" + suffix, None)
                if get is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    info["threads"] = get()
        found.append(info)
    return found


def _environment():
    """numpy and scipy versions and the OpenBLAS threads in effect: at
    another BLAS thread count the outputs differ in their last digits."""
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": _openblas_threads()}


class Run:
    """Output directory plus the evolving run manifest."""

    def __init__(self, out_dir, experiment, config):
        self.dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.t0 = time.time()
        self.manifest = {
            "experiment": experiment,
            "config": config,
            "version": __version__,
            "environment": _environment(),
            "status": "running",
            "outputs": {},
        }
        self._write()

    def path(self, name):
        return os.path.join(self.dir, name)

    def _write(self):
        write_json(self.path("manifest.json"), self.manifest)

    def finish(self, output_names):
        self.manifest["outputs"] = {n: _digest(self.path(n))
                                    for n in sorted(output_names)}
        self.manifest["wall_clock_s"] = round(time.time() - self.t0, 3)
        self.manifest["status"] = "done"
        self._write()

    def fail(self, exc):
        """Mark the run failed with the error that stopped it; only a
        killed process leaves ``status: running`` behind."""
        self.manifest["wall_clock_s"] = round(time.time() - self.t0, 3)
        self.manifest["status"] = "failed"
        self.manifest["error"] = "%s: %s" % (type(exc).__name__, exc)
        self._write()


# --- shared builders ------------------------------------------------------

def _cluster_from_config(cfg):
    if "cells" in cfg:
        cells = cfg["cells"]
        if len(cells) not in (2, 3):
            raise ConfigError("cells must be [n1, n2] or [n1, n2, shear]")
        return build_cluster(*cells)
    return cluster_preset(_need(cfg, "n_atoms", int))


def _operator(cfg, cluster=None):
    """(cluster, basis, covers, operator) for the configured model."""
    if cluster is None:
        cluster = _cluster_from_config(cfg)
    variant = cfg.get("model", "pxp")
    if variant == "pxp":
        spec = HamiltonianSpec()
    elif variant == "full":
        spec = full_rydberg_spec()
    else:
        raise ConfigError("model must be pxp or full")
    basis = enumerate_basis(constraint_graph(cluster, spec.constraint_radius))
    covers = enumerate_maximal_covers(cluster)
    op = HamiltonianOperator(spec, basis, cluster)
    return cluster, basis, covers, op


def _record_sector(run, n_atoms, op):
    """Build the fully symmetric sector that a sweep or ground state runs
    in, and add its sizes to the manifest: the basis dim, the order of the
    cluster's symmetry group, the sector's dim and flip nnz, and the wall
    time of the build (``sector_s``).  ``gs-scan`` reports this sector's
    gap."""
    t0 = time.perf_counter()
    _, red = op.sector()
    run.manifest.setdefault("sector", []).append({
        "n_atoms": int(n_atoms), "basis_dim": op.dim,
        "group_order": len(op.cluster.symmetries),
        "sector_dim": red.dim, "sector_nnz": int(red.flip.nnz),
        "sector_s": round(time.perf_counter() - t0, 3)})
    run._write()


def _record_sweeps(run, n_atoms, counters, seconds):
    """Add the solver counters of one size's sweeps to the manifest: their
    number, steps and H.psi products, the largest Krylov error estimate
    any of them accepted, and the seconds spent propagating
    (``propagation_s``).  ``counters`` holds each sweep's (n_steps,
    matvecs, krylov_error).  The CSVs never hold them, so reruns stay
    byte-identical."""
    run.manifest.setdefault("sweep", []).append({
        "n_atoms": int(n_atoms), "sweeps": len(counters),
        "n_steps": sum(c[0] for c in counters),
        "matvecs": sum(c[1] for c in counters),
        "krylov_error": float(max((c[2] for c in counters), default=0.0)),
        "propagation_s": round(seconds, 3)})
    run._write()


TN_PHASES = ("transfer_s", "boundaries_s", "observables_s")


def _record_boundaries(run, counters, seconds):
    """Add the transfer-matrix solver counters of a run to the manifest:
    the power iterations of its right-boundary solves and their largest
    residual relative to lam0, from (iterations, residual_ratio) pairs;
    and, under ``seconds``, the wall time the run spent in each of
    TN_PHASES: building transfer matrices, solving their boundaries and
    evaluating observables.  The CSVs never hold them, so reruns stay
    byte-identical."""
    run.manifest["boundaries"] = {
        "iterations": int(sum(it for it, _ in counters)),
        "max_residual_ratio": float(max(res for _, res in counters))}
    run.manifest["seconds"] = {k: round(seconds[k], 3) for k in TN_PHASES}


# --- verbs ----------------------------------------------------------------

def cmd_cluster(cfg, run):
    cluster = _cluster_from_config(cfg)
    r_c = cfg.get("constraint_radius", 2.0)
    basis = enumerate_basis(constraint_graph(cluster, r_c))
    covers = enumerate_maximal_covers(cluster)
    write_json(run.path("cluster.json"), {
        "schema_version": CLUSTER_SCHEMA_VERSION,
        "n1": cluster.n1, "n2": cluster.n2, "shear": cluster.shear,
        "atoms": cluster.atoms.tolist(),
        "lattice_vectors": cluster.lattice_vectors.tolist(),
        "vertex_incidence": {str(k): list(v) for k, v
                             in cluster.vertex_incidence.items()},
        "triangle_incidence": {str(k): list(v) for k, v
                               in cluster.triangle_incidence.items()},
    })
    np.save(run.path("basis.npy"), basis.configs)
    np.save(run.path("covers.npy"), covers.covers)
    write_json(run.path("stats.json"), {
        "n_atoms": cluster.n_atoms, "n_cells": cluster.n_cells,
        "constraint_radius": r_c, "basis_dim": basis.dim,
        "n_covers": covers.count})
    return ["cluster.json", "basis.npy", "covers.npy", "stats.json"]


def cmd_gs_scan(cfg, run):
    cluster, basis, covers, op = _operator(cfg)
    rvb = rvb_state(covers, basis) if covers.count else None
    lambdas = _grid(cfg, "lambda")
    if np.any(np.diff(lambdas) <= 0):
        raise ConfigError("lambda must be strictly increasing")
    _record_sector(run, cluster.n_atoms, op)
    scan = fidelity_susceptibility_scan(op, lambdas, rvb=rvb)
    write_csv(run.path("gs_scan.csv"),
              ["lambda", "energy", "gap", "rvb_overlap",
               "fidelity_susceptibility"],
              zip(scan.lambdas, scan.energies, scan.gaps, scan.rvb_overlaps,
                  scan.susceptibilities))
    return ["gs_scan.csv"]


def _trajectory_name(n_atoms, delta1, total):
    if delta1 is None:
        return "trajectory_n%d_T%g.csv" % (n_atoms, total)
    return "trajectory_n%d_delta1_%g_T%g.csv" % (n_atoms, delta1, total)


def cmd_sweep(cfg, run):
    outputs = []
    sizes = cfg["sizes"] if "sizes" in cfg else [_need(cfg, "n_atoms", int)]
    times = _grid(cfg, "sweep_times")
    delta1s = _grid(cfg, "delta1_grid") if "delta1_grid" in cfg else [None]
    write_trajectories = cfg.get("write_trajectories", False)
    if write_trajectories:
        names = [_trajectory_name(n, d, t)
                 for n in sizes for d in delta1s for t in times]
        shared = sorted({n for n in names if names.count(n) > 1})
        if shared:
            raise ConfigError("sweeps would overwrite each other's "
                              "trajectory files: %s" % ", ".join(shared))
    rows = []
    for n_atoms in sizes:
        sub = dict(cfg)
        sub["n_atoms"] = int(n_atoms)
        _, basis, covers, op = _operator(sub)
        rvb = rvb_state(covers, basis)
        _record_sector(run, n_atoms, op)
        counters, seconds = [], 0.0
        for delta1 in delta1s:
            scfg = sub if delta1 is None else dict(sub, delta1=float(delta1))
            for total in times:
                schedule = _make_schedule(scfg, float(total))
                t0 = time.perf_counter()
                traj = evolve_sweep(op, schedule, rvb=rvb,
                                    n_samples=cfg.get("n_samples", 200))
                seconds += time.perf_counter() - t0
                counters.append((traj.n_steps, traj.matvecs,
                                 traj.krylov_error))
                final_ov = abs(np.vdot(rvb.amplitudes,
                                       traj.final_state.amplitudes))
                abs_ov = abs(np.vdot(rvb.amplitudes,
                                     abs_state(traj.final_state).amplitudes))
                rows.append((n_atoms, np.nan if delta1 is None else delta1,
                             total, total / n_atoms, final_ov, abs_ov,
                             traj.n_steps))
                if write_trajectories:
                    name = _trajectory_name(n_atoms, delta1, total)
                    n_sect = traj.sector_weights.shape[1]
                    write_csv(run.path(name),
                              ["t", "Omega", "Delta", "norm",
                               "rvb_overlap_abs", "density"]
                              + ["w%d" % k for k in range(n_sect)],
                              np.column_stack([
                                  traj.times, traj.omegas, traj.deltas,
                                  traj.norms, traj.rvb_overlap, traj.density,
                                  traj.sector_weights]))
                    outputs.append(name)
        _record_sweeps(run, n_atoms, counters, seconds)
    write_csv(run.path("sweep.csv"),
              ["n_atoms", "delta1", "total_time", "t_over_n",
               "final_overlap", "abs_overlap", "n_steps"], rows)
    outputs.append("sweep.csv")
    return outputs


def cmd_fit(cfg, run):
    cluster, basis, covers, op = _operator(cfg)
    ratios = _grid(cfg, "delta_over_omega")
    source = cfg.get("source", "groundstate")
    if source not in ("groundstate", "sweep"):
        raise ConfigError("source must be groundstate or sweep")
    _record_sector(run, cluster.n_atoms, op)
    snapshots = []
    if source == "groundstate":
        v0 = None
        for r in ratios:
            gs = groundstate(op, 1.0, float(r), v0=v0)
            v0 = gs.state.amplitudes
            snapshots.append((float(r), gs.state))
    else:
        schedule = _make_schedule(cfg, _need(cfg, "total_time", (int, float)))
        checks = [schedule.time_at_detuning_ratio(float(r)) for r in ratios]
        traj = evolve_sweep(op, schedule, checkpoints=checks)
        for r, t in zip(ratios, checks):
            snapshots.append((float(r), traj.snapshots[t]))
    results = fit_trajectory(snapshots, covers, basis)
    # solver counters for the manifest only, so reruns stay byte-identical
    fits = [fit for _, fit in results if fit is not None]
    run.manifest["fit"] = {
        "evaluations": sum(fit.n_evaluations for fit in fits),
        "max_gradient_norm": max((fit.gradient_norm for fit in fits),
                                 default=None)}
    rows = []
    for label, fit in results:
        if fit is None:
            rows.append((label, np.nan, np.nan, np.nan, np.nan, np.nan, 0))
            continue
        p = fit.params
        rows.append((label, fit.overlap,
                     np.inf if p.vacuum_limit else p.z1.real,
                     0.0 if p.vacuum_limit else p.z1.imag,
                     p.z2.real, p.z2.imag, fit.converged))
    write_csv(run.path("fits.csv"),
              ["delta_over_omega", "overlap", "re_z1", "im_z1", "re_z2",
               "im_z2", "converged"], rows)
    return ["fits.csv"]


def cmd_tn_grid(cfg, run):
    """Grid of transfer-matrix points; dn_dz1 differences the densities of
    neighbouring z1 columns, and xi is computed on the unprojected network
    only."""
    L = cfg.get("circumference", 6)
    projected = cfg.get("projected", True)
    z1s = _grid(cfg, "z1")
    z2s = _grid(cfg, "z2")
    if len(z1s) < 2:
        raise ConfigError("z1 needs at least two values for dn_dz1")
    if np.any(np.diff(z1s) <= 0):
        raise ConfigError("z1 must be strictly increasing for dn_dz1")
    loop_z = _build_loop(cfg["loop_z"]) if "loop_z" in cfg else None
    loop_x = _build_loop(cfg["loop_x"]) if "loop_x" in cfg else None
    if loop_x is not None and not projected:
        raise ConfigError("loop_x needs the projected network")
    records = []
    warm = None
    boundaries = []
    seconds = dict.fromkeys(TN_PHASES, 0.0)
    for i2, z2 in enumerate(z2s):
        # serpentine ordering keeps successive points close for warm starts
        order = list(z1s) if i2 % 2 == 0 else list(z1s)[::-1]
        row = []
        for z1 in order:
            rec, warm = tnet.phase_diagram_point(
                float(z1), float(z2), L, projected, loop_z, loop_x,
                fd_step=None, compute_xi=not projected, warm=warm)
            boundaries.append((rec["iterations"], rec["residual_ratio"]))
            for k in TN_PHASES:
                seconds[k] += rec[k]
            row.append(rec)
        row.sort(key=lambda r: r["z1"])
        grad = np.gradient(np.array([r["density"] for r in row]), z1s)
        for rec, g in zip(row, grad):
            rec["dn_dz1"] = float(g)
        records.extend(row)
    cols = ["z1", "z2", "density", "dn_dz1", "xi", "bffm_z_l18", "bffm_x_l18"]
    write_csv(run.path("grid.csv"), cols,
              [[rec[c] for c in cols] for rec in records])
    _record_boundaries(run, boundaries, seconds)
    return ["grid.csv"]


def cmd_bffm_scaling(cfg, run):
    """BFFM values over a family of loop perimeters at fixed points."""
    L = cfg.get("circumference", 6)
    loops = [(spec, _build_loop(spec)) for spec in _need(cfg, "loops", list)]
    z2 = _need(cfg, "z2", (int, float))
    rows = []
    boundaries = []
    seconds = dict.fromkeys(TN_PHASES, 0.0)
    for z1 in _grid(cfg, "z1"):
        t0 = time.perf_counter()
        tm = tnet.cylinder_transfer(float(z1), float(z2), L, True)
        t1 = time.perf_counter()
        b = tnet.dominant_eigenpair(tm, compute_lam1=False)
        t2 = time.perf_counter()
        boundaries.append((b.iterations, b.residual / b.lam0))
        for spec, loop in loops:
            bz = tnet.bffm(tm, loop, b, x_type=False)
            bx = tnet.bffm(tm, loop, b, x_type=True)
            rows.append((z1, z2, loop.perimeter, spec["shape"], bz, bx))
        for k, dt in zip(TN_PHASES, (t1 - t0, t2 - t1,
                                     time.perf_counter() - t2)):
            seconds[k] += dt
    write_csv(run.path("bffm_scaling.csv"),
              ["z1", "z2", "perimeter", "shape", "bffm_z", "bffm_x"], rows)
    _record_boundaries(run, boundaries, seconds)
    return ["bffm_scaling.csv"]


def cmd_tee(cfg, run):
    n_atoms = _need(cfg, "n_atoms", int)
    source = cfg.get("source", "ansatz")
    if source not in ("ansatz", "sweep"):
        raise ConfigError("source must be ansatz or sweep")
    cluster = tee_cluster(n_atoms)
    regions = kitaev_preskill_regions(cluster)
    covers = enumerate_maximal_covers(cluster)
    if source == "ansatz":
        basis = enumerate_basis(constraint_graph(cluster, 2.0))
        builder = AnsatzBuilder(covers, basis)
        rows = []
        gammas = []
        for pt in _need(cfg, "points", list):
            label = _need(pt, "label", str, "points[]")
            if pt.get("limb") == "vacuum":
                psi = builder.build_vacuum_limb(0.0, pt.get("z2", 0.0))
            else:
                psi = builder.build(pt.get("z1", 0.0), pt.get("z2", 0.0))
            rep = entangle.topological_entropy_report(psi, regions)
            rows.append((label, rep.n_atoms, rep.entropy, rep.schmidt[:8]))
            gammas.append({"label": label, "gamma": rep.gamma,
                           "components": rep.components})
        write_csv(run.path("entropies.csv"),
                  ["region_label", "n_atoms", "entropy", "top8_schmidt"], rows)
        write_json(run.path("gamma.json"),
                   {"n_atoms": n_atoms, "points": gammas})
        return ["entropies.csv", "gamma.json"]
    else:                       # gamma along a sweep, raw and abs states
        _, basis, covers, op = _operator(cfg, cluster)
        schedule = _make_schedule(cfg, _need(cfg, "total_time", (int, float)))
        checks = list(_grid(cfg, "checkpoint_times"))
        rvb = rvb_state(covers, basis)
        _record_sector(run, n_atoms, op)
        traj = evolve_sweep(op, schedule, rvb=rvb, checkpoints=checks)
        def gamma(psi):
            return entangle.topological_entropy_report(psi, regions).gamma

        write_csv(run.path("gamma_sweep.csv"), ["t", "gamma_raw", "gamma_abs"],
                  [(t, gamma(traj.snapshots[t]),
                    gamma(abs_state(traj.snapshots[t]))) for t in checks])
        return ["gamma_sweep.csv"]


# --- goldens --------------------------------------------------------------

def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def _cell_numbers(cell):
    """The numbers of a CSV cell (several when ';'-separated), or None."""
    try:
        return [float(v) for v in cell.split(";")]
    except ValueError:
        return None


def verify_goldens(out_dir, golden_dir, tolerances=None):
    """Compare every golden CSV against the run output; returns a report."""
    tolerances = tolerances or {}
    report = {"passed": [], "failed": []}
    names = sorted(n for n in os.listdir(golden_dir) if n.endswith(".csv"))
    if not names:
        raise ConfigError("no golden CSV files in %s" % golden_dir)
    for name in names:
        got_path = os.path.join(out_dir, name)
        if not os.path.exists(got_path):
            report["failed"].append((name, "missing output file"))
            continue
        want_h, want = _read_csv(os.path.join(golden_dir, name))
        got_h, got = _read_csv(got_path)
        if want_h != got_h:
            report["failed"].append((name, "header mismatch"))
            continue
        if len(want) != len(got):
            report["failed"].append(
                (name, "row count %d != %d" % (len(got), len(want))))
            continue
        col_tol = tolerances.get(name, {})
        worst = {}
        for wrow, grow in zip(want, got):
            for col, wv, gv in zip(want_h, wrow, grow):
                wf, gf = _cell_numbers(wv), _cell_numbers(gv)
                if wf is None or gf is None or len(wf) != len(gf):
                    if wv != gv:
                        worst[col] = np.inf
                    continue
                for w, g in zip(wf, gf):
                    if w == g or (np.isnan(w) and np.isnan(g)):
                        continue
                    dev = abs(w - g) / (1.0 + abs(w))
                    worst[col] = max(worst.get(col, 0.0),
                                     np.inf if np.isnan(dev) else dev)
        bad = {c: d for c, d in worst.items()
               if d > col_tol.get(c, col_tol.get("*", 1e-9))}
        if bad:
            report["failed"].append(
                (name, "column deviations: " + ", ".join(
                    "%s=%.3e" % kv for kv in sorted(bad.items()))))
        else:
            report["passed"].append(name)
    return report


def cmd_verify(cfg, run):
    golden_dir = _need(cfg, "golden_dir", str)
    out_dir = cfg.get("compare_dir", run.dir)
    report = verify_goldens(out_dir, golden_dir, cfg.get("tolerances"))
    write_json(run.path("verify_report.json"),
               {"passed": report["passed"],
                "failed": [list(f) for f in report["failed"]]})
    for name in report["passed"]:
        print("PASS %s" % name)
    for name, why in report["failed"]:
        print("FAIL %s: %s" % (name, why))
    if report["failed"]:
        raise ConfigError("%d golden file(s) failed" % len(report["failed"]))
    return ["verify_report.json"]


# --- experiments ----------------------------------------------------------

FIG2_FIT = {
    "n_atoms": 36,
    "delta_over_omega": {"min": 0.6, "max": 2.4, "num": 19},
}

FIG3A_DENSITY = {
    "circumference": 6, "projected": True,
    "z1": {"min": 0.1, "max": 1.5, "num": 20},
    "z2": {"min": 0.1, "max": 1.5, "num": 20},
}

# perimeters 18, 22 and 30 on the L = 6 cylinder; each loop has a non-zero
# closed off-diagonal expectation at the RVB point (on 4 x 2 and 7 x 1
# parallelograms it vanishes, and the x-BFFM divides by zero there)
FIGS3_LOOPS = {
    "circumference": 6,
    "loops": [{"shape": "hexagon", "radius": 2},
              {"shape": "parallelogram", "w": 3, "h": 3},
              {"shape": "parallelogram", "w": 5, "h": 3}],
}

EXPERIMENT_DEFAULTS = {
    "fig1c_scan": ("gs-scan", {
        "n_atoms": 36,
        "lambda": {"min": 0.3, "max": 1.5, "num": 121},
    }),
    "fig1d_sweep": ("sweep", {
        "sizes": [24, 36],
        "sweep_times": [5, 10, 15, 20, 25, 30, 36, 43, 50, 60, 72, 90,
                        110, 140, 170],
    }),
    "fig2_fit": ("fit", dict(FIG2_FIT)),
    # snapshots of finite-time sweeps at fig2_fit's detuning ratios; the
    # two-stage protocol ramps Delta/Omega to 3.5, past the grid's 2.4
    **{"fig2_fit_sweep_T%d" % t: ("fit", dict(
        FIG2_FIT, source="sweep", protocol="two_stage", total_time=t))
       for t in (25, 50, 90)},
    "fig3a_density": ("tn-grid", dict(FIG3A_DENSITY)),
    "fig3a_density_L4": ("tn-grid", dict(FIG3A_DENSITY, circumference=4)),
    "fig3b_bffm": ("tn-grid", {
        "circumference": 6, "projected": True,
        "z1": {"min": 0.05, "max": 1.5, "num": 12},
        "z2": {"min": 0.05, "max": 1.5, "num": 12},
        "loop_z": {"shape": "hexagon", "radius": 2},
        "loop_x": {"shape": "hexagon", "radius": 2},
    }),
    "fig3c_tee": ("tee", {
        "n_atoms": 36,
        "points": [
            {"label": "rvb", "z1": 0.0, "z2": 0.0},
            {"label": "liquid", "z1": 0.3, "z2": 0.3},
            {"label": "trivial", "limb": "vacuum", "z2": 0.3},
        ],
    }),
    "figS1_protocol_opt": ("sweep", {
        "sizes": [24], "protocol": "two_stage",
        "delta1_grid": [1.2, 1.4, 1.6, 1.8, 2.0],
        "sweep_times": [5, 10, 20, 35, 55, 80, 110],
    }),
    "figS3_bffm_scaling": ("bffm-scaling", dict(
        FIGS3_LOOPS, z2=0.1, z1=[0.2, 0.5, 0.8])),
    "figS3_bffm_scaling_confined": ("bffm-scaling", dict(
        FIGS3_LOOPS, z2=0.8, z1=[0.9, 1.1, 1.3])),
    "figS4_fullmodel": ("sweep", {
        "n_atoms": 24, "model": "full", "delta1": 3.5,
        "sweep_times": [5, 10, 20, 35, 55, 80],
    }),
    "figS5_unprojected": ("tn-grid", {
        "circumference": 6, "projected": False,
        "z1": {"min": 0.05, "max": 1.5, "num": 20},
        "z2": {"min": 0.05, "max": 1.5, "num": 20},
    }),
}

VERBS = {
    "cluster": cmd_cluster,
    "sweep": cmd_sweep,
    "gs-scan": cmd_gs_scan,
    "fit": cmd_fit,
    "tn-grid": cmd_tn_grid,
    "bffm-scaling": cmd_bffm_scaling,
    "tee": cmd_tee,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rvbprep",
        description="Blockade-constrained RVB preparation experiments")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--experiment",
                       help="named experiment supplying default config")
        p.add_argument("--out", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = {}
        name = args.experiment
        if name is not None:
            verb, cfg = EXPERIMENT_DEFAULTS.get(name, (None, None))
            if cfg is None:
                raise ConfigError(
                    "unknown experiment %r (have: %s)"
                    % (name, ", ".join(sorted(EXPERIMENT_DEFAULTS))))
            if verb != args.verb:
                raise ConfigError(
                    "experiment %s belongs to verb %s" % (name, verb))
            cfg = dict(cfg)
        if args.config:
            cfg.update(load_config(args.config))
        if not cfg and args.verb != "verify":
            raise ConfigError("provide --config and/or --experiment")
        check_keys(args.verb, cfg)
        out_dir = args.out or os.path.join(
            os.environ.get(OUTPUT_ROOT_ENV, "runs"), name or args.verb)
        run = Run(out_dir, name or args.verb, cfg)
        try:
            run.finish(VERBS[args.verb](cfg, run))
        except BaseException as exc:
            run.fail(exc)
            raise
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:                      # surface module errors
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("wrote %s" % out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
