"""The benchmark workloads.

Each workload follows one CLI verb of ``rvbprep.cli``: ``setup`` builds what
the verb builds before its loop (with the same library calls in the same
order), ``item`` runs one unit of the verb's loop, ``check`` tests that
unit's outputs, and ``gate`` compares the workload against one of the
repository's oracles and returns (passed, what it measured).  Every input
comes from ``make_inputs(seed)``; the library only sees the generated
values.  ``small=True`` gives the N = 12 / L = 4 variants the harness
tests use.

Seeded values are drawn from narrow bands, so that every seed asks for about
the same amount of work and run-to-run spread reflects the code, not the
draw.  Solver settings are the CLI defaults.
"""

from __future__ import annotations

import json
import os
import random
from types import SimpleNamespace

import numpy as np

from rvbprep import (ansatz, entangle, evolve, geometry, hilbert, model,
                     spectrum, tnet)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TEE_GOLDEN = os.path.join(ROOT, "goldens", "fig3c_tee", "gamma.json")

# CLI defaults (cmd_sweep, cmd_gs_scan, cmd_fit, cmd_tn_grid)
N_SAMPLES = 200
DT_MAX = 0.5
LOCAL_TOL = 1e-9
TOL = 1e-10
MAX_EVALS = 2000
FD_STEP = 1e-3
DLAMBDA = 0.0025


def _rvb_in(basis, covers, cluster):
    """RVB state on ``basis``, as ``cli._rvb_in`` builds it for sweeps."""
    blockade = hilbert.enumerate_basis(geometry.constraint_graph(cluster, 2.0))
    rvb = hilbert.rvb_state(covers, blockade)
    if basis.dim == blockade.dim:
        return rvb
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.indices_of(blockade.configs)] = rvb.amplitudes
    return hilbert.StateVector(basis, amps)


def _operator(n_atoms, spec):
    """(cluster, basis, covers, operator) in the order of ``cli._operator``,
    which is not called itself: it holds the library functions under names
    of its own, where the tracer's wrappers would not reach them."""
    cluster = geometry.cluster_preset(n_atoms)
    basis = hilbert.enumerate_basis(
        geometry.constraint_graph(cluster, spec.constraint_radius))
    covers = hilbert.enumerate_maximal_covers(cluster)
    op = model.HamiltonianOperator(spec, basis, cluster)
    return cluster, basis, covers, op


class SweepN36:
    """``rvbprep sweep``: one Krylov/CF4 sweep of the PXP model per item."""

    name = "sweep-n36"
    layers = ("evolve.sweep",)          # the spans this workload stresses

    def make_inputs(self, seed, small=False):
        rng = random.Random(seed)
        # short sweeps: the step count sits on the n_samples - 1 floor for
        # any T, and T = 5 already costs ~50 s per sweep at N = 36
        times = sorted(round(0.5 + 0.1 * rng.random(), 6) for _ in range(3))
        return {"n_atoms": 12 if small else 36,
                "gate_atoms": 12 if small else 24,
                "items": times}

    def setup(self, x):
        cluster, basis, covers, op = _operator(x["n_atoms"],
                                               model.HamiltonianSpec())
        return SimpleNamespace(op=op, rvb=_rvb_in(basis, covers, cluster))

    def item(self, ctx, total_time, carry):
        schedule = model.SweepSchedule.default_protocol(total_time)
        traj = evolve.evolve_sweep(ctx.op, schedule, rvb=ctx.rvb,
                                   dt_max=DT_MAX, local_tol=LOCAL_TOL,
                                   n_samples=N_SAMPLES)
        final = traj.final_state
        out = {"final_overlap": abs(np.vdot(ctx.rvb.amplitudes,
                                            final.amplitudes)),
               "abs_overlap": abs(np.vdot(ctx.rvb.amplitudes,
                                          hilbert.abs_state(final).amplitudes)),
               "n_steps": traj.n_steps,
               "norm_drift": traj.norm_drift}
        return out, carry

    def check(self, ctx, total_time, out):
        return (0.0 <= out["final_overlap"] <= 1.0 + 1e-9
                and 0.0 <= out["abs_overlap"] <= 1.0 + 1e-9
                and out["norm_drift"] <= 1e-8 and out["n_steps"] >= 1)

    def gate(self, ctx, x, first_out):
        """The sweep, as the item runs it, against the fixed-step RK4 oracle
        at a smaller size, on the first seeded sweep time."""
        _, basis, _, op = _operator(x["gate_atoms"], model.HamiltonianSpec())
        schedule = model.SweepSchedule.default_protocol(x["items"][0])
        amps = np.zeros(basis.dim, dtype=np.complex128)
        amps[basis.index_of(0)] = 1.0
        vacuum = hilbert.StateVector(basis, amps)
        traj = evolve.evolve_sweep(op, schedule, psi0=vacuum, dt_max=DT_MAX,
                                   local_tol=LOCAL_TOL, n_samples=N_SAMPLES)
        # dt = 1e-4: at the default 1e-3 the oracle itself is off by 6.7e-5
        # at T = 0.513436 (seed 1), against 3e-8 at 1e-4
        ref = evolve.rk4_evolve(op, schedule, vacuum, dt=1e-4)
        # evolve.integrator_crosscheck is not used: it samples twice only,
        # and with 2 samples and these tolerances its deviation reaches
        # 3.6e-5 at N = 24, T = 0.5; with 200 samples it stays below 1e-7
        dev = float(np.max(np.abs(traj.final_state.amplitudes
                                  - ref.amplitudes)))
        return dev <= 1e-6, "RK4 max deviation %.3g (limit 1e-06)" % dev


class ScanFull24:
    """``rvbprep gs-scan`` with the full Rydberg model: one lambda point of
    a warm-started fidelity-susceptibility scan per item."""

    name = "scan-full24"
    layers = ("spectrum.solve",)

    def make_inputs(self, seed, small=False):
        rng = random.Random(seed)
        lams = sorted(round(0.81 + 0.0005 * rng.random(), 6) for _ in range(3))
        return {"n_atoms": 12 if small else 24, "items": lams}

    def setup(self, x):
        _, basis, covers, op = _operator(x["n_atoms"], model.full_rydberg_spec())
        rvb = hilbert.rvb_state(covers, basis) if covers.count else None
        return SimpleNamespace(op=op, rvb=rvb)

    def item(self, ctx, lam, carry):
        scan = spectrum.fidelity_susceptibility_scan(
            ctx.op, [lam], dlambda=DLAMBDA, rvb=ctx.rvb, tol=TOL)
        out = {"energy": float(scan.energies[0]), "gap": float(scan.gaps[0]),
               "rvb_overlap": float(scan.rvb_overlaps[0]),
               "susceptibility": float(scan.susceptibilities[0]),
               "degenerate": bool(scan.degenerate[0])}
        return out, carry

    def check(self, ctx, lam, out):
        return (np.isfinite(out["energy"]) and not out["degenerate"]
                and 0.0 <= out["rvb_overlap"] <= 1.0 + 1e-9
                and 0.0 <= out["susceptibility"] < np.inf)

    def gate(self, ctx, x, first_out):
        """E0 of the first item against an independent solve: scipy eigsh on
        the real CSR matrix of H(1, 1/lambda), built here from the
        operator's parts."""
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        op, lam = ctx.op, x["items"][0]
        h = 0.5 * op.flip + sp.diags(op.tail_diag - (1.0 / lam) * op.n_diag)
        if op.dim <= spectrum.DENSE_CUTOFF:
            e0 = float(np.linalg.eigvalsh(h.toarray())[0])
        else:
            e0 = float(spla.eigsh(h.tocsr(), k=1, which="SA", tol=1e-12)[0][0])
        dev = abs(first_out["energy"] - e0)
        return (dev <= 1e-8 * max(1.0, abs(e0)),
                "E0 deviation from real-CSR eigsh %.3g" % dev)


class FitTee:
    """``rvbprep fit`` (ground-state source) and ``rvbprep tee``.  An item is
    one step of the fit loop, a warm-started PXP ground state at the next
    Delta/Omega of a fig2-like grid and its warm-started ansatz fit (the
    chains of ``cmd_fit`` and ``fit_trajectory``), plus one of the three
    fig3c TEE points at N = 36 in turn."""

    name = "fit-tee"
    layers = ("ansatz.fit", "entangle.entropy")

    TEE_POINTS = (("rvb", None, 0.0, 0.0), ("liquid", None, 0.3, 0.3),
                  ("trivial", "vacuum", 0.0, 0.3))

    def make_inputs(self, seed, small=False):
        rng = random.Random(seed)
        r0 = 1.0 + 0.005 * rng.random()
        n_tee = 1 if small else len(self.TEE_POINTS)
        # long enough that a run never wraps round to a cold start
        return {"n_atoms": 12 if small else 24, "tee_atoms": 36,
                "items": [{"ratio": round(r0 + 0.1 * k, 6), "tee": k % n_tee}
                          for k in range(12)]}

    def setup(self, x):
        _, basis, covers, op = _operator(x["n_atoms"], model.HamiltonianSpec())
        fit_builder = ansatz.AnsatzBuilder(covers, basis)
        tee = geometry.tee_cluster(x["tee_atoms"])
        regions = geometry.kitaev_preskill_regions(tee)
        tee_covers = hilbert.enumerate_maximal_covers(tee)
        tee_basis = hilbert.enumerate_basis(geometry.constraint_graph(tee, 2.0))
        tee_builder = ansatz.AnsatzBuilder(tee_covers, tee_basis)
        return SimpleNamespace(op=op, basis=basis, covers=covers,
                               fit_builder=fit_builder, regions=regions,
                               tee_builder=tee_builder)

    def item(self, ctx, pt, carry):
        v0, warm = carry if carry is not None else (None, None)
        gs = spectrum.groundstate(ctx.op, 1.0, pt["ratio"], tol=TOL, v0=v0)
        fit = ansatz.fit_to_state(gs.state, ctx.covers, ctx.basis,
                                  warm_start=warm, max_evals=MAX_EVALS,
                                  builder=ctx.fit_builder)
        label, limb, z1, z2 = self.TEE_POINTS[pt["tee"]]
        if limb == "vacuum":
            psi = ctx.tee_builder.build_vacuum_limb(z1, z2)
        else:
            psi = ctx.tee_builder.build(z1, z2)
        gamma = entangle.topological_entropy_report(psi, ctx.regions).gamma
        # the fitted (z1, z2) are left out: the first ground state starts
        # from ARPACK's random vector, and the simplex settles on them to
        # its own 1e-6 tolerance only; the overlap is flat at the optimum
        out = {"overlap": fit.overlap, "tee": label, "gamma": gamma}
        return out, (gs.state.amplitudes, fit.params)

    def check(self, ctx, pt, out):
        with open(TEE_GOLDEN) as fh:
            golden = {p["label"]: p["gamma"] for p in json.load(fh)["points"]}
        return (0.0 < out["overlap"] <= 1.0 + 1e-9
                and abs(out["gamma"] - golden[out["tee"]]) <= 1e-8)

    def gate(self, ctx, x, first_out):
        """The RVB point's gamma is ln 2 (the fig3c golden's value)."""
        dev = abs(first_out["gamma"] - np.log(2.0))
        return dev <= 1e-9, "RVB gamma deviation from ln 2 %.3g" % dev


class TnCylinder:
    """``rvbprep tn-grid``: per item, one warm-started row of projected
    points (density and z/x BFFM, the fig3b ``fd: grid`` path) at L = 4,
    then unprojected points with xi at L = 6 (the figS5 path)."""

    name = "tn-cylinder"
    layers = ("tnet.transfer", "tnet.eigenpair", "tnet.observable")

    def make_inputs(self, seed, small=False):
        rng = random.Random(seed)
        items = []
        for _ in range(4):
            z2 = round(0.2 + 0.02 * rng.random(), 6)
            z1 = round(0.3 + 0.02 * rng.random(), 6)
            items.append({"z2": z2, "z1": [z1, z1 + 0.05, z1 + 0.1],
                          "z1_unprojected": [z1, z1 + 0.05]})
        return {"L": 4, "L_unprojected": 4 if small else 6, "items": items}

    def setup(self, x):
        first = x["items"][0]
        # perimeter-18 loop that fits L = 4 (the fig3b hexagon needs L = 6)
        loop = geometry.parallelogram_loop("diagonal", 4, 1)
        # set-up time includes the first transfer matrix; the items still
        # build their own, as cmd_tn_grid does
        tm = tnet.cylinder_transfer(first["z1"][0], first["z2"], x["L"], True)
        return SimpleNamespace(L=x["L"], Lu=x["L_unprojected"], loop=loop,
                               first_tm=tm)

    def item(self, ctx, pt, carry):
        warm, warm_u = carry if carry is not None else (None, None)
        z2 = pt["z2"]
        rows = []
        for z1 in pt["z1"]:
            tm = tnet.cylinder_transfer(z1, z2, ctx.L, True)
            b = tnet.dominant_eigenpair(
                tm, TOL, right0=None if warm is None else warm["right"],
                left0=None if warm is None else warm["left"],
                compute_lam1=False)
            warm = {"right": b.right, "left": b.left}
            rows.append({"density": tnet.mean_density(tm, b, TOL),
                         "bffm_z": tnet.bffm(tm, ctx.loop, b, x_type=False,
                                             tol=TOL),
                         "bffm_x": tnet.bffm(tm, ctx.loop, b, x_type=True,
                                             tol=TOL),
                         "residual_ratio": b.residual / b.lam0})
        for z1 in pt["z1_unprojected"]:
            rec, warm_u = tnet.phase_diagram_point(
                z1, z2, ctx.Lu, False, fd_step=FD_STEP, tol=TOL,
                compute_xi=True, warm=warm_u)
            rows.append({k: rec[k] for k in ("density", "dn_dz1", "xi")})
        return rows, (warm, warm_u)

    def check(self, ctx, pt, rows):
        projected, unprojected = rows[:len(pt["z1"])], rows[len(pt["z1"]):]
        return (all(0.0 < r["density"] < 1.0
                    and r["residual_ratio"] <= 1.01 * TOL
                    and np.isfinite(r["bffm_z"]) and np.isfinite(r["bffm_x"])
                    for r in projected)
                and all(0.0 < r["density"] < 1.0 and np.isfinite(r["dn_dz1"])
                        and 0.0 < r["xi"] < np.inf for r in unprojected))

    def gate(self, ctx, x, first_out):
        """Mean density of the RVB point (z1 = z2 = 0) is exactly 1/4."""
        tm = tnet.cylinder_transfer(0.0, 0.0, ctx.L, True)
        b = tnet.dominant_eigenpair(tm, TOL, compute_lam1=False)
        dev = abs(tnet.mean_density(tm, b, TOL) - 0.25)
        return dev <= 1e-9, "RVB mean density deviation from 1/4 %.3g" % dev


WORKLOADS = {w.name: w for w in (SweepN36(), ScanFull24(), FitTee(),
                                 TnCylinder())}
