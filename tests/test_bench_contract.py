"""The entry points the benchmark harness wraps and calls, as tier-1 checks.

``benchmarks/tracing.py`` replaces ``vars(owner)[attr]`` for each of its
targets and its hooks read attributes of the arguments, and the workloads
call the library with keyword arguments; a change that renames or moves one
of them would otherwise surface only when the benchmark runs.  Nothing but
``tracing`` is read from ``benchmarks/``.
"""

import dataclasses
import inspect
import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "benchmarks"))

import tracing  # noqa: E402

from rvbprep import (ansatz, entangle, evolve, geometry,  # noqa: E402
                     hilbert, spectrum, tnet)
from rvbprep.model import (HamiltonianOperator, HamiltonianSpec,  # noqa: E402
                           SweepSchedule)


def test_every_traced_target_is_an_own_attribute():
    for owner, attr, name, hook in tracing._targets():
        assert attr in vars(owner), "%s.%s (span %s)" % (
            getattr(owner, "__name__", owner), attr, name)


def test_traced_signatures():
    apply = inspect.signature(HamiltonianOperator.apply)
    assert list(apply.parameters) == ["self", "psi", "omega", "delta"]
    lanczos = inspect.signature(evolve.lanczos_expm_step)
    assert list(lanczos.parameters) == ["apply_h", "psi", "dt", "tol",
                                        "krylov_dim", "breakdown_tol"]


def test_tnet_calls_of_the_cylinder_workload():
    # the tn-cylinder workload warm-starts dominant_eigenpair, reads these
    # Boundaries fields, and calls phase_diagram_point with a local fd_step
    fields = {f.name for f in dataclasses.fields(tnet.Boundaries)}
    assert {"iterations", "right", "left", "residual", "lam0"} <= fields
    eig = inspect.signature(tnet.dominant_eigenpair).parameters
    assert {"right0", "left0", "compute_lam1"} <= set(eig)
    point = inspect.signature(tnet.phase_diagram_point).parameters
    assert {"fd_step", "warm", "compute_xi"} <= set(point)


def test_left_starts_of_the_cylinder_workload_are_accepted_and_unused():
    # the tn-cylinder workload passes left0, and warm dicts that carry a
    # "left" vector; the left boundary is derived from the right one, so
    # both are accepted and change nothing
    tm = tnet.cylinder_transfer(0.31, 0.21, 4)
    b = tnet.dominant_eigenpair(tnet.cylinder_transfer(0.3, 0.2, 4),
                                compute_lam1=False)
    junk = np.random.default_rng(1).standard_normal(tm.dim)
    plain = tnet.dominant_eigenpair(tm, right0=b.right, compute_lam1=False)
    for left0 in (b.left, junk):
        got = tnet.dominant_eigenpair(tm, right0=b.right, left0=left0,
                                      compute_lam1=False)
        assert np.array_equal(got.left, plain.left)
        assert np.array_equal(got.right, plain.right)
        assert (got.lam0, got.iterations) == (plain.lam0, plain.iterations)
    rec, warm = tnet.phase_diagram_point(0.3, 0.2, 2, False, fd_step=1e-3)
    assert set(warm) == {"right"}
    timers = {"transfer_s", "boundaries_s", "observables_s"}
    want, _ = tnet.phase_diagram_point(0.31, 0.2, 2, False, warm=warm)
    for extra in (junk[:16], b.left[:16]):
        got, _ = tnet.phase_diagram_point(0.31, 0.2, 2, False,
                                          warm={**warm, "left": extra})
        assert {k: got[k] for k in set(got) - timers} == {
            k: want[k] for k in set(want) - timers}


def test_library_calls_of_the_workloads(cluster12, rvb12):
    # keyword arguments the sweep, scan and fit workloads pass, and the
    # calls they make with positional arguments only
    for fn, keywords in ((spectrum.groundstate, {"tol", "v0"}),
                         (spectrum.fidelity_susceptibility_scan,
                          {"dlambda", "rvb", "tol"}),
                         (ansatz.fit_to_state,
                          {"warm_start", "max_evals", "builder"})):
        assert keywords <= set(inspect.signature(fn).parameters), fn
    basis = hilbert.enumerate_basis(geometry.constraint_graph(cluster12, 2.0))
    assert basis.dim == rvb12.basis.dim
    regions = ([0, 1], [2, 3], [4, 5])
    assert np.isfinite(entangle.topological_entropy_report(rvb12,
                                                           regions).gamma)


def test_operator_attributes_read_by_the_hooks(basis12):
    op = HamiltonianOperator(HamiltonianSpec(), basis12)
    assert sp.issparse(op.flip) and op.flip.format == "csr"
    assert op.flip.dtype == np.float64
    assert op.tail_diag.shape == op.n_diag.shape == (op.dim,)
    assert isinstance(spectrum.DENSE_CUTOFF, int)


def test_cf4_step_calls_lanczos_through_the_module(basis12, monkeypatch):
    op = HamiltonianOperator(HamiltonianSpec(), basis12)
    calls = []
    original = evolve.lanczos_expm_step

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(evolve, "lanczos_expm_step", counting)
    psi = np.zeros(op.dim, dtype=np.complex128)
    psi[basis12.index_of(0)] = 1.0
    evolve.cf4_step(op, SweepSchedule.default_protocol(2.0), psi, 0.5, 0.1)
    assert len(calls) == 2


def test_sweep_states_are_on_the_operator_basis(cluster12, basis12, rvb12):
    # the sweep workload takes vdot of final_state with an RVB state on the
    # full basis; the sweep itself runs in the fully symmetric sector
    op = HamiltonianOperator(HamiltonianSpec(), basis12, cluster12)
    traj = evolve.evolve_sweep(op, SweepSchedule.default_protocol(1.0),
                               rvb=rvb12, n_samples=5, checkpoints=(0.5,))
    assert op.sector()[1].dim < basis12.dim
    for state in (traj.final_state, traj.snapshots[0.5]):
        assert state.basis is basis12
        assert state.amplitudes.shape == (basis12.dim,)
    final_overlap = abs(np.vdot(rvb12.amplitudes, traj.final_state.amplitudes))
    assert final_overlap == pytest.approx(traj.rvb_overlap[-1], abs=1e-14)


def test_gate_oracle_schedule_ends_at_the_protocol_end_values():
    # the sweep-n36 gate runs rk4_evolve at dt = 1e-4 over sweep times in
    # [0.5, 0.6]; its last node, reached as (n - 1) h + h, can lie one ulp
    # below T and must still read the values at T
    bad = []
    for total in np.round(np.random.default_rng(2718).uniform(0.5, 0.6, 400), 6):
        s = SweepSchedule.default_protocol(float(total))
        n = int(np.ceil(total / 1e-4))
        h = total / n
        t = (n - 1) * h + h
        if abs(s.omega(t)) > 1e-12 or abs(s.delta(t) - 1.5) > 1e-12:
            bad.append((float(total), s.omega(t), s.delta(t)))
    assert bad == []
