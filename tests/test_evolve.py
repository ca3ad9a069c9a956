import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import zgemv

from rvbprep import evolve
from rvbprep.evolve import (EvolveError, cf4_step, evolve_sweep,
                            integrator_crosscheck, lanczos_expm_step, overlap,
                            rk4_evolve)
from rvbprep.geometry import build_cluster, constraint_graph
from rvbprep.hilbert import StateVector, enumerate_basis, rvb_state
from rvbprep.model import HamiltonianOperator, HamiltonianSpec, SweepSchedule


@pytest.fixture(scope="module")
def op12(basis12):
    return HamiltonianOperator(HamiltonianSpec(), basis12)


def vacuum(basis):
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index_of(0)] = 1.0
    return StateVector(basis, amps)


def test_lanczos_step_matches_dense_expm(op12, basis12):
    h = op12.dense(0.8, -0.6)
    rng = np.random.default_rng(13)
    v = rng.standard_normal(basis12.dim) + 1j * rng.standard_normal(basis12.dim)
    v /= np.linalg.norm(v)
    for dt in (0.05, 0.4):
        want = scipy.linalg.expm(-1j * dt * h) @ v
        got, err = lanczos_expm_step(lambda x: op12.apply(x, 0.8, -0.6),
                                     v, dt, tol=1e-12, krylov_dim=40)
        assert err <= 1e-12
        assert np.max(np.abs(got - want)) < 1e-9
        assert abs(np.linalg.norm(got) - 1.0) < 1e-11


def test_lanczos_happy_breakdown(op12, basis12):
    # an eigenvector spans a one-dimensional Krylov space
    w, vecs = np.linalg.eigh(op12.dense(1.0, 0.0))
    v = vecs[:, 0].astype(np.complex128)
    got, err = lanczos_expm_step(lambda x: op12.apply(x, 1.0, 0.0), v, 0.3)
    assert err == 0.0
    assert np.allclose(got, np.exp(-1j * 0.3 * w[0]) * v, atol=1e-10)


def test_lanczos_capped_subspace_matches_projection(op12, basis12):
    # krylov_dim = 3 cannot meet the tolerance: the step must return the
    # exponential of the 3 x 3 tridiagonal projection, built here from dense
    h = op12.dense(1.1, -0.4)
    rng = np.random.default_rng(31)
    v = rng.standard_normal(basis12.dim) + 1j * rng.standard_normal(basis12.dim)
    v *= 1.7 / np.linalg.norm(v)
    dt = 0.6
    q = [v / np.linalg.norm(v)]
    alphas, betas = [], []
    for j in range(3):
        w = h @ q[-1]
        alphas.append(float(np.vdot(q[-1], w).real))
        for _ in range(2):
            for x in q:
                w = w - np.vdot(x, w) * x
        betas.append(float(np.linalg.norm(w)))
        q.append(w / betas[-1])
    tri = np.diag(alphas) + np.diag(betas[:2], 1) + np.diag(betas[:2], -1)
    u = scipy.linalg.expm(-1j * dt * tri)[:, 0]
    want = 1.7 * np.array(q[:3]).T @ u
    want_err = abs(betas[2] * dt * u[-1])

    got, err = lanczos_expm_step(lambda x: op12.apply(x, 1.1, -0.4), v, dt,
                                 tol=1e-14, krylov_dim=3)
    assert want_err > 1e-4              # the tolerance was not met
    assert err == pytest.approx(want_err, rel=1e-9)
    assert np.max(np.abs(got - want)) < 1e-12
    assert got.shape == v.shape and got.dtype == np.complex128


def test_cf4_is_fourth_order(op12, basis12):
    s = SweepSchedule.default_protocol(10.0)
    rng = np.random.default_rng(17)
    v = rng.standard_normal(basis12.dim) + 0j
    v /= np.linalg.norm(v)
    t0 = 3.0
    errs = []
    for dt in (0.2, 0.1):
        exact = v.copy()
        n_fine = 200
        for k in range(n_fine):
            exact, _ = cf4_step(op12, s, exact, t0 + k * dt / n_fine,
                                dt / n_fine, tol=1e-13)
        coarse, _ = cf4_step(op12, s, v, t0, dt, tol=1e-13)
        errs.append(np.linalg.norm(coarse - exact))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.5


def test_evolve_sweep_conserves_norm_and_energy_when_frozen(op12, basis12):
    # constant (Omega, Delta) after smoothing: use a long flat stage-2 window
    s = SweepSchedule(4.0, 0.0, 4.0, 0.0, delta0=0.7, delta1=0.7,
                      smoothing_window=0.0)
    rng = np.random.default_rng(19)
    v = rng.standard_normal(basis12.dim) + 0j
    psi0 = StateVector(basis12, v / np.linalg.norm(v))
    h = op12.dense(1.0, 0.7)
    e0 = float(np.vdot(psi0.amplitudes, h @ psi0.amplitudes).real)
    traj = evolve_sweep(op12, s, psi0=psi0, n_samples=5)
    assert traj.norm_drift < 1e-10
    ef = float(np.vdot(traj.final_state.amplitudes,
                       h @ traj.final_state.amplitudes).real)
    assert abs(ef - e0) < 1e-8


def test_sweep_crosscheck_small_cluster():
    cl = build_cluster(1, 1)
    basis = enumerate_basis(constraint_graph(cl, 2.0))
    op = HamiltonianOperator(HamiltonianSpec(), basis)
    s = SweepSchedule.default_protocol(5.0)
    res = integrator_crosscheck(op, s, dt_rk=2e-4, local_tol=1e-10)
    assert res["max_deviation"] < 1e-6
    assert res["norm_drift"] < 1e-10
    assert res["krylov_steps"] < res["rk4_steps"]


def test_evolve_records_observables(op12, basis12, covers12):
    rvb = rvb_state(covers12, basis12)
    s = SweepSchedule.default_protocol(6.0)
    traj = evolve_sweep(op12, s, rvb=rvb, n_samples=20,
                        checkpoints=(3.0,))
    assert len(traj.times) == 20
    assert traj.times[0] == 0.0 and traj.times[-1] == 6.0
    assert np.allclose(traj.omegas, [s.omega(t) for t in traj.times])
    assert np.allclose(traj.deltas, [s.delta(t) for t in traj.times])
    # starts in vacuum: zero density, all weight in the 0-excitation sector
    assert traj.density[0] == 0.0
    assert traj.sector_weights[0, 0] == 1.0
    assert np.all(np.isfinite(traj.rvb_overlap))
    assert traj.rvb_overlap[0] == pytest.approx(
        abs(overlap(rvb, vacuum(basis12))))
    final = np.abs(traj.final_state.amplitudes) ** 2
    per_atom = [((basis12.configs >> np.uint64(i)) & np.uint64(1)) @ final
                for i in range(basis12.n_atoms)]
    assert traj.density[-1] == pytest.approx(np.mean(per_atom), abs=1e-14)
    assert set(traj.snapshots) == {3.0}
    assert abs(traj.snapshots[3.0].norm - 1.0) < 1e-10


def test_overlap_rejects_mismatched_bases(basis12):
    cl = build_cluster(1, 1)
    small = enumerate_basis(constraint_graph(cl, 2.0))
    a = vacuum(basis12)
    b = vacuum(small)
    with pytest.raises(EvolveError):
        overlap(a, b)


def test_rk4_matches_dense_propagator(op12, basis12):
    s = SweepSchedule(1.0, 0.0, 1.0, 0.0, delta0=0.4, delta1=0.4,
                      smoothing_window=0.0)
    psi0 = vacuum(basis12)
    got = rk4_evolve(op12, s, psi0, dt=2e-4)
    want = scipy.linalg.expm(-1j * op12.dense(1.0, 0.4)) @ psi0.amplitudes
    assert np.max(np.abs(got.amplitudes - want)) < 1e-8


def test_rk4_converges_in_dt_up_to_the_end_of_a_sweep(basis12):
    # at dt = 1e-4 the last node, (n - 1) h + h, lies one ulp below T, where
    # the schedule's smoothing window has shrunk to rounding level
    op = HamiltonianOperator(HamiltonianSpec(), basis12)
    s = SweepSchedule.default_protocol(0.568625)
    coarse, fine = (rk4_evolve(op, s, vacuum(basis12), dt=dt).amplitudes
                    for dt in (1e-4, 2.5e-5))
    assert np.max(np.abs(coarse - fine)) <= 1e-9


# --- the fully symmetric sector -------------------------------------------
# It lies inside the zero-momentum (k = 0) sector: its states are invariant
# under the translations and under every other symmetry of the torus.

@pytest.mark.parametrize("n_atoms", [12, 24])
def test_sweep_in_k0_sector_matches_full_basis(n_atoms, request):
    # an operator with a cluster sweeps in its fully symmetric sector; one
    # without a cluster has the identity isometry and sweeps on all of
    # its basis.  200 samples over T = 4 are closer than dt, so both take
    # the grid's steps: where the step-doubling check sets dt, it turns
    # rounding-level differences of its error estimate into final-state
    # differences of ~1e-11, as a global phase on psi0 does on one path
    cluster = request.getfixturevalue("cluster%d" % n_atoms)
    basis = request.getfixturevalue("basis%d" % n_atoms)
    rvb = rvb_state(request.getfixturevalue("covers%d" % n_atoms), basis)
    s = SweepSchedule.default_protocol(4.0)
    sector, full = [
        evolve_sweep(HamiltonianOperator(HamiltonianSpec(), basis, cl), s,
                     rvb=rvb, n_samples=200, checkpoints=(1.3, 2.9))
        for cl in (cluster, None)]
    assert sector.n_steps == full.n_steps
    assert sector.final_state.basis is full.final_state.basis is basis
    assert np.max(np.abs(sector.final_state.amplitudes
                         - full.final_state.amplitudes)) <= 1e-12
    assert set(sector.snapshots) == set(full.snapshots) == {1.3, 2.9}
    for t in sector.snapshots:
        assert sector.snapshots[t].basis is basis
        assert np.max(np.abs(sector.snapshots[t].amplitudes
                             - full.snapshots[t].amplitudes)) <= 1e-12
    for name in ("times", "omegas", "deltas"):
        assert np.array_equal(getattr(sector, name), getattr(full, name))
    for name in ("norms", "rvb_overlap", "density", "sector_weights"):
        assert np.max(np.abs(getattr(sector, name) - getattr(full, name))) <= 1e-12


def test_crosscheck_in_k0_sector(cluster24, basis24):
    # the sector sweep against rk4_evolve, which applies the full flip
    op = HamiltonianOperator(HamiltonianSpec(), basis24, cluster24)
    res = integrator_crosscheck(op, SweepSchedule.default_protocol(2.0),
                                dt_rk=2e-4, local_tol=1e-10)
    assert res["max_deviation"] < 1e-6
    assert res["norm_drift"] < 1e-10


def test_crosscheck_in_sector_n12(cluster12, basis12):
    op = HamiltonianOperator(HamiltonianSpec(), basis12, cluster12)
    assert op.sector()[1].dim == 11
    res = integrator_crosscheck(op, SweepSchedule.default_protocol(2.0),
                                dt_rk=2e-4, local_tol=1e-10)
    assert res["max_deviation"] < 1e-6
    assert res["norm_drift"] < 1e-10


def test_sweep_rejects_state_outside_k0_sector(cluster12, basis12):
    op = HamiltonianOperator(HamiltonianSpec(), basis12, cluster12)
    # one excitation on atom 0 is not invariant under the translations
    psi0 = StateVector(basis12, np.zeros(basis12.dim))
    psi0.amplitudes[basis12.index_of(1)] = 1.0
    with pytest.raises(EvolveError, match="not symmetric"):
        evolve_sweep(op, SweepSchedule.default_protocol(1.0), psi0=psi0,
                     n_samples=3)
    # its sum over the translations has k = 0, but the torus's other
    # symmetries move it
    k0 = np.zeros(basis12.dim)
    for d1 in range(cluster12.n1):
        for d2 in range(cluster12.n2):
            atom = cluster12.translate_atoms(d1, d2)[0]
            k0[basis12.index_of(1 << int(atom))] = 1.0
    with pytest.raises(EvolveError, match="outside the fully symmetric"):
        evolve_sweep(op, SweepSchedule.default_protocol(1.0),
                     psi0=StateVector(basis12, k0 / np.linalg.norm(k0)),
                     n_samples=3)
    # its symmetric sum is accepted
    iso, _ = op.sector()
    sym = iso @ (iso.T @ psi0.amplitudes)
    traj = evolve_sweep(op, SweepSchedule.default_protocol(1.0),
                        psi0=StateVector(basis12, sym / np.linalg.norm(sym)),
                        n_samples=3)
    assert traj.norm_drift < 1e-10


# --- bit identity and solver counters --------------------------------------

def _division_lanczos_step(apply_h, psi, dt, tol=1e-10,
                           krylov_dim=evolve.KRYLOV_DIM, breakdown_tol=1e-13):
    """The Lanczos step as it stood before the preallocated tridiagonal:
    np.diag rebuilt every iteration and each new vector divided by its
    norm."""
    nrm = np.linalg.norm(psi)
    vecs = np.empty((krylov_dim, len(psi)), dtype=np.complex128)
    np.divide(psi, nrm, out=vecs[0])
    alphas, betas = [], []
    for j in range(krylov_dim):
        w = apply_h(vecs[j])
        basis = vecs[:j + 1].T
        for sweep in range(2):
            c = zgemv(1.0, basis, w, trans=2)
            if sweep == 0:
                alphas.append(float(c[j].real))
            w = zgemv(-1.0, basis, c, beta=1.0, y=w, overwrite_y=1)
        b = math.sqrt(np.vdot(w, w).real)
        tri = np.diag(alphas)
        for i in range(len(alphas) - 1):
            tri[i, i + 1] = tri[i + 1, i] = betas[i]
        evals, evecs = np.linalg.eigh(tri)
        u = evecs @ (np.exp(-1j * dt * evals) * evecs[0].conj())
        err = abs(b * dt * u[-1])
        if b < breakdown_tol:
            err = 0.0
            break
        if err <= tol:
            break
        betas.append(b)
        if j + 1 < krylov_dim:
            np.divide(w, b, out=vecs[j + 1])
    return zgemv(nrm, vecs[:len(u)].T, u), err


def _pairs_apply(self, psi, omega, delta):
    """H.psi as it stood before the complex flip values: the diagonal
    rebuilt on every call, a complex psi multiplied as its (dim, 2) real
    view."""
    diag = self.tail_diag - delta * self.n_diag
    if omega == 0.0:
        return diag * psi
    if np.iscomplexobj(psi):
        pairs = np.ascontiguousarray(psi).view(np.float64).reshape(-1, 2)
        out = (self.flip @ pairs).view(np.complex128).ravel()
    else:
        out = self.flip @ psi
    out *= 0.5 * omega
    out += diag * psi
    return out


@pytest.mark.parametrize("n_atoms", [12, 24])
def test_sweep_is_bit_identical_to_the_division_lanczos_and_pairs_apply(
        n_atoms, request, monkeypatch):
    cluster = request.getfixturevalue("cluster%d" % n_atoms)
    basis = request.getfixturevalue("basis%d" % n_atoms)
    rvb = rvb_state(request.getfixturevalue("covers%d" % n_atoms), basis)
    s = SweepSchedule.default_protocol(3.0)

    def sweep():
        op = HamiltonianOperator(HamiltonianSpec(), basis, cluster)
        return evolve_sweep(op, s, rvb=rvb, n_samples=40, checkpoints=(1.1,))

    got = sweep()
    monkeypatch.setattr(evolve, "lanczos_expm_step", _division_lanczos_step)
    monkeypatch.setattr(HamiltonianOperator, "apply", _pairs_apply)
    want = sweep()
    assert (got.n_steps, got.matvecs) == (want.n_steps, want.matvecs)
    assert got.krylov_error == want.krylov_error
    for name in ("times", "omegas", "deltas", "norms", "rvb_overlap",
                 "density", "sector_weights"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    for state in ("final_state", "snapshots"):
        a, b = getattr(got, state), getattr(want, state)
        if state == "snapshots":
            assert set(a) == set(b) == {1.1}
            a, b = a[1.1], b[1.1]
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()


def test_sweep_counts_every_apply(cluster12, basis12, monkeypatch):
    calls = []
    original = HamiltonianOperator.apply

    def counting(self, psi, omega, delta):
        calls.append(1)
        return original(self, psi, omega, delta)

    monkeypatch.setattr(HamiltonianOperator, "apply", counting)
    op = HamiltonianOperator(HamiltonianSpec(), basis12, cluster12)
    traj = evolve_sweep(op, SweepSchedule.default_protocol(3.0), n_samples=7)
    # the step-doubling checks' three CF4 steps are counted too
    assert traj.matvecs == len(calls) > 2 * 2 * traj.n_steps
    assert 0.0 < traj.krylov_error <= 1e-9


def test_calibration_step_shrinks_on_a_krylov_miss(cluster12, basis12,
                                                   monkeypatch):
    # with two Krylov vectors the first check's full step misses the
    # Krylov tolerance while its step-doubling error does not; the check
    # must shrink the step rather than accept the miss
    local_tol = 1e-9
    lanczos, cf4 = evolve.lanczos_expm_step, evolve.cf4_step

    def capped(apply_h, psi, dt, tol=1e-10, krylov_dim=evolve.KRYLOV_DIM,
               breakdown_tol=1e-13):
        return lanczos(apply_h, psi, dt, tol, min(krylov_dim, 2),
                       breakdown_tol)

    steps = []

    def spy(op, schedule, psi, t, dt, tol=1e-10):
        out = cf4(op, schedule, psi, t, dt, tol)
        steps.append((t, dt, out[1]))
        return out

    monkeypatch.setattr(evolve, "lanczos_expm_step", capped)
    monkeypatch.setattr(evolve, "cf4_step", spy)
    op = HamiltonianOperator(HamiltonianSpec(), basis12, cluster12)
    with pytest.raises(EvolveError, match="Krylov residual"):
        evolve_sweep(op, SweepSchedule.default_protocol(1.0), n_samples=2,
                     local_tol=local_tol)
    # a check is a full step and two half steps from one t; it was accepted
    # when the next step starts where its full step ends
    accepted = [
        max(e0, e1 + e2)
        for (t0, s0, e0), (t1, s1, e1), (t2, s2, e2), (t3, _, _)
        in zip(steps, steps[1:], steps[2:], steps[3:])
        if t1 == t0 and s1 == s2 == 0.5 * s0 and t3 == t0 + s0]
    assert accepted and max(accepted) <= local_tol
    # the miss was there to shrink: a full step from t = 0 that missed
    assert any(t == 0.0 and e > local_tol for t, _, e in steps)
