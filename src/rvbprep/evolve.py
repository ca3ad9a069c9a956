"""Time evolution along a sweep with short-time Krylov exponentiation.

Each step applies a 4th-order commutator-free Magnus propagator: two
Lanczos-computed exponentials of Gauss-node combinations of the
instantaneous Hamiltonian.  Because H is affine in (Omega, Delta), the
combinations are again Hamiltonians of the same form and the scheme is
exact in that structure.  dt adapts via periodic step-doubling checks
against a local error tolerance.  Only full steps are checked: a step
shortened to land on a sample time or a checkpoint is taken unchecked,
and so is every step between two checks.  A trajectory counts its H.psi
products and keeps the largest Krylov error estimate it accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zgemv

from .hilbert import StateVector

GAUSS_SHIFT = math.sqrt(3.0) / 6.0     # Gauss-Legendre nodes 1/2 -+ sqrt(3)/6
CF4_A = 0.25 + math.sqrt(3.0) / 6.0
CF4_B = 0.25 - math.sqrt(3.0) / 6.0
KRYLOV_DIM = 20         # Lanczos vectors per exponential
CALIB_INTERVAL = 10     # accepted full steps between step-doubling checks


class EvolveError(RuntimeError):
    pass


class _CountingOperator:
    """Forwards ``apply`` to an operator and counts the calls."""

    def __init__(self, op):
        self.op = op
        self.calls = 0

    def apply(self, psi, omega, delta):
        self.calls += 1
        return self.op.apply(psi, omega, delta)


def overlap(psi, phi):
    """<psi|phi> with psi conjugated."""
    if psi.basis.dim != phi.basis.dim or psi.basis.n_atoms != phi.basis.n_atoms:
        raise EvolveError("overlap between states on different bases")
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


def lanczos_expm_step(apply_h, psi, dt, tol=1e-10, krylov_dim=KRYLOV_DIM,
                      breakdown_tol=1e-13):
    """exp(-i dt H) psi with a residual-controlled Lanczos subspace.

    The basis grows until the coupling of the last Krylov vector into the
    propagated state drops below tol (or a happy breakdown occurs).  Full
    reorthogonalization, two classical Gram-Schmidt passes against the
    whole basis ("twice is enough"), keeps the tridiagonal projection
    accurate.  The Krylov vectors are the rows of one array, and every
    product with the basis is a BLAS zgemv on its Fortran-ordered transpose.
    The tridiagonal projection grows in place in one preallocated array.

    A new Krylov vector is scaled by the reciprocal of its norm on its real
    view.  That is numpy's complex-by-real division up to the sign of an
    exactly zero component, which no later product or sum can see, so the
    returned state is the division's bit for bit.
    """
    nrm = np.linalg.norm(psi)
    vecs = np.empty((krylov_dim, len(psi)), dtype=np.complex128)
    np.divide(psi, nrm, out=vecs[0])
    tri = np.zeros((krylov_dim, krylov_dim))
    for j in range(krylov_dim):
        w = apply_h(vecs[j])
        basis = vecs[:j + 1].T
        for sweep in range(2):
            c = zgemv(1.0, basis, w, trans=2)           # V^H w
            if sweep == 0:
                tri[j, j] = c[j].real
            w = zgemv(-1.0, basis, c, beta=1.0, y=w, overwrite_y=1)
        b = math.sqrt(np.vdot(w, w).real)
        evals, evecs = np.linalg.eigh(tri[:j + 1, :j + 1])
        u = evecs @ (np.exp(-1j * dt * evals) * evecs[0].conj())
        err = abs(b * dt * u[-1])
        if b < breakdown_tol:
            err = 0.0
            break
        if err <= tol:
            break
        if j + 1 < krylov_dim:
            tri[j, j + 1] = tri[j + 1, j] = b
            np.multiply(w.view(np.float64), 1.0 / b,
                        out=vecs[j + 1].view(np.float64))
    return zgemv(nrm, vecs[:len(u)].T, u), err


def cf4_step(op, schedule, psi, t, dt, tol=1e-10):
    """One 4th-order commutator-free Magnus step from t to t + dt."""
    t1 = t + (0.5 - GAUSS_SHIFT) * dt
    t2 = t + (0.5 + GAUSS_SHIFT) * dt
    om1, de1 = schedule.omega(t1), schedule.delta(t1)
    om2, de2 = schedule.omega(t2), schedule.delta(t2)
    # a*H1 + b*H2 = (a+b) * H(om_eff, de_eff) because H is affine in (om, de)
    tau = dt * (CF4_A + CF4_B)   # = dt / 2
    om_a = (CF4_A * om1 + CF4_B * om2) / (CF4_A + CF4_B)
    de_a = (CF4_A * de1 + CF4_B * de2) / (CF4_A + CF4_B)
    om_b = (CF4_B * om1 + CF4_A * om2) / (CF4_A + CF4_B)
    de_b = (CF4_B * de1 + CF4_A * de2) / (CF4_A + CF4_B)
    psi, e1 = lanczos_expm_step(lambda v: op.apply(v, om_a, de_a), psi, tau,
                                tol)
    psi, e2 = lanczos_expm_step(lambda v: op.apply(v, om_b, de_b), psi, tau,
                                tol)
    return psi, e1 + e2


@dataclass
class Trajectory:
    times: np.ndarray
    omegas: np.ndarray
    deltas: np.ndarray
    norms: np.ndarray
    rvb_overlap: np.ndarray           # |<RVB|psi>| (nan when no RVB given)
    density: np.ndarray               # mean <n_i> over atoms
    sector_weights: np.ndarray        # (n_samples, N+1)
    snapshots: dict = field(default_factory=dict)   # time -> StateVector
    final_state: StateVector = None
    n_steps: int = 0
    matvecs: int = 0                  # H.psi products, checks included
    krylov_error: float = 0.0         # largest of any accepted step

    @property
    def norm_drift(self):
        return float(np.max(np.abs(self.norms - 1.0)))


def evolve_sweep(op, schedule, psi0=None, rvb=None, dt_max=0.5, local_tol=1e-9,
                 n_samples=400, checkpoints=()):
    """Propagate through the sweep and record observables on a uniform grid.

    psi0 defaults to the vacuum.  ``checkpoints`` are times at which full
    state snapshots are stored (in addition to the final state).  Every
    ``CALIB_INTERVAL`` accepted full steps the step size is recalibrated
    by comparing one full step against two half steps; a Krylov error
    beyond ``local_tol`` in any of the three counts as a doubling error
    and shrinks the step.  The steps in between, and every step shortened
    to land on a sample time or a checkpoint, are never checked: only
    their Krylov error is, and a miss there raises.  The trajectory counts
    every H.psi product (``matvecs``) and keeps the largest Krylov error
    estimate of an accepted step, summed over its two exponentials
    (``krylov_error``).

    H and the vacuum are invariant under every symmetry of the cluster, so
    the sweep runs in the fully symmetric sector of ``op.sector``: psi0 must
    lie in it, observables are read there, and the snapshots and the final
    state are expanded back onto ``op.basis``.  The RVB overlap is read
    through P.T, so it is exact for any ``rvb``.  ``rk4_evolve`` stays on
    the full basis as the oracle.
    """
    basis = op.basis
    iso, red = op.sector()
    counted = _CountingOperator(red)
    if psi0 is None:
        amps = np.zeros(basis.dim, dtype=np.complex128)
        amps[basis.index_of(0)] = 1.0
        psi0 = StateVector(basis, amps)
    psi = iso.T @ psi0.amplitudes
    leak = float(np.linalg.norm(iso @ psi - psi0.amplitudes))
    if leak > 1e-12:
        raise EvolveError("psi0 is not symmetric: a component of norm "
                          "%.2e lies outside the fully symmetric sector"
                          % leak)
    T = schedule.total_time

    samples = np.linspace(0.0, T, n_samples)
    events = np.unique(np.concatenate([samples, np.asarray(checkpoints, dtype=float)]))
    if events[0] > 0:
        events = np.concatenate([[0.0], events])

    # <rvb|P phi> = <P.T rvb|phi> for any rvb
    rvb_amps = iso.T @ rvb.amplitudes if rvb is not None else None
    n_atoms = basis.n_atoms
    excitations = np.arange(n_atoms + 1, dtype=np.float64)
    rec = {k: [] for k in ("t", "om", "de", "norm", "ov", "dens", "w")}
    snapshots = {}

    def record(t):
        om, de = schedule.omega(t), schedule.delta(t)
        # an orbit's configurations share its representative's popcount
        state = StateVector(red.basis, psi)
        weights = state.sector_weights()
        rec["t"].append(t)
        rec["om"].append(om)
        rec["de"].append(de)
        rec["norm"].append(state.norm)
        rec["ov"].append(abs(np.vdot(rvb_amps, psi)) if rvb_amps is not None else np.nan)
        # mean <n_i> = sum_k k w_k / N over the excitation-number sectors
        rec["dens"].append(float(excitations @ weights) / n_atoms)
        rec["w"].append(weights)

    sample_set = set(np.round(samples, 12))
    t = 0.0
    dt = min(dt_max, 0.02 * T)
    n_steps = 0
    krylov_error = 0.0
    since_calib = CALIB_INTERVAL      # calibrate on the very first step
    ktol = 0.1 * local_tol
    record(0.0)
    for t_event in events[1:]:
        while t < t_event - 1e-12:
            step = min(dt, dt_max, t_event - t)
            full_step = step >= min(dt, dt_max) - 1e-14
            if full_step and since_calib >= CALIB_INTERVAL:
                # step-doubling: accept two half steps, measure against one
                while True:
                    coarse, e_coarse = cf4_step(counted, schedule, psi, t,
                                                step, ktol)
                    half, e_half = cf4_step(counted, schedule, psi, t,
                                            0.5 * step, ktol)
                    fine, e_fine = cf4_step(counted, schedule, half,
                                            t + 0.5 * step, 0.5 * step, ktol)
                    err = float(np.linalg.norm(coarse - fine))
                    # a Krylov miss, which would stop a plain step, shrinks
                    # this one; an error within local_tol leaves err alone
                    miss = max(e_coarse, e_half + e_fine)
                    if miss > local_tol:
                        err = max(err, miss)
                    if err <= local_tol or step < 1e-10 * max(T, 1.0):
                        break
                    step *= max(0.3, 0.8 * (local_tol / max(err, 1e-300)) ** 0.2)
                if err > local_tol:
                    raise EvolveError(
                        "step size underflow at t=%.4g (err=%.2e)" % (t, err))
                psi = fine
                krylov_error = max(krylov_error, e_half + e_fine)
                grow = 2.0 if err == 0.0 else min(
                    2.0, max(0.3, 0.8 * (local_tol / err) ** 0.2))
                dt = min(step * grow, dt_max)
                since_calib = 0
            else:
                psi, kerr = cf4_step(counted, schedule, psi, t, step, ktol)
                if kerr > local_tol:
                    raise EvolveError(
                        "Krylov residual %.2e beyond tolerance at t=%.4g" % (kerr, t))
                krylov_error = max(krylov_error, kerr)
                if full_step:
                    since_calib += 1
            t += step
            n_steps += 1
        t = t_event
        if round(t, 12) in sample_set:
            record(t)
        if np.any(np.abs(np.asarray(checkpoints) - t) < 1e-9):
            snapshots[t] = StateVector(basis, iso @ psi)

    final = StateVector(basis, iso @ psi)
    traj = Trajectory(
        times=np.array(rec["t"]),
        omegas=np.array(rec["om"]),
        deltas=np.array(rec["de"]),
        norms=np.array(rec["norm"]),
        rvb_overlap=np.array(rec["ov"]),
        density=np.array(rec["dens"]),
        sector_weights=np.array(rec["w"]),
        snapshots=snapshots,
        final_state=final,
        n_steps=n_steps,
        matvecs=counted.calls,
        krylov_error=krylov_error,
    )
    if traj.norm_drift > 1e-8:
        raise EvolveError("norm drift %.2e beyond tolerance" % traj.norm_drift)
    return traj


def rk4_evolve(op, schedule, psi0, dt=1e-3):
    """Fixed-step classical 4th-order integrator; cross-check oracle."""
    psi = psi0.amplitudes.astype(np.complex128).copy()
    T = schedule.total_time
    n = int(np.ceil(T / dt))
    h = T / n
    for k in range(n):
        t = k * h

        def f(tt, y):
            om, de = schedule.omega(tt), schedule.delta(tt)
            return -1j * op.apply(y, om, de)

        k1 = f(t, psi)
        k2 = f(t + 0.5 * h, psi + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, psi + 0.5 * h * k2)
        k4 = f(t + h, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return StateVector(op.basis, psi)


def integrator_crosscheck(op, schedule, psi0=None, dt_rk=1e-3, dt_max=0.5,
                          local_tol=1e-9):
    """Compare the Krylov propagator against the fixed-step oracle."""
    basis = op.basis
    if psi0 is None:
        amps = np.zeros(basis.dim, dtype=np.complex128)
        amps[basis.index_of(0)] = 1.0
        psi0 = StateVector(basis, amps)
    traj = evolve_sweep(op, schedule, psi0=psi0, dt_max=dt_max,
                        local_tol=local_tol, n_samples=2)
    ref = rk4_evolve(op, schedule, psi0, dt=dt_rk)
    dev = float(np.max(np.abs(traj.final_state.amplitudes - ref.amplitudes)))
    return {
        "max_deviation": dev,
        "krylov_steps": traj.n_steps,
        "rk4_steps": int(np.ceil(schedule.total_time / dt_rk)),
        "norm_drift": traj.norm_drift,
    }
