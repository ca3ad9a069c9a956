"""Ground states and fidelity-susceptibility scans of the blockade model.

The scan fixes Omega = 1 and varies Delta, reporting lambda = Omega/Delta;
the susceptibility F(lambda) = (1 - |<GS(lambda)|GS(lambda+dlambda)>|) / dlambda
peaks at phase boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

DEGENERACY_GAP = 1e-8
DENSE_CUTOFF = 600
START_SEED = 7          # seeds ARPACK's start vector when none is given
MAX_ITER = 20000        # ARPACK restarts


class SpectrumError(RuntimeError):
    pass


@dataclass
class GroundstateResult:
    energy: float
    state: "StateVector"
    gap: float
    degenerate: bool
    residual: float
    degeneracy: int = 1


@dataclass
class GroundstateScan:
    lambdas: np.ndarray
    energies: np.ndarray
    gaps: np.ndarray
    rvb_overlaps: np.ndarray
    susceptibilities: np.ndarray
    degenerate: np.ndarray


def _fix_phase(vec):
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec / phase


def groundstate(op, omega, delta, tol=1e-10, v0=None):
    """Lowest eigenpair of H(omega, delta) with the gap above it, both in
    the fully symmetric sector of ``op.sector``.

    The gauge psi_c -> (-1)^{n_c} psi_c makes every off-diagonal entry of H
    non-positive, and single flips connect every configuration to the
    vacuum, so for omega > 0 the ground state is unique and, in that gauge,
    positive (Perron-Frobenius); every symmetry of the cluster permutes
    atoms and so keeps n_c, so the state is invariant under all of them and
    the sector's E0 and state are those of the full basis.  ``gap`` is the
    symmetric sector's gap, never smaller than the full one.  ``v0`` lies
    on ``op.basis`` and the state is expanded back onto it.  Without a
    cluster P = 1.

    Diagonal Hamiltonians (omega = 0) are solved exactly, and
    ``degeneracy`` then counts the symmetric states (orbits) at the lowest
    energy; small sectors use dense diagonalization; otherwise restarted
    Lanczos (ARPACK) with an explicit residual check.
    """
    from .hilbert import StateVector

    iso, red = op.sector()
    dim = red.dim
    if omega == 0.0:
        diag = red.tail_diag - delta * red.n_diag
        order = np.argsort(diag, kind="stable")
        e0 = float(diag[order[0]])
        mult = int(np.sum(diag <= e0 + DEGENERACY_GAP))
        above = diag[diag > e0 + DEGENERACY_GAP]
        gap = float(np.min(above) - e0) if len(above) else np.inf
        amps = np.zeros(dim)
        amps[order[0]] = 1.0
        return GroundstateResult(e0, StateVector(op.basis, iso @ amps), gap,
                                 mult > 1, 0.0, mult)

    if dim <= DENSE_CUTOFF:
        evals, evecs = np.linalg.eigh(red.dense(omega, delta))
        vec = evecs[:, 0]
        e0 = float(evals[0])
        gap = float(evals[1] - evals[0]) if dim > 1 else np.inf
    else:
        # H is real symmetric: ARPACK's real Lanczos driver, on real vectors
        lin = red.aslinearoperator(omega, delta)
        if v0 is None:
            # ARPACK would draw its own random start, different in every
            # call and process; a seeded one keeps reruns byte-identical
            v0 = np.random.default_rng(START_SEED).uniform(-1.0, 1.0, dim)
        else:
            v0 = iso.T @ np.asarray(v0).real.astype(np.float64)
        evals, evecs = spla.eigsh(lin, k=2, which="SA", tol=tol,
                                  maxiter=MAX_ITER, v0=v0)
        order = np.argsort(evals)
        e0 = float(evals[order[0]])
        gap = float(evals[order[1]] - e0)
        vec = evecs[:, order[0]]

    # P is an isometry with H P = P H_r: the residual is the full basis' one
    res = float(np.linalg.norm(red.apply(vec, omega, delta) - e0 * vec))
    if res > max(tol, 1e-9) * max(1.0, abs(e0)):
        raise SpectrumError(
            "groundstate residual %.2e did not reach tolerance" % res)
    mult = 2 if gap < DEGENERACY_GAP else 1
    state = StateVector(op.basis, _fix_phase(iso @ vec.astype(np.complex128)))
    return GroundstateResult(e0, state, gap, gap < DEGENERACY_GAP, res, mult)


def fidelity_susceptibility_scan(op, lambdas, dlambda=0.0025, rvb=None,
                                 tol=1e-10):
    """F(lambda) over a sorted lambda grid at fixed Omega = 1.

    Degenerate grid points are flagged and their F left as NaN rather than
    averaged over the manifold.  Every solve runs in the fully symmetric
    sector (``groundstate``), so ``gaps`` holds that sector's gaps, which
    are never below the full spectral gaps.  Every row is a cold solve, so
    it equals the one-row scan at its lambda; on an operator without a
    cluster a start vector from the previous row would keep Lanczos in that
    row's symmetry sector.  The lambda + dlambda partner starts from its own row.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(np.diff(lambdas) <= 0):
        raise SpectrumError("lambda grid must be strictly increasing")
    if dlambda <= 0:
        raise SpectrumError("dlambda must be positive")

    n = len(lambdas)
    energies = np.empty(n)
    gaps = np.empty(n)
    overlaps = np.full(n, np.nan)
    sus = np.full(n, np.nan)
    degen = np.zeros(n, dtype=bool)

    for i, lam in enumerate(lambdas):
        gs = groundstate(op, 1.0, 1.0 / lam, tol=tol)
        gs2 = groundstate(op, 1.0, 1.0 / (lam + dlambda), tol=tol,
                          v0=gs.state.amplitudes)
        energies[i] = gs.energy
        gaps[i] = gs.gap
        degen[i] = gs.degenerate or gs2.degenerate
        if not degen[i]:
            ov = abs(np.vdot(gs.state.amplitudes, gs2.state.amplitudes))
            sus[i] = (1.0 - min(ov, 1.0)) / dlambda
        if rvb is not None:
            overlaps[i] = abs(np.vdot(rvb.amplitudes, gs.state.amplitudes))
    return GroundstateScan(lambdas, energies, gaps, overlaps, sus, degen)


def interior_peaks(values):
    """Indices of strict interior local maxima of a 1-D array (NaN-safe)."""
    v = np.asarray(values, dtype=float)
    peaks = []
    for i in range(1, len(v) - 1):
        if np.isnan(v[i - 1]) or np.isnan(v[i]) or np.isnan(v[i + 1]):
            continue
        if v[i] > v[i - 1] and v[i] > v[i + 1]:
            peaks.append(i)
    return peaks
