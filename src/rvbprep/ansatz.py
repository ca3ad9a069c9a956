"""Two-parameter dimer-monomer ansatz states and derivative-free fitting.

Each atom carries the single-site map (1 + z2 s+)(1 + z1 s-), which in the
(g, r) basis is the matrix [[1, z1], [z2, 1 + z1 z2]].  Applied to the
equal-weight superposition of maximal dimer covers, the amplitude of a
configuration c is a sum over covers d of

    coef[k, pc] = z1^(nd - k) * z2^(pc - k) * (1 + z1 z2)^k,   k = |c AND d|,

with nd the dimer count per cover and pc the excitation count of c.  Only
the number of covers at each overlap k matters, so the builder keeps the
count table CNT[c, k] = #{d : |c AND d| = k} and every amplitude is

    a_c = sum_k CNT[c, k] * coef[k, pc(c)].

The overlap with a target psi is sum_{k,p} conj(coef[k, p]) * M[k, p], with
the moments M[k, p] = sum_{c : pc(c) = p} CNT[c, k] psi_c, and the squared
norm is sum_p coef[:, p]^H G_p coef[:, p], with the integer Gram blocks
G_p = CNT_p^T CNT_p.  A fit computes M once per target, after which one
evaluation of its objective costs O(N nd^2), independent of the basis.

The blockade projector is implemented by evaluating amplitudes only on a
constrained basis.  The vacuum limit z1 -> inf is reached smoothly through
the reparameterization w1 = 1/z1, where coef[k, pc] = z2^(pc - k) (w1 + z2)^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .hilbert import StateVector

OVERFLOW_GUARD = 1e6
DEFAULT_SEEDS = ((0.0, 0.0), (0.3, 0.1), (1.0, 0.5), (3.0, 0.2), (10.0, 0.0))
DIAM_TOL = 1e-6         # Nelder-Mead's xatol
# bytes of the (covers x configs) overlap table built at a time
CHUNK_BYTES = 1 << 20


class AnsatzError(ValueError):
    pass


@dataclass
class AnsatzParams:
    z1: complex
    z2: complex
    projected: bool = True

    def __post_init__(self):
        self.z2 = complex(self.z2)
        if not np.isinf(abs(self.z1)):
            self.z1 = complex(self.z1)

    @property
    def vacuum_limit(self):
        return np.isinf(abs(self.z1))


@dataclass
class FitResult:
    params: AnsatzParams
    overlap: float                     # |<phi(params)|psi>| from the state
    n_evaluations: int                 # objective evaluations, all starts
    converged: bool
    limb: str = "rvb"                  # "rvb" or "vacuum" parameterization


class AnsatzBuilder:
    """Cover-count table of a basis, for states, overlaps and norms."""

    def __init__(self, covers, basis):
        if covers.count == 0:
            raise AnsatzError("cover set is empty")
        self.basis = basis
        nd = np.bitwise_count(covers.covers)
        if np.any(nd != nd[0]):
            raise AnsatzError("covers have unequal dimer counts")
        self.n_dimers = nd = int(nd[0])
        # configurations ordered by excitation count: the rows of CNT with
        # pc = p are blocks[p], for p up to the largest count in the basis
        pc = basis.popcounts
        self.order = np.argsort(pc, kind="stable")
        bounds = np.searchsorted(pc[self.order], np.arange(pc.max() + 2))
        self.blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        configs = basis.configs[self.order]
        cnt_type = np.min_scalar_type(covers.count)
        self.CNT = np.empty((basis.dim, nd + 1), dtype=cnt_type)
        chunk = max(1, CHUNK_BYTES // covers.count)
        for lo in range(0, basis.dim, chunk):
            k = np.bitwise_count(covers.covers[:, None]
                                 & configs[None, lo:lo + chunk])
            for j in range(nd + 1):
                self.CNT[lo:lo + chunk, j] = (k == j).sum(axis=0,
                                                          dtype=cnt_type)
        self.G = np.empty((len(self.blocks), nd + 1, nd + 1))
        for p, rows in enumerate(self.blocks):
            cnt = self.CNT[rows].astype(np.float64)
            self.G[p] = cnt.T @ cnt
        self._ks = np.arange(nd + 1)
        self._pcs = np.arange(len(self.blocks))
        # k <= pc on every configuration; the other entries of the
        # coefficient table meet zero counts and are set to exactly zero
        self._valid = self._ks[:, None] <= self._pcs[None, :]
        self._e2 = np.where(self._valid,
                            self._pcs[None, :] - self._ks[:, None], 0)

    def coefficients(self, z1, z2):
        """coef[k, pc] at finite (z1, z2)."""
        z1, z2 = complex(z1), complex(z2)
        if abs(z1) > OVERFLOW_GUARD or abs(z2) > OVERFLOW_GUARD:
            raise AnsatzError(
                "|z| beyond %g; use the vacuum-limit parameterization" % OVERFLOW_GUARD)
        return self._table(z1, z2, 1.0 + z1 * z2)

    def vacuum_coefficients(self, w1, z2):
        """coef[k, pc] on the vacuum limb, w1 = 1/z1."""
        w1, z2 = complex(w1), complex(z2)
        if abs(z2) > OVERFLOW_GUARD or abs(w1) > OVERFLOW_GUARD:
            raise AnsatzError("parameter beyond overflow guard")
        return self._table(1.0, z2, w1 + z2)

    def _table(self, x, z2, u):
        """coef[k, pc] = x^(nd-k) * z2^(pc-k) * u^k, zero where k > pc,
        for pc up to the largest excitation count of the basis."""
        ks = self._ks
        with np.errstate(invalid="ignore"):
            coef = ((x ** (self.n_dimers - ks) * u ** ks)[:, None]
                    * (z2 ** self._pcs)[self._e2])
        return np.where(self._valid, coef, 0.0)

    def build(self, z1, z2):
        """Normalized ansatz state at finite (z1, z2)."""
        return self.state(self.coefficients(z1, z2))

    def build_vacuum_limb(self, w1, z2):
        """Normalized state with w1 = 1/z1 (w1 = 0 is the exact limit)."""
        return self.state(self.vacuum_coefficients(w1, z2))

    def build_params(self, params):
        if params.vacuum_limit:
            return self.build_vacuum_limb(0.0, params.z2)
        return self.build(params.z1, params.z2)

    def state(self, coef):
        """Normalized state with amplitudes sum_k CNT[c, k] coef[k, pc(c)]."""
        ordered = np.empty(self.basis.dim, dtype=np.complex128)
        for p, rows in enumerate(self.blocks):
            ordered[rows] = self.CNT[rows] @ coef[:, p]
        nrm = np.linalg.norm(ordered)
        if nrm == 0.0:
            raise AnsatzError("ansatz state vanishes identically")
        amps = np.empty_like(ordered)
        amps[self.order] = ordered / nrm
        return StateVector(self.basis, amps)

    def moments(self, amplitudes):
        """M[k, p] = sum over configurations c with pc(c) = p of
        CNT[c, k] * amplitudes[c]."""
        ordered = np.asarray(amplitudes, dtype=np.complex128)[self.order]
        moments = np.empty((self.n_dimers + 1, len(self.blocks)),
                           dtype=np.complex128)
        for p, rows in enumerate(self.blocks):
            moments[:, p] = ordered[rows] @ self.CNT[rows]
        return moments

    def overlap(self, coef, moments):
        """|<phi|psi>| for the normalized state of coef and the moments of
        psi, from the Gram blocks alone."""
        per_pc = coef.T.copy()
        norm2 = np.vdot(per_pc, self.G @ per_pc[:, :, None]).real
        if not norm2 > 0.0:
            raise AnsatzError("ansatz state vanishes identically")
        return abs(np.vdot(coef, moments)) / np.sqrt(norm2)


def build_ansatz(params, covers, basis):
    """One-shot construction; use AnsatzBuilder directly for repeated calls."""
    return AnsatzBuilder(covers, basis).build_params(params)


def fit_to_state(psi, covers, basis, warm_start=None, max_evals=2000,
                 builder=None):
    """Maximize |<phi(z1,z2)|psi>| by multistart Nelder-Mead.

    Each seed (and the optional warm start) runs a 4-real-parameter simplex;
    seeds with |z1| >= 5 are optimized on the vacuum limb (w1 = 1/z1).  The
    simplex reads only the moments of psi and the builder's Gram blocks;
    the best start's overlap is then recomputed from its state vector.
    Returns the best FitResult across starts.
    """
    if builder is None:
        builder = AnsatzBuilder(covers, basis)
    target = psi.normalized().amplitudes
    moments = builder.moments(target)

    def objective(coefficients):
        def negative_overlap(x):
            try:
                coef = coefficients(complex(x[0], x[1]), complex(x[2], x[3]))
                return -builder.overlap(coef, moments)
            except AnsatzError:
                return 0.0
        return negative_overlap

    starts = [(complex(a), complex(b)) for a, b in DEFAULT_SEEDS]
    if warm_start is not None:
        z1 = warm_start.z1 if not warm_start.vacuum_limit else 1e9
        starts.append((z1, warm_start.z2))

    best = None
    n_evaluations = 0
    for z1s, z2s in starts:
        on_limb = abs(z1s) >= 5.0
        if on_limb:
            w = 0.0 if abs(z1s) > OVERFLOW_GUARD else 1.0 / z1s
            x0 = [w.real, w.imag, z2s.real, z2s.imag]
            coefficients = builder.vacuum_coefficients
        else:
            x0 = [z1s.real, z1s.imag, z2s.real, z2s.imag]
            coefficients = builder.coefficients
        res = minimize(objective(coefficients), np.asarray(x0, float),
                       method="Nelder-Mead",
                       options={"xatol": DIAM_TOL, "fatol": 1e-14,
                                "maxfev": max_evals, "maxiter": max_evals})
        n_evaluations += int(res.nfev)
        if best is None or res.fun < best[1].fun:
            best = (on_limb, res, coefficients)

    on_limb, res, coefficients = best
    a, z2 = complex(res.x[0], res.x[1]), complex(res.x[2], res.x[3])
    phi = builder.state(coefficients(a, z2))
    if on_limb:
        z1 = np.inf if a == 0 else 1.0 / a
    else:
        z1 = a
    params = AnsatzParams(z1, z2, projected=basis.radius >= 2.0)
    return FitResult(params, float(abs(np.vdot(phi.amplitudes, target))),
                     n_evaluations, bool(res.success),
                     "vacuum" if on_limb else "rvb")


def fit_trajectory(snapshots, covers, basis):
    """Fit each (label, state) pair, warm-starting from the previous optimum.

    Returns a list of (label, FitResult); per-snapshot failures are recorded
    as (label, None) without aborting the scan.
    """
    builder = AnsatzBuilder(covers, basis)
    results = []
    warm = None
    for label, psi in snapshots:
        try:
            fit = fit_to_state(psi, covers, basis, warm_start=warm,
                               builder=builder)
            warm = fit.params
            results.append((label, fit))
        except AnsatzError:
            results.append((label, None))
    return results
