"""Two-parameter dimer-monomer ansatz states and derivative-free fitting.

Each atom carries the single-site map (1 + z2 s+)(1 + z1 s-), which in the
(g, r) basis is the matrix [[1, z1], [z2, 1 + z1 z2]].  Applied to the
equal-weight superposition of maximal dimer covers, the amplitude of a
configuration c is a sum over covers d of

    z1^(nd - k) * z2^(pc - k) * (1 + z1 z2)^k,   k = |c AND d|,

with nd the dimer count per cover and pc the excitation count of c.  The
blockade projector is implemented by evaluating amplitudes only on a
constrained basis.  The vacuum limit z1 -> inf is reached smoothly through
the reparameterization w1 = 1/z1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .hilbert import StateVector

OVERFLOW_GUARD = 1e6
DEFAULT_SEEDS = ((0.0, 0.0), (0.3, 0.1), (1.0, 0.5), (3.0, 0.2), (10.0, 0.0))


class AnsatzError(ValueError):
    pass


def _safe_pow(z, n):
    """z**n elementwise with never-indexed negative exponents zeroed."""
    n = np.asarray(n)
    out = np.where(n >= 0, z, 0.0) ** np.maximum(n, 0)
    return out


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
    overlap: float
    n_evaluations: int
    n_iterations: int
    converged: bool
    limb: str = "rvb"                  # "rvb" or "vacuum" parameterization
    trace: list = field(default_factory=list, repr=False)


class AnsatzBuilder:
    """Caches the cover-overlap table for fast repeated state construction."""

    def __init__(self, covers, basis):
        if covers.count == 0:
            raise AnsatzError("cover set is empty")
        self.basis = basis
        self.covers = covers
        nd = np.bitwise_count(covers.covers)
        if np.any(nd != nd[0]):
            raise AnsatzError("covers have unequal dimer counts")
        self.n_dimers = int(nd[0])
        self.pc = basis.popcounts.astype(np.int64)
        # K[m, c] = |cover_m AND config_c|; FLAT indexes the (k, pc) pair
        # into a small coefficient table so build() is one gather per cover
        self.K = np.empty((covers.count, basis.dim), dtype=np.uint8)
        for m, d in enumerate(covers.covers):
            self.K[m] = np.bitwise_count(basis.configs & d)
        npc = basis.n_atoms + 1
        self.FLAT = self.K.astype(np.int32) * npc + self.pc.astype(np.int32)

    def build(self, z1, z2):
        """Normalized ansatz state at finite (z1, z2)."""
        z1, z2 = complex(z1), complex(z2)
        if abs(z1) > OVERFLOW_GUARD or abs(z2) > OVERFLOW_GUARD:
            raise AnsatzError(
                "|z| beyond %g; use the vacuum-limit parameterization" % OVERFLOW_GUARD)
        nd = self.n_dimers
        ks = np.arange(nd + 1)
        pcs = np.arange(self.basis.n_atoms + 1)
        # coef[k, pc] = z1^(nd-k) * z2^(pc-k) * (1+z1*z2)^k; entries with
        # pc < k are never indexed (k <= pc always)
        with np.errstate(invalid="ignore"):
            coef = (z1 ** (nd - ks)[:, None] *
                    _safe_pow(z2, pcs[None, :] - ks[:, None]) *
                    (1.0 + z1 * z2) ** ks[:, None])
        return self._accumulate(coef)

    def build_vacuum_limb(self, w1, z2):
        """Normalized state with w1 = 1/z1 (w1 = 0 is the exact limit)."""
        w1, z2 = complex(w1), complex(z2)
        if abs(z2) > OVERFLOW_GUARD or abs(w1) > OVERFLOW_GUARD:
            raise AnsatzError("parameter beyond overflow guard")
        ks = np.arange(self.n_dimers + 1)
        pcs = np.arange(self.basis.n_atoms + 1)
        coef = (_safe_pow(z2, pcs[None, :] - ks[:, None]) *
                (w1 + z2) ** ks[:, None])
        return self._accumulate(coef)

    def build_params(self, params):
        if params.vacuum_limit:
            return self.build_vacuum_limb(0.0, params.z2)
        return self.build(params.z1, params.z2)

    def _accumulate(self, coef):
        """Normalized state with amplitudes sum_m coef[K[m, c], pc(c)]."""
        amps = np.zeros(self.basis.dim, dtype=np.complex128)
        flat = coef.ravel()
        for m in range(self.covers.count):
            amps += flat[self.FLAT[m]]
        nrm = np.linalg.norm(amps)
        if nrm == 0.0:
            raise AnsatzError("ansatz state vanishes identically")
        return StateVector(self.basis, amps / nrm)


def build_ansatz(params, covers, basis):
    """One-shot construction; use AnsatzBuilder directly for repeated calls."""
    return AnsatzBuilder(covers, basis).build_params(params)


def _run_simplex(objective, x0, max_evals, diam_tol):
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"xatol": diam_tol, "fatol": 1e-14,
                            "maxfev": max_evals, "maxiter": max_evals})
    return res


def fit_to_state(psi, covers, basis, seeds=DEFAULT_SEEDS, warm_start=None,
                 max_evals=2000, diam_tol=1e-6, builder=None):
    """Maximize |<phi(z1,z2)|psi>| by multistart Nelder-Mead.

    Each seed (and the optional warm start) runs a 4-real-parameter simplex;
    seeds with |z1| >= 5 are optimized on the vacuum limb (w1 = 1/z1).
    Returns the best FitResult across starts.
    """
    if builder is None:
        builder = AnsatzBuilder(covers, basis)
    target = psi.normalized().amplitudes

    def overlap_z(x):
        try:
            phi = builder.build(complex(x[0], x[1]), complex(x[2], x[3]))
        except AnsatzError:
            return 0.0
        return abs(np.vdot(phi.amplitudes, target))

    def overlap_w(x):
        try:
            phi = builder.build_vacuum_limb(complex(x[0], x[1]),
                                            complex(x[2], x[3]))
        except AnsatzError:
            return 0.0
        return abs(np.vdot(phi.amplitudes, target))

    starts = [(complex(a), complex(b)) for a, b in seeds]
    if warm_start is not None:
        z1 = warm_start.z1 if not warm_start.vacuum_limit else 1e9
        starts.append((z1, warm_start.z2))

    best = None
    for z1s, z2s in starts:
        on_limb = abs(z1s) >= 5.0
        if on_limb:
            w = 0.0 if abs(z1s) > OVERFLOW_GUARD else 1.0 / z1s
            x0 = [w.real, w.imag, z2s.real, z2s.imag]
            fn = overlap_w
        else:
            x0 = [z1s.real, z1s.imag, z2s.real, z2s.imag]
            fn = overlap_z
        res = _run_simplex(lambda x: -fn(x), np.asarray(x0, float),
                           max_evals, diam_tol)
        ov = -float(res.fun)
        if best is None or ov > best.overlap:
            if fn is overlap_w:
                w1 = complex(res.x[0], res.x[1])
                z1 = np.inf if w1 == 0 else 1.0 / w1
                limb = "vacuum"
            else:
                z1 = complex(res.x[0], res.x[1])
                limb = "rvb"
            params = AnsatzParams(z1, complex(res.x[2], res.x[3]),
                                  projected=basis.radius >= 2.0)
            best = FitResult(params, ov, int(res.nfev), int(res.nit),
                             bool(res.success), limb)
    return best


def fit_trajectory(snapshots, covers, basis, **kwargs):
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
                               builder=builder, **kwargs)
            warm = fit.params
            results.append((label, fit))
        except AnsatzError:
            results.append((label, None))
    return results


def fits_to_csv(results, path):
    with open(path, "w") as fh:
        fh.write("delta_over_omega,overlap,re_z1,im_z1,re_z2,im_z2,converged\n")
        for label, fit in results:
            if fit is None:
                fh.write("%.17g,nan,nan,nan,nan,nan,0\n" % label)
                continue
            z1, z2 = fit.params.z1, fit.params.z2
            re1 = np.inf if fit.params.vacuum_limit else z1.real
            im1 = 0.0 if fit.params.vacuum_limit else z1.imag
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n" % (
                label, fit.overlap, re1, im1, z2.real, z2.imag,
                1 if fit.converged else 0))
