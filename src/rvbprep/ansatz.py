"""Two-parameter dimer-monomer ansatz states and their fit by exact gradients.

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

The fit maximizes f2 = |s|^2 / B, with s = sum_{k,p} coef[k, p] conj(M[k, p])
and B the squared norm.  coef is holomorphic in (z1, z2), and so is s, so
the Wirtinger derivative by either parameter z is

    d f2 / dz = (conj(s) s' - f2 B') / B,
    s' = sum coef' conj(M),   B' = sum_p (G_p conj(coef_p)) . coef'_p,

with coef' = d coef / dz read off the same monomials:
d coef / dz1 = ((nd - k) / z1 + k z2 / (1 + z1 z2)) coef and
d coef / dz2 = ((pc - k) / z2 + k z1 / (1 + z1 z2)) coef, each term taken as
n v^(n - 1) of a power, so 0^0 = 1 needs no special case.  The real
gradient in (Re z, Im z) is (2 Re, -2 Im) of d f2 / dz.

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
GRAD_TOL = 1e-10        # converged: |grad f2| at the optimum, f2 = overlap^2
NEWTON_STEP = 1e-5      # difference step of the polishing Hessian
NEWTON_ITERATIONS = 3
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
                                       # and the polish
    converged: bool                    # gradient_norm <= GRAD_TOL
    gradient_norm: float               # |grad |<phi|psi>|^2| at the optimum
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
        # coef[k, pc] = x^(nd - k) * u^k * z2^(pc - k) is read off the
        # powers v^n, n < len(_ns) - 1, of v = x, u, z2 and a last column
        # of zeros: k <= pc on every configuration, and the other entries
        # meet zero counts, so they index the zeros
        ks = np.arange(nd + 1)
        pcs = np.arange(len(self.blocks))
        self._ns = np.arange(max(nd + 1, len(pcs)) + 1)
        self._ex = nd - ks
        self._ez = np.where(ks[:, None] <= pcs[None, :],
                            pcs[None, :] - ks[:, None], self._ns[-1])

    def coefficients(self, z1, z2):
        """coef[k, pc] at finite (z1, z2)."""
        return self.jet(z1, z2)[0]

    def vacuum_coefficients(self, w1, z2):
        """coef[k, pc] on the vacuum limb, w1 = 1/z1."""
        return self.jet(w1, z2, vacuum=True)[0]

    def jet(self, a, z2, vacuum=False):
        """coef[k, pc] and its derivatives by a and by z2, stacked as
        (3, nd + 1, n_pc), for pc up to the largest excitation count of the
        basis; a is z1, or w1 = 1/z1 with vacuum=True.

        With x = z1 and u = 1 + z1 z2 (x = 1 and u = w1 + z2 on the vacuum
        limb), coef = x^(nd - k) u^k z2^(pc - k), so
        d coef / da = ((nd - k) dx/da / x + k du/da / u) coef and
        d coef / dz2 = ((pc - k) / z2 + k du/dz2 / u) coef.
        """
        a, z2 = complex(a), complex(z2)
        if abs(a) > OVERFLOW_GUARD or abs(z2) > OVERFLOW_GUARD:
            raise AnsatzError(
                "|z| beyond %g; use the vacuum-limit parameterization"
                % OVERFLOW_GUARD)
        if vacuum:
            x, u, dx_da, du_da, du_dz2 = 1.0, a + z2, 0.0, 1.0, 1.0
        else:
            x, u, dx_da, du_da, du_dz2 = a, 1.0 + a * z2, 1.0, z2, a
        # powers and their derivatives n v^(n - 1), so 0^0 = 1 and
        # w1 = 0 or z2 = 0 need no special case
        pw = np.array([x, u, z2], dtype=np.complex128)[:, None] ** self._ns
        pw[:, -1] = 0.0
        dpw = np.zeros_like(pw)
        np.multiply(self._ns[1:-1], pw[:, :-2], out=dpw[:, 1:-1])
        xs, dxs = pw[0, self._ex], dpw[0, self._ex]
        us, dus = pw[1, :self.n_dimers + 1], dpw[1, :self.n_dimers + 1]
        zs, dzs = pw[2, self._ez], dpw[2, self._ez]
        xu = xs * us
        out = np.empty((3,) + zs.shape, dtype=np.complex128)
        np.multiply(xu[:, None], zs, out=out[0])
        np.multiply((dx_da * dxs * us + du_da * xs * dus)[:, None], zs,
                    out=out[1])
        out[2] = (du_dz2 * xs * dus)[:, None] * zs + xu[:, None] * dzs
        return out

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

    def squared_overlap(self, a, z2, moments, vacuum=False):
        """f2 = |<phi|psi>|^2 at (a, z2) and its gradient in
        (Re a, Im a, Re z2, Im z2), from the moments of psi and the Gram
        blocks; a is z1, or w1 with vacuum=True.

        With s = sum coef conj(M) and B = sum_p coef_p^H G_p coef_p,
        f2 = |s|^2 / B.  s is holomorphic in z = (a, z2), so the Wirtinger
        derivative is d f2 / dz = (conj(s) s' - f2 B') / B, with
        s' = sum coef' conj(M) and B' = sum coef' conj(G_p coef_p), and the
        real gradient of f2 is (2 Re, -2 Im) of it per parameter.
        """
        jet = self.jet(a, z2, vacuum)
        # f2 and its gradient do not change when the jet is scaled by a
        # real number; B grows as |coef|^2, up to |u|^(2 nd), and would
        # overflow near the guard on large clusters
        jet /= np.abs(jet[0]).max()
        # G_p coef_p, laid out as coef
        g_coef = (self.G @ jet[0].T[:, :, None])[:, :, 0].T
        flat = jet.reshape(3, -1)
        s = flat @ np.conj(moments).ravel()
        norm2 = flat @ np.conj(g_coef).ravel()
        b = norm2[0].real
        if not b > 0.0:
            raise AnsatzError("ansatz state vanishes identically")
        f2 = abs(s[0]) ** 2 / b
        wirtinger = (np.conj(s[0]) * s[1:] - f2 * norm2[1:]) / b
        grad = np.empty(4)
        grad[0::2] = 2.0 * wirtinger.real
        grad[1::2] = -2.0 * wirtinger.imag
        return f2, grad


def build_ansatz(params, covers, basis):
    """One-shot construction; use AnsatzBuilder directly for repeated calls."""
    return AnsatzBuilder(covers, basis).build_params(params)


def fit_to_state(psi, covers, basis, warm_start=None, max_evals=2000,
                 builder=None):
    """Maximize |<phi(z1,z2)|psi>| by multistart L-BFGS.

    Each seed (and the optional warm start) runs L-BFGS-B on the squared
    overlap and its exact gradient (AnsatzBuilder.squared_overlap), at most
    max_evals evaluations per start; seeds with |z1| >= 5 are optimized on
    the vacuum limb (w1 = 1/z1).  The objective reads only the moments of
    psi and the builder's Gram blocks.  The best start is polished by
    Newton steps on the same gradient, and its overlap is then recomputed
    from its state vector.  The fit has converged when the gradient norm
    at the returned optimum is at most GRAD_TOL; n_evaluations counts the
    evaluations of every start and of the polish.
    """
    if builder is None:
        builder = AnsatzBuilder(covers, basis)
    target = psi.normalized().amplitudes
    moments = builder.moments(target)

    def negative_squared_overlap(x, vacuum):
        try:
            f2, grad = builder.squared_overlap(complex(x[0], x[1]),
                                               complex(x[2], x[3]),
                                               moments, vacuum)
        except AnsatzError:
            return 0.0, np.zeros(4)
        return -f2, -grad

    starts = [(complex(a), complex(b)) for a, b in DEFAULT_SEEDS]
    if warm_start is not None:
        z1 = warm_start.z1 if not warm_start.vacuum_limit else 1e9
        starts.append((z1, warm_start.z2))

    best = None
    n_evaluations = 0
    for z1s, z2s in starts:
        on_limb = abs(z1s) >= 5.0
        if on_limb:
            a = 0.0 if abs(z1s) > OVERFLOW_GUARD else 1.0 / z1s
        else:
            a = z1s
        res = minimize(negative_squared_overlap,
                       np.array([a.real, a.imag, z2s.real, z2s.imag]),
                       args=(on_limb,), jac=True, method="L-BFGS-B",
                       options={"maxfun": max_evals, "maxiter": max_evals,
                                "ftol": 0.0, "gtol": GRAD_TOL})
        n_evaluations += int(res.nfev)
        if best is None or res.fun < best[1].fun:
            best = (on_limb, res)

    on_limb, res = best
    x, grad, n_newton = _newton_polish(
        lambda x: negative_squared_overlap(x, on_limb), res.x, res.fun,
        res.jac)
    n_evaluations += n_newton
    a, z2 = complex(x[0], x[1]), complex(x[2], x[3])
    phi = builder.state(builder.jet(a, z2, on_limb)[0])
    if on_limb:
        z1 = np.inf if a == 0 else 1.0 / a
    else:
        z1 = a
    params = AnsatzParams(z1, z2, projected=basis.radius >= 2.0)
    gradient_norm = float(np.linalg.norm(grad))
    return FitResult(params, float(abs(np.vdot(phi.amplitudes, target))),
                     n_evaluations, gradient_norm <= GRAD_TOL, gradient_norm,
                     "vacuum" if on_limb else "rvb")


def _newton_polish(fun, x, value, grad):
    """Newton steps on the exact gradient of fun, with the Hessian from its
    central differences, while that is positive definite and a step
    shrinks the gradient without raising the value beyond rounding.
    Returns (x, gradient at x, evaluations).

    L-BFGS-B stops where f2 no longer resolves its own change, about 1e-8
    from the optimum in z; the gradient still resolves z there, so these
    steps settle z to rounding."""
    n = 0
    for _ in range(NEWTON_ITERATIONS):
        hess = np.empty((x.size, x.size))
        for i in range(x.size):
            dx = np.zeros(x.size)
            dx[i] = NEWTON_STEP
            hess[i] = fun(x + dx)[1] - fun(x - dx)[1]
        n += 2 * x.size
        hess = (hess + hess.T) / (4.0 * NEWTON_STEP)
        if not np.linalg.eigvalsh(hess)[0] > 0.0:
            break
        trial = x - np.linalg.solve(hess, grad)
        trial_value, trial_grad = fun(trial)
        n += 1
        if not (np.linalg.norm(trial_grad) < np.linalg.norm(grad)
                and trial_value <= value + 4 * np.finfo(float).eps):
            break
        x, value, grad = trial, trial_value, trial_grad
    return x, grad, n


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
