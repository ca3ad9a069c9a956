"""Hamiltonians over constrained bases and smoothed sweep schedules.

Energies and times are in units of the maximum Rabi frequency, lengths in
units of the minimum inter-atom distance.  The hard-blockade model carries
no diagonal interaction (the constraint lives in the basis); the full model
adds Van-der-Waals tails V/r^6 for pairs beyond the constraint radius up to
a cutoff distance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hilbert import ConstrainedBasis, symmetry_orbits

SQRT13 = math.sqrt(13.0)
DEFAULT_BLOCKADE_RADIUS = 2.4
FLIP_BLOCK = 1 << 16     # (representative, atom) pairs per block of flip rows

PXP = "PXP"
FULL_RYDBERG = "FullRydberg"


class ModelError(ValueError):
    pass


@dataclass
class HamiltonianSpec:
    variant: str = PXP
    constraint_radius: float = 2.0

    def __post_init__(self):
        if self.variant not in (PXP, FULL_RYDBERG):
            raise ModelError("unknown Hamiltonian variant %r" % self.variant)


def full_rydberg_spec(constraint_radius=1.0):
    return HamiltonianSpec(variant=FULL_RYDBERG, constraint_radius=constraint_radius)


def tail_pairs(cluster, constraint_radius, cutoff):
    """(i, j, V_ij) for pairs with R_c < r <= cutoff, V_ij = R_b^6 / r^6
    left as coefficient of R_b^6 (caller multiplies)."""
    dist = cluster.pair_distances
    pairs = []
    n = cluster.n_atoms
    for i in range(n):
        for j in range(i + 1, n):
            r = dist[i, j]
            if constraint_radius + 1e-9 < r <= cutoff + 1e-9:
                pairs.append((i, j, 1.0 / r**6))
    return pairs


class HamiltonianOperator:
    """H(Omega, Delta) = Omega/2 * X - Delta * n + tails over a fixed basis.

    The diagonal vectors are assembled once and the single-bit-flip
    structure X on first use; apply() is then one sparse product and two
    vector scalings.  H commutes with every atom permutation that keeps
    the cluster's pair distances (``Cluster.symmetries``), and ``sector``
    gives its block in the sector symmetric under all of them.
    """

    def __init__(self, spec, basis, cluster=None):
        if abs(spec.constraint_radius - basis.radius) > 1e-12:
            raise ModelError(
                "basis constraint radius %.3f does not match spec %.3f"
                % (basis.radius, spec.constraint_radius)
            )
        self.spec = spec
        self.basis = basis
        self.cluster = cluster
        self._sector = None
        self.n_diag = basis.popcounts.astype(np.float64)
        if spec.variant == FULL_RYDBERG:
            if cluster is None:
                raise ModelError("full Rydberg model needs the cluster geometry")
            self.tail_diag = diagonal_interaction(
                basis, cluster, spec.constraint_radius, SQRT13
            ) * DEFAULT_BLOCKADE_RADIUS ** 6
        else:
            self.tail_diag = np.zeros(basis.dim)

    @property
    def dim(self):
        return self.basis.dim

    @functools.cached_property
    def flip(self):
        return _flip_matrix(self.basis)

    @functools.cached_property
    def _complex_flip(self):
        """``flip`` with complex128 values, sharing its index arrays."""
        flip = self.flip
        return sp.csr_matrix((flip.data.astype(np.complex128), flip.indices,
                              flip.indptr), shape=flip.shape, copy=False)

    _diag_memo = (None, None)     # (delta, tail_diag - delta * n_diag)

    def _diagonal(self, delta):
        """tail_diag - delta * n_diag, kept for the last delta asked for:
        the Lanczos iterations of one exponential all share it."""
        key, diag = self._diag_memo
        if key != delta:
            diag = self.tail_diag - delta * self.n_diag
            self._diag_memo = (delta, diag)
        return diag

    def apply(self, psi, omega, delta):
        diag = self._diagonal(delta)
        if omega == 0.0:
            return diag * psi
        if np.iscomplexobj(psi):
            # H is real, so a real value times x + iy has no cross terms:
            # the one-vector complex kernel returns the bytes of two real
            # products, faster than the two-vector kernel on the (dim, 2)
            # real view.  The complex values cost 16 more bytes per stored
            # value: +2 MiB for the N = 36 sector, +50 MiB at N = 48.
            out = self._complex_flip @ psi
        else:
            out = self.flip @ psi
        out *= 0.5 * omega
        out += diag * psi
        return out

    def sector(self):
        """(P, reduced operator) of the fully symmetric sector.

        P is ``hilbert.symmetry_orbits``' isometry for the cluster's
        symmetry group (P = 1 without a cluster).  The reduced operator is H
        on the orbit states, built once from the representatives: flip
        P.T @ flip @ P, and the diagonals, which are constant on orbits.
        H P = P H_r, so a state of the sector evolves as its P.T image does.
        """
        if self._sector is None:
            perms = () if self.cluster is None else self.cluster.symmetries
            iso, reps = orbits = symmetry_orbits(self.basis, perms)
            # not __init__, which would keep the cluster and redo the diagonals
            red = HamiltonianOperator.__new__(HamiltonianOperator)
            red.spec, red.cluster, red._sector = self.spec, None, None
            red.basis = ConstrainedBasis(self.basis.n_atoms,
                                         self.basis.configs[reps], self.basis.radius)
            red.flip = _flip_matrix(self.basis, orbits)
            red.n_diag, red.tail_diag = self.n_diag[reps], self.tail_diag[reps]
            self._sector = (iso, red)
        return self._sector

    def aslinearoperator(self, omega, delta):
        import scipy.sparse.linalg as spla
        return spla.LinearOperator(
            (self.dim, self.dim),
            matvec=lambda v: self.apply(v, omega, delta),
            dtype=np.float64,
        )

    def dense(self, omega, delta):
        h = 0.5 * omega * self.flip.toarray()
        h += np.diag(self.tail_diag - delta * self.n_diag)
        return h


def _flip_matrix(basis, orbits=None):
    """Symmetric matrix of the single legal flips between configurations.

    With ``orbits``, the (P, reps) of ``hilbert.symmetry_orbits``, it is
    P.T @ flip @ P, built from the representatives alone, one row per
    orbit: row a gets n_ab * w_a * w_b at orbit b, with w = 1/sqrt(|orbit|)
    and n_ab = m_ab * |O_a| the flips between the two orbits, m_ab of them
    from a's representative (n_ab = n_ba, so the matrix is exactly
    symmetric).  Without, P = 1: every configuration is its own orbit and
    every weight is 1.

    The rows are built in blocks of about FLIP_BLOCK (representative, atom)
    pairs, so that the working arrays stay the size of one block.  A block
    keeps only its compact (column, m_ab) pairs until every row's count is
    known, and the CSR arrays are then filled from them.
    """
    iso, reps = symmetry_orbits(basis) if orbits is None else orbits
    orbit = iso.indices                 # P has one entry per row
    sizes = np.bincount(orbit).astype(np.float64)
    weight = 1.0 / np.sqrt(sizes)
    n_reps, n_atoms = len(reps), basis.n_atoms
    bits = np.uint64(1) << np.arange(n_atoms, dtype=np.uint64)
    step = max(1, FLIP_BLOCK // n_atoms)
    blocks = [slice(lo, min(lo + step, n_reps)) for lo in range(0, n_reps, step)]

    def partners(rows):
        """The orbits reached by flipping each atom of each representative,
        ascending per row, -1 for an illegal flip; and the first entry of
        each run of one orbit."""
        pos = basis.positions(bits[:, None] ^ basis.configs[reps[rows]])
        orbits_of = np.where(pos >= 0, orbit[pos], -1).T.copy()
        orbits_of.sort(axis=1)
        first = orbits_of >= 0
        first[:, 1:] &= orbits_of[:, 1:] != orbits_of[:, :-1]
        return orbits_of, first

    index = orbit.dtype if n_reps * n_atoms < 2**31 else np.int64
    indptr = np.zeros(n_reps + 1, dtype=index)
    pairs = []
    for rows in blocks:
        orbits_of, first = partners(rows)
        indptr[rows.start + 1:rows.stop + 1] = first.sum(axis=1)
        # m_ab: each run of one orbit ends at the next one or its row's end
        at = np.flatnonzero(first)
        ends = np.append(at[1:], first.size)
        m_ab = np.minimum(ends, (at // n_atoms + 1) * n_atoms) - at
        pairs.append((orbits_of.ravel()[at], m_ab.astype(np.uint8)))
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=index)
    data = np.empty(indptr[-1])
    for rows, (cols, m_ab) in zip(blocks, pairs):
        count = np.diff(indptr[rows.start:rows.stop + 1])
        out = slice(indptr[rows.start], indptr[rows.stop])
        indices[out] = cols
        values = weight[cols]
        values *= np.repeat(weight[rows], count)
        n_ab = np.repeat(sizes[rows], count)
        n_ab *= m_ab
        values *= n_ab
        data[out] = values
    return sp.csr_matrix((data, indices, indptr), shape=(n_reps, n_reps))


def diagonal_interaction(basis, cluster, constraint_radius, cutoff):
    """Per-config sum over tail pairs of 1/r^6 (coefficient of R_b^6)."""
    configs = basis.configs
    diag = np.zeros(basis.dim)
    for i, j, coeff in tail_pairs(cluster, constraint_radius, cutoff):
        both = ((configs >> np.uint64(i)) & (configs >> np.uint64(j)) & np.uint64(1))
        diag += coeff * both.astype(np.float64)
    return diag


# --- sweep schedules -----------------------------------------------------

class _PiecewiseLinear:
    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        # exact antiderivative at breakpoints
        seg = np.diff(self.xs) * 0.5 * (self.ys[:-1] + self.ys[1:])
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])

    def __call__(self, x):
        return float(np.interp(x, self.xs, self.ys))

    def integral_to(self, x):
        i = int(np.searchsorted(self.xs, x, side="right") - 1)
        i = min(max(i, 0), len(self.xs) - 2)
        x0, x1 = self.xs[i], self.xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        dx = x - x0
        slope = (y1 - y0) / (x1 - x0)
        return self.cum[i] + y0 * dx + 0.5 * slope * dx * dx

    def smoothed(self, x, half_width):
        if half_width <= 0.0:
            return self(x)
        lo, hi = x - half_width, x + half_width
        return (self.integral_to(hi) - self.integral_to(lo)) / (hi - lo)


# name: (stage durations as fractions of T, delta0, delta1); two_stage has
# no switch-off stage, so Delta keeps ramping until the end
PROTOCOLS = {"default": ((0.1, 0.8, 0.1), -5.0, 1.5),
             "two_stage": ((0.1, 0.9, 0.0), -5.0, 3.5)}


@dataclass
class SweepSchedule:
    """Three-stage ramp: switch Omega on, sweep Delta, switch Omega off.

    The piecewise-linear profiles are smoothed by a uniform (moving-average)
    filter whose window shrinks near t = 0 and t = T, and closes within
    1e-9 T of them, so that the boundary values are exact.  A zero-length
    stage at either end adds no segment: its slope would be undefined.
    """

    total_time: float
    t1: float
    t2: float
    t3: float
    delta0: float = PROTOCOLS["default"][1]
    delta1: float = PROTOCOLS["default"][2]
    smoothing_window: float = None

    def __post_init__(self):
        T = self.total_time
        if T <= 0:
            raise ModelError("total time must be positive")
        stages = (self.t1, self.t2, self.t3)
        if min(stages) < 0 or abs(sum(stages) - T) > 1e-9 * max(T, 1.0):
            raise ModelError("stage durations must be >= 0 and sum to T")
        if self.smoothing_window is None:
            self.smoothing_window = 0.025 * T
        # knots bound the stages that last; the last is T itself, not a sum
        kept = [k for k, t in enumerate(stages) if t > 0]
        knots = slice(kept[0], kept[-1] + 2)
        xs = [0.0, self.t1, self.t1 + self.t2, T][knots]
        xs[-1] = T
        self._omega = _PiecewiseLinear(xs, [0.0, 1.0, 1.0, 0.0][knots])
        self._delta = _PiecewiseLinear(
            xs, [self.delta0, self.delta0, self.delta1, self.delta1][knots])

    @classmethod
    def _named(cls, name, total_time, delta0, delta1, smoothing_window):
        fractions, default0, default1 = PROTOCOLS[name]
        return cls(total_time, *(f * total_time for f in fractions),
                   default0 if delta0 is None else delta0,
                   default1 if delta1 is None else delta1, smoothing_window)

    @classmethod
    def default_protocol(cls, total_time, delta0=None, delta1=None,
                         smoothing_window=None):
        """T1 = T3 = 0.1 T, T2 = 0.8 T; a Delta left None is the table's."""
        return cls._named("default", total_time, delta0, delta1,
                          smoothing_window)

    @classmethod
    def two_stage_protocol(cls, total_time, delta0=None, delta1=None,
                           smoothing_window=None):
        """T1 = 0.1 T, T2 = 0.9 T and no switch-off stage."""
        return cls._named("two_stage", total_time, delta0, delta1,
                          smoothing_window)

    def _half_width(self, t):
        w = min(0.5 * self.smoothing_window, t, self.total_time - t)
        return w if w >= 1e-9 * self.total_time else 0.0

    def omega(self, t):
        self._check(t)
        return self._omega.smoothed(t, self._half_width(t))

    def delta(self, t):
        self._check(t)
        return self._delta.smoothed(t, self._half_width(t))

    def _check(self, t):
        if t < -1e-12 or t > self.total_time + 1e-12:
            raise ModelError("time %.6g outside [0, %.6g]" % (t, self.total_time))

    def time_at_detuning_ratio(self, ratio):
        """First time with Delta(t)/Omega(t) = ratio during the main sweep."""
        from scipy.optimize import brentq
        f = lambda t: self.delta(t) - ratio * self.omega(t)
        lo, hi = self.t1, self.t1 + self.t2
        if f(lo) > 0 or f(hi) < 0:
            raise ModelError("detuning ratio %.3f not reached in stage 2" % ratio)
        return brentq(f, lo, hi, xtol=1e-12 * self.total_time)
