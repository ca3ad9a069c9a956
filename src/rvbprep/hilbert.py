"""Blockade-constrained configuration bases and dimer-cover states.

Configurations are stored as unsigned 64-bit words, bit i = excitation of
atom i, kept sorted ascending so that index recovery is a binary search and
exported artifacts are stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

BASIS_BUDGET_GIB = 8.0
ORBIT_BLOCK = 1 << 15     # (configuration, permutation) pairs per block


class CapacityError(MemoryError):
    pass


class BasisError(ValueError):
    pass


@dataclass
class ConstrainedBasis:
    n_atoms: int
    configs: np.ndarray               # sorted uint64
    radius: float = 0.0               # constraint radius used (0 = none)
    _popcounts: np.ndarray = field(default=None, repr=False)
    _cuts: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.configs = np.ascontiguousarray(self.configs, dtype=np.uint64)

    @property
    def dim(self):
        return len(self.configs)

    @property
    def popcounts(self):
        if self._popcounts is None:
            self._popcounts = np.bitwise_count(self.configs).astype(np.int64)
        return self._popcounts

    def cut(self, mask):
        """(ridx, cidx, nr, nc) of the bipartition of the atoms by ``mask``.

        Each configuration's restriction to one side is numbered among that
        side's nr distinct restrictions (ridx, int32), and its restriction to
        the other side among the nc of those (cidx); the side with fewer
        restrictions comes first.  Cached per mask, and a mask and its
        complement share one entry.
        """
        full = (1 << self.n_atoms) - 1
        key = min(int(mask), full & ~int(mask))
        if key not in self._cuts:
            sides = []
            for m in (key, full & ~key):
                vals, idx = np.unique(self.configs & np.uint64(m),
                                      return_inverse=True)
                sides.append((idx.astype(np.int32), len(vals)))
            (ridx, nr), (cidx, nc) = sorted(sides, key=lambda side: side[1])
            self._cuts[key] = (ridx, cidx, nr, nc)
        return self._cuts[key]

    def index_of(self, config):
        idx = int(np.searchsorted(self.configs, np.uint64(config)))
        if idx >= self.dim or self.configs[idx] != np.uint64(config):
            raise BasisError("configuration %d not in basis" % config)
        return idx

    def indices_of(self, configs):
        configs = np.asarray(configs, dtype=np.uint64)
        idx = np.searchsorted(self.configs, configs)
        if np.any(idx >= self.dim) or np.any(self.configs[idx % self.dim] != configs):
            raise BasisError("some configurations not in basis")
        return idx

    def positions(self, configs):
        """Index of each configuration, or -1 where it is not in the basis."""
        configs = np.asarray(configs, dtype=np.uint64)
        idx = np.searchsorted(self.configs, configs)
        np.minimum(idx, self.dim - 1, out=idx)
        idx[self.configs[idx] != configs] = -1
        return idx

    def contains(self, configs):
        return self.positions(configs) >= 0


@dataclass
class StateVector:
    basis: ConstrainedBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if len(self.amplitudes) != self.basis.dim:
            raise BasisError("amplitude length does not match basis dimension")

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self):
        return StateVector(self.basis, self.amplitudes / self.norm)

    def sector_weights(self):
        """Probability per excitation-number sector, index = excitation count."""
        w = np.abs(self.amplitudes) ** 2
        return np.bincount(self.basis.popcounts, weights=w,
                           minlength=self.basis.n_atoms + 1)


@dataclass
class DimerCoverSet:
    n_atoms: int
    covers: np.ndarray                # sorted uint64

    def __post_init__(self):
        self.covers = np.ascontiguousarray(self.covers, dtype=np.uint64)

    @property
    def count(self):
        return len(self.covers)


def enumerate_basis(graph):
    """All independent sets of the constraint graph, ascending as integers.

    Incremental construction over atoms: every independent set either omits
    atom k or adds it to an independent set of the earlier atoms compatible
    with atom k's blocked mask.
    """
    n = graph.n_atoms
    if n > 64:
        raise BasisError("more than 64 atoms not supported")
    masks = graph.blocked_masks()
    lower_masks = [np.uint64(masks[k] & ((1 << k) - 1)) for k in range(n)]
    configs = np.zeros(1, dtype=np.uint64)
    budget_words = int(BASIS_BUDGET_GIB * 2**30) // 8
    for k in range(n):
        ok = (configs & lower_masks[k]) == 0
        add = configs[ok] | np.uint64(1 << k)
        if len(configs) + len(add) > budget_words:
            raise CapacityError(
                "constrained basis exceeds memory budget of %.1f GiB"
                % BASIS_BUDGET_GIB
            )
        configs = np.concatenate([configs, add])
    configs.sort()
    return ConstrainedBasis(n_atoms=n, configs=configs, radius=graph.radius)


def full_basis(n_atoms):
    """The unconstrained 2^N basis."""
    if n_atoms > 26:
        raise CapacityError("full basis beyond 2^26 not supported")
    return ConstrainedBasis(n_atoms=n_atoms,
                            configs=np.arange(1 << n_atoms, dtype=np.uint64))


def enumerate_maximal_covers(cluster):
    """Configurations covering every kagome vertex exactly once.

    Returns an empty set when the cluster admits no perfect matching (odd
    vertex count).  The uint64 packing limits it to 64 atoms; use
    cover_bitsets directly on larger clusters.
    """
    covers = np.array(cover_bitsets(cluster), dtype=np.uint64)
    return DimerCoverSet(n_atoms=cluster.n_atoms, covers=covers)


def cover_bitsets(cluster):
    """Dimer covers as ascending Python-int bitsets, bit i = atom i.

    Exact-cover backtracking over vertices, branching on the vertex with the
    fewest remaining candidate atoms.
    """
    nv = cluster.n_vertices
    incidence = cluster.vertex_incidence
    atom_vertices = {}
    for v, atoms in incidence.items():
        for a in atoms:
            atom_vertices.setdefault(a, []).append(v)

    covers = []
    covered = [False] * nv
    forbidden = [0] * cluster.n_atoms   # nesting depth markers

    def candidates(v):
        return [a for a in incidence[v] if not forbidden[a]]

    def search(config, depth):
        open_vs = [v for v in range(nv) if not covered[v]]
        if not open_vs:
            covers.append(config)
            return
        v = min(open_vs, key=lambda u: len(candidates(u)))
        for a in candidates(v):
            vs = atom_vertices[a]
            if any(covered[u] for u in vs):
                continue
            touched = []
            for u in vs:
                covered[u] = True
                for b in incidence[u]:
                    if not forbidden[b]:
                        forbidden[b] = depth
                        touched.append(b)
            search(config | (1 << a), depth + 1)
            for u in vs:
                covered[u] = False
            for b in touched:
                forbidden[b] = 0

    search(0, 1)
    return sorted(covers)


def symmetry_orbits(basis, perms=()):
    """The isometry onto the sector symmetric under a group of atom
    permutations.

    ``perms`` holds the group, one permutation per row (atom i goes to
    perm[i]), e.g. ``Cluster.symmetries``; it must map the basis to itself.
    Returns (P, reps): P is the real CSR matrix of shape (dim, n_orbits)
    with P[c, a] = 1/sqrt(|orbit a|), so that its columns are the
    normalized orbit sums and P.T @ P = 1; reps holds the basis index of
    each orbit's label, its smallest index, in ascending order.  Without
    permutations every configuration is its own orbit and P = 1.

    Each configuration is labelled by its canonical configuration, the
    smallest of its images.  The images are assembled from one 256-entry
    table of permuted words per byte of the configuration word and per
    permutation, over blocks of about ORBIT_BLOCK (configuration,
    permutation) pairs, so that the working arrays stay in cache.
    """
    if len(perms) == 0:
        reps = np.arange(basis.dim)
        column = reps
    else:
        perms = np.asarray(perms, dtype=np.uint64)
        n_bytes = (basis.n_atoms + 7) // 8
        # tables[b][g, v] = image under perms[g] of the word whose byte b is v
        values = np.arange(256, dtype=np.uint64)
        tables = np.zeros((n_bytes, len(perms), 256), dtype=np.uint64)
        for i in range(basis.n_atoms):
            b, k = divmod(i, 8)
            tables[b] |= ((values >> np.uint64(k)) & np.uint64(1)) \
                << perms[:, i, None]
        # column b holds bits 8b .. 8b + 7 of each word
        octets = basis.configs.astype("<u8", copy=False).view(np.uint8)
        octets = octets.reshape(-1, 8)
        canon = np.empty_like(basis.configs)
        step = max(1, ORBIT_BLOCK // len(perms))
        for lo in range(0, basis.dim, step):
            block = octets[lo:lo + step]
            image = tables[0][:, block[:, 0]]
            for b in range(1, n_bytes):
                image |= tables[b][:, block[:, b]]
            image.min(axis=0, out=canon[lo:lo + step])
        labels, column = np.unique(canon, return_inverse=True)
        # an orbit's smallest configuration is its smallest basis index
        reps = basis.indices_of(labels)
    sizes = np.bincount(column)
    iso = sp.csr_matrix((1.0 / np.sqrt(sizes[column]),
                         (np.arange(basis.dim), column)),
                        shape=(basis.dim, len(reps)))
    return iso, reps


def rvb_state(covers, basis):
    """Equal-weight superposition of all maximal dimer coverings."""
    if covers.count == 0:
        raise BasisError("cover set is empty; no RVB state exists")
    idx = basis.indices_of(covers.covers)   # raises if a cover is missing
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[idx] = 1.0 / np.sqrt(covers.count)
    return StateVector(basis, amps)


def project_to_subspace(psi, target):
    """Project onto a sub-basis and renormalize.

    Returns (projected_state, weight) with weight the squared norm of the
    retained component before renormalization.
    """
    amps = psi.amplitudes[psi.basis.indices_of(target.configs)]
    weight = float(np.vdot(amps, amps).real)
    if weight < 1e-14:
        raise BasisError("state has no weight in the target subspace")
    return StateVector(target, amps / np.sqrt(weight)), weight


def abs_state(psi):
    """Replace amplitudes by their moduli (defensively renormalized)."""
    amps = np.abs(psi.amplitudes).astype(np.complex128)
    return StateVector(psi.basis, amps / np.linalg.norm(amps))
