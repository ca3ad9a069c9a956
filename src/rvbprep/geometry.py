"""Periodic ruby-lattice geometry.

Atoms sit on the links of a kagome lattice (the ruby lattice is its medial
lattice), six per unit cell, with the minimum inter-atom distance as the
unit of length.  Kagome links have length 2, so link midpoints within one
triangle are at unit distance.

Cell-major atom ordering with a fixed sublattice order 0-5 keeps basis
indices and on-disk artifacts deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

SQRT3 = math.sqrt(3.0)

# Bravais vectors of the underlying triangular lattice of unit cells.
A1 = np.array([4.0, 0.0])
A2 = np.array([2.0, 2.0 * SQRT3])

# Link midpoints inside one cell: sublattices 0-2 on the up triangle,
# 3-5 on the down triangle.
SUBLATTICE = np.array(
    [
        [1.0, 0.0],
        [0.5, SQRT3 / 2],
        [1.5, SQRT3 / 2],
        [3.0, 0.0],
        [2.5, -SQRT3 / 2],
        [3.5, -SQRT3 / 2],
    ]
)

DIST_TOL = 1e-9

# Named presets used throughout: N = 6 * n1 * n2 atoms.
PRESETS = {6: (1, 1, 0), 12: (2, 1, 0), 24: (2, 2, 0), 36: (2, 3, 0), 48: (2, 4, 0)}


class GeometryError(ValueError):
    pass


@dataclass
class Cluster:
    """A periodic ruby-lattice cluster on a (possibly sheared) torus."""

    n1: int
    n2: int
    shear: int
    atoms: np.ndarray                 # (N, 2) coordinates
    lattice_vectors: np.ndarray       # (2, 2) torus translation vectors (rows)
    vertex_incidence: dict            # vertex id -> tuple of 4 atom ids
    triangle_incidence: dict          # triangle id -> tuple of 3 atom ids
    pair_distances: np.ndarray = field(repr=False)  # (N, N) minimal-image

    atoms_per_cell = 6

    @property
    def n_atoms(self):
        return len(self.atoms)

    @property
    def n_cells(self):
        return self.n1 * self.n2

    @property
    def n_vertices(self):
        return 3 * self.n_cells

    @property
    def n_triangles(self):
        return 2 * self.n_cells

    def cell_index(self, i1, i2):
        """Canonical cell index for possibly out-of-range cell coordinates."""
        j2 = i2 % self.n2
        carry = (i2 - j2) // self.n2
        j1 = (i1 - carry * self.shear) % self.n1
        return j1 * self.n2 + j2

    def atom_id(self, i1, i2, k):
        return self.cell_index(i1, i2) * 6 + k

    def vertex_id(self, i1, i2, v):
        return self.cell_index(i1, i2) * 3 + v

    def triangle_id(self, i1, i2, s):
        """Triangle id; s = 0 for the up triangle, 1 for the down triangle."""
        return self.cell_index(i1, i2) * 2 + s

    def translate_atoms(self, d1, d2):
        """Permutation of atom ids under translation by d1*A1 + d2*A2."""
        perm = np.empty(self.n_atoms, dtype=np.int64)
        for i1 in range(self.n1):
            for i2 in range(self.n2):
                for k in range(6):
                    perm[self.atom_id(i1, i2, k)] = self.atom_id(i1 + d1, i2 + d2, k)
        return perm

    @functools.cached_property
    def symmetries(self):
        """Every atom permutation that preserves ``pair_distances``.

        An (order, N) int64 array, one permutation perm per row (atom i goes
        to perm[i]), in lexicographic order, so the identity comes first.
        The constraint graph and the interaction tails are functions of the
        distances alone, so each permutation commutes with the Hamiltonian;
        the group holds the torus's translations and the point operations
        that map it to itself.  Found by backtracking atom by atom: atom k's
        image must keep its distances to the images of atoms 0 .. k-1.
        Computed on first use.
        """
        dist = self.pair_distances
        n = self.n_atoms
        perms = []
        perm = np.zeros(n, dtype=np.int64)
        free = np.ones(n, dtype=bool)

        def place(k):
            if k == n:
                perms.append(perm.copy())
                return
            keeps = np.abs(dist[:, perm[:k]] - dist[k, :k]) <= DIST_TOL
            for j in np.flatnonzero(free & keeps.all(axis=1)):
                perm[k] = j
                free[j] = False
                place(k + 1)
                free[j] = True

        place(0)
        return np.array(perms)


@dataclass
class ConstraintGraph:
    """Pairs of atoms that may not be simultaneously excited."""

    radius: float
    n_atoms: int
    edges: frozenset          # frozenset of sorted (i, j) atom-id pairs

    def blocked_masks(self):
        """Per-atom bitmask of blocked partners (bit j set in mask[i])."""
        masks = [0] * self.n_atoms
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks

    def degree(self, i):
        return sum(1 for e in self.edges if i in e)


@dataclass(frozen=True)
class LoopPath:
    """A closed alternating loop of kagome links, plus its open half-string.

    Triangles are addressed as (i1, i2, s) with s = 0 (up) / 1 (down); atoms
    as (i1, i2, k) sublattice addresses; kagome vertices as (i1, i2, v).
    ``atom_ids`` resolves addresses on a concrete cluster; the
    tensor-network module consumes the addresses directly.

    ``atoms`` is the path of the off-diagonal (X) loop: in each triangle the
    link joining the vertices it shares with its two loop neighbors.
    ``crossing`` holds, per triangle, the links that cross the loop: those
    with exactly one end on an ``enclosed`` vertex.  The diagonal (Z) loop
    lives on these; by the Gauss law its value on every dimer cover is
    (-1)^len(enclosed).

    A loop is immutable and hashable, so that the tensor-network module
    builds the row insertions of each of its strings once.
    """

    kind: str                     # "diagonal" | "off-diagonal"
    triangles: tuple              # closed sequence of triangle addresses
    atoms: tuple                  # one atom address per triangle, same order
    perimeter: int
    enclosed: frozenset = frozenset()  # vertices of the enclosed hexagons
    crossing: tuple = ()          # per triangle, same order

    @property
    def open_atoms(self):
        """The half-length open string: the first perimeter // 2 atoms."""
        return self.atoms[: self.perimeter // 2]

    @property
    def open_triangles(self):
        return self.triangles[: self.perimeter // 2]

    @property
    def open_crossing(self):
        return self.crossing[: self.perimeter // 2]

    def atom_ids(self, cluster):
        return [cluster.atom_id(i1, i2, k) for (i1, i2, k) in self.atoms]


def _min_image_distances(atoms, t1, t2):
    n = len(atoms)
    diff = atoms[:, None, :] - atoms[None, :, :]
    best = np.full((n, n), np.inf)
    for s in range(-2, 3):
        for t in range(-2, 3):
            shift = s * t1 + t * t2
            d = np.linalg.norm(diff + shift, axis=-1)
            np.minimum(best, d, out=best)
    return best


def build_cluster(n1, n2, shear=0):
    """Build a periodic ruby-lattice cluster of n1 x n2 unit cells.

    The torus is spanned by n1*A1 and n2*A2 + shear*A1.  Atom ordering is
    cell-major (i1 outer, i2 inner) with sublattice order 0-5.
    """
    if n1 < 1 or n2 < 1:
        raise GeometryError("n1 and n2 must be >= 1")
    t1 = n1 * A1
    t2 = n2 * A2 + shear * A1

    cells = [(i1, i2) for i1 in range(n1) for i2 in range(n2)]
    atoms = np.array(
        [i1 * A1 + i2 * A2 + SUBLATTICE[k] for (i1, i2) in cells for k in range(6)]
    )

    dist = _min_image_distances(atoms, t1, t2)
    off = dist + np.diag(np.full(len(atoms), np.inf))
    if off.min() < 1.0 - DIST_TOL:
        raise GeometryError(
            "torus too small: duplicate atom images at distance %.6f" % off.min()
        )

    cluster = Cluster(
        n1=n1,
        n2=n2,
        shear=shear,
        atoms=atoms,
        lattice_vectors=np.array([t1, t2]),
        vertex_incidence={},
        triangle_incidence={},
        pair_distances=dist,
    )

    for i1, i2 in cells:
        a = lambda d1, d2, k: cluster.atom_id(i1 + d1, i2 + d2, k)
        cluster.vertex_incidence[cluster.vertex_id(i1, i2, 0)] = (
            a(0, 0, 0), a(0, 0, 1), a(-1, 0, 3), a(-1, 0, 5))
        cluster.vertex_incidence[cluster.vertex_id(i1, i2, 1)] = (
            a(0, 0, 0), a(0, 0, 2), a(0, 0, 3), a(0, 0, 4))
        cluster.vertex_incidence[cluster.vertex_id(i1, i2, 2)] = (
            a(0, 0, 1), a(0, 0, 2), a(-1, 1, 4), a(-1, 1, 5))
        cluster.triangle_incidence[cluster.triangle_id(i1, i2, 0)] = (
            a(0, 0, 0), a(0, 0, 1), a(0, 0, 2))
        cluster.triangle_incidence[cluster.triangle_id(i1, i2, 1)] = (
            a(0, 0, 3), a(0, 0, 4), a(0, 0, 5))

    return cluster


def cluster_preset(n_atoms):
    """Named cluster presets (N in {6, 12, 24, 36, 48})."""
    if n_atoms not in PRESETS:
        raise GeometryError("no preset with %d atoms" % n_atoms)
    return build_cluster(*PRESETS[n_atoms])


def constraint_graph(cluster, r_c):
    """Atom pairs with minimal-image distance <= r_c (boundary included)."""
    if r_c <= 0:
        raise GeometryError("constraint radius must be positive")
    dist = cluster.pair_distances
    n = cluster.n_atoms
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= r_c + DIST_TOL:
                edges.add((i, j))
    return ConstraintGraph(radius=r_c, n_atoms=n, edges=frozenset(edges))


# --- loops for string order parameters ----------------------------------

# Honeycomb adjacency of kagome triangles: the up triangle of cell (n, m)
# touches the down triangles of cells (n, m), (n-1, m), (n-1, m+1) through
# the cell's kagome vertices v1, v0, v2 respectively.

_UP_SIDES = {frozenset([0, 1]): 0, frozenset([0, 2]): 1, frozenset([1, 2]): 2}
_DOWN_SIDES = {frozenset([0, 1]): 3, frozenset([0, 2]): 4, frozenset([1, 2]): 5}


def _up_vertices(n, m):
    # local vertex slots of up(n, m): v0, v1, v2 of the same cell
    return [((n, m, 0), 0), ((n, m, 1), 1), ((n, m, 2), 2)]


def _down_vertices(n, m):
    # down(n, m) touches v1(n, m), v0(n+1, m), v2(n+1, m-1)
    return [((n, m, 1), 0), ((n + 1, m, 0), 1), ((n + 1, m - 1, 2), 2)]


def triangle_vertices(tri):
    n, m, s = tri
    pairs = _up_vertices(n, m) if s == 0 else _down_vertices(n, m)
    return [v for v, _slot in pairs]


def triangle_atom(tri, v_in, v_out):
    """Atom address of the triangle side joining two of its vertices."""
    n, m, s = tri
    pairs = _up_vertices(n, m) if s == 0 else _down_vertices(n, m)
    slots = dict(pairs)
    key = frozenset([slots[v_in], slots[v_out]])
    k = _UP_SIDES[key] if s == 0 else _DOWN_SIDES[key]
    return (n, m, k)


def _plaquette_cycle(n, m):
    """The 6-triangle cycle around the kagome hexagon of cell (n, m)."""
    return [
        (n, m, 0), (n, m, 1), (n + 1, m - 1, 0),
        (n, m - 1, 1), (n, m - 1, 0), (n - 1, m, 1),
    ]


def _enclosed_vertices(plaquettes):
    """Kagome vertices of a set of hexagons: the corners of their cycles."""
    corners = set()
    for (n, m) in plaquettes:
        cyc = _plaquette_cycle(n, m)
        for i in range(6):
            corners |= (set(triangle_vertices(cyc[i]))
                        & set(triangle_vertices(cyc[(i + 1) % 6])))
    return frozenset(corners)


def _boundary_loop(plaquettes):
    """Ordered boundary cycle of a simply connected set of hexagons."""
    edge_count = {}
    for (n, m) in plaquettes:
        cyc = _plaquette_cycle(n, m)
        for i in range(6):
            e = frozenset([cyc[i], cyc[(i + 1) % 6]])
            edge_count[e] = edge_count.get(e, 0) + 1
    boundary = [e for e, c in edge_count.items() if c == 1]
    adj = {}
    for e in boundary:
        x, y = tuple(e)
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    for tri, nbrs in adj.items():
        if len(nbrs) != 2:
            raise GeometryError("boundary is not a simple cycle")
    start = min(adj)
    cycle = [start, adj[start][0]]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            break
        cycle.append(nxt)
    return cycle


def _loop_from_triangles(kind, plaquettes):
    cycle = _boundary_loop(plaquettes)
    enclosed = _enclosed_vertices(plaquettes)
    ell = len(cycle)
    atoms = []
    crossing = []
    for i in range(ell):
        t_prev = cycle[(i - 1) % ell]
        t_cur = cycle[i]
        t_next = cycle[(i + 1) % ell]
        vs = set(triangle_vertices(t_cur))
        v_in = (vs & set(triangle_vertices(t_prev))).pop()
        v_out = (vs & set(triangle_vertices(t_next))).pop()
        if v_in == v_out:
            raise GeometryError("degenerate loop step")
        atoms.append(triangle_atom(t_cur, v_in, v_out))
        tv = triangle_vertices(t_cur)
        crossing.append(tuple(
            triangle_atom(t_cur, tv[a], tv[b])
            for a, b in ((0, 1), (0, 2), (1, 2))
            if (tv[a] in enclosed) != (tv[b] in enclosed)))
    return LoopPath(kind=kind, triangles=tuple(cycle),
                    atoms=tuple(atoms), perimeter=ell, enclosed=enclosed,
                    crossing=tuple(crossing))


def hexagon_loop(kind, radius):
    """Hexagonal loop of perimeter 6*(2*radius - 1) links."""
    plaqs = []
    for dn in range(-radius + 1, radius):
        for dm in range(-radius + 1, radius):
            if abs(dn + dm) <= radius - 1:
                plaqs.append((dn, dm))
    return _loop_from_triangles(kind, plaqs)


def parallelogram_loop(kind, w, h):
    """Parallelogram loop of perimeter 4*(w + h) - 2 links.

    The long side w extends along the second lattice direction (the
    cylinder's transfer direction); h along the first (the circumference).
    """
    plaqs = [(j, i) for i in range(w) for j in range(h)]
    return _loop_from_triangles(kind, plaqs)


def loop_block_span(loop):
    """Extent of the loop along the cylinder circumference, in blocks.

    Up and down triangles of a ruby cell fall in neighboring blocks of the
    transfer-matrix contraction, hence the +2.
    """
    ns = [n for (n, _m, _s) in loop.triangles]
    return max(ns) - min(ns) + 2


# --- Kitaev-Preskill regions --------------------------------------------

def kitaev_preskill_regions(cluster):
    """Three equal, mutually adjacent single-cell regions meeting at a point.

    Uses the cells (0,0), (1,0), (0,1): pairwise adjacent on the cell lattice
    (the last pair through the (n+1, m-1) neighbor relation of the ruby
    lattice), so the three regions meet around a common kagome vertex.
    """
    if cluster.n1 < 2 or cluster.n2 < 2 or cluster.n_cells < 6:
        raise GeometryError(
            "cluster too small for a Kitaev-Preskill tripartition "
            "(need n1, n2 >= 2 and at least 6 cells)"
        )
    cells = [(0, 0), (1, 0), (0, 1)]
    regions = []
    for (i1, i2) in cells:
        base = cluster.cell_index(i1, i2) * 6
        regions.append(frozenset(range(base, base + 6)))
    return tuple(regions)


def tee_cluster(n_atoms):
    """Sheared cluster whose Kitaev-Preskill tripartition is non-wrapping.

    On the unsheared presets one torus direction is only two cells wide, so
    some pairwise union of the three regions wraps the torus; the wrapped
    annulus gains an extra boundary and the topological term cancels out of
    the seven-entropy combination exactly.  These shears leave every region
    pair sharing exactly one boundary segment.
    """
    shapes = {36: (3, 2, 2), 48: (4, 2, 3)}
    if n_atoms not in shapes:
        raise GeometryError("no tripartition cluster with %d atoms" % n_atoms)
    return build_cluster(*shapes[n_atoms])
