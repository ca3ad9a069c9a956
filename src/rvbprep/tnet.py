"""Tensor-network form of the dimer-monomer ansatz and cylinder contraction.

Kagome triangles form a honeycomb lattice whose edges are the kagome
vertices.  Each triangle carries a tensor with one virtual leg per vertex;
the leg is a pair (dimer bit, occupation bit): the dimer bit says whether
the triangle's dimer covers that vertex, the occupation bit whether the
triangle's physical excitation does.  Edge matrices enforce exactly-one
dimer per vertex and, for the projected variant, at-most-one excitation.

An up triangle and the down triangle below-left of it fuse into a block
with one virtual bond in each square-lattice direction, so a cylinder of
circumference L contracts through a transfer matrix on an 8^L-dimensional
bond space (4^L unprojected): the double layer needs a single occupation
layer because the occupation legs of bra and ket coincide.  A block is
kept as its two halves, the down and the up triangle with their edges
absorbed, joined by the block's internal bond: the site tensor factors
exactly through that bond, of rank D, with no decomposition.

A double-layer leg s = (2a + b) * n_occ + alpha carries the charge
c(s) = s // n_occ = 2a + b of its ket and bra dimer bits, and every row
tensor C[l, k, u, d] has c(l) ^ c(k) ^ c(u) ^ c(d) = 3: the exactly-one
edges flip both dimer bits.  This Z2 x Z2 symmetry (the gauge symmetry of
the RVB PEPS) splits the bond space into four sectors, the XOR of the leg
charges.  RowOperator applies a row one sector at a time and keeps the
ring-closing bond at its n_occ occupation values, a quarter of its
dimension, because the other legs fix its charge.  Only the right
boundary fixed point is iterated: the left is its mirror image.  A row,
its boundaries and its observables are complex exactly when (z1, z2) are.
"""

from __future__ import annotations

import copy
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .geometry import loop_block_span, triangle_vertices

XOR = np.array([[0.0, 1.0], [1.0, 0.0]])          # exactly one dimer
ATMOST = np.array([[1.0, 1.0], [1.0, 0.0]])       # at most one excitation
ENDCAP = np.array([[1.0, 0.0], [1.0, 0.0]])       # open-string endpoint:
# rows = string triangle (either), cols = plain neighbor (must be empty)

DEFAULT_TOL = 1e-10
POWER_MAX_ITER = 200000
START_SEED = 7          # seeds cold starts and the Arnoldi start vector


class TnetError(RuntimeError):
    pass


def site_matrix(z1, z2):
    """Per-atom (1 + z2 s+)(1 + z1 s-) in the (g, r) basis, of z's dtype."""
    return np.array([[1.0, z1], [z2, 1.0 + z1 * z2]])


# --- triangle tensors -----------------------------------------------------
#
# A triangle state is the excitation bit of each of its three sides (atoms).
# Projected, a triangle holds at most one excitation: state 0 is empty and
# state j + 1 excites side j.  Unprojected, state c excites the sides whose
# bits are set in c.  The dimer choices of a triangle (none, or one side)
# are the projected states.

ONE_SIDE = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
ANY_SIDES = (np.arange(8)[:, None] >> np.arange(3)) & 1
# SLOT_COVER[d, s0, s1, s2] = 1 at the vertex slots covered by one-side
# state d: side j joins slots (0, 1), (0, 2) and (1, 2) for j = 0, 1, 2
SLOT_COVER = np.zeros((4, 2, 2, 2))
SLOT_COVER[0, 0, 0, 0] = SLOT_COVER[1, 1, 1, 0] = 1.0
SLOT_COVER[2, 1, 0, 1] = SLOT_COVER[3, 0, 1, 1] = 1.0


@dataclass(frozen=True)
class _Network:
    """Triangle states of one network and its occupation layer.

    occ_legs[c] is the occupation-leg tensor P[c] over the three slots and
    occ_edge the occupation factor of a plain edge.  The projected network
    marks the slots of the excited side (legs of size 2, at most one
    excitation per vertex); the unprojected one has no occupation layer
    (legs of size 1).
    """
    states: np.ndarray
    occ_legs: np.ndarray
    occ_edge: np.ndarray

    @property
    def n_occ(self):
        return self.occ_edge.shape[0]

    @functools.cached_property
    def edge(self):
        """Double-layer matrix of a plain edge."""
        return double_edge_matrix(self.occ_edge)


NETWORKS = {
    True: _Network(ONE_SIDE, SLOT_COVER, ATMOST),
    False: _Network(ANY_SIDES, np.ones((8, 1, 1, 1)), np.ones((1, 1))),
}


def _dimer_tensor(z1, z2, states):
    """K[c, a0, a1, a2]: weight prod_j M[c_j, d_j] of triangle state c with
    dimer choice d, placed at the slots (a0, a1, a2) that d covers."""
    m = site_matrix(z1, z2)
    w = m[states[:, None, :], ONE_SIDE[None, :, :]].prod(axis=2)
    return np.einsum("cd,dxyz->cxyz", w, SLOT_COVER)


def _insertion(mod, net):
    """O[c, C] between ket state c and bra state C for a triangle mod."""
    bits = net.states
    n = len(bits)
    if mod is None:
        return np.eye(n)
    kind, j = mod
    if kind == "density":
        return np.diag((bits.sum(axis=1) if j is None else bits[:, j])
                       .astype(float))
    if kind == "zstring":
        sides = list(j) if np.ndim(j) else [j]
        return np.diag(np.prod(1.0 - 2.0 * bits[:, sides], axis=1))
    if kind == "xstring":
        # X_j moves the one excitation between the empty triangle and side j
        if bits is not ONE_SIDE:
            raise TnetError(
                "off-diagonal strings require the projected variant")
        o = np.zeros((n, n))
        o[0, j + 1] = o[j + 1, 0] = 1.0
        return o
    raise TnetError("unknown triangle insertion %r" % (kind,))


def single_triangle_tensor(z1, z2, projected=True):
    """Ket-layer tensor T[c, leg0, leg1, leg2] = K[c] (x) P[c].

    Legs have dim 2 * n_occ, index a * n_occ + alpha (a = dimer,
    alpha = occupation): dim 4 projected (c in 0..3), 2 unprojected
    (c in 0..7).
    """
    net = NETWORKS[projected]
    k = _dimer_tensor(z1, z2, net.states)
    t = np.einsum("cxyz,cpqr->cxpyqzr", k, net.occ_legs)
    n = 2 * net.n_occ
    return t.reshape(len(net.states), n, n, n)


def double_triangle_tensor(z1, z2, projected=True, mod=None):
    """Bra-ket contracted tensor D = sum_{c,C} O[c,C] K[c] (x) conj(K[C])
    (x) P[c], with the occupation legs P taken from the ket.

    Legs have dim 4 * n_occ, index (2a + b) * n_occ + alpha with a = ket
    dimer, b = bra dimer, alpha = occupation: dim 8 projected, 4
    unprojected.  mod is None or one of ('density', j), ('zstring', j),
    ('xstring', j) with j the local side index 0..2 (None: all sides, for a
    density); a 'zstring' j may also be a tuple of sides, each of which
    carries a Z.  The x string X_j = |0><j+1| + h.c. exists only in the
    projected network.  D has the dtype of site_matrix(z1, z2).
    """
    net = NETWORKS[projected]
    o = _insertion(mod, net)
    k = _dimer_tensor(z1, z2, net.states)
    n = 4 * net.n_occ
    ko = np.tensordot(o, k.conj(), axes=(1, 0))         # bra summed in
    return np.einsum("cxyz,cuvw,cpqr->xupyvqzwr", k, ko,
                     net.occ_legs).reshape(n, n, n)


def double_edge_matrix(occ):
    """Edge matrix between the double-layer legs of two triangles: exactly
    one dimer in ket and bra, times the occupation-layer factor occ (the
    network's occ_edge on a plain edge; XOR inside an off-diagonal string,
    ENDCAP at its end with rows = string triangle)."""
    return np.kron(np.kron(XOR, XOR), occ)


# --- blocks and row transfer matrices ------------------------------------

@dataclass
class RowMods:
    """Modifications of one transfer row for operator insertions.

    Keys of the dicts are the block index n (0..L-1).  Triangle values are
    the (hashable) mod tuples of double_triangle_tensor; edge override
    values are full edge matrices.
    """
    up: dict = field(default_factory=dict)      # n -> triangle mod tuple
    down: dict = field(default_factory=dict)    # n -> triangle mod tuple
    e_v0: dict = field(default_factory=dict)    # internal edge of block n
    e_h: dict = field(default_factory=dict)     # bond between blocks n, n+1
    e_v2: dict = field(default_factory=dict)    # lower vertical bond of block n


def _site_halves(triangle, edge, mods, n, plain=None):
    """The two halves of site n of a row with mods, joined by the block's
    internal bond y (the edge between its down and its up triangle).

    left[l, d, y] is the down triangle (legs: v1 left, v0 internal, v2
    down) with the internal edge e_v0 ([down side, up side]) absorbed on
    its internal leg and the lower vertical bond e_v2 ([lower up-triangle,
    this down-triangle]) on its down leg.  right[y, k, u] is the up
    triangle (legs: v0 internal, v1 right, v2 up) with the horizontal bond
    to block n + 1 absorbed on its right leg.  The site tensor is
    C[l, k, u, d] = sum_y left[l, d, y] right[y, k, u].  triangle(mod) is
    the double-layer tensor of a triangle insertion (None: plain) and edge
    the matrix of a plain edge; a half that mods leaves alone is taken from
    the plain site's halves when given.
    """
    if plain is None or n in mods.down or n in mods.e_v0 or n in mods.e_v2:
        # down_t[l, x, w] e_v0[x, y] -> [l, w, y]; e_v2[d, w] -> [l, y, d]
        left = np.tensordot(
            np.tensordot(triangle(mods.down.get(n)), mods.e_v0.get(n, edge),
                         axes=(1, 0)),
            mods.e_v2.get(n, edge), axes=(1, 1)).transpose(0, 2, 1)
    else:
        left = plain[0]
    if plain is None or n in mods.up or n in mods.e_h:
        right = np.tensordot(triangle(mods.up.get(n)), mods.e_h.get(n, edge),
                             axes=(1, 0)).transpose(0, 2, 1)     # y, k, u
    else:
        right = plain[1]
    return left, right


def _triangles(z1, z2, projected):
    """double_triangle_tensor at (z1, z2) as a function of the insertion,
    each insertion built once."""
    return functools.lru_cache(maxsize=None)(
        functools.partial(double_triangle_tensor, z1, z2, projected))


def _row_sites(z1, z2, L, projected=True, mods=None):
    """The halves (left, right) of every site of the row, each built from
    scratch."""
    triangle = _triangles(z1, z2, projected)
    return [_site_halves(triangle, NETWORKS[projected].edge,
                         mods or RowMods(), n) for n in range(L)]


@functools.lru_cache(maxsize=None)
def _ring_charges(n_occ, L):
    """Z2 x Z2 charge of every bond-space index: the XOR over the L legs of
    c(s) = s // n_occ, whose bits are the ket (2) and bra (1) dimer bits."""
    leg = np.arange(4 * n_occ, dtype=np.int8) // n_occ
    charge = np.zeros(1, dtype=np.int8)
    for _ in range(L):
        charge = (charge[:, None] ^ leg).ravel()
    charge.flags.writeable = False
    return charge


@functools.lru_cache(maxsize=None)
def _sector_mask(n_occ, L, q):
    """The bond-space indices of charge sector q."""
    mask = _ring_charges(n_occ, L) == q
    mask.flags.writeable = False
    return mask


def _part(buf, shape):
    """The leading entries of a flat work array, in the given shape."""
    return buf[:math.prod(shape)].reshape(shape)


class RowOperator:
    """Matrix-free application of one cylinder row to a bond-space vector.

    The row is a ring of L sites, each given as the two halves of its block
    (see _site_halves): left[l, d, y] and right[y, k, u], joined by the
    block's internal bond y, with site tensor C[l, k, u, d] = sum_y
    left[l, d, y] right[y, k, u].  Every nonzero entry of C conserves the
    dimer charge: c(l) ^ c(k) ^ c(u) ^ c(d) = 3 with c(s) = s // n_occ (see
    parity_signs).  A vector of one charge sector Q (the XOR of its legs'
    charges) therefore maps into sector Q ^ 3 * (L mod 2), and while the
    row is applied the charge of the open ring-closing index l0 is fixed by
    the other legs.  Each pass stores l0 as its n_occ occupation values
    only, a quarter of the bond dimension D: site 0 is one GEMM against the
    compressed W0[(t0, u0, l1), d0], every later site one (D*D x D*D)
    product through its two halves, whose rank is the internal bond's
    dimension (D for the library's rows), and the ring closes where
    l0 = k, i.e. at t0 = k mod n_occ.  apply splits its input by sector and
    makes one pass per sector it touches.
    """

    def __init__(self, sites):
        if len(sites) < 2:
            raise TnetError("a row needs at least two sites")
        self.L = len(sites)
        self.D = sites[0][0].shape[0]
        self.n_occ = self.D // 4
        self.dim = self.D ** self.L
        self._sites = list(sites)
        self._factors = [self._site_factors(n, site)
                         for n, site in enumerate(self._sites)]
        self.dtype = np.result_type(*[h for site in self._sites for h in site])
        self._work = {}

    def _site_factors(self, n, site):
        """What apply uses of site n, from its halves (left, right).

        The charge check runs on C = left . right.  Site 0 gives the
        compressed W0[(t0, u0, l1), d0]: of the four charges of l0 at most
        one has a nonzero entry, so their sum keeps it.  Every later site
        applies as its halves, the (l, d) | (k, u) cut through the internal
        bond.  The last site's right half also closes the ring: at l0 = k
        it sums k over its charges at occupation t0 = k mod n_occ, one
        (rank x u) matrix per t0.
        """
        D, nocc = self.D, self.n_occ
        left, right = site
        r = left.shape[2]
        a = np.ascontiguousarray(left.reshape(D * D, r))
        c = a @ right.reshape(r, D * D)                     # (l, d) x (k, u)
        if np.any(c[~_sector_mask(nocc, 4, 3).reshape(c.shape)]):
            raise TnetError("site %d of the row breaks the dimer charge" % n)
        if n == 0:
            w0 = c.reshape(4, nocc, D, D, D).sum(axis=0)     # t0, d0, l1, u0
            return np.ascontiguousarray(
                w0.transpose(0, 3, 2, 1).reshape(-1, D))
        if n < self.L - 1:
            # right factor columns in (u, k) order, so the finished physical
            # leg folds into the batch axes by a plain reshape
            return a, np.ascontiguousarray(
                right.transpose(0, 2, 1).reshape(r, D * D))
        b = right.reshape(r, 4, nocc, D).sum(axis=1)        # r, t0, u
        return a, np.ascontiguousarray(b.transpose(1, 0, 2))

    def _with_sites(self, sites):
        """Copy of this row with the halves of the sites in sites
        (n -> (left, right)) replaced; the other sites keep their
        factors."""
        new = copy.copy(self)
        new._sites = list(self._sites)
        new._factors = list(self._factors)
        for n, site in sites.items():
            new._sites[n] = site
            new._factors[n] = new._site_factors(n, site)
        new.dtype = np.result_type(*[h for site in new._sites for h in site])
        return new

    def apply(self, v, sector=None):
        """The row applied to v.  sector, when given, is the charge sector
        that v lies in (v must vanish outside it); it saves the scan for the
        sectors that v touches."""
        v = np.asarray(v)
        nocc, L = self.n_occ, self.L
        sectors = [sector] if sector is not None else np.flatnonzero(
            np.bincount(_ring_charges(nocc, L)[v != 0], minlength=4))
        out = np.zeros(self.dim, dtype=np.result_type(self.dtype, v.dtype))
        for q in sectors:
            vq = (v if len(sectors) == 1
                  else np.where(_sector_mask(nocc, L, q), v, 0))
            # exact zeros outside the output sector
            np.copyto(out, self._ring_pass(vq).ravel(),
                      where=_sector_mask(nocc, L, q ^ 3 * (L % 2)))
        return out

    def _buffers(self, dtype):
        """Two stage outputs and one rank-sized product: work arrays kept
        per row, and shared with its modified copies, so that a pass does
        not fault fresh pages in."""
        size = self.n_occ * self.D ** (self.L + 1)
        n_mid = size // (self.D * self.D) * max(
            a.shape[1] for a, _ in self._factors[1:])
        bufs = self._work.get(dtype)
        if bufs is None or bufs[2].size < n_mid:
            bufs = (np.empty(size, dtype), np.empty(size, dtype),
                    np.empty(n_mid, dtype))
            self._work[dtype] = bufs
        return bufs

    def _ring_pass(self, v):
        """One compressed pass of a vector of a single sector; entries
        outside its output sector are not meaningful."""
        D, L, nocc = self.D, self.L, self.n_occ
        dtype = np.result_type(self.dtype, v.dtype)
        cur, nxt, mid = self._buffers(dtype)
        w0 = self._factors[0]
        out = np.matmul(w0, v.reshape(D, -1),                # (t0,u0,l1), d1..
                        out=_part(cur, (len(w0), D ** (L - 1))))
        for j in range(1, L - 1):
            a, b = self._factors[j]
            # middle axis (l_j, d_j) in, (u_j, l_{j+1}) out
            x = out.reshape(-1, D * D, D ** (L - 1 - j))
            y = np.matmul(a.T, x, out=_part(mid, (len(x), a.shape[1],
                                                  x.shape[2])))
            out = np.matmul(b.T, y, out=_part(nxt, x.shape))
            cur, nxt = nxt, cur
        # the last site leaves rows (t0, u_0..u_{L-2}) and closes the ring
        a, b = self._factors[-1]
        x = out.reshape(nocc, -1, D * D)
        y = np.matmul(x, a, out=_part(mid, (nocc, x.shape[1], a.shape[1])))
        return np.matmul(y, b, out=_part(nxt, (nocc, x.shape[1], D))).sum(
            axis=0)

    def dense(self):
        """Explicit matrix (up index x down index); small L only."""
        if self.dim > 8192:
            raise TnetError("dense transfer matrix beyond dim 8192")
        mat = np.empty((self.dim, self.dim), dtype=self.dtype)
        e = np.zeros(self.dim, dtype=self.dtype)
        for i in range(self.dim):
            e[i] = 1.0
            mat[:, i] = self.apply(e)
            e[i] = 0.0
        return mat


def _check_mirror(site, edge):
    """Refuse a site that breaks its row's mirror symmetry (see
    CylinderTransferMatrix.mirror): with the edge matrix on its l and u
    legs, the site tensor F[l, d, k, u] must equal F[k, u, l, d]."""
    c = np.tensordot(edge, np.tensordot(*site, axes=(2, 0)), axes=(1, 0))
    f = np.tensordot(c, edge, axes=(3, 1))                  # l, d, k, u
    if np.abs(f - f.transpose(2, 3, 0, 1)).max() > 1e-12 * np.abs(f).max():
        raise TnetError("a site breaks the mirror symmetry of its row")


@dataclass
class CylinderTransferMatrix:
    z1: complex         # real (z1, z2) give a float64 row, else complex128
    z2: complex
    circumference: int
    projected: bool
    op: RowOperator = field(init=False, repr=False)

    def __post_init__(self):
        self._triangle = _triangles(self.z1, self.z2, self.projected)
        self._edge = NETWORKS[self.projected].edge
        # every site of the plain row is the same pair of halves
        self._plain = _site_halves(self._triangle, self._edge, RowMods(), 0)
        _check_mirror(self._plain, self._edge)
        self.op = RowOperator([self._plain] * self.circumference)

    @property
    def dim(self):
        return self.op.dim

    def mirror(self, v):
        """G v, G = R E^(x L): the symmetric plain edge matrix E on every
        leg, then the leg order reversed.  G T = T^t G for the plain row T
        (a reflection-symmetric PEPS; Cirac, Poilblanc, Schuch & Verstraete,
        PRB 83, 245134 (2011)), so G maps a right eigenvector to a left one.
        """
        D = self.op.D
        for _ in range(self.circumference):     # E on the leading leg,
            v = v.reshape(D, -1).T @ self._edge  # which moves to the back
        return v.reshape((D,) * self.circumference).transpose().ravel()

    def modified(self, mods):
        """The row with mods.  Only the sites that mods touches are
        rebuilt, and of those only the halves it touches; the others keep
        the plain row's halves and factors, and each triangle insertion is
        built once per transfer matrix."""
        sites = sorted(set(mods.up) | set(mods.down) | set(mods.e_v0)
                       | set(mods.e_h) | set(mods.e_v2))
        return self.op._with_sites({
            n: _site_halves(self._triangle, self._edge, mods, n, self._plain)
            for n in sites})


def cylinder_transfer(z1, z2, L, projected=True):
    if L > 8:
        raise TnetError("circumference beyond 8 not supported")
    return CylinderTransferMatrix(z1, z2, L, projected)


# --- dominant eigenpairs --------------------------------------------------

def parity_signs(projected, L):
    """(-1)^(dimer-bit ring sum) of the ket and bra layers on the bond space.

    The two signs are the bits of the Z2 x Z2 charge of a bond index: the
    XOR over its legs of c(s) = s // n_occ = 2 * (ket dimer) + (bra dimer).
    Every row tensor has c(l) ^ c(k) ^ c(u) ^ c(d) = 3 (an exactly-one bond
    flips both dimer bits), so round the ring a row maps charge Q to
    Q ^ 3 * (L mod 2): for even L it conserves both parities, and for odd L
    the parity alternates row by row and no sector decomposition of a
    single row exists.  Topologically degenerate points split into
    near-degenerate dominant eigenvalues across sectors; boundary fixed
    points are therefore computed inside the identity sector (charge 0,
    both parities even).
    """
    charge = _ring_charges(NETWORKS[projected].n_occ, L)
    return 1.0 - 2.0 * (charge >> 1), 1.0 - 2.0 * (charge & 1)


@dataclass
class Boundaries:
    lam0: float
    lam1_abs: float
    left: np.ndarray
    right: np.ndarray
    iterations: int         # row applies of the right boundary's iteration
    residual: float         # ||T r - lam0 r|| of the unit r, not over lam0


def _power_iterate(matvec, x, tol):
    x = x / np.linalg.norm(x)
    res = np.inf
    for it in range(1, POWER_MAX_ITER + 1):
        y = matvec(x)
        lam = np.vdot(x, y)
        res = float(np.linalg.norm(y - lam * x))
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            return 0.0, x, it, 0.0
        x = y / nrm
        if res <= tol * max(abs(lam), 1e-300):
            return lam, x, it, res
    raise TnetError(
        "power iteration did not converge (last residual %.2e); "
        "dominant eigenvalues may be degenerate" % res)


def dominant_eigenpair(tm, tol=DEFAULT_TOL, right0=None, left0=None,
                       compute_lam1=True):
    """(lambda0, |lambda1|, left/right boundary vectors), <l|r> = 1.

    The fixed point and lambda1 are both computed inside the identity parity
    sector (see parity_signs): lambda1 is the largest subdominant magnitude
    of that sector, which sets the decay of local correlations.  The other
    sectors carry the topological (near-)copies of lambda0 and their
    finite-L splittings, which say nothing about local correlations.
    The right fixed point comes from power iteration, started from right0
    when given; the sector's lambda1/lambda0 stays well below 1 (at most
    0.4 on the figS5 grid), so it converges in tens of row applies.  The
    left one is its image under tm.mirror (left0 is accepted and unused).
    Both have the row's dtype; lambda0, of a positive map (a double layer),
    must be real and positive to tol.  |lambda1| is the second-largest
    magnitude of one Arnoldi (ARPACK) solve, reported as 0 below tol * lambda0.
    """
    if tm.circumference % 2:
        raise TnetError(
            "odd circumference alternates the dimer-ring parity; "
            "boundary fixed points need an even circumference")
    op = tm.op
    dim = op.dim
    # seeded start vectors keep reruns byte-identical
    rng = np.random.default_rng(START_SEED)
    m_id = _sector_mask(op.n_occ, op.L, 0).astype(float)
    x0 = np.abs(rng.standard_normal(dim)) + 1e-3 if right0 is None else right0
    # a row maps the identity sector into itself, with exact zeros outside
    # it (even L; see RowOperator)
    lam0, right, iterations, residual = _power_iterate(
        lambda x: op.apply(x, sector=0), np.asarray(x0, op.dtype) * m_id, tol)
    if not lam0.real > 0 or abs(lam0.imag) > tol * abs(lam0):
        raise TnetError("lambda0 = %s is not real and positive" % lam0)
    lam0 = float(lam0.real)
    lam1 = np.nan
    if compute_lam1:
        # the mask keeps ARPACK's restart vectors in the sector
        lin = spla.LinearOperator(
            (dim, dim), dtype=op.dtype,
            matvec=lambda v: op.apply(v * m_id, sector=0))
        vals = spla.eigs(lin, k=2, which="LM", tol=tol,
                         v0=rng.standard_normal(dim) * m_id,
                         return_eigenvectors=False)
        lam1 = float(np.sort(np.abs(vals))[0])
        # an exact zero (z1 = 0 on the projected network) comes back as
        # roundoff that varies from call to call
        if lam1 < tol * lam0:
            lam1 = 0.0
    left = tm.mirror(right)
    scale = left @ right
    if abs(scale) < 1e-14:
        raise TnetError("left/right boundary vectors are orthogonal")
    return Boundaries(lam0=lam0, lam1_abs=lam1, left=left / scale,
                      right=right, iterations=iterations, residual=residual)


def correlation_length(tm, boundaries=None, tol=DEFAULT_TOL):
    """xi = 1 / log(lambda0 / |lambda1|) in units of cylinder rows."""
    b = boundaries if boundaries is not None else dominant_eigenpair(tm, tol)
    if b.lam1_abs == 0.0:
        return 0.0
    ratio = b.lam0 / b.lam1_abs
    if ratio <= 1.0 + 1e-12:
        return np.inf
    return 1.0 / math.log(ratio)


# --- observables ----------------------------------------------------------

def _expect_rows(tm, boundaries, mods_by_row):
    """(l| prod_m T_mod(m) |r) / (lam0^rows * (l|r)) over the row span, real
    at any z: every insertion here (density, Z or X string) is Hermitian."""
    if not mods_by_row:
        return 1.0
    rows = sorted(mods_by_row)
    vec = boundaries.right
    for m in range(rows[0], rows[-1] + 1):
        if m in mods_by_row:
            vec = tm.modified(mods_by_row[m]).apply(vec, sector=0)
        else:
            vec = tm.op.apply(vec, sector=0)
        vec = vec / boundaries.lam0
    return float(np.real(boundaries.left @ vec))


def density(tm, boundaries=None, tol=DEFAULT_TOL):
    """Per-sublattice densities <n_k>, k = 0..5, via one-block insertions."""
    b = boundaries if boundaries is not None else dominant_eigenpair(tm, tol)
    dens = np.empty(6)
    for k in range(6):
        mods = RowMods()
        if k < 3:
            mods.up[0] = ("density", k)
        else:
            mods.down[0] = ("density", k - 3)
        dens[k] = _expect_rows(tm, b, {0: mods})
    return dens


def mean_density(tm, boundaries=None, tol=DEFAULT_TOL):
    """Mean density over the six sublattices via two whole-triangle
    insertions (total occupation of the up and the down triangle)."""
    b = boundaries if boundaries is not None else dominant_eigenpair(tm, tol)
    up = RowMods()
    up.up[0] = ("density", None)
    dn = RowMods()
    dn.down[0] = ("density", None)
    tot = _expect_rows(tm, b, {0: up}) + _expect_rows(tm, b, {0: dn})
    return float(tot / 6.0)


@functools.lru_cache(maxsize=None)
def _loop_mods(loop, L, open_string, x_type):
    """Per-row RowMods realizing a string insertion on the cylinder, built
    once per (loop, L, open_string, x_type); callers must not change them.

    Triangle addresses (n, m, 0/1) map to blocks: up(n, m) is the up part
    of block (n mod L, row m); down(n, m) the down part of block
    ((n+1) mod L, row m).  A vertex (n, m, v) maps to the internal edge of
    block n (v = 0), the horizontal bond n..n+1 of row m (v = 1), or the
    vertical bond absorbed into block n of row m+1 (v = 2).
    """
    tris = loop.open_triangles if open_string else loop.triangles
    atoms = loop.open_atoms if open_string else loop.atoms
    if loop_block_span(loop) > L:
        raise TnetError("loop does not fit the cylinder circumference")
    rows = {}

    def get(m):
        return rows.setdefault(m, RowMods())

    def insert(tri, mod):
        tn, tm_, ts = tri
        if ts == 0:
            get(tm_).up[tn % L] = mod
        else:
            get(tm_).down[(tn + 1) % L] = mod

    if not x_type:
        # Z on the links crossing the loop, so that the closed loop obeys
        # the Gauss law (see geometry.LoopPath)
        crossing = loop.open_crossing if open_string else loop.crossing
        for tri, links in zip(tris, crossing):
            if any((an, am) != tuple(tri[:2]) for an, am, _k in links):
                raise TnetError("loop atom/triangle addressing mismatch")
            if links:
                insert(tri, ("zstring", tuple(k % 3 for _n, _m, k in links)))
        return rows

    for tri, (an, am, ak) in zip(tris, atoms):
        if tuple(tri[:2]) != (an, am):
            raise TnetError("loop atom/triangle addressing mismatch")
        insert(tri, ("xstring", ak % 3))

    # occupation-layer edge overrides along the string path
    string_set = set(map(tuple, tris))
    ell = len(loop.triangles)
    h = len(tris)
    pairs = []
    for i in range(h if open_string else ell):
        t_cur = tuple(loop.triangles[i % ell])
        t_nxt = tuple(loop.triangles[(i + 1) % ell])
        pairs.append((t_cur, t_nxt))
    if open_string:
        pairs.append((tuple(loop.triangles[-1]), tuple(loop.triangles[0])))
        # the pair list now holds h-1 interior edges plus the two endpoints:
        # (tris[h-1], tris[h]) and (tris[-1]=cycle end, tris[0])
    for t_a, t_b in pairs:
        shared = set(triangle_vertices(t_a)) & set(triangle_vertices(t_b))
        if len(shared) != 1:
            raise TnetError("consecutive loop triangles share != 1 vertex")
        vn, vm, vv = shared.pop()
        # edge orientation [first, second] per location:
        #   v0: [down(n-1, m), up(n, m)]
        #   v1 (e_h of row m, position n): [up(n, m), down(n, m)]
        #   v2 (e_v2 of block n, row m+1): [up(n, m), down(n-1, m+1)]
        if vv == 0:
            first, second = (vn - 1, vm, 1), (vn, vm, 0)
            target, key, row = "e_v0", vn % L, vm
        elif vv == 1:
            first, second = (vn, vm, 0), (vn, vm, 1)
            target, key, row = "e_h", vn % L, vm
        else:
            first, second = (vn, vm, 0), (vn - 1, vm + 1, 1)
            target, key, row = "e_v2", vn % L, vm + 1
        if t_a in string_set and t_b in string_set:
            occ = XOR
        elif first in string_set:
            occ = ENDCAP            # rows of ENDCAP are the string triangle
        elif second in string_set:
            occ = ENDCAP.T
        else:
            raise TnetError("endpoint edge touches no string triangle")
        getattr(get(row), target)[key] = double_edge_matrix(occ)
    return rows


def string_expectation(tm, loop, boundaries=None, open_string=False,
                       x_type=False, tol=DEFAULT_TOL):
    """Normalized expectation of a (half-)string insertion."""
    if x_type and not tm.projected:
        raise TnetError("off-diagonal strings require the projected variant")
    b = boundaries if boundaries is not None else dominant_eigenpair(tm, tol)
    mods = _loop_mods(loop, tm.circumference, open_string, x_type)
    return _expect_rows(tm, b, mods)


def bffm(tm, loop, boundaries=None, x_type=False, tol=DEFAULT_TOL):
    """BFFM ratio |<open half string>| / sqrt(|<closed loop>|)."""
    b = boundaries if boundaries is not None else dominant_eigenpair(tm, tol)
    closed = string_expectation(tm, loop, b, False, x_type, tol)
    if abs(closed) < 1e-280:
        raise TnetError("closed-loop expectation %.3e vanishes" % closed)
    open_val = string_expectation(tm, loop, b, True, x_type, tol)
    return abs(open_val) / math.sqrt(abs(closed))


# --- exact small-torus contraction (oracle path) -------------------------

def torus_amplitudes(z1, z2, cluster, basis, projected=True):
    """Amplitudes on a small torus by literal network contraction.

    Contracts the single-layer triangle tensors and edge matrices with
    numpy.einsum, keeping all physical legs open, then reads off the
    amplitude of every basis configuration.  Independent of both the
    closed-form construction and the transfer-matrix code path.
    """
    if cluster.shear != 0:
        raise TnetError("torus contraction requires an unsheared cluster")
    if 2 * cluster.n1 * cluster.n2 > 12:
        raise TnetError("torus too large for direct contraction")
    return _torus_contract(z1, z2, cluster, basis, projected)


def _torus_contract(z1, z2, cluster, basis, projected):
    """Row-by-row single-layer contraction with open physical legs.

    Blocks fuse up(n, m) with down(n-1, m); bond matrices are absorbed on
    the internal, left, and down legs of each block so every bond carries
    its matrix exactly once.
    """
    net = NETWORKS[projected]
    tri = single_triangle_tensor(z1, z2, projected)
    e_ket = np.kron(XOR, net.occ_edge)
    state_of = {tuple(bits): c for c, bits in enumerate(net.states)}
    n_phys = tri.shape[0]
    D = tri.shape[1]
    n1, n2 = cluster.n1, cluster.n2

    # block[cu, cd, l, r, d, u]: up(n, m) fused with down(n-1, m); bond
    # matrices absorbed on the internal, left, and down legs
    block = np.einsum("qlxd,xy,pyru->pqlrdu", tri, e_ket, tri)
    block = np.einsum("pqlrdu,kl,ed->pqkreu", block, e_ket, e_ket)
    blockf = block.reshape(n_phys * n_phys, D, D, D, D)

    # one row: contract n1 blocks over the horizontal bonds, then close the
    # periodic ring; canonical shape (P, l, r, dvec, uvec)
    row = blockf.copy()
    for _ in range(1, n1):
        nxt = np.tensordot(row, blockf, axes=([2], [1]))
        # axes: P, l, dv, uv, pq, r2, d, u -> (P, pq, l, r2, dv, d, uv, u)
        nxt = nxt.transpose(0, 4, 1, 5, 2, 6, 3, 7)
        s = nxt.shape
        row = nxt.reshape(s[0] * s[1], s[2], s[3], s[4] * s[5], s[6] * s[7])
    ring = np.einsum("pxxdu->pdu", row)

    # stack n2 rows over the vertical bonds, then close the torus
    full = ring
    for _ in range(1, n2):
        nxt = np.tensordot(full, ring, axes=([2], [1]))   # P0, d0, P1, u1
        nxt = nxt.transpose(0, 2, 1, 3)
        s = nxt.shape
        full = nxt.reshape(s[0] * s[1], s[2], s[3])
    amps_flat = np.einsum("pxx->p", full)

    # physical index: base-n_phys digits, row-major in (m, n), up before
    # down within a block; block (n, m) holds up(n, m) and down(n-1, m)
    amps = np.empty(basis.dim, dtype=complex)
    tris_order = [(n, m) for m in range(n2) for n in range(n1)]
    for i, cfg in enumerate(basis.configs):
        idx = 0
        ok = True
        for (n, m) in tris_order:
            for s in (0, 1):
                i1 = n if s == 0 else n - 1
                ti = cluster.triangle_id(i1, m, s)
                atoms = cluster.triangle_incidence[ti]
                st = state_of.get(tuple((int(cfg) >> a) & 1 for a in atoms))
                if st is None:
                    ok = False
                    break
                idx = idx * n_phys + st
            if not ok:
                break
        amps[i] = amps_flat[idx] if ok else 0.0
    nrm = np.linalg.norm(amps)
    if nrm == 0:
        raise TnetError("torus contraction produced a null state")
    from .hilbert import StateVector
    return StateVector(basis, amps / nrm)


# --- phase-diagram grids --------------------------------------------------

def phase_diagram_point(z1, z2, L, projected=True, loop_z=None, loop_x=None,
                        fd_step=1e-3, tol=DEFAULT_TOL, compute_xi=True,
                        warm=None):
    """density, dn/dz1, xi and optional BFFM values at one (z1, z2).

    dn/dz1 is a central difference of step fd_step whose two transfer
    matrices start from the central boundaries; fd_step=None leaves it NaN
    for a caller that differences along its grid instead.  The record also
    holds the solver counters of the point: the power iterations of all
    its (right) boundary solves and their largest residual relative to lam0
    (residual_ratio), and the wall seconds it spent building transfer
    matrices (transfer_s), solving their boundaries (boundaries_s) and
    evaluating observables (observables_s, which builds the insertion
    rows).  Returns (record, warm) where warm holds the right boundary for
    warm-starting the next grid point; a "left" entry in warm is ignored.
    """
    solves = []
    seconds = dict.fromkeys(("transfer_s", "boundaries_s", "observables_s"),
                            0.0)

    def timed(key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds[key] += time.perf_counter() - t0
        return out

    def solve(zz1, compute_lam1=False, right0=None):
        tm = timed("transfer_s", cylinder_transfer, zz1, z2, L, projected)
        b = timed("boundaries_s", dominant_eigenpair, tm, tol, right0=right0,
                  compute_lam1=compute_lam1)
        solves.append(b)
        return tm, b

    def observable(fn, *args, **kwargs):
        return timed("observables_s", fn, *args, **kwargs)

    tm, b = solve(z1, compute_xi, warm.get("right") if warm else None)
    dn_dz1 = np.nan
    if fd_step is not None:
        tm_lo, b_lo = solve(z1 - fd_step, right0=b.right)
        tm_hi, b_hi = solve(z1 + fd_step, right0=b.right)
        n_lo = observable(mean_density, tm_lo, b_lo, tol)
        n_hi = observable(mean_density, tm_hi, b_hi, tol)
        dn_dz1 = (n_hi - n_lo) / (2 * fd_step)
    rec = {
        "z1": z1, "z2": z2,
        "density": observable(mean_density, tm, b, tol),
        "dn_dz1": dn_dz1,
        "xi": observable(correlation_length, tm, b) if compute_xi else np.nan,
        "iterations": sum(x.iterations for x in solves),
        "residual_ratio": max(x.residual / x.lam0 for x in solves),
    }
    rec["bffm_z_l18"] = (observable(bffm, tm, loop_z, b, x_type=False, tol=tol)
                        if loop_z is not None else np.nan)
    rec["bffm_x_l18"] = (observable(bffm, tm, loop_x, b, x_type=True, tol=tol)
                        if loop_x is not None else np.nan)
    rec.update(seconds)
    return rec, {"right": b.right}
