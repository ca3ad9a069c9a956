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
layer because the occupation legs of bra and ket coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .geometry import triangle_vertices

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
    """Per-atom map (1 + z2 s+)(1 + z1 s-) in the (g, r) basis."""
    return np.array([[1.0, z1], [z2, 1.0 + z1 * z2]], dtype=complex)


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
    projected network.
    """
    net = NETWORKS[projected]
    o = _insertion(mod, net)
    k = _dimer_tensor(z1, z2, net.states)
    n = 4 * net.n_occ
    D = np.einsum("cC,cxyz,Cuvw,cpqr->xupyvqzwr", o, k, k.conj(),
                  net.occ_legs).reshape(n, n, n)
    if np.max(np.abs(D.imag)) < 1e-300:
        D = D.real
    return D


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

    Keys of the dicts are the block index n (0..L-1).  Edge override values
    are full edge matrices.
    """
    up: dict = field(default_factory=dict)      # n -> triangle mod tuple
    down: dict = field(default_factory=dict)    # n -> triangle mod tuple
    e_v0: dict = field(default_factory=dict)    # internal edge of block n
    e_h: dict = field(default_factory=dict)     # bond between blocks n, n+1
    e_v2: dict = field(default_factory=dict)    # lower vertical bond of block n


def _block_tensor(up_t, down_t, e_v0, e_v2):
    """B[l, r, d, u] for one block.

    up legs: (v0 internal, v1 right, v2 up); down legs: (v1 left,
    v0 internal, v2 down).  The lower vertical bond matrix e_v2 (oriented
    [lower up-triangle, this down-triangle]) is absorbed into the d leg.
    """
    # down_t[l, x, draw], e_v0[x, y] ([down side, up side]), up_t[y, r, u]
    core = np.einsum("lxd,xy,yru->lrdu", down_t, e_v0, up_t)
    return np.einsum("lrdu,ed->lreu", core, e_v2)


def _row_blocks(z1, z2, L, projected, mods=None):
    mods = mods or RowMods()
    plain = double_triangle_tensor(z1, z2, projected)
    e_plain = double_edge_matrix(NETWORKS[projected].occ_edge)
    blocks = []
    for n in range(L):
        up_t = plain if n not in mods.up else double_triangle_tensor(
            z1, z2, projected, mods.up[n])
        down_t = plain if n not in mods.down else double_triangle_tensor(
            z1, z2, projected, mods.down[n])
        e_v0 = mods.e_v0.get(n, e_plain)
        e_v2 = mods.e_v2.get(n, e_plain)
        blocks.append(_block_tensor(up_t, down_t, e_v0, e_v2))
    e_hs = [mods.e_h.get(n, e_plain) for n in range(L)]
    return blocks, e_hs


def _row_chains(z1, z2, L, projected=True, mods=None):
    """Per-site tensors C_n[l, k, u, d] of the row, horizontal bond absorbed."""
    blocks, e_hs = _row_blocks(z1, z2, L, projected, mods)
    chains = []
    for n in range(L):
        C = np.einsum("lrdu,rk->lkud", blocks[n], e_hs[n])
        if np.iscomplexobj(C) and np.max(np.abs(C.imag)) < 1e-300:
            C = np.ascontiguousarray(C.real)
        chains.append(C)
    return chains


class RowOperator:
    """Matrix-free application of one cylinder row to a bond-space vector.

    The row is a ring of L four-leg tensors C[l, k, u, d]; applying it
    keeps the ring-closing horizontal index open (an extra factor D) and
    performs one (D*D x D*D) matrix product per site.
    """

    def __init__(self, chains):
        self.L = len(chains)
        self.D = chains[0].shape[0]
        D = self.D
        self._chains = [np.asarray(c) for c in chains]
        # W0[(l0, u0, l1), d0]; later sites split by SVD across the
        # (l, d) | (k, u) cut, whose rank stays at the bond dimension
        self.w0 = np.ascontiguousarray(
            chains[0].transpose(0, 2, 1, 3).reshape(D * D * D, D))
        self.factors = []
        for c in chains[1:]:
            m = c.transpose(0, 3, 1, 2).reshape(D * D, D * D)   # (l,d) x (k,u)
            u, s, vt = np.linalg.svd(m, full_matrices=False)
            r = max(1, int(np.sum(s > s[0] * 1e-13)))
            a = np.ascontiguousarray(u[:, :r] * s[:r])
            # reorder the right factor columns to (u, k) so the finished
            # physical leg folds into the batch axes by a plain reshape
            b = np.ascontiguousarray(
                vt[:r].reshape(r, D, D).transpose(0, 2, 1).reshape(r, D * D))
            self.factors.append((a, b))
        self.dim = D ** self.L
        self.dtype = np.result_type(*[c.dtype for c in chains])

    _scratch = {}

    @staticmethod
    def _buffers(size, dtype):
        """Four reusable flat work arrays shared across operators."""
        key = (size, np.dtype(dtype).str)
        bufs = RowOperator._scratch.get(key)
        if bufs is None:
            if len(RowOperator._scratch) >= 4:
                RowOperator._scratch.clear()
            bufs = tuple(np.empty(size, dtype=dtype) for _ in range(4))
            RowOperator._scratch[key] = bufs
        return bufs

    def apply(self, v):
        D, L = self.D, self.L
        v = np.asarray(v)
        size = self.dim * D * D
        dtype = np.result_type(self.dtype, v.dtype)
        flip, flop, mid, aux = self._buffers(size, dtype)
        out = flip[:size].reshape(D * D * D, -1)
        np.matmul(self.w0, v.reshape(D, -1), out=out)   # ((l0,u0,l1), d1..)
        cur, nxt_buf = flip, flop
        for j in range(1, L):
            a, b = self.factors[j - 1]
            r = a.shape[1]
            rest = D ** (L - 1 - j)
            batch = size // (D * D * rest)
            out = out.reshape(batch, D * D, rest)       # middle = (l_j, d_j)
            nxt = nxt_buf[:size].reshape(batch, D * D, rest)
            if rest >= batch:
                tmp = mid[:batch * r * rest].reshape(batch, r, rest)
                np.matmul(a.T, out, out=tmp)
                np.matmul(b.T, tmp, out=nxt)            # middle = (u_j, k)
            else:
                # bring the middle axis last so both products are plain
                # GEMMs, then restore the axis order into the target buffer
                tmp = mid[:size].reshape(batch, rest, D * D)
                np.copyto(tmp, np.swapaxes(out, 1, 2))
                g1 = aux[:batch * rest * r].reshape(-1, r)
                np.matmul(tmp.reshape(-1, D * D), a, out=g1)
                g2 = cur[:size].reshape(-1, D * D)      # old input, now free
                np.matmul(g1, b, out=g2)
                np.copyto(nxt, np.swapaxes(
                    g2.reshape(batch, rest, D * D), 1, 2))
            out = nxt
            cur, nxt_buf = nxt_buf, cur
        # axes now (l0, u_0..u_{L-1}, ring index); trace the ring closed
        out = out.reshape(D, -1, D)
        return np.array(out.diagonal(axis1=0, axis2=2).sum(axis=-1).ravel())

    def transpose_operator(self):
        """RowOperator of the transposed matrix (u and d legs swapped)."""
        chains = [c.transpose(0, 1, 3, 2) for c in self._chains]
        return RowOperator(chains)

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


@dataclass
class CylinderTransferMatrix:
    z1: float
    z2: float
    circumference: int
    projected: bool
    op: RowOperator = field(repr=False)

    @property
    def dim(self):
        return self.op.dim

    def modified(self, mods):
        return RowOperator(_row_chains(self.z1, self.z2, self.circumference,
                                       self.projected, mods))


def cylinder_transfer(z1, z2, L, projected=True):
    if L > 8:
        raise TnetError("circumference beyond 8 not supported")
    return CylinderTransferMatrix(
        z1=float(z1), z2=float(z2), circumference=L, projected=projected,
        op=RowOperator(_row_chains(z1, z2, L, projected)))


# --- dominant eigenpairs --------------------------------------------------

def parity_signs(projected, L):
    """(-1)^(dimer-bit ring sum) of the ket and bra layers on the bond space.

    The transfer matrix conserves both parities for even L; each horizontal
    exactly-one bond flips the ring parity once, so for odd L the parity
    alternates row by row and no sector decomposition of a single row exists.
    Topologically degenerate points split into near-degenerate dominant
    eigenvalues across sectors; boundary fixed points are therefore computed
    inside the identity sector (both parities even).
    """
    n_occ = NETWORKS[projected].n_occ
    leg = np.arange(4 * n_occ)
    ak, ab = (leg // (2 * n_occ)) & 1, (leg // n_occ) & 1
    sk = np.ones(1)
    sb = np.ones(1)
    for _ in range(L):
        sk = np.kron(sk, (-1.0) ** ak)
        sb = np.kron(sb, (-1.0) ** ab)
    return sk, sb


@dataclass
class Boundaries:
    lam0: float
    lam1_abs: float
    left: np.ndarray
    right: np.ndarray
    iterations: int
    residual: float


def _power_iterate(matvec, x, tol):
    x = x / np.linalg.norm(x)
    res = np.inf
    for it in range(1, POWER_MAX_ITER + 1):
        y = matvec(x)
        lam = float(x @ y)
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
    Both fixed points come from power iteration, started from right0/left0
    when given; the sector's lambda1/lambda0 stays well below 1 (at most
    0.4 on the figS5 grid), so it converges in tens of row applies.
    |lambda1| is the second-largest magnitude of one Arnoldi (ARPACK) solve,
    reported as 0 below tol * lambda0.
    """
    if tm.circumference % 2:
        raise TnetError(
            "odd circumference alternates the dimer-ring parity; "
            "boundary fixed points need an even circumference")
    op = tm.op
    dim = op.dim
    # seeded start vectors keep reruns byte-identical
    rng = np.random.default_rng(START_SEED)
    sk, sb = parity_signs(tm.projected, tm.circumference)
    m_id = ((sk > 0) & (sb > 0)).astype(float)

    def solve(base_apply, x0):
        if x0 is None:
            x0 = np.abs(rng.standard_normal(dim)) + 1e-3
        x0 = np.asarray(x0, dtype=float) * m_id
        return _power_iterate(lambda v: base_apply(v) * m_id, x0, tol)

    lam0, right, it_r, res_r = solve(op.apply, right0)
    lam0l, left, it_l, res_l = solve(op.transpose_operator().apply, left0)
    if lam0 <= 0:
        raise TnetError("dominant eigenvalue is not positive")
    if abs(lam0 - lam0l) > 1e-6 * max(lam0, 1.0):
        raise TnetError("left/right dominant eigenvalues disagree")
    lam1 = np.nan
    if compute_lam1:
        lin = spla.LinearOperator((dim, dim), dtype=np.float64,
                                  matvec=lambda v: op.apply(v) * m_id)
        vals = spla.eigs(lin, k=2, which="LM", tol=tol,
                         v0=rng.standard_normal(dim) * m_id,
                         return_eigenvectors=False)
        lam1 = float(np.sort(np.abs(vals))[0])
        # an exact zero (z1 = 0 on the projected network) comes back as
        # roundoff that varies from call to call
        if lam1 < tol * lam0:
            lam1 = 0.0
    scale = left @ right
    if abs(scale) < 1e-14:
        raise TnetError("left/right boundary vectors are orthogonal")
    left = left / scale
    return Boundaries(lam0=lam0, lam1_abs=lam1, left=left, right=right,
                      iterations=it_r + it_l, residual=max(res_r, res_l))


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
    """(l| prod_m T_mod(m) |r) / (lam0^rows * (l|r)) over the row span."""
    if not mods_by_row:
        return 1.0
    rows = sorted(mods_by_row)
    vec = boundaries.right
    for m in range(rows[0], rows[-1] + 1):
        if m in mods_by_row:
            vec = tm.modified(mods_by_row[m]).apply(vec)
        else:
            vec = tm.op.apply(vec)
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


def _loop_mods(loop, L, open_string, x_type):
    """Per-row RowMods realizing a string insertion on the cylinder.

    Triangle addresses (n, m, 0/1) map to blocks: up(n, m) is the up part
    of block (n mod L, row m); down(n, m) the down part of block
    ((n+1) mod L, row m).  A vertex (n, m, v) maps to the internal edge of
    block n (v = 0), the horizontal bond n..n+1 of row m (v = 1), or the
    vertical bond absorbed into block n of row m+1 (v = 2).
    """
    tris = loop.open_triangles if open_string else loop.triangles
    atoms = loop.open_atoms if open_string else loop.atoms
    from .geometry import loop_block_span
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
    for a caller that differences along its grid instead.  Returns
    (record, warm) where warm holds the boundary vectors for warm-starting
    the next grid point.
    """
    r0 = warm.get("right") if warm else None
    l0 = warm.get("left") if warm else None

    def solve(zz1, compute_lam1=False, right0=None, left0=None):
        tm = cylinder_transfer(zz1, z2, L, projected)
        b = dominant_eigenpair(tm, tol, right0=right0, left0=left0,
                               compute_lam1=compute_lam1)
        return tm, b

    tm, b = solve(z1, compute_xi, r0, l0)
    dn_dz1 = np.nan
    if fd_step is not None:
        tm_lo, b_lo = solve(z1 - fd_step, right0=b.right, left0=b.left)
        tm_hi, b_hi = solve(z1 + fd_step, right0=b.right, left0=b.left)
        n_lo = mean_density(tm_lo, b_lo, tol)
        n_hi = mean_density(tm_hi, b_hi, tol)
        dn_dz1 = (n_hi - n_lo) / (2 * fd_step)
    rec = {
        "z1": z1, "z2": z2,
        "density": mean_density(tm, b, tol),
        "dn_dz1": dn_dz1,
        "xi": correlation_length(tm, b) if compute_xi else np.nan,
    }
    rec["bffm_z_l18"] = (bffm(tm, loop_z, b, x_type=False, tol=tol)
                        if loop_z is not None else np.nan)
    rec["bffm_x_l18"] = (bffm(tm, loop_x, b, x_type=True, tol=tol)
                        if loop_x is not None and projected else np.nan)
    return rec, {"right": b.right, "left": b.left}
