import numpy as np
import pytest
import scipy.sparse as sp

from rvbprep import tnet
from rvbprep.ansatz import AnsatzBuilder
from rvbprep.geometry import (build_cluster, hexagon_loop, loop_block_span,
                              parallelogram_loop)
from rvbprep.hilbert import cover_bitsets, full_basis
from rvbprep.tnet import (ATMOST, ENDCAP, XOR, RowMods, RowOperator,
                          TnetError, bffm, correlation_length,
                          cylinder_transfer, density, dominant_eigenpair,
                          double_edge_matrix, double_triangle_tensor,
                          mean_density, parity_signs, phase_diagram_point,
                          single_triangle_tensor, string_expectation,
                          torus_amplitudes, _loop_mods, _row_sites)


# excitation bit of each side for every triangle state: projected, the empty
# triangle and one excited side j (state j + 1); unprojected, state c has
# side j excited when bit j of c is set
TRIANGLE_BITS = {
    True: [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    False: [(c & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)],
}

# the final state of the T = 90 sweep as fitted (fig2_fit_sweep_T90 at
# Delta/Omega = 2.4, rounded) and a point near the fitted sweep states
T90_FINAL = (-0.266 - 0.032j, -0.752 - 0.218j)
COMPLEX_POINTS = [T90_FINAL, (-0.25 + 0.1j, -0.5 + 0.2j)]


def at_complex_points_too(cases, z):
    """Every (projected, L) case at the real point z, under its id without
    z, and at every complex point."""
    return ([pytest.param(p, L, *z, id="%s-%d" % (p, L)) for p, L in cases]
            + [(p, L) + c for c in COMPLEX_POINTS for p, L in cases])

INSERTIONS = [None, ("density", 0), ("density", 2), ("density", None),
              ("zstring", 1), ("zstring", (0, 2)), ("zstring", (0, 1, 2)),
              ("xstring", 0), ("xstring", 2)]


def insertion_matrix(mod, bits):
    """O[c, C] of a triangle insertion between ket state c and bra state C."""
    n = len(bits)
    if mod is None:
        return np.eye(n)
    kind, j = mod
    if kind == "density":
        sides = range(3) if j is None else [j]
        return np.diag([float(sum(b[s] for s in sides)) for b in bits])
    if kind == "zstring":
        sides = (j,) if np.ndim(j) == 0 else j
        return np.diag([float((-1) ** sum(b[s] for s in sides))
                        for b in bits])
    o = np.zeros((n, n))                   # X_j = |0><j+1| + |j+1><0|
    o[0, j + 1] = o[j + 1, 0] = 1.0
    return o


@pytest.mark.parametrize("mod", INSERTIONS)
@pytest.mark.parametrize("z1,z2", [(0.35, 0.6), (0.4 + 0.3j, 0.2 - 0.5j)])
@pytest.mark.parametrize("projected", [True, False])
def test_double_triangle_tensor_matches_ket_bra_oracle(projected, z1, z2,
                                                       mod):
    # D = sum_{c,C} O[c,C] T[c] (x) conj(T[C]) with T the single-layer
    # triangle tensor; the bra's occupation legs are summed, so the double
    # layer keeps the ket's occupation leg (4a + 2b + alpha, or 2a + b)
    if mod is not None and mod[0] == "xstring" and not projected:
        with pytest.raises(TnetError):
            double_triangle_tensor(z1, z2, projected, mod)
        return
    t = single_triangle_tensor(z1, z2, projected)
    n, leg = t.shape[0], t.shape[1]
    n_occ = leg // 2
    ket = t.reshape(n, 2, n_occ, 2, n_occ, 2, n_occ)
    bra = ket.sum(axis=(2, 4, 6)).conj()
    o = insertion_matrix(mod, TRIANGLE_BITS[projected])
    want = np.einsum("cC,cxpyqzr,Cuvw->xupyvqzwr", o, ket, bra).reshape(
        2 * leg, 2 * leg, 2 * leg)
    got = double_triangle_tensor(z1, z2, projected, mod)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


def site_tensor(left, right):
    """C[l, k, u, d] of a site from its halves left[l, d, y] and
    right[y, k, u]."""
    return np.einsum("ldy,yku->lkud", left, right)


def row_chains(sites):
    return [site_tensor(*site) for site in sites]


def oracle_chains(z1, z2, L, projected=True, mods=None):
    """C_n[l, k, u, d] of each site in one contraction of its two triangle
    tensors and four edge matrices, without the library's halves: the
    internal edge e_v0 [down, up], the horizontal bond e_h [up, next down]
    and the lower vertical bond e_v2 [lower up, down]."""
    mods = mods or RowMods()
    edge = double_edge_matrix(ATMOST if projected else np.ones((1, 1)))

    def tri(mod):
        return double_triangle_tensor(z1, z2, projected, mod)
    return [np.einsum("lxw,xy,yru,rk,dw->lkud", tri(mods.down.get(n)),
                      mods.e_v0.get(n, edge), tri(mods.up.get(n)),
                      mods.e_h.get(n, edge), mods.e_v2.get(n, edge),
                      optimize=True) for n in range(L)]


def open_chain(chains):
    """T[l, k, U, V] of consecutive sites, the ring left open."""
    cur = chains[0]                                   # l, k, u, d
    for c in chains[1:]:
        cur = np.einsum("lkud,kmxy->lmuxdy", cur, c)
        s = cur.shape
        cur = cur.reshape(s[0], s[1], s[2] * s[3], s[4] * s[5])
    return cur


def ring_dense(chains):
    """Row transfer matrix by direct ring contraction (oracle): two open
    half rings joined at both ends."""
    h = len(chains) // 2
    left, right = open_chain(chains[:h]), open_chain(chains[h:])
    mat = np.tensordot(left, right, axes=([0, 1], [1, 0]))   # U, V, X, Y
    n_up = left.shape[2] * right.shape[2]
    return mat.transpose(0, 2, 1, 3).reshape(n_up, n_up)


def bond_charges(projected, L):
    """Z2 x Z2 charge of each bond index: the XOR over its L legs of the
    leg's (ket dimer, bra dimer) bits, leg s = (2a + b) * n_occ + alpha."""
    n_occ = 2 if projected else 1
    D = 4 * n_occ
    digits = np.arange(D ** L)[:, None] // D ** np.arange(L)[::-1] % D
    return np.bitwise_xor.reduce(digits // n_occ, axis=1)


@pytest.fixture(scope="module")
def ring_oracles():
    """(chains, ring_dense) of a (projected, L, z1, z2), kept until another
    is asked for: a complex projected L = 4 row takes 0.27 GB."""
    cache = {}

    def get(projected, L, z1, z2):
        key = projected, L, z1, z2
        if key not in cache:
            cache.clear()
            chains = oracle_chains(z1, z2, L, projected)
            cache[key] = chains, ring_dense(chains)
        return cache[key]
    return get


@pytest.mark.parametrize("projected,L,z1,z2", at_complex_points_too([
    (True, 2), (False, 2), (False, 3), (True, 3), (True, 4), (False, 4)],
    (0.35, 0.6)))
def test_row_operator_matches_ring_contraction(ring_oracles, projected, L,
                                               z1, z2):
    chains, want = ring_oracles(projected, L, z1, z2)
    sites = _row_sites(z1, z2, L, projected)
    for got, ref in zip(row_chains(sites), chains):
        assert np.allclose(got, ref, rtol=0, atol=1e-15 * np.abs(ref).max())
    op = RowOperator(sites)
    if op.dim <= 512:
        got = op.dense()
        assert np.allclose(got, want, atol=1e-12 * np.max(np.abs(want)))
    # matrix-free apply on a random vector of all four sectors
    rng = np.random.default_rng(31)
    v = rng.standard_normal(op.dim)
    assert np.allclose(op.apply(v), want @ v, atol=1e-10)
    _assert_matches_in_each_sector(op, want, bond_charges(projected, L), L,
                                   41 + L)


def _assert_matches_in_each_sector(op, want, charge, L, seed):
    # a vector of one sector Q lands in Q ^ 3 (L mod 2), with exact zeros
    # in the other three; told its sector, apply gives the same bits
    rng = np.random.default_rng(seed)
    scale = np.max(np.abs(want))
    for q in range(4):
        v = rng.standard_normal(op.dim) * (charge == q)
        outside = charge != (q ^ 3 * (L % 2))
        got, ref = op.apply(v), want @ v
        assert np.max(np.abs(ref[outside])) < 1e-12 * scale
        assert np.all(got[outside] == 0.0)
        assert np.allclose(got, ref, rtol=0,
                           atol=1e-12 * scale * np.abs(v).sum())
        assert op.apply(v, sector=q).tobytes() == got.tobytes()


@pytest.mark.parametrize("projected,L,loops", [
    (True, 4, True), (False, 4, True), (True, 2, False), (False, 6, False)])
def test_row_tensors_conserve_the_dimer_charge(projected, L, loops):
    # every nonzero C_n[l, k, u, d] has c(l) ^ c(k) ^ c(u) ^ c(d) = 3 with
    # c(s) = s // n_occ, on plain rows and on every row of the loops
    D = 8 if projected else 4
    rule = bond_charges(projected, 4).reshape(D, D, D, D)
    rows = [RowMods()]
    if loops:
        loop = parallelogram_loop("diagonal", 4, 1)
        for open_string in (False, True):
            for x_type in (False, True) if projected else (False,):
                rows += _loop_mods(loop, L, open_string, x_type).values()
    for mods in rows:
        for C in row_chains(_row_sites(0.35, 0.6, L, projected, mods)):
            assert np.all(C[rule != 3] == 0.0)
            assert np.any(C[rule == 3] != 0.0)


def random_halves(rng, D, rank):
    """Random halves of a charge-conserving site with inner dimension rank:
    the inner bond y carries the charge y // (rank // 4), left[l, d, y] is
    nonzero where c(l) ^ c(d) ^ c(y) = 0 and right[y, k, u] where
    c(y) ^ c(k) ^ c(u) = 3."""
    c = np.arange(D) // (D // 4)
    cy = np.arange(rank) // (rank // 4)
    left = rng.standard_normal((D, D, rank)) * (
        (c[:, None, None] ^ c[None, :, None] ^ cy) == 0)
    right = rng.standard_normal((rank, D, D)) * (
        (cy[:, None, None] ^ c[None, :, None] ^ c) == 3)
    return left, right


def test_replaced_site_of_higher_rank_matches_ring_contraction():
    # a site built from random charge-conserving halves of inner dimension
    # D * D has a full-rank cut; a row copy that replaces a site with it
    # still applies exactly, with work arrays it shares with the row it
    # came from grown to the new rank
    sites = _row_sites(0.35, 0.6, 3, True)
    chains = row_chains(sites)
    op = RowOperator(sites)
    charge = bond_charges(True, 3)
    v = np.random.default_rng(4).standard_normal(op.dim)
    assert np.allclose(op.apply(v), ring_dense(chains) @ v, rtol=1e-12)
    site = random_halves(np.random.default_rng(5), 8, 64)
    C = site_tensor(*site)
    assert np.all(C[bond_charges(True, 4).reshape(C.shape) != 3] == 0.0)
    assert np.linalg.matrix_rank(C.transpose(0, 3, 1, 2).reshape(64, 64)) == 64
    new = op._with_sites({1: site})
    assert max(a.shape[1] for a, _ in new._factors[1:]) == 64
    want = ring_dense([chains[0], C, chains[2]])
    _assert_matches_in_each_sector(new, want, charge, 3, 6)
    assert np.allclose(new.apply(v), want @ v, rtol=1e-12)
    assert np.allclose(op.apply(v), ring_dense(chains) @ v, rtol=1e-12)


def test_row_breaking_the_charge_is_refused():
    sites = _row_sites(0.35, 0.6, 2, True)
    left, right = sites[1]
    bad = left.copy()
    bad[0, 0, 2] = 1.0        # c(l) ^ c(d) ^ c(y) = 1, not 0: C gains charge 2
    for row in ([sites[0], (bad, right)], [(bad, right), sites[1]]):
        with pytest.raises(TnetError):
            RowOperator(row)
    with pytest.raises(TnetError):
        RowOperator(sites[:1])


@pytest.mark.parametrize("x_type", [False, True])
@pytest.mark.parametrize("open_string", [False, True])
def test_modified_rows_match_a_from_scratch_build(monkeypatch, open_string,
                                                  x_type):
    loop = parallelogram_loop("diagonal", 4, 1)
    tm = cylinder_transfer(0.35, 0.25, 4)
    v = np.random.default_rng(17).standard_normal(tm.dim)
    rows = _loop_mods(loop, 4, open_string, x_type)
    want = {m: RowOperator(_row_sites(tm.z1, tm.z2, 4, True, mods)).apply(v)
            for m, mods in rows.items()}
    built = []
    site_factors = RowOperator._site_factors

    def spy(self, n, site):
        built.append(n)
        return site_factors(self, n, site)
    monkeypatch.setattr(RowOperator, "_site_factors", spy)
    plain_left, plain_right = tm.op._sites[0]
    for m, mods in rows.items():
        touched = (set(mods.up) | set(mods.down) | set(mods.e_v0)
                   | set(mods.e_h) | set(mods.e_v2))
        del built[:]
        row = tm.modified(mods)
        assert sorted(built) == sorted(touched)      # only those rebuilt
        assert np.array_equal(row.apply(v), want[m])
        # and of those only the halves that mods touches
        for n, (left, right) in enumerate(row._sites):
            assert (left is plain_left) == (
                n not in set(mods.down) | set(mods.e_v0) | set(mods.e_v2))
            assert (right is plain_right) == (
                n not in set(mods.up) | set(mods.e_h))
    assert np.array_equal(tm.op.apply(v),
                          RowOperator(_row_sites(tm.z1, tm.z2, 4)).apply(v))


def test_dominant_eigenpair_applies_the_row_once_per_iteration(
        monkeypatch):
    # only the right boundary is iterated: one row apply per power
    # iteration, none for the left boundary, cold or warm started
    tm = cylinder_transfer(0.3, 0.4, 4)
    calls = []
    apply = RowOperator.apply

    def spy(self, v, sector=None):
        calls.append(sector)
        return apply(self, v, sector)
    monkeypatch.setattr(RowOperator, "apply", spy)
    b1 = dominant_eigenpair(tm, compute_lam1=False)
    assert calls == [0] * b1.iterations
    del calls[:]
    b2 = dominant_eigenpair(cylinder_transfer(0.31, 0.4, 4),
                            right0=b1.right, compute_lam1=False)
    assert calls == [0] * b2.iterations
    assert 0 < b2.iterations < b1.iterations


def test_row_operator_with_insertions_matches_oracle():
    mods = RowMods()
    mods.up[0] = ("density", None)
    mods.down[1] = ("zstring", 1)
    op = RowOperator(_row_sites(0.4, 0.3, 2, True, mods))
    want = ring_dense(oracle_chains(0.4, 0.3, 2, True, mods))
    assert np.allclose(op.dense(), want, atol=1e-12 * np.max(np.abs(want)))
    _assert_matches_in_each_sector(op, want, bond_charges(True, 2), 2, 52)
    # row 0 of the open x string carries X insertions and an ENDCAP edge
    loop = parallelogram_loop("diagonal", 4, 1)
    mods = _loop_mods(loop, 4, True, True)[0]
    endcaps = [double_edge_matrix(ENDCAP), double_edge_matrix(ENDCAP.T)]
    edges = list(mods.e_v0.values()) + list(mods.e_v2.values())
    assert any(np.array_equal(e, c) for e in edges for c in endcaps)
    assert any(mod[0] == "xstring"
               for mod in list(mods.up.values()) + list(mods.down.values()))
    _assert_matches_in_each_sector(
        RowOperator(_row_sites(0.35, 0.6, 4, True, mods)),
        ring_dense(oracle_chains(0.35, 0.6, 4, True, mods)),
        bond_charges(True, 4), 4, 53)


def site_kinds(projected):
    """Every kind of site change the library builds, as a (RowMods field,
    value) pair (None: a plain site): triangle insertions, and on the
    projected network the x strings and the edge overrides of their
    occupation layer."""
    kinds = [None, ("up", ("density", 1)), ("down", ("density", None)),
             ("up", ("zstring", (0, 2))), ("down", ("zstring", 1))]
    if projected:
        kinds += [("up", ("xstring", 0)), ("down", ("xstring", 2))]
        kinds += [(edge, double_edge_matrix(occ))
                  for edge in ("e_v0", "e_h", "e_v2")
                  for occ in (XOR, ENDCAP, ENDCAP.T)]
    return kinds


# each kind at every site of an L = 2 or 3 row; at L = 4 (projected) four
# rows whose sites hold the 16 kinds, each kind once
FACTORED_ROWS = [
    pytest.param(p, L, placed, id="%s-L%d-kinds%s" % (
        "projected" if p else "unprojected", L,
        "-".join(map(str, placed))))
    for p, L, placed in (
        [(p, L, (i,) * L) for p, L in ((True, 2), (True, 3), (False, 2),
                                       (False, 3))
         for i in range(len(site_kinds(p)))]
        + [(True, 4, tuple(range(j, j + 4))) for j in range(0, 16, 4)])]


@pytest.mark.parametrize("projected,L,placed", FACTORED_ROWS)
def test_factored_rows_match_ring_contraction(projected, L, placed):
    # the row built from its halves, and its transpose, against the ring
    # contraction of the oracle site tensors, in all four charge sectors
    mods = RowMods()
    for n, i in enumerate(placed):
        kind = site_kinds(projected)[i]
        if kind is not None:
            getattr(mods, kind[0])[n] = kind[1]
    tm = cylinder_transfer(0.35, 0.6, L, projected)
    want = ring_dense(oracle_chains(0.35, 0.6, L, projected, mods))
    assert np.any(want != 0.0)
    _assert_matches_in_each_sector(tm.modified(mods), want,
                                   bond_charges(projected, L), L, 61 + L)


def test_rows_are_built_without_a_decomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")
    monkeypatch.setattr(np.linalg, "svd", refuse)
    loop = parallelogram_loop("diagonal", 4, 1)
    tm = cylinder_transfer(0.35, 0.25, 4)
    v = np.random.default_rng(3).standard_normal(tm.dim)
    assert np.all(np.isfinite(tm.op.apply(v)))
    for x_type in (False, True):
        for mods in _loop_mods(loop, 4, True, x_type).values():
            assert np.all(np.isfinite(tm.modified(mods).apply(v)))
    b = dominant_eigenpair(tm)
    assert b.lam1_abs > 0
    assert np.isfinite(bffm(tm, loop, b)) and np.isfinite(
        bffm(tm, loop, b, x_type=True))


def test_string_rows_are_built_once_per_loop():
    # equal loops share their RowMods, so a repeated string reuses them
    a = _loop_mods(parallelogram_loop("diagonal", 4, 1), 4, True, True)
    b = _loop_mods(parallelogram_loop("diagonal", 4, 1), 4, True, True)
    assert a is b
    assert _loop_mods(parallelogram_loop("diagonal", 4, 1), 4, False,
                      True) is not a


def test_modified_with_no_mods_is_identity_change():
    tm = cylinder_transfer(0.2, 0.5, 2)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(tm.dim)
    assert np.allclose(tm.modified(RowMods()).apply(v), tm.op.apply(v))


def test_transfer_conserves_ring_parity():
    # a row maps each parity sector into itself (even L), with exact zeros
    # outside it; the sign pair is the bits of the sector's charge
    tm = cylinder_transfer(0.3, 0.4, 2)
    sk, sb = parity_signs(True, 2)
    charge = bond_charges(True, 2)
    assert np.array_equal(sk < 0, charge >= 2)
    assert np.array_equal(sb < 0, charge % 2 == 1)
    rng = np.random.default_rng(9)
    for mk, mb in ((sk > 0, sb > 0), (sk < 0, sb < 0),
                   (sk > 0, sb < 0), (sk < 0, sb > 0)):
        mask = (mk & mb).astype(float)
        v = rng.standard_normal(tm.dim) * mask
        w = tm.op.apply(v)
        assert np.all(w[mask == 0] == 0.0)
        assert np.all(w[mask == 1] != 0.0)


def test_dominant_eigenpair_matches_dense_sector():
    for z1, z2 in [(0.3, 0.4)] + COMPLEX_POINTS:
        tm = cylinder_transfer(z1, z2, 2)
        b = dominant_eigenpair(tm)
        mat = tm.op.dense()
        sk, sb = parity_signs(True, 2)
        idx = np.nonzero((sk > 0) & (sb > 0))[0]
        evals = np.linalg.eigvals(mat[np.ix_(idx, idx)])
        # the dense lambda0 is real too
        lam0 = evals[np.argmax(evals.real)]
        assert b.lam0 == pytest.approx(lam0, rel=1e-8)
        # fixed-point property and bi-orthonormalization
        assert np.linalg.norm(tm.op.apply(b.right) - b.lam0 * b.right) < 1e-6
        assert abs(b.left @ b.right - 1.0) < 1e-8
        # lambda1 is the second-largest identity-sector magnitude
        sub = np.sort(np.abs(evals))[-2]
        assert b.lam1_abs == pytest.approx(sub, rel=1e-8)
        assert b.lam1_abs < b.lam0


def mirror_matrix(projected, L):
    """G = R E^(x L) as a sparse matrix: the plain edge matrix E on every
    leg, then the legs in reverse order."""
    edge = sp.csr_matrix(double_edge_matrix(ATMOST if projected
                                            else np.ones((1, 1))))
    g = edge
    for _ in range(L - 1):
        g = sp.kron(g, edge, format="csr")
    D = edge.shape[0]
    return g[np.arange(D ** L).reshape((D,) * L).transpose().ravel()]


MIRROR_POINTS = [(0.0, 0.3), (0.05, 0.02), (1.5, 0.8),
                 (-0.4, -0.25)] + COMPLEX_POINTS


@pytest.mark.parametrize("z1,z2", MIRROR_POINTS)
@pytest.mark.parametrize("projected,L", [
    (True, 2), (True, 3), (True, 4), (False, 2), (False, 3), (False, 4)])
def test_plain_rows_are_mirror_symmetric(projected, L, z1, z2):
    # G T = T^t G on the ring contraction of the oracle site tensors,
    # compared a block of rows at a time; tm.mirror is G
    want = ring_dense(oracle_chains(z1, z2, L, projected))
    g = mirror_matrix(projected, L)
    scale = np.abs(want).max()
    for lo in range(0, len(want), 512):
        rows = slice(lo, lo + 512)
        gt = g[rows] @ want
        tg = (g.T @ want[:, rows]).T
        assert np.abs(gt - tg).max() <= 1e-13 * scale
    tm = cylinder_transfer(z1, z2, L, projected)
    v = np.random.default_rng(L).standard_normal(tm.dim)
    assert np.allclose(tm.mirror(v), g @ v, rtol=0, atol=1e-13)


@pytest.mark.parametrize("projected,L,z1,z2", at_complex_points_too([
    (True, 2), (True, 4), (False, 2), (False, 4)], (0.35, 0.6)))
def test_left_boundary_is_the_dense_left_eigenvector(ring_oracles,
                                                     projected, L, z1, z2):
    _, want = ring_oracles(projected, L, z1, z2)
    tm = cylinder_transfer(z1, z2, L, projected)
    b = dominant_eigenpair(tm)
    idx = np.flatnonzero(bond_charges(projected, L) == 0)
    vals, vecs = np.linalg.eig(want[np.ix_(idx, idx)].T)
    top = np.argmax(vals.real)
    assert b.lam0 == pytest.approx(vals[top], rel=1e-9)
    left = vecs[:, top]
    left /= left @ b.right[idx]
    assert np.abs(b.left[idx] - left).max() <= 1e-8 * np.abs(left).max()
    assert np.all(np.delete(b.left, idx) == 0.0)
    assert b.left @ b.right == pytest.approx(1.0, abs=1e-14)


def test_row_breaking_the_mirror_is_refused(monkeypatch):
    # an ENDCAP edge keeps the dimer charge but breaks the mirror symmetry,
    # so a transfer matrix whose plain site carried one is refused
    triangle, edge = tnet._triangles(0.35, 0.6, True), tnet.NETWORKS[True].edge
    tnet._check_mirror(tnet._site_halves(triangle, edge, RowMods(), 0), edge)
    halves = tnet._site_halves

    def endcapped(triangle, edge, mods, n, plain=None):
        mods = RowMods(e_v0={n: double_edge_matrix(ENDCAP)})
        return halves(triangle, edge, mods, n, plain)
    monkeypatch.setattr(tnet, "_site_halves", endcapped)
    RowOperator(_row_sites(0.35, 0.6, 2))           # conserves the charge
    with pytest.raises(TnetError, match="mirror"):
        cylinder_transfer(0.35, 0.6, 2)


@pytest.mark.parametrize("projected,L", [(True, 4), (False, 6)])
def test_apply_told_the_identity_sector_is_bit_equal(projected, L):
    tm = cylinder_transfer(0.3, 0.2, L, projected)
    in_id = bond_charges(projected, L) == 0
    v = np.random.default_rng(8).standard_normal(tm.dim) * in_id
    loop = parallelogram_loop("diagonal", 4, 1)
    rows = [tm.op] + [tm.modified(mods) for mods in
                      _loop_mods(loop, L, True, False).values()]
    for row in rows:
        got = row.apply(v, sector=0)
        assert got.tobytes() == row.apply(v).tobytes()
        assert np.all(got[~in_id] == 0.0) and np.any(got != 0.0)


def test_odd_circumference_refused():
    tm = cylinder_transfer(0.3, 0.3, 3)
    with pytest.raises(TnetError):
        dominant_eigenpair(tm)
    with pytest.raises(TnetError):
        cylinder_transfer(0.1, 0.1, 10)


@pytest.mark.parametrize("z1,z2", [(0.0, 0.0), (0.5, 0.3),
                                   (1.2, 0.8)] + COMPLEX_POINTS)
def test_torus_amplitudes_match_ansatz_projected(cluster12, basis12,
                                                 covers12, z1, z2):
    tn = torus_amplitudes(z1, z2, cluster12, basis12, projected=True)
    direct = AnsatzBuilder(covers12, basis12).build(z1, z2)
    ov = abs(np.vdot(tn.amplitudes, direct.amplitudes))
    assert ov > 1 - 1e-10


def test_torus_amplitudes_match_ansatz_unprojected(cluster12, covers12):
    fb = full_basis(12)
    tn = torus_amplitudes(0.4, 0.5, cluster12, fb, projected=False)
    direct = AnsatzBuilder(covers12, fb).build(0.4, 0.5)
    assert abs(np.vdot(tn.amplitudes, direct.amplitudes)) > 1 - 1e-10


def test_rvb_density_is_quarter():
    tm = cylinder_transfer(0.0, 0.0, 2)
    b = dominant_eigenpair(tm)
    assert mean_density(tm, b) == pytest.approx(0.25, abs=1e-10)
    subl = density(tm, b)
    assert np.allclose(subl, 0.25, atol=1e-10)


def test_mean_density_equals_sublattice_average():
    tm = cylinder_transfer(0.45, 0.7, 2)
    b = dominant_eigenpair(tm)
    assert mean_density(tm, b) == pytest.approx(
        float(np.mean(density(tm, b))), abs=1e-10)


def test_correlation_length_consistent():
    tm = cylinder_transfer(0.3, 0.3, 2)
    b = dominant_eigenpair(tm)
    xi = correlation_length(tm, b)
    assert xi == pytest.approx(1.0 / np.log(b.lam0 / b.lam1_abs), rel=1e-12)
    assert 0 < xi < np.inf


def test_string_expectations_and_bffm():
    loop = hexagon_loop("diagonal", 1)
    assert loop_block_span(loop) <= 4
    # diagonal strings stay sign-definite deep in the dimer-rich region
    tm = cylinder_transfer(1.5, 0.1, 4)
    b = dominant_eigenpair(tm)
    closed = string_expectation(tm, loop, b, open_string=False)
    assert 0 < closed <= 1 + 1e-10
    val_z = bffm(tm, loop, b, x_type=False)
    val_x = bffm(tm, loop, b, x_type=True)
    assert np.isfinite(val_z) and np.isfinite(val_x)
    # off-diagonal strings only exist in the projected network
    tmu = cylinder_transfer(1.5, 0.1, 4, projected=False)
    with pytest.raises(TnetError):
        string_expectation(tmu, loop, x_type=True)


POINT_KEYS = {"z1", "z2", "density", "dn_dz1", "xi", "iterations",
              "residual_ratio", "transfer_s", "boundaries_s", "observables_s"}


def test_phase_diagram_point_record():
    rec, warm = phase_diagram_point(0.3, 0.3, 2, compute_xi=True)
    assert set(rec) == POINT_KEYS
    assert all(rec[k] > 0.0
               for k in ("transfer_s", "boundaries_s", "observables_s"))
    # the counters sum the three boundary solves (central, z1 -/+ fd_step)
    tm = cylinder_transfer(0.3, 0.3, 2)
    b = dominant_eigenpair(tm)
    assert rec["iterations"] > b.iterations
    assert 0.0 <= rec["residual_ratio"] <= 1e-10 * 1.01
    assert 0 < rec["density"] < 0.25
    assert rec["dn_dz1"] < 0
    assert rec["xi"] > 0
    assert set(warm) == {"right"}
    # warm-started repeat reproduces the same numbers
    rec2, _ = phase_diagram_point(0.3, 0.3, 2, warm=warm)
    assert rec2["density"] == pytest.approx(rec["density"], abs=1e-9)
    # an x loop on the unprojected network is refused, not left NaN
    with pytest.raises(TnetError, match="projected"):
        phase_diagram_point(0.3, 0.3, 2, projected=False, loops={
            "bffm_x": (hexagon_loop("diagonal", 1), True)})


@pytest.mark.parametrize("z1,z2", [(0.3, 0.3), (1.5, 0.1)])
def test_phase_diagram_point_loops_are_bffm_on_a_cold_solve(z1, z2):
    # each loops entry is tnet.bffm on the point's own cold boundaries,
    # to the last bit, as bffm-scaling writes it
    hexagon, strip = hexagon_loop("diagonal", 1), parallelogram_loop(
        "diagonal", 2, 1)
    loops = {(i, x_type): (loop, x_type) for i, loop in enumerate(
        (hexagon, strip)) for x_type in (False, True)}
    rec, _ = phase_diagram_point(z1, z2, 4, True, loops, fd_step=None,
                                 compute_xi=False)
    assert set(rec) == POINT_KEYS | set(loops)
    tm = cylinder_transfer(z1, z2, 4)
    b = dominant_eigenpair(tm, compute_lam1=False)
    assert rec["iterations"] == b.iterations
    for key, (loop, x_type) in loops.items():
        assert rec[key] == bffm(tm, loop, b, x_type=x_type)


@pytest.mark.parametrize("projected,L,z1,z2", [
    # unprojected L = 4, one point on each side of the xi ridge
    (False, 4, 0.5, 0.05), (False, 4, 1.3, 0.05),
    # lambda1 a complex pair (projected L = 2), or small and within 2 % in
    # magnitude of complex eigenvalues (unprojected L = 4, small z)
    (True, 2, 0.7, 0.3), (True, 2, 1.5, 0.05),
    (False, 4, 0.3, 0.05), (False, 4, 0.05, 0.05)]
    + [(p, L) + z for z in COMPLEX_POINTS for p, L in ((True, 2), (False, 4))])
def test_correlation_length_matches_dense_identity_sector(projected, L, z1,
                                                          z2):
    tm = cylinder_transfer(z1, z2, L, projected=projected)
    b = dominant_eigenpair(tm)
    sk, sb = parity_signs(projected, L)
    idx = np.nonzero((sk > 0) & (sb > 0))[0]
    mags = np.sort(np.abs(np.linalg.eigvals(
        tm.op.dense()[np.ix_(idx, idx)])))[::-1]
    assert b.lam0 == pytest.approx(mags[0], rel=1e-9)
    assert b.lam1_abs == pytest.approx(mags[1], rel=1e-8)
    assert correlation_length(tm, b) == pytest.approx(
        1.0 / np.log(mags[0] / mags[1]), rel=1e-7)


@pytest.mark.parametrize("L,z2", [(2, 0.05), (2, 0.3), (2, 0.8), (4, 0.3)])
def test_vanishing_lambda1_gives_zero_xi(L, z2):
    # at z1 = 0 the projected identity sector's lambda1 is exactly 0; ARPACK
    # returns roundoff there that differs from call to call
    tm = cylinder_transfer(0.0, z2, L)
    for _ in range(2):
        b = dominant_eigenpair(tm)
        assert b.lam1_abs == 0.0
        assert correlation_length(tm, b) == 0.0


def _cover_average(covers, fn):
    return sum(fn(c) for c in covers) / len(covers)


def test_closed_loops_at_rvb_match_cover_enumeration():
    # the 3 x 4 torus (72 atoms, 8192 covers) holds each loop without
    # wrapping; at z = 0 the network state is the equal-weight RVB
    cluster = build_cluster(3, 4)
    covers = cover_bitsets(cluster)
    cover_set = set(covers)
    tm = cylinder_transfer(0.0, 0.0, 4)
    b = dominant_eigenpair(tm, compute_lam1=False)
    for loop in (hexagon_loop("diagonal", 1),
                 parallelogram_loop("diagonal", 2, 1),
                 parallelogram_loop("diagonal", 3, 1)):
        crossing = [cluster.atom_id(*a) for links in loop.crossing
                    for a in links]
        path = loop.atom_ids(cluster)
        assert len(set(crossing)) == len(crossing)
        assert len(set(path)) == len(path)
        z_mask = sum(1 << a for a in crossing)
        x_mask = sum(1 << a for a in path)
        want_z = _cover_average(
            covers, lambda c: (-1) ** bin(c & z_mask).count("1"))
        # Gauss law: every cover gives the same sign
        assert want_z == (-1) ** len(loop.enclosed)
        want_x = _cover_average(covers, lambda c: (c ^ x_mask) in cover_set)
        got_z = string_expectation(tm, loop, b)
        got_x = string_expectation(tm, loop, b, x_type=True)
        assert got_z == pytest.approx(want_z, abs=1e-12)
        assert got_x == pytest.approx(want_x, abs=1e-12)
        # so the diagonal BFFM vanishes at the RVB point: the open half
        # string averages to zero
        assert abs(string_expectation(tm, loop, b, open_string=True)) < 1e-12
    assert string_expectation(tm, hexagon_loop("diagonal", 1), b,
                              x_type=True) == pytest.approx(1 / 32, abs=1e-12)


@pytest.mark.slow
def test_figs3_loops_have_nonzero_closed_loops_at_rvb():
    from rvbprep import cli
    cfg = cli.EXPERIMENT_DEFAULTS["figS3_bffm_scaling"][1]
    tm = cylinder_transfer(0.0, 0.0, cfg["circumference"])
    b = dominant_eigenpair(tm, compute_lam1=False)
    for spec in cfg["loops"]:
        loop = cli._build_loop(spec)
        closed_z = string_expectation(tm, loop, b)
        assert closed_z == pytest.approx((-1) ** len(loop.enclosed),
                                         abs=1e-9)
        assert abs(string_expectation(tm, loop, b, x_type=True)) > 1e-12


@pytest.mark.parametrize("z1,z2", COMPLEX_POINTS)
def test_observables_at_conjugate_and_negated_z(z1, z2):
    # phi(conj z) = conj(phi(z)), and M(-z) = S M(z) S with S = diag(1, -1)
    # makes phi(-z) equal (-1)^n phi(z) up to a global sign: densities, xi
    # and Z strings are unchanged by either, and each X of a string changes
    # sign at -z (the open half string of this loop has three)
    loop = hexagon_loop("diagonal", 1)
    assert len(loop.open_atoms) == 3

    def observe(z1, z2):
        tm = cylinder_transfer(z1, z2, 4)
        b = dominant_eigenpair(tm, tol=1e-13)
        return np.array([
            mean_density(tm, b), correlation_length(tm, b), bffm(tm, loop, b),
            bffm(tm, loop, b, x_type=True),
            string_expectation(tm, loop, b, open_string=True, x_type=True)])

    at_z = observe(z1, z2)
    assert np.all(at_z != 0.0)
    assert np.allclose(observe(np.conj(z1), np.conj(z2)), at_z, rtol=1e-12,
                       atol=0)
    flips = np.array([1, 1, 1, 1, -1])
    assert np.allclose(observe(-z1, -z2), flips * at_z, rtol=1e-12, atol=0)


@pytest.mark.parametrize("z1,z2,dtype", [
    (0.3, 0.4, np.float64), (0, 1, np.float64), (0.3 + 0j, 0.4, np.complex128),
    T90_FINAL + (np.complex128,)])
def test_rows_and_boundaries_are_complex_exactly_when_z_is(monkeypatch, z1,
                                                           z2, dtype):
    # a real z keeps the row, its insertion rows, every vector the boundary
    # solvers apply it to and the boundaries in float64, so the real grids
    # never run complex products
    applied = set()
    apply = RowOperator.apply

    def spy(self, v, sector=None):
        applied.add(v.dtype)
        return apply(self, v, sector)
    monkeypatch.setattr(RowOperator, "apply", spy)
    tm = cylinder_transfer(z1, z2, 4)
    b = dominant_eigenpair(tm)
    assert applied == {np.dtype(dtype)}
    rows = [tm.op] + [tm.modified(mods) for x_type in (False, True)
                      for mods in _loop_mods(hexagon_loop("diagonal", 1), 4,
                                             True, x_type).values()]
    assert {row.dtype for row in rows} == {np.dtype(dtype)}
    assert b.right.dtype == b.left.dtype == dtype
    assert type(b.lam0) is float and type(b.lam1_abs) is float


@pytest.mark.parametrize("phase", [-1.0, np.exp(0.25j * np.pi)])
def test_dominant_eigenvalue_must_be_real_and_positive(phase):
    # the power iteration converges on the row times a phase, whose
    # lambda0 the boundary solve refuses
    tm = cylinder_transfer(0.3, 0.4, 2)
    apply = tm.op.apply
    tm.op.apply = lambda v, sector=None: phase * apply(v, sector)
    with pytest.raises(TnetError, match="not real and positive"):
        dominant_eigenpair(tm, compute_lam1=False)


def test_cold_start_is_reproducible():
    # cold starts and the Arnoldi start vector come from a fixed seed, so
    # repeated calls agree to the last bit
    tm = cylinder_transfer(0.4, 0.3, 4)
    b1 = dominant_eigenpair(tm)
    b2 = dominant_eigenpair(tm)
    assert np.array_equal(b1.right, b2.right)
    assert np.array_equal(b1.left, b2.left)
    assert b1.lam0 == b2.lam0
    assert b1.lam1_abs == b2.lam1_abs
