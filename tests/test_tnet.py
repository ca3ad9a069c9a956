import numpy as np
import pytest

from rvbprep.ansatz import AnsatzBuilder
from rvbprep.geometry import (build_cluster, hexagon_loop, loop_block_span,
                              parallelogram_loop)
from rvbprep.hilbert import cover_bitsets, full_basis
from rvbprep.tnet import (RowMods, RowOperator, TnetError, bffm,
                          correlation_length, cylinder_transfer, density,
                          dominant_eigenpair,
                          double_triangle_tensor, mean_density,
                          parity_signs, phase_diagram_point,
                          single_triangle_tensor, string_expectation,
                          torus_amplitudes, _row_chains)


# excitation bit of each side for every triangle state: projected, the empty
# triangle and one excited side j (state j + 1); unprojected, state c has
# side j excited when bit j of c is set
TRIANGLE_BITS = {
    True: [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    False: [(c & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)],
}

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


def ring_dense(chains):
    """Row transfer matrix by direct ring contraction (oracle)."""
    cur = chains[0]                                   # l, k, u, d
    for c in chains[1:]:
        cur = np.einsum("lkud,kmxy->lmuxdy", cur, c)
        s = cur.shape
        cur = cur.reshape(s[0], s[1], s[2] * s[3], s[4] * s[5])
    return np.einsum("lluv->uv", cur)


@pytest.mark.parametrize("projected,L", [(True, 2), (False, 2), (False, 3)])
def test_row_operator_matches_ring_contraction(projected, L):
    chains = _row_chains(0.35, 0.6, L, projected)
    op = RowOperator(chains)
    want = ring_dense(chains)
    got = op.dense()
    assert np.allclose(got, want, atol=1e-12 * np.max(np.abs(want)))
    # matrix-free apply on a random vector
    rng = np.random.default_rng(31)
    v = rng.standard_normal(op.dim)
    assert np.allclose(op.apply(v), want @ v, atol=1e-10)
    assert np.allclose(op.transpose_operator().apply(v), want.T @ v,
                       atol=1e-10)


def test_row_operator_with_insertions_matches_oracle():
    mods = RowMods()
    mods.up[0] = ("density", None)
    mods.down[1] = ("zstring", 1)
    chains = _row_chains(0.4, 0.3, 2, True, mods)
    op = RowOperator(chains)
    want = ring_dense(chains)
    assert np.allclose(op.dense(), want, atol=1e-12 * np.max(np.abs(want)))


def test_modified_with_no_mods_is_identity_change():
    tm = cylinder_transfer(0.2, 0.5, 2)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(tm.dim)
    assert np.allclose(tm.modified(RowMods()).apply(v), tm.op.apply(v))


def test_transfer_conserves_ring_parity():
    tm = cylinder_transfer(0.3, 0.4, 2)
    sk, sb = parity_signs(True, 2)
    rng = np.random.default_rng(9)
    for mk, mb in ((sk > 0, sb > 0), (sk < 0, sb < 0),
                   (sk > 0, sb < 0), (sk < 0, sb > 0)):
        mask = (mk & mb).astype(float)
        v = rng.standard_normal(tm.dim) * mask
        w = tm.op.apply(v)
        assert np.max(np.abs(w * (1.0 - mask))) < 1e-12 * max(
            1.0, np.max(np.abs(w)))


def test_dominant_eigenpair_matches_dense_sector():
    tm = cylinder_transfer(0.3, 0.4, 2)
    b = dominant_eigenpair(tm)
    mat = tm.op.dense()
    sk, sb = parity_signs(True, 2)
    idx = np.nonzero((sk > 0) & (sb > 0))[0]
    evals = np.linalg.eigvals(mat[np.ix_(idx, idx)])
    lam0 = float(np.max(evals.real))
    assert b.lam0 == pytest.approx(lam0, rel=1e-8)
    # fixed-point property and bi-orthonormalization
    assert np.linalg.norm(tm.op.apply(b.right) - b.lam0 * b.right) < 1e-6
    assert abs(b.left @ b.right - 1.0) < 1e-8
    # lambda1 is the second-largest identity-sector magnitude
    sub = np.sort(np.abs(evals))[-2]
    assert b.lam1_abs == pytest.approx(sub, rel=1e-8)
    assert b.lam1_abs < b.lam0


def test_odd_circumference_refused():
    tm = cylinder_transfer(0.3, 0.3, 3)
    with pytest.raises(TnetError):
        dominant_eigenpair(tm)
    with pytest.raises(TnetError):
        cylinder_transfer(0.1, 0.1, 10)


@pytest.mark.parametrize("z1,z2", [(0.0, 0.0), (0.5, 0.3), (1.2, 0.8)])
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


def test_phase_diagram_point_record():
    rec, warm = phase_diagram_point(0.3, 0.3, 2, compute_xi=True)
    assert set(rec) == {"z1", "z2", "density", "dn_dz1", "xi",
                        "bffm_z_l18", "bffm_x_l18"}
    assert 0 < rec["density"] < 0.25
    assert rec["dn_dz1"] < 0
    assert rec["xi"] > 0
    assert set(warm) == {"right", "left"}
    # warm-started repeat reproduces the same numbers
    rec2, _ = phase_diagram_point(0.3, 0.3, 2, warm=warm)
    assert rec2["density"] == pytest.approx(rec["density"], abs=1e-9)


@pytest.mark.parametrize("projected,L,z1,z2", [
    # unprojected L = 4, one point on each side of the xi ridge
    (False, 4, 0.5, 0.05), (False, 4, 1.3, 0.05),
    # lambda1 a complex pair (projected L = 2), or small and within 2 % in
    # magnitude of complex eigenvalues (unprojected L = 4, small z)
    (True, 2, 0.7, 0.3), (True, 2, 1.5, 0.05),
    (False, 4, 0.3, 0.05), (False, 4, 0.05, 0.05)])
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
