import numpy as np
import pytest
import scipy.sparse as sp

from rvbprep.geometry import (build_cluster, cluster_preset, constraint_graph,
                              tee_cluster)
from rvbprep.hilbert import (BasisError, abs_state, enumerate_basis,
                             enumerate_maximal_covers, full_basis,
                             project_to_subspace, rvb_state, StateVector,
                             symmetry_orbits)


def brute_force_basis(graph):
    """Independent sets by scanning all 2^N bitmasks (oracle, N <= ~16)."""
    masks = graph.blocked_masks()
    out = []
    for c in range(1 << graph.n_atoms):
        if all(not (c >> i) & 1 or not (c & masks[i]) for i in range(graph.n_atoms)):
            out.append(c)
    return np.array(out, dtype=np.uint64)


def test_enumerate_basis_matches_brute_force_n12(cluster12):
    g = constraint_graph(cluster12, 2.0)
    basis = enumerate_basis(g)
    assert np.array_equal(basis.configs, brute_force_basis(g))


def test_enumerate_basis_unconstrained_limit():
    cl = build_cluster(2, 1)
    g = constraint_graph(cl, 0.5)     # below nearest-neighbour distance
    assert enumerate_basis(g).dim == 1 << 12


def test_basis_sorted_and_indexable(basis12):
    assert np.all(np.diff(basis12.configs.astype(np.int64)) > 0)
    for idx in (0, basis12.dim // 2, basis12.dim - 1):
        assert basis12.index_of(int(basis12.configs[idx])) == idx
    with pytest.raises(BasisError):
        basis12.index_of((1 << basis12.n_atoms) - 1)


def test_indices_and_contains(basis12):
    sub = basis12.configs[1::7]
    assert np.array_equal(basis12.configs[basis12.indices_of(sub)], sub)
    inside = basis12.contains(sub)
    assert inside.all()
    assert not basis12.contains([np.uint64((1 << 12) - 1)]).any()
    # positions keeps the shape: the index, or -1 past the last
    # configuration and in a gap (3 has two neighbouring atoms excited)
    probe = np.array([[basis12.configs[3], (1 << 12) - 1],
                      [basis12.configs[-1], 3]], np.uint64)
    assert basis12.positions(probe).tolist() == [[3, -1],
                                                 [basis12.dim - 1, -1]]


def test_cover_counts_scale_with_cells():
    for shape, want in (((2, 2), 32), ((2, 3), 128), ((2, 4), 512)):
        covers = enumerate_maximal_covers(build_cluster(*shape))
        assert covers.count == want


def test_no_covers_on_single_cell():
    assert enumerate_maximal_covers(build_cluster(1, 1)).count == 0


def test_covers_touch_every_vertex_once(cluster24, covers24):
    for cover in covers24.covers:
        for v, atoms in cluster24.vertex_incidence.items():
            hit = sum((int(cover) >> a) & 1 for a in atoms)
            assert hit == 1


def test_covers_translation_invariant(cluster24, covers24):
    for d1, d2 in ((1, 0), (0, 1)):
        perm = cluster24.translate_atoms(d1, d2)
        moved = set()
        for cover in covers24.covers:
            shifted = 0
            for a in range(cluster24.n_atoms):
                if (int(cover) >> a) & 1:
                    shifted |= 1 << perm[a]
            moved.add(shifted)
        assert moved == set(int(c) for c in covers24.covers)


def test_rvb_state_normalized(covers24, basis24):
    rvb = rvb_state(covers24, basis24)
    assert abs(rvb.norm - 1.0) < 1e-12
    nz = np.abs(rvb.amplitudes) > 0
    assert nz.sum() == covers24.count
    assert np.allclose(np.abs(rvb.amplitudes[nz]),
                       1.0 / np.sqrt(covers24.count))


def test_rvb_needs_covers(basis12):
    cl = build_cluster(1, 1)
    covers = enumerate_maximal_covers(cl)
    with pytest.raises(BasisError):
        rvb_state(covers, basis12)


def test_sector_weights_and_occupation(basis12):
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(basis12.dim) + 1j * rng.standard_normal(basis12.dim)
    psi = StateVector(basis12, amps / np.linalg.norm(amps))
    w = psi.sector_weights()
    assert abs(w.sum() - 1.0) < 1e-12
    # the summed per-atom density <n_i> equals the sector-weighted
    # excitation count, which is how evolve_sweep records the density
    prob = np.abs(psi.amplitudes) ** 2
    lhs = sum(float(((basis12.configs >> np.uint64(i)) & np.uint64(1))
                    .astype(np.float64) @ prob)
              for i in range(basis12.n_atoms))
    rhs = (np.arange(len(w)) * w).sum()
    assert abs(lhs - rhs) < 1e-12


def test_project_to_subspace(basis12, cluster12):
    wide = enumerate_basis(constraint_graph(cluster12, 1.0))
    assert wide.dim > basis12.dim
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(wide.dim)
    psi = StateVector(wide, amps / np.linalg.norm(amps))
    proj, weight = project_to_subspace(psi, basis12)
    assert 0 < weight < 1
    assert abs(proj.norm - 1.0) < 1e-12
    idx = wide.indices_of(basis12.configs)
    assert np.allclose(proj.amplitudes * np.sqrt(weight),
                       psi.amplitudes[idx])
    with pytest.raises(BasisError):
        project_to_subspace(proj, wide)   # not a subspace in that direction


def test_abs_state(basis12):
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(basis12.dim) + 1j * rng.standard_normal(basis12.dim)
    psi = StateVector(basis12, amps)
    a = abs_state(psi)
    assert abs(a.norm - 1.0) < 1e-12
    assert np.all(a.amplitudes.real >= 0)
    assert np.allclose(a.amplitudes.imag, 0)


def test_full_basis():
    fb = full_basis(10)
    assert fb.dim == 1024
    assert fb.popcounts.max() == 10


def per_bit_orbits(basis, perms):
    """(P, reps) of symmetry_orbits, each permuted image assembled bit by
    bit and each orbit labelled by the smallest basis index it reaches
    (oracle)."""
    labels = np.arange(basis.dim)
    for perm in perms:
        image = np.zeros(basis.dim, dtype=np.uint64)
        for i, j in enumerate(perm):
            bit = (basis.configs >> np.uint64(i)) & np.uint64(1)
            image |= bit << np.uint64(j)
        np.minimum(labels, basis.indices_of(image), out=labels)
    reps, column = np.unique(labels, return_inverse=True)
    sizes = np.bincount(column)
    iso = sp.csr_matrix((1.0 / np.sqrt(sizes[column]),
                         (np.arange(basis.dim), column)),
                        shape=(basis.dim, len(reps)))
    return iso, reps


ORBIT_CASES = [("12", 2.0), ("12", 1.0), ("24", 2.0), ("24", 1.0),
               ("36", 2.0), ("tee36", 2.0)]


def _assert_orbits_match_the_oracle(basis, perms):
    iso, reps = symmetry_orbits(basis, perms)
    want_iso, want_reps = per_bit_orbits(basis, perms)
    assert np.array_equal(reps, want_reps)
    assert iso.shape == want_iso.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(iso, name), getattr(want_iso, name))
    return iso


def _orbit_case(case, radius):
    # the PXP (radius 2) and full-model (radius 1) bases of the presets, and
    # the sheared TEE torus
    cluster = tee_cluster(36) if case == "tee36" else cluster_preset(int(case))
    return cluster, enumerate_basis(constraint_graph(cluster, radius))


@pytest.mark.parametrize("case, radius", ORBIT_CASES)
def test_translation_orbits_match_the_per_bit_oracle(case, radius):
    # the zero-momentum orbits: the translations alone
    cluster, basis = _orbit_case(case, radius)
    translations = [cluster.translate_atoms(d1, d2)
                    for d1 in range(cluster.n1) for d2 in range(cluster.n2)]
    _assert_orbits_match_the_oracle(basis, translations)


@pytest.mark.parametrize("group", ["symmetries", "none"])
@pytest.mark.parametrize("case, radius", ORBIT_CASES)
def test_symmetry_orbits_match_the_per_bit_oracle(case, radius, group):
    # the cluster's whole symmetry group, and no permutation (P = 1)
    cluster, basis = _orbit_case(case, radius)
    if group == "none":
        iso = _assert_orbits_match_the_oracle(basis, [])
        assert (iso != sp.identity(basis.dim)).nnz == 0
    else:
        _assert_orbits_match_the_oracle(basis, cluster.symmetries)


@pytest.mark.parametrize("n_atoms", [12, 24, 36])
def test_rvb_state_is_invariant_under_the_symmetries(n_atoms):
    # the covers map onto covers under every symmetry, so the RVB state is
    # one orbit sum per cover orbit and P P.T leaves it unchanged
    cluster = cluster_preset(n_atoms)
    basis = enumerate_basis(constraint_graph(cluster, 2.0))
    covers = enumerate_maximal_covers(cluster)
    cover_set = set(covers.covers.tolist())
    for perm in cluster.symmetries:
        image = np.zeros(covers.count, dtype=np.uint64)
        for i, j in enumerate(perm):
            image |= ((covers.covers >> np.uint64(i)) & np.uint64(1)) \
                << np.uint64(j)
        assert set(image.tolist()) == cover_set
    rvb = rvb_state(covers, basis).amplitudes
    iso, _ = symmetry_orbits(basis, cluster.symmetries)
    assert np.max(np.abs(iso @ (iso.T @ rvb) - rvb)) <= 1e-14
