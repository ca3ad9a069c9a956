import numpy as np
import pytest

from rvbprep.geometry import (GeometryError, build_cluster, cluster_preset,
                              constraint_graph, hexagon_loop,
                              kitaev_preskill_regions, loop_block_span,
                              parallelogram_loop, tee_cluster,
                              triangle_vertices)


def test_cluster_counts():
    cl = build_cluster(2, 3)
    assert cl.n_atoms == 36
    assert cl.n_cells == 6
    assert cl.n_vertices == 18
    assert cl.n_triangles == 12


def test_preset_sizes():
    for n in (6, 12, 24, 36, 48):
        assert cluster_preset(n).n_atoms == n
    with pytest.raises(GeometryError):
        cluster_preset(18)


def test_min_image_distance_symmetry(cluster24):
    d = cluster24.pair_distances
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)
    off = d + np.diag(np.full(cluster24.n_atoms, np.inf))
    assert off.min() >= 1.0 - 1e-9       # nearest neighbours at unit spacing


def test_intra_triangle_atoms_mutually_blocked(cluster24):
    g = constraint_graph(cluster24, 2.0)
    for atoms in cluster24.triangle_incidence.values():
        for i in range(3):
            for j in range(i + 1, 3):
                pair = tuple(sorted((atoms[i], atoms[j])))
                assert pair in g.edges


def test_constraint_graph_regular(cluster24):
    g = constraint_graph(cluster24, 2.0)
    degs = [g.degree(i) for i in range(cluster24.n_atoms)]
    assert len(set(degs)) == 1           # every atom sees the same environment
    with pytest.raises(GeometryError):
        constraint_graph(cluster24, 0.0)


def test_vertex_incidence_is_four_atoms(cluster24):
    for v, atoms in cluster24.vertex_incidence.items():
        assert len(set(atoms)) == 4
    # each atom belongs to exactly two kagome vertices
    counts = np.zeros(cluster24.n_atoms, dtype=int)
    for atoms in cluster24.vertex_incidence.values():
        for a in atoms:
            counts[a] += 1
    assert np.all(counts == 2)


def test_translation_is_permutation(cluster24):
    for d1, d2 in ((1, 0), (0, 1), (1, 1)):
        perm = cluster24.translate_atoms(d1, d2)
        assert sorted(perm) == list(range(cluster24.n_atoms))
    ident = cluster24.translate_atoms(cluster24.n1, 0)
    assert np.array_equal(ident, np.arange(cluster24.n_atoms))


def test_shear_wraps_consistently():
    cl = build_cluster(3, 2, shear=2)
    assert cl.n_atoms == 36
    perm = cl.translate_atoms(0, cl.n2)   # wraps through the shear
    assert sorted(perm) == list(range(36))


# --- the symmetry group ----------------------------------------------------

def _cluster(case):
    if case.startswith("tee"):
        return tee_cluster(int(case[3:]))
    if case == "3x3":
        return build_cluster(3, 3)
    return cluster_preset(int(case))


@pytest.mark.parametrize("case, order", [
    ("6", 12), ("12", 8), ("24", 48), ("36", 12), ("48", 32), ("tee36", 24),
    ("tee48", 32), ("3x3", 108)])
def test_symmetries_form_the_distance_preserving_group(case, order):
    cl = _cluster(case)
    group = cl.symmetries
    n = cl.n_atoms
    assert group.shape == (order, n)
    assert cl.symmetries is group            # computed once
    # each row is a permutation that keeps every pair distance
    assert np.array_equal(np.sort(group, axis=1),
                          np.broadcast_to(np.arange(n), group.shape))
    d = cl.pair_distances
    for perm in group:
        assert np.abs(d[np.ix_(perm, perm)] - d).max() <= 1e-9
    # distinct, lexicographic, identity first
    assert np.array_equal(group[0], np.arange(n))
    rows = [tuple(p) for p in group]
    assert rows == sorted(set(rows))
    # closed under composition and inverse
    members = set(rows)
    for g in group:
        assert tuple(np.argsort(g)) in members
        for h in group:
            assert tuple(g[h]) in members
    # it holds every translation of the torus
    for d1 in range(cl.n1):
        for d2 in range(cl.n2):
            assert tuple(cl.translate_atoms(d1, d2)) in members


def test_symmetries_are_built_on_first_use():
    cl = build_cluster(2, 2)
    assert "symmetries" not in vars(cl)
    cl.symmetries
    assert "symmetries" in vars(cl)


def test_hexagon_loop_shape():
    for r, ell in ((1, 6), (2, 18)):
        lp = hexagon_loop("diagonal", r)
        assert lp.perimeter == ell
        assert len(lp.triangles) == ell
        assert len(lp.atoms) == ell
        assert len(lp.open_atoms) == ell // 2


def test_parallelogram_loop_shape():
    lp = parallelogram_loop("off-diagonal", 7, 1)
    assert lp.perimeter == 30
    assert loop_block_span(lp) == 3 + 1   # spans h + 2 transfer blocks


def test_loop_alternates_triangles():
    lp = hexagon_loop("diagonal", 2)
    kinds = [s for (_, _, s) in lp.triangles]
    for a, b in zip(kinds, kinds[1:] + kinds[:1]):
        assert a != b                     # up and down triangles alternate


def test_loop_atoms_belong_to_their_triangle():
    cl = build_cluster(4, 4)
    lp = hexagon_loop("diagonal", 1)
    tri_ids = [cl.triangle_id(i1, i2, s) for (i1, i2, s) in lp.triangles]
    atom_ids = lp.atom_ids(cl)
    for t, a in zip(tri_ids, atom_ids):
        assert a in cl.triangle_incidence[t]
    assert len(set(atom_ids)) == lp.perimeter


def test_triangle_vertices_shared_between_neighbours():
    up = triangle_vertices((0, 0, 0))
    down = triangle_vertices((0, 0, 1))
    assert len(set(up)) == 3 and len(set(down)) == 3
    assert len(set(up) & set(down)) == 1  # touching triangles share a vertex


def test_kitaev_preskill_regions():
    a, b, c = kitaev_preskill_regions(build_cluster(2, 3))
    assert len(a) == len(b) == len(c) == 6
    assert not (set(a) & set(b) or set(b) & set(c) or set(a) & set(c))


def test_kitaev_preskill_needs_room():
    with pytest.raises(GeometryError):
        kitaev_preskill_regions(build_cluster(2, 1))


def test_tee_cluster_presets():
    for n in (36, 48):
        cl = tee_cluster(n)
        assert cl.n_atoms == n
        assert cl.shear != 0
        kitaev_preskill_regions(cl)       # must admit the tripartition
    with pytest.raises(GeometryError):
        tee_cluster(24)
