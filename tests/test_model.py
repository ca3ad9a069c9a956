import math

import numpy as np
import pytest
import scipy.sparse as sp

from rvbprep.geometry import cluster_preset, constraint_graph, tee_cluster
from rvbprep.hilbert import enumerate_basis, symmetry_orbits
from rvbprep.model import (HamiltonianOperator, HamiltonianSpec, ModelError,
                           SweepSchedule, _flip_matrix, diagonal_interaction,
                           full_rydberg_spec, tail_pairs)


def brute_force_dense(basis, cluster, omega, delta, r_c, cutoff, v):
    """Matrix elements assembled directly from config bitstrings (oracle)."""
    dim = basis.dim
    h = np.zeros((dim, dim))
    dist = cluster.pair_distances
    configs = [int(c) for c in basis.configs]
    lookup = {c: i for i, c in enumerate(configs)}
    n = basis.n_atoms
    for a, c in enumerate(configs):
        diag = -delta * bin(c).count("1")
        for i in range(n):
            for j in range(i + 1, n):
                if (c >> i) & 1 and (c >> j) & 1:
                    r = dist[i, j]
                    if r_c + 1e-9 < r <= cutoff + 1e-9:
                        diag += v / r**6
        h[a, a] = diag
        for i in range(n):
            other = c ^ (1 << i)
            b = lookup.get(other)
            if b is not None:
                h[a, b] += 0.5 * omega
    return h


@pytest.fixture(scope="module")
def wide12(cluster12):
    return enumerate_basis(constraint_graph(cluster12, 1.0))


def test_pxp_dense_matches_oracle(cluster12, basis12):
    op = HamiltonianOperator(HamiltonianSpec(), basis12)
    got = op.dense(0.7, -1.3)
    want = brute_force_dense(basis12, cluster12, 0.7, -1.3, 2.0, 0.0, 0.0)
    assert np.allclose(got, want, atol=1e-13)


def test_full_model_dense_matches_oracle(cluster12, wide12):
    spec = full_rydberg_spec()
    op = HamiltonianOperator(spec, wide12, cluster=cluster12)
    got = op.dense(1.0, 2.0)
    want = brute_force_dense(wide12, cluster12, 1.0, 2.0, 1.0,
                             math.sqrt(13.0), 2.4**6)
    assert np.allclose(got, want, atol=1e-10)


def test_apply_matches_dense(cluster12, basis12):
    op = HamiltonianOperator(HamiltonianSpec(), basis12)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(basis12.dim) + 1j * rng.standard_normal(basis12.dim)
    dense = op.dense(0.9, 0.4)
    assert np.allclose(op.apply(v, 0.9, 0.4), dense @ v, atol=1e-12)
    lo = op.aslinearoperator(0.9, 0.4)
    assert np.allclose(lo @ v, dense @ v, atol=1e-12)


@pytest.mark.parametrize("case", [("pxp", 12, False), ("pxp", 12, True),
                                  ("pxp", 24, True), ("full", 12, False),
                                  ("full", 12, True)],
                         ids=["pxp", "pxp-sector", "pxp24-sector", "full",
                              "full-sector"])
def test_apply_complex_is_real_plus_imaginary_part(case, request, wide12):
    variant, n_atoms, in_sector = case
    cluster = request.getfixturevalue("cluster%d" % n_atoms)
    if variant == "pxp":
        op = HamiltonianOperator(HamiltonianSpec(),
                                 request.getfixturevalue("basis%d" % n_atoms),
                                 cluster)
    else:
        op = HamiltonianOperator(full_rydberg_spec(), wide12, cluster)
    if in_sector:
        op = op.sector()[1]
    rng = np.random.default_rng(29)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    for omega, delta in ((0.9, 0.4), (0.9, 0.4), (0.3, 0.4), (0.0, -1.1)):
        got = op.apply(v, omega, delta)
        assert got.dtype == np.complex128
        # H is real, so a complex psi is two real products, bit for bit
        parts = np.empty_like(got)
        parts.real = op.apply(v.real, omega, delta)
        parts.imag = op.apply(v.imag, omega, delta)
        if omega:
            assert got.tobytes() == parts.tobytes()
        else:
            # a zero diagonal entry times x + iy in complex arithmetic
            # gives a zero whose sign may differ from the real product's
            assert np.array_equal(got, parts)
        assert np.allclose(got, op.dense(omega, delta) @ v, rtol=0,
                           atol=1e-12)
    # the complex values share the float64 flip's index arrays
    assert op.flip.dtype == np.float64
    assert np.shares_memory(op._complex_flip.indices, op.flip.indices)
    assert np.shares_memory(op._complex_flip.indptr, op.flip.indptr)


def test_dense_is_symmetric(cluster12, wide12):
    op = HamiltonianOperator(full_rydberg_spec(), wide12, cluster=cluster12)
    h = op.dense(1.0, 0.3)
    assert np.allclose(h, h.T)


def test_pxp_has_no_tails(basis12):
    op = HamiltonianOperator(HamiltonianSpec(), basis12)
    assert np.all(op.tail_diag == 0.0)


def test_tail_pairs_distance_window(cluster24):
    dist = cluster24.pair_distances
    pairs = tail_pairs(cluster24, 1.0, math.sqrt(13.0))
    assert pairs
    seen = set()
    for i, j, coeff in pairs:
        r = dist[i, j]
        assert 1.0 + 1e-9 < r <= math.sqrt(13.0) + 1e-9
        assert abs(coeff - 1.0 / r**6) < 1e-14
        seen.add((i, j))
    # everything in the window is included exactly once
    n = cluster24.n_atoms
    want = {(i, j) for i in range(n) for j in range(i + 1, n)
            if 1.0 + 1e-9 < dist[i, j] <= math.sqrt(13.0) + 1e-9}
    assert seen == want


def test_diagonal_interaction_counts_pairs(cluster12, wide12):
    diag = diagonal_interaction(wide12, cluster12, 1.0, math.sqrt(13.0))
    pairs = tail_pairs(cluster12, 1.0, math.sqrt(13.0))
    k = wide12.dim // 3
    c = int(wide12.configs[k])
    want = sum(coeff for i, j, coeff in pairs
               if (c >> i) & 1 and (c >> j) & 1)
    assert abs(diag[k] - want) < 1e-14


def test_spec_validation(basis12, cluster12):
    with pytest.raises(ModelError):
        HamiltonianSpec(variant="Ising")
    with pytest.raises(ModelError):
        HamiltonianOperator(full_rydberg_spec(), basis12, cluster=cluster12)
    with pytest.raises(ModelError):
        HamiltonianOperator(full_rydberg_spec(constraint_radius=2.0), basis12)


# --- schedules -----------------------------------------------------------

def test_default_protocol_endpoints():
    s = SweepSchedule.default_protocol(40.0)
    assert s.omega(0.0) == 0.0
    assert s.omega(40.0) == 0.0
    assert abs(s.omega(20.0) - 1.0) < 1e-12
    assert abs(s.delta(0.0) - (-5.0)) < 1e-12
    assert abs(s.delta(40.0) - 1.5) < 1e-12


def test_two_stage_protocol_keeps_drive_on():
    s = SweepSchedule.two_stage_protocol(30.0)
    assert abs(s.omega(30.0) - 1.0) < 1e-12
    assert abs(s.delta(30.0) - 3.5) < 1e-12
    assert s.t3 == 0.0


@pytest.mark.parametrize("split", [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   (0.5, 0.5, 0), (0, 0.5, 0.5),
                                   (0.5, 0, 0.5)])
def test_zero_length_stages_keep_profiles_finite(split):
    # (T, 0, 0) once left a zero-width last segment whose slope made
    # Omega(t) NaN within the smoothing half-width of T
    T = 10.0
    s = SweepSchedule(T, *(f * T for f in split), delta0=-5.0, delta1=1.5)
    ts = np.concatenate([np.linspace(0.0, T, 4001),
                         T - T * np.array([1e-9, 5e-10, 1e-12, 0.0])])
    om = np.array([s.omega(t) for t in ts])
    de = np.array([s.delta(t) for t in ts])
    assert np.all(np.isfinite(om)) and np.all(np.isfinite(de))
    assert np.all(om >= -1e-12) and np.all(om <= 1.0 + 1e-12)
    assert np.all(de >= -5.0 - 1e-12) and np.all(de <= 1.5 + 1e-12)


def test_protocol_knots():
    s = SweepSchedule.default_protocol(40.0)
    assert list(s._omega.xs) == [0.0, s.t1, s.t1 + s.t2, 40.0]
    s = SweepSchedule.two_stage_protocol(30.0)
    assert list(s._omega.xs) == [0.0, s.t1, 30.0]
    assert list(s._delta.xs) == list(s._omega.xs)


def test_stage_durations_must_sum():
    with pytest.raises(ModelError):
        SweepSchedule(10.0, 2.0, 2.0, 2.0)
    with pytest.raises(ModelError):
        SweepSchedule(-1.0, 0.0, 0.0, -1.0)


def test_schedule_rejects_out_of_range_time():
    s = SweepSchedule.default_protocol(10.0)
    with pytest.raises(ModelError):
        s.omega(-0.5)
    with pytest.raises(ModelError):
        s.delta(10.5)


def test_smoothing_keeps_profiles_continuous():
    s = SweepSchedule.default_protocol(20.0)
    ts = np.linspace(0.0, 20.0, 4001)
    om = np.array([s.omega(t) for t in ts])
    de = np.array([s.delta(t) for t in ts])
    dt = ts[1] - ts[0]
    # derivatives stay bounded by the underlying ramp slopes
    assert np.max(np.abs(np.diff(om))) / dt < 1.0
    assert np.max(np.abs(np.diff(de))) / dt < 1.0
    assert np.all(om >= -1e-12) and np.all(om <= 1.0 + 1e-12)
    # smoothing rounds the corner at the end of the switch-on ramp
    assert 0.9 < s.omega(s.t1) < 1.0


def test_smoothing_preserves_linear_regions():
    s = SweepSchedule.default_protocol(20.0, smoothing_window=0.5)
    # deep inside stage 2 the ramp is linear, so averaging changes nothing
    t = 10.0
    raw = s._delta(t)
    assert abs(s.delta(t) - raw) < 1e-12


def test_time_at_detuning_ratio():
    s = SweepSchedule.default_protocol(40.0)
    for ratio in (-1.0, 0.0, 1.0):
        t = s.time_at_detuning_ratio(ratio)
        assert s.t1 <= t <= s.t1 + s.t2
        assert abs(s.delta(t) - ratio * s.omega(t)) < 1e-9
    with pytest.raises(ModelError):
        s.time_at_detuning_ratio(3.0)   # above the final detuning


# --- symmetry sectors -----------------------------------------------------

def _operator(case):
    """The preset tori, the full model's wide basis and the sheared TEE
    torus."""
    if case == "tee36":
        cluster = tee_cluster(36)
    else:
        cluster = cluster_preset(int(case[-2:]))
    spec = full_rydberg_spec() if case.startswith("full") else HamiltonianSpec()
    basis = enumerate_basis(constraint_graph(cluster, spec.constraint_radius))
    return cluster, HamiltonianOperator(spec, basis, cluster)


def _check_reduced_flip(op, iso, reps, flip):
    """P is an isometry with one orbit per configuration, reps are the
    orbits' smallest configurations, and the reduced flip, built from the
    representatives, has the pattern of P.T flip P (formed here from the
    full flip).  Returns the orbit sizes and the data of P.T flip P."""
    basis = op.basis
    assert iso.shape == (basis.dim, len(reps)) == (basis.dim, flip.shape[0])
    # every configuration lies in one orbit, and the orbit sizes sum to dim
    assert np.array_equal(np.diff(iso.indptr), np.ones(basis.dim))
    sizes = np.bincount(iso.indices, minlength=len(reps))
    assert sizes.sum() == basis.dim and sizes.min() >= 1
    assert np.allclose(iso.data, 1.0 / np.sqrt(sizes[iso.indices]),
                       rtol=0, atol=1e-15)
    assert abs(op.flip @ iso - iso @ flip).max() <= 1e-13
    want = (iso.T @ op.flip @ iso).tocsr()
    want.sort_indices()
    assert flip.has_canonical_format
    assert np.array_equal(flip.indptr, want.indptr)
    assert np.array_equal(flip.indices, want.indices)
    assert (flip != flip.T).nnz == 0
    assert abs(iso.T @ iso - sp.identity(len(reps))).max() <= 1e-13
    # each orbit is represented by its smallest configuration
    smallest = np.full(len(reps), np.iinfo(np.uint64).max, dtype=np.uint64)
    np.minimum.at(smallest, iso.indices, basis.configs)
    assert np.array_equal(basis.configs[reps], smallest)
    return sizes, want.data


@pytest.mark.parametrize("case, n_orbits", [
    ("pxp12", None), ("full12", None), ("pxp24", 702), ("full24", 16576),
    ("pxp36", 22783), ("tee36", None)])
def test_k0_sector_intertwines_with_the_full_operator(case, n_orbits):
    # the zero-momentum sector, the orbits of the translations alone:
    # _flip_matrix builds the reduced flip of any subgroup
    cluster, op = _operator(case)
    translations = [cluster.translate_atoms(d1, d2)
                    for d1 in range(cluster.n1) for d2 in range(cluster.n2)]
    iso, reps = orbits = symmetry_orbits(op.basis, translations)
    if n_orbits is not None:
        assert len(reps) == n_orbits
    flip = _flip_matrix(op.basis, orbits)
    _, want = _check_reduced_flip(op, iso, reps, flip)
    assert np.abs(flip.data - want).max() <= 1e-15
    if case in ("pxp24", "full24"):
        assert np.array_equal(flip.data, want)


@pytest.mark.parametrize("case, n_orbits", [
    ("pxp12", 11), ("full12", None), ("pxp24", 74), ("full24", 1474),
    ("pxp36", 11438), ("tee36", None)])
def test_sector_intertwines_with_the_full_operator(case, n_orbits):
    # H P = P H_r in the sector of the whole symmetry group: the flip and
    # both diagonals.  Entries reach sqrt(24) on the N = 24 torus, and the
    # oracle sums up to |O_a| products per entry, so the two flips agree
    # to a few ulps of each entry
    cluster, op = _operator(case)
    iso, red = op.sector()
    assert op.sector()[1] is red
    if n_orbits is not None:
        assert red.dim == n_orbits
    reps = op.basis.indices_of(red.basis.configs)
    sizes, want = _check_reduced_flip(op, iso, reps, red.flip)
    assert np.all(np.abs(red.flip.data - want) <= 8 * np.spacing(want))
    # an orbit's size divides the group's order
    assert np.all(len(cluster.symmetries) % sizes == 0)
    for full, reduced in ((op.n_diag, red.n_diag),
                          (op.tail_diag, red.tail_diag)):
        diag_p = iso.multiply(full[:, None])
        p_diag = iso @ sp.diags(reduced)
        assert abs(diag_p - p_diag).max() <= 1e-13


def test_k0_sector_without_cluster_is_the_identity(basis12):
    op = HamiltonianOperator(HamiltonianSpec(), basis12)
    iso, red = op.sector()
    assert (iso != sp.identity(basis12.dim)).nnz == 0
    assert np.array_equal(red.basis.configs, basis12.configs)
    assert (red.flip != op.flip).nnz == 0
