"""End-to-end acceptance checks for the library and its production outputs.

Fast structural properties are computed in-process; grid- and sweep-level
checks consume the production artifacts under goldens/ (regenerate them with
the CLI experiment runner if a test reports a missing artifact).
"""

import math
import time

import numpy as np
import pytest

from conftest import golden_path, read_csv

from rvbprep.ansatz import AnsatzBuilder, fit_to_state
from rvbprep.evolve import evolve_sweep, integrator_crosscheck
from rvbprep.geometry import build_cluster, constraint_graph
from rvbprep.hilbert import (StateVector, enumerate_basis,
                             project_to_subspace, rvb_state)
from rvbprep.model import (HamiltonianOperator, HamiltonianSpec,
                           SweepSchedule, full_rydberg_spec, tail_pairs)
from rvbprep.spectrum import groundstate, interior_peaks
from rvbprep.tnet import (cylinder_transfer, dominant_eigenpair, parity_signs,
                          torus_amplitudes, _row_sites)

pytestmark = pytest.mark.acceptance

# Regression golden: peak sweep overlap at N = 24 under the default protocol,
# frozen from the first converged production run of the sweep-time scan.
FROZEN_PEAK_OVERLAP_N24 = None


# --- 1. basis oracle ------------------------------------------------------

@pytest.mark.slow
def test_constrained_basis_matches_full_bitmask_scan(cluster24, basis24):
    t0 = time.time()
    g = constraint_graph(cluster24, 2.0)
    masks = g.blocked_masks()
    arr = np.arange(1 << 24, dtype=np.uint64)
    ok = np.ones(arr.shape, dtype=bool)
    for i in range(24):
        on = ((arr >> np.uint64(i)) & np.uint64(1)) == 1
        ok &= ~on | ((arr & np.uint64(masks[i])) == 0)
    brute = arr[ok]
    assert len(brute) == basis24.dim
    assert np.array_equal(brute, basis24.configs)
    assert time.time() - t0 < 120.0


# --- 2. RVB construction --------------------------------------------------

def test_rvb_covers_and_normalization(cluster24, covers24, basis24):
    for cover in covers24.covers:
        for v, atoms in cluster24.vertex_incidence.items():
            assert sum((int(cover) >> a) & 1 for a in atoms) == 1
    rvb = rvb_state(covers24, basis24)
    assert abs(rvb.norm - 1.0) < 1e-12
    for d1, d2 in ((1, 0), (0, 1)):
        perm = cluster24.translate_atoms(d1, d2)
        moved = set()
        for cover in covers24.covers:
            shifted = 0
            for a in range(24):
                if (int(cover) >> a) & 1:
                    shifted |= 1 << perm[a]
            moved.add(shifted)
        assert moved == set(int(c) for c in covers24.covers)


# --- 3. dynamics properties ----------------------------------------------

@pytest.mark.slow
def test_sweep_dynamics_contracts(basis24):
    op = HamiltonianOperator(HamiltonianSpec(), basis24)
    traj = evolve_sweep(op, SweepSchedule.default_protocol(25.0),
                        n_samples=50)
    assert traj.norm_drift <= 1e-8

    small = enumerate_basis(constraint_graph(build_cluster(1, 1), 2.0))
    op6 = HamiltonianOperator(HamiltonianSpec(), small)
    res = integrator_crosscheck(op6, SweepSchedule.default_protocol(5.0),
                                dt_rk=2e-4, local_tol=1e-10)
    assert res["max_deviation"] <= 1e-6

    frozen = SweepSchedule(4.0, 0.0, 4.0, 0.0, delta0=0.9, delta1=0.9,
                           smoothing_window=0.0)
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(op.dim) + 0j
    psi0 = StateVector(basis24, amps / np.linalg.norm(amps))
    e0 = float(np.vdot(psi0.amplitudes,
                       op.apply(psi0.amplitudes, 1.0, 0.9)).real)
    out = evolve_sweep(op, frozen, psi0=psi0, n_samples=5).final_state
    ef = float(np.vdot(out.amplitudes, op.apply(out.amplitudes, 1.0, 0.9)).real)
    assert abs(ef - e0) <= 1e-8


# --- 4. sweep-time scan shape --------------------------------------------

def test_sweep_time_scan_shape():
    cols = read_csv(golden_path("fig1d_sweep", "sweep.csv"))
    t_stars = {}
    peaks = {}
    for n in (24, 36):
        sel = cols["n_atoms"] == n
        times = cols["total_time"][sel]
        ov = cols["final_overlap"][sel]
        order = np.argsort(times)
        times, ov = times[order], ov[order]
        ip = interior_peaks(ov)
        assert len(ip) == 1
        t_stars[n] = times[ip[0]]
        peaks[n] = ov[ip[0]]
        assert ov[ip[0]] > ov[0] and ov[ip[0]] > ov[-1]
    a, b = t_stars[24] / 24.0, t_stars[36] / 36.0
    assert abs(a - b) / max(a, b) <= 0.20
    if FROZEN_PEAK_OVERLAP_N24 is None:
        pytest.fail("peak-overlap regression value not frozen yet")
    assert peaks[24] == pytest.approx(FROZEN_PEAK_OVERLAP_N24, abs=1e-6)


# --- 5. susceptibility scan structure ------------------------------------

def test_susceptibility_scan_two_peaks_bracket_overlap():
    cols = read_csv(golden_path("fig1c_scan", "gs_scan.csv"))
    sus = cols["fidelity_susceptibility"]
    ov = cols["rvb_overlap"]
    ip = interior_peaks(sus)
    assert ip
    heights = np.array([sus[i] for i in ip])
    dominant = [i for i, h in zip(ip, heights) if h >= 0.25 * heights.max()]
    assert len(dominant) == 2
    lo, hi = sorted(dominant)
    between = ov[lo:hi + 1]
    assert between.max() > ov[0]
    assert between.max() > ov[-1]


# --- 6. ansatz limits -----------------------------------------------------

def test_ansatz_limit_fits(covers12, basis12, rvb12):
    fit = fit_to_state(rvb12, covers12, basis12)
    assert fit.overlap >= 1 - 1e-8
    amps = np.zeros(basis12.dim, dtype=complex)
    amps[basis12.index_of(0)] = 1.0
    vac = fit_to_state(StateVector(basis12, amps), covers12, basis12)
    assert vac.overlap >= 1 - 1e-6
    assert vac.params.vacuum_limit or abs(vac.params.z1) > 100.0


# --- 7. finite-time sweeps beat adiabatic fits ---------------------------

def test_finite_time_fits_beat_adiabatic():
    gs = read_csv(golden_path("fig2_fit", "fits.csv"))
    sweeps = [read_csv(golden_path("fig2_fit_sweep_T%d" % t, "fits.csv"))
              for t in (25, 50, 90)]
    ratios = gs["delta_over_omega"]
    window = (ratios >= 1.0) & (ratios <= 2.0)
    exceed = 0
    for i in np.nonzero(window)[0]:
        r = ratios[i]
        best = max(
            float(s["overlap"][np.argmin(np.abs(s["delta_over_omega"] - r))])
            for s in sweeps
            if np.min(np.abs(s["delta_over_omega"] - r)) < 1e-9)
        if best > gs["overlap"][i]:
            exceed += 1
    assert exceed >= 3


# --- 8. tensor network vs exact oracles ----------------------------------

@pytest.mark.slow
def test_tn_matches_exact_contractions(cluster12, basis12, covers12):
    t0 = time.time()
    pts = [(a, b) for a in (0.0, 0.5, 1.1) for b in (0.0, 0.4, 0.9)]
    builder_p = AnsatzBuilder(covers12, basis12)
    from rvbprep.hilbert import full_basis
    fb = full_basis(12)
    builder_u = AnsatzBuilder(covers12, fb)
    for z1, z2 in pts:
        tp = torus_amplitudes(z1, z2, cluster12, basis12, projected=True)
        ap = builder_p.build(z1, z2)
        assert abs(abs(np.vdot(tp.amplitudes, ap.amplitudes)) - 1) < 1e-8
        tu = torus_amplitudes(z1, z2, cluster12, fb, projected=False)
        au = builder_u.build(z1, z2)
        assert abs(abs(np.vdot(tu.amplitudes, au.amplitudes)) - 1) < 1e-8

    # dense transfer-matrix oracle at L = 4 via independent einsum matvec
    chains = [np.einsum("ldy,yku->lkud", left, right)
              for left, right in _row_sites(0.4, 0.3, 4, True)]
    D = chains[0].shape[0]

    half_a = np.einsum("abuw,bcvx->acuvwx", chains[0], chains[1])
    half_b = np.einsum("cdsy,datz->castyz", chains[2], chains[3])
    dim = D ** 4
    mat = np.einsum("acuvwx,castyz->uvstwxyz",
                    half_a, half_b).reshape(dim, dim)
    sk, sb = parity_signs(True, 4)
    idx = np.nonzero((sk > 0) & (sb > 0))[0]
    lam_dense = float(np.max(np.linalg.eigvals(
        mat[np.ix_(idx, idx)]).real))
    tm = cylinder_transfer(0.4, 0.3, 4)
    b = dominant_eigenpair(tm, compute_lam1=False)
    assert abs(b.lam0 - lam_dense) <= 1e-9 * max(1.0, abs(lam_dense))
    assert time.time() - t0 < 600.0


# --- 9. density-derivative ridge -----------------------------------------

def _grid_rows(name):
    cols = read_csv(golden_path(name, "grid.csv"))
    z1s = np.unique(cols["z1"])
    z2s = np.unique(cols["z2"])
    g = {}
    for key in ("density", "dn_dz1", "xi"):
        m = np.full((len(z2s), len(z1s)), np.nan)
        for i in range(len(cols["z1"])):
            r = np.searchsorted(z2s, cols["z2"][i])
            c = np.searchsorted(z1s, cols["z1"][i])
            m[r, c] = cols[key][i]
        g[key] = m
    return z1s, z2s, g


def _single_dominant_peak(vals):
    ip = interior_peaks(vals)
    if not ip:
        return None
    heights = np.array([vals[i] for i in ip])
    dom = [i for i, h in zip(ip, heights) if h >= 0.5 * heights.max()]
    return dom[0] if len(dom) == 1 else None


def test_density_derivative_ridge_grows_with_circumference():
    z1s, z2s, g6 = _grid_rows("fig3a_density")
    _, _, g4 = _grid_rows("fig3a_density_L4")
    assert g6["dn_dz1"].shape == (20, 20)
    slope6 = np.abs(g6["dn_dz1"])
    for r in range(len(z2s)):
        assert _single_dominant_peak(slope6[r]) is not None
    r01 = int(np.argmin(np.abs(z2s - 0.1)))
    peak6 = slope6[r01].max()
    peak4 = np.abs(g4["dn_dz1"])[r01].max()
    assert peak6 > peak4


# --- 10. string order parameter scaling ----------------------------------

def _bffm_by_perimeter(name):
    cols = read_csv(golden_path(name, "bffm_scaling.csv"))
    out = {}
    for i in range(len(cols["z1"])):
        key = (float(cols["z1"][i]), int(cols["perimeter"][i]))
        out[key] = (float(cols["bffm_z"][i]), float(cols["bffm_x"][i]))
    return out


def test_bffm_decays_in_liquid_and_plateaus_when_confined():
    liquid = _bffm_by_perimeter("figS3_bffm_scaling")
    for z1 in (0.2, 0.5, 0.8):
        z18, x18 = liquid[(z1, 18)]
        z30, x30 = liquid[(z1, 30)]
        assert z30 < 0.8 * z18
        assert x30 < 0.8 * x18
    confined = _bffm_by_perimeter("figS3_bffm_scaling_confined")
    for z1 in (0.9, 1.1, 1.3):
        xs = [confined[(z1, p)][1] for p in (18, 22, 30)]
        assert xs[1] >= 0.9 * xs[0]
        assert xs[2] >= 0.9 * xs[1]
        assert abs(xs[2] - xs[1]) <= 0.1 * max(xs[1:])


# --- 11. topological entanglement entropy --------------------------------

def test_topological_entropy_values():
    import json
    with open(golden_path("fig3c_tee", "gamma.json")) as fh:
        data = json.load(fh)
    gammas = {p["label"]: p["gamma"] for p in data["points"]}
    assert abs(gammas["rvb"] - math.log(2.0)) <= 0.15
    assert gammas["trivial"] <= 0.05


# --- 12. full-model sweep and cover degeneracy ---------------------------

def test_full_model_diagonal_degeneracy_and_abs_overlap(cluster24, covers24):
    cols = read_csv(golden_path("figS4_fullmodel", "sweep.csv"))
    assert np.all(cols["abs_overlap"] > cols["final_overlap"])

    dist = cluster24.pair_distances
    beyond = np.sort(np.unique(dist[dist > 2.0 + 1e-9]))
    short_cut = float(beyond[0]) + 1e-6
    v = 2.4 ** 6
    for cutoff, degenerate in ((short_cut, True), (math.sqrt(13.0), False)):
        pairs = tail_pairs(cluster24, 2.0, cutoff)
        energies = []
        for cover in covers24.covers:
            c = int(cover)
            energies.append(v * sum(w for i, j, w in pairs
                                    if (c >> i) & 1 and (c >> j) & 1))
        spread = max(energies) - min(energies)
        if degenerate:
            assert spread <= 1e-12
        else:
            assert spread > 1e-3


# --- 13. unprojected ansatz ----------------------------------------------

def test_unprojected_correlation_ridge_is_closed():
    z1s, z2s, g = _grid_rows("figS5_unprojected")
    xi = g["xi"]
    assert np.all(np.isfinite(xi))
    # crossing the boundary away from the origin in either direction, and
    # along the diagonal, passes over a ridge of the correlation length
    assert _single_dominant_peak(xi[0]) is not None
    assert _single_dominant_peak(xi[:, 0]) is not None
    diag = np.array([xi[i, i] for i in range(len(z1s))])
    assert _single_dominant_peak(diag) is not None


@pytest.mark.slow
def test_unprojected_fit_beats_projected_on_full_model(cluster24, covers24):
    wide = enumerate_basis(constraint_graph(cluster24, 1.0))
    blockade = enumerate_basis(constraint_graph(cluster24, 2.0))
    op = HamiltonianOperator(full_rydberg_spec(), wide, cluster24)
    builder_u = AnsatzBuilder(covers24, wide)
    builder_p = AnsatzBuilder(covers24, blockade)
    wins = 0
    v0 = None
    # the full model's own sweeps end at Delta/Omega = 3.5 (figS4_fullmodel
    # and the two-stage protocol), where its ground state is close to the
    # RVB (overlap 0.5-0.7 at N = 24); in the PXP liquid window 1.2-2.0 the
    # overlap is only 0.03-0.11 and neither ansatz describes the state
    for ratio in (3.0, 3.5, 4.0):
        gs = groundstate(op, 1.0, ratio, tol=1e-8, v0=v0)
        v0 = gs.state.amplitudes
        fit_u = fit_to_state(gs.state, covers24, wide, builder=builder_u)
        proj, weight = project_to_subspace(gs.state, blockade)
        fit_p = fit_to_state(proj, covers24, blockade, builder=builder_p)
        if fit_u.overlap > fit_p.overlap * math.sqrt(weight):
            wins += 1
    assert wins == 3
