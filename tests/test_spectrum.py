import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rvbprep.geometry import cluster_preset, constraint_graph
from rvbprep.hilbert import enumerate_basis, rvb_state
from rvbprep.model import (HamiltonianOperator, HamiltonianSpec,
                           full_rydberg_spec)
from rvbprep.spectrum import (DENSE_CUTOFF, SpectrumError,
                              fidelity_susceptibility_scan, groundstate,
                              interior_peaks)


@pytest.fixture(scope="module")
def op12(basis12):
    return HamiltonianOperator(HamiltonianSpec(), basis12)


@pytest.fixture(scope="module")
def op24(basis24):
    return HamiltonianOperator(HamiltonianSpec(), basis24)


def test_groundstate_matches_dense_eigh(op12):
    evals = np.linalg.eigvalsh(op12.dense(1.0, 0.8))
    gs = groundstate(op12, 1.0, 0.8)
    assert gs.energy == pytest.approx(evals[0], abs=1e-10)
    assert gs.gap == pytest.approx(evals[1] - evals[0], abs=1e-10)
    assert gs.residual < 1e-9
    assert not gs.degenerate


def test_groundstate_sparse_path_agrees(op24):
    gs = groundstate(op24, 1.0, 0.5)
    # Rayleigh quotient and residual confirm the eigenpair independently
    hv = op24.apply(gs.state.amplitudes, 1.0, 0.5)
    rq = float(np.vdot(gs.state.amplitudes, hv).real)
    assert rq == pytest.approx(gs.energy, abs=1e-8)
    assert np.linalg.norm(hv - gs.energy * gs.state.amplitudes) < 1e-7
    assert op24.dim > 600          # actually exercised the iterative branch


def test_groundstate_arpack_energy_dtype_and_reproducibility(op24):
    want = np.linalg.eigvalsh(op24.dense(1.0, 0.5))[0]
    gs = groundstate(op24, 1.0, 0.5)
    assert gs.energy == pytest.approx(want, abs=1e-9)
    assert gs.state.amplitudes.dtype == np.complex128
    # the seeded start vector makes a cold solve repeat bit for bit
    again = groundstate(op24, 1.0, 0.5)
    assert again.energy == gs.energy and again.gap == gs.gap
    assert np.array_equal(again.state.amplitudes, gs.state.amplitudes)


def test_groundstate_diagonal_limit(op12, basis12):
    gs = groundstate(op12, 0.0, 1.0)
    # all excitations at unit reward: pick any maximal independent set
    nmax = basis12.popcounts.max()
    assert gs.energy == pytest.approx(-float(nmax))
    assert gs.degenerate == (np.sum(basis12.popcounts == nmax) > 1)
    assert gs.degeneracy == int(np.sum(basis12.popcounts == nmax))
    k = int(np.argmax(np.abs(gs.state.amplitudes)))
    assert basis12.popcounts[k] == nmax


def test_groundstate_negative_detuning_is_vacuum(op12, basis12):
    gs = groundstate(op12, 0.0, -2.0)
    assert gs.energy == 0.0
    assert abs(gs.state.amplitudes[basis12.index_of(0)]) == 1.0


def test_scan_rows_are_independent_cold_solves(op12, covers12, basis12,
                                               op24):
    rvb = rvb_state(covers12, basis12)
    lams = np.linspace(0.5, 1.3, 9)
    scan = fidelity_susceptibility_scan(op12, lams, rvb=rvb)
    assert np.all(np.isfinite(scan.energies))
    assert np.all(scan.gaps > 0)
    assert np.all((scan.rvb_overlaps >= 0) & (scan.rvb_overlaps <= 1 + 1e-12))
    ok = ~scan.degenerate
    assert ok.any()
    assert np.all(scan.susceptibilities[ok] >= 0)
    # spot-check F against two cold solves
    i = 4
    a = groundstate(op12, 1.0, 1.0 / lams[i]).state.amplitudes
    b = groundstate(op12, 1.0, 1.0 / (lams[i] + 0.0025)).state.amplitudes
    want = (1.0 - abs(np.vdot(a, b))) / 0.0025
    assert scan.susceptibilities[i] == pytest.approx(want, rel=1e-6, abs=1e-9)

    # on the ARPACK path a start vector from the previous row would keep
    # Lanczos in that row's symmetry sector and report the in-sector gap
    assert op24.dim > 600
    lams = [0.45, 0.50]
    scan = fidelity_susceptibility_scan(op24, lams)
    for i, lam in enumerate(lams):
        evals = np.linalg.eigvalsh(op24.dense(1.0, 1.0 / lam))
        assert scan.energies[i] == pytest.approx(evals[0], abs=1e-8)
        assert scan.gaps[i] == pytest.approx(evals[1] - evals[0], abs=1e-8)
        row = fidelity_susceptibility_scan(op24, [lam])
        for got, want in ((scan.energies, row.energies),
                          (scan.gaps, row.gaps),
                          (scan.susceptibilities, row.susceptibilities)):
            assert got[i] == want[0]


def test_scan_input_validation(op12):
    with pytest.raises(SpectrumError):
        fidelity_susceptibility_scan(op12, [1.0, 0.9])
    with pytest.raises(SpectrumError):
        fidelity_susceptibility_scan(op12, [0.5, 1.0], dlambda=0.0)


# --- the fully symmetric sector -------------------------------------------
# The sector lies inside the zero-momentum (k = 0) one: its states are
# invariant under the translations and under every other symmetry.

def _images(basis, cluster, amps):
    """amps under every symmetry of the cluster, bit by bit."""
    for perm in cluster.symmetries:
        image = np.zeros(basis.dim, dtype=np.uint64)
        for i, j in enumerate(perm):
            bit = (basis.configs >> np.uint64(i)) & np.uint64(1)
            image |= bit << np.uint64(j)
        moved = np.empty_like(amps)
        moved[basis.indices_of(image)] = amps
        yield moved


def _assert_on_basis_and_symmetric(gs, op):
    assert gs.state.basis is op.basis
    assert gs.state.amplitudes.shape == (op.dim,)
    assert gs.state.norm == pytest.approx(1.0, abs=1e-12)
    for moved in _images(op.basis, op.cluster, gs.state.amplitudes):
        assert np.max(np.abs(moved - gs.state.amplitudes)) <= 1e-12


@pytest.mark.parametrize("model", ["pxp", "full"])
def test_groundstate_in_sector_matches_dense_full_basis_n12(cluster12, model):
    # both models at N = 12: the sector's E0 is the dense full-basis E0, and
    # its gap is never below the full one
    spec = HamiltonianSpec() if model == "pxp" else full_rydberg_spec()
    basis = enumerate_basis(constraint_graph(cluster12, spec.constraint_radius))
    op = HamiltonianOperator(spec, basis, cluster12)
    for lam in (0.3, 0.6, 0.9, 1.5):
        gs = groundstate(op, 1.0, 1.0 / lam)
        evals = np.linalg.eigvalsh(op.dense(1.0, 1.0 / lam))
        assert gs.energy == pytest.approx(evals[0], abs=1e-10)
        assert gs.gap >= evals[1] - evals[0] - 1e-10
        _assert_on_basis_and_symmetric(gs, op)


def test_groundstate_in_k0_sector_matches_dense_full_basis(cluster24,
                                                          basis24):
    # PXP at N = 24 with its torus: E0 on 13 points of the fig1c range
    # against the dense full-basis spectrum, and the state's residual on
    # the full basis.  The solves themselves never build the full flip
    op = HamiltonianOperator(HamiltonianSpec(), basis24, cluster24)
    lams = np.linspace(0.3, 1.5, 13)
    solves = [groundstate(op, 1.0, 1.0 / lam) for lam in lams]
    assert "flip" not in vars(op)
    assert op.sector()[1].dim == 74 <= DENSE_CUTOFF   # the dense branch
    for lam, gs in zip(lams, solves):
        evals = np.linalg.eigvalsh(op.dense(1.0, 1.0 / lam))
        assert gs.energy == pytest.approx(evals[0], abs=1e-10)
        # the sector's gap is never below the full one
        assert gs.gap >= evals[1] - evals[0] - 1e-10
        assert not gs.degenerate
        psi = gs.state.amplitudes
        res = op.apply(psi, 1.0, 1.0 / lam) - gs.energy * psi
        assert np.linalg.norm(res) <= 1e-9
        _assert_on_basis_and_symmetric(gs, op)


def test_groundstate_in_k0_sector_full_model(cluster24):
    # the full model's wide basis (65536 states, 1474 orbits; the ARPACK
    # branch) against eigsh on the full CSR; its sector gap lies above the
    # full gap
    spec = full_rydberg_spec()
    basis = enumerate_basis(constraint_graph(cluster24, spec.constraint_radius))
    op = HamiltonianOperator(spec, basis, cluster24)
    lams = (0.5, 0.81, 1.2)
    solves = [groundstate(op, 1.0, 1.0 / lam) for lam in lams]
    assert "flip" not in vars(op)
    again = groundstate(op, 1.0, 1.0 / lams[1])
    assert again.energy == solves[1].energy and again.gap == solves[1].gap
    assert np.array_equal(again.state.amplitudes, solves[1].state.amplitudes)
    iso, red = op.sector()
    assert red.dim == 1474 > DENSE_CUTOFF
    for lam, gs in zip(lams, solves):
        h = (0.5 * op.flip
             + sp.diags(op.tail_diag - (1.0 / lam) * op.n_diag)).tocsr()
        full = np.sort(spla.eigsh(h, k=2, which="SA", tol=1e-12)[0])
        sector = np.sort(spla.eigsh((iso.T @ h @ iso).tocsr(), k=2,
                                    which="SA", tol=1e-12)[0])
        assert gs.energy == pytest.approx(full[0], abs=1e-9)
        assert gs.gap == pytest.approx(sector[1] - sector[0], abs=1e-9)
        assert gs.gap > full[1] - full[0] + 1e-3
        psi = gs.state.amplitudes
        res = op.apply(psi, 1.0, 1.0 / lam) - gs.energy * psi
        assert np.linalg.norm(res) <= 1e-9
        _assert_on_basis_and_symmetric(gs, op)


def test_groundstate_warm_start_is_mapped_into_the_sector(monkeypatch):
    # fit's chain passes the previous ground state, on op.basis, as v0; P.T
    # maps it into the sector, where it cuts ARPACK's work several-fold.
    # One step of the fig2_fit chain at N = 36, whose sector (11438 orbits)
    # runs ARPACK
    cluster = cluster_preset(36)
    op = HamiltonianOperator(HamiltonianSpec(),
                             enumerate_basis(constraint_graph(cluster, 2.0)),
                             cluster)
    _, red = op.sector()
    assert red.dim > DENSE_CUTOFF
    products = []
    apply = HamiltonianOperator.apply

    def counting(self, psi, omega, delta):
        products.append(self is red)
        return apply(self, psi, omega, delta)

    monkeypatch.setattr(HamiltonianOperator, "apply", counting)
    previous = groundstate(op, 1.0, 0.8).state.amplitudes
    del products[:]
    cold = groundstate(op, 1.0, 0.9)
    n_cold = len(products)
    warm = groundstate(op, 1.0, 0.9, v0=previous)
    n_warm = len(products) - n_cold
    assert all(products)
    assert n_warm < n_cold / 3
    assert warm.energy == pytest.approx(cold.energy, abs=1e-10)
    assert abs(np.vdot(warm.state.amplitudes, cold.state.amplitudes)) \
        == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("model", ["pxp", "full"])
def test_groundstate_diagonal_limit_in_k0_sector(cluster12, model):
    # omega = 0 on a torus: a normalized symmetric state at the lowest
    # diagonal energy; the degeneracy counts the symmetric states (orbits)
    # there
    spec = HamiltonianSpec() if model == "pxp" else full_rydberg_spec()
    basis = enumerate_basis(constraint_graph(cluster12, spec.constraint_radius))
    op = HamiltonianOperator(spec, basis, cluster12)
    diag = op.tail_diag - 2.0 * op.n_diag
    gs = groundstate(op, 0.0, 2.0)
    assert gs.energy == pytest.approx(diag.min(), abs=1e-12)
    _assert_on_basis_and_symmetric(gs, op)
    psi = gs.state.amplitudes
    assert np.allclose(diag[np.abs(psi) > 0], gs.energy, rtol=0, atol=1e-12)
    iso, red = op.sector()
    lowest = red.tail_diag - 2.0 * red.n_diag <= gs.energy + 1e-8
    assert gs.degeneracy == int(lowest.sum())
    # the lowest configurations fall into that many orbits
    at_e0 = diag <= gs.energy + 1e-8
    assert gs.degeneracy == len(np.unique(iso.indices[at_e0]))
    assert gs.degenerate == (gs.degeneracy > 1)


def test_interior_peaks_synthetic():
    v = np.array([0.0, 1.0, 0.5, 2.0, 1.5, np.nan, 3.0, 0.0])
    assert interior_peaks(v) == [1, 3]
    assert interior_peaks([1.0, 2.0]) == []
    assert interior_peaks(np.zeros(5)) == []
