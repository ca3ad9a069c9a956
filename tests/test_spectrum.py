import numpy as np
import pytest

from rvbprep.hilbert import rvb_state
from rvbprep.model import HamiltonianOperator, HamiltonianSpec
from rvbprep.spectrum import (SpectrumError, fidelity_susceptibility_scan,
                              groundstate, interior_peaks)


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


def test_interior_peaks_synthetic():
    v = np.array([0.0, 1.0, 0.5, 2.0, 1.5, np.nan, 3.0, 0.0])
    assert interior_peaks(v) == [1, 3]
    assert interior_peaks([1.0, 2.0]) == []
    assert interior_peaks(np.zeros(5)) == []
