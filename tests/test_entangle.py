import numpy as np
import pytest

from rvbprep.entangle import (EntangleError, entanglement_entropy,
                              topological_entropy_report)
from rvbprep.hilbert import StateVector, full_basis


def dense_rdm_entropy(psi, region):
    """Partial-trace oracle on the full 2^N basis."""
    n = psi.basis.n_atoms
    amps = psi.normalized().amplitudes
    tensor = np.zeros([2] * n, dtype=complex)
    for c, a in zip(psi.basis.configs, amps):
        idx = tuple((int(c) >> i) & 1 for i in range(n))
        tensor[idx] = a
    keep = sorted(region)
    rest = [i for i in range(n) if i not in keep]
    t = tensor.transpose(keep + rest).reshape(2 ** len(keep), -1)
    rho = t @ t.conj().T
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-16]
    return float(-np.sum(w * np.log(w)))


@pytest.fixture(scope="module")
def random_state8():
    basis = full_basis(8)
    rng = np.random.default_rng(41)
    amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return StateVector(basis, amps / np.linalg.norm(amps))


def test_bell_pair_gives_ln2():
    basis = full_basis(2)
    amps = np.zeros(4)
    amps[basis.index_of(0)] = 1 / np.sqrt(2)
    amps[basis.index_of(3)] = 1 / np.sqrt(2)
    rep = entanglement_entropy(StateVector(basis, amps), [0])
    assert rep.entropy == pytest.approx(np.log(2.0), abs=1e-12)
    assert np.count_nonzero(rep.schmidt ** 2 > 1e-16) == 2
    assert np.allclose(rep.schmidt[:2], 1 / np.sqrt(2))


def test_product_state_has_zero_entropy():
    basis = full_basis(4)
    amps = np.ones(basis.dim) / 4.0       # |+>^4
    rep = entanglement_entropy(StateVector(basis, amps), [1, 2])
    assert rep.entropy == pytest.approx(0.0, abs=1e-12)
    assert np.count_nonzero(rep.schmidt ** 2 > 1e-16) == 1


def test_entropy_matches_dense_rdm(random_state8):
    for region in ([0], [0, 3], [1, 2, 5], [0, 1, 2, 3, 4]):
        rep = entanglement_entropy(random_state8, region)
        want = dense_rdm_entropy(random_state8, region)
        assert rep.entropy == pytest.approx(want, abs=1e-10)


def test_complement_duality(random_state8):
    region = [0, 2, 5]
    comp = [i for i in range(8) if i not in region]
    a = entanglement_entropy(random_state8, region).entropy
    b = entanglement_entropy(random_state8, comp).entropy
    assert a == pytest.approx(b, abs=1e-10)


def test_region_validation(random_state8):
    with pytest.raises(EntangleError):
        entanglement_entropy(random_state8, [])
    with pytest.raises(EntangleError):
        entanglement_entropy(random_state8, [7, 8])
    with pytest.raises(EntangleError):
        entanglement_entropy(random_state8, list(range(8)))


def test_topological_entropy_combination(random_state8):
    regions = ([0, 1], [2, 3], [4, 5])
    rep = topological_entropy_report(random_state8, regions)
    s = {k: dense_rdm_entropy(random_state8, r) for k, r in {
        "A": [0, 1], "B": [2, 3], "C": [4, 5], "AB": [0, 1, 2, 3],
        "BC": [2, 3, 4, 5], "AC": [0, 1, 4, 5],
        "ABC": [0, 1, 2, 3, 4, 5]}.items()}
    want = (s["AB"] + s["BC"] + s["AC"]
            - s["A"] - s["B"] - s["C"] - s["ABC"])
    assert rep.gamma == pytest.approx(want, abs=1e-9)
    for k, v in s.items():
        assert rep.components[k] == pytest.approx(v, abs=1e-10)
    with pytest.raises(EntangleError):
        topological_entropy_report(random_state8, ([0, 1], [1, 2], [3, 4]))


def test_report_and_serialization(random_state8):
    regions = ([0, 1], [2, 3], [4, 5])
    rep = topological_entropy_report(random_state8, regions)
    c = rep.components
    assert set(c) == {"A", "B", "C", "AB", "BC", "AC", "ABC"}
    assert rep.gamma == (c["AB"] + c["BC"] + c["AC"] - c["A"] - c["B"]
                         - c["C"] - c["ABC"])
    assert rep.region == (0, 1, 2, 3, 4, 5)
    assert rep.entropy == c["ABC"]
    assert rep.n_atoms == 6

