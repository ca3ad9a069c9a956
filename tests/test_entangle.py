import numpy as np
import pytest

from rvbprep import entangle
from rvbprep.entangle import (EntangleError, entanglement_entropy,
                              topological_entropy_report)
from rvbprep.geometry import cluster_preset, constraint_graph
from rvbprep.hilbert import StateVector, enumerate_basis, full_basis


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


@pytest.fixture(scope="module")
def blockade12():
    """The N = 12 preset's radius-2 basis, a copy of its own, so that the
    cuts of this module start cold."""
    return enumerate_basis(constraint_graph(cluster_preset(12), 2.0))


def _mask(region):
    return sum(1 << a for a in region)


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


def test_real_amplitudes_take_the_real_path(monkeypatch):
    basis = full_basis(8)
    amps = np.random.default_rng(5).standard_normal(basis.dim)
    psi = StateVector(basis, amps / np.linalg.norm(amps))
    regions = ([0], [0, 3], [1, 2, 5], [0, 1, 2, 3, 4])
    want = [dense_rdm_entropy(psi, region) for region in regions]
    grams = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        grams.append(a.dtype)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for region, entropy in zip(regions, want):
        rep = entanglement_entropy(psi, region)
        assert rep.entropy == pytest.approx(entropy, abs=1e-10)
    assert grams == [np.float64] * 4
    # one imaginary part makes the whole state complex
    amps = psi.amplitudes.copy()
    amps[3] += 1e-3j
    entanglement_entropy(StateVector(basis, amps), [0, 3])
    assert grams[-1] == np.complex128


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_constrained_basis_matches_dense_rdm(blockade12, kind):
    rng = np.random.default_rng(17)
    amps = rng.standard_normal(blockade12.dim)
    if kind == "complex":
        amps = amps + 1j * rng.standard_normal(blockade12.dim)
    psi = StateVector(blockade12, amps)
    for region in ([0], [0, 1, 2], [0, 4, 7, 9], [1, 3, 5, 6, 8, 10],
                   list(range(11))):
        ridx, cidx, nr, nc = blockade12.cut(_mask(region))
        # a sparse bipartition: some (region, complement) pairs are blocked
        assert nr * nc > blockade12.dim
        rep = entanglement_entropy(psi, region)
        assert rep.entropy == pytest.approx(dense_rdm_entropy(psi, region),
                                            abs=1e-10)


def test_budget_bounds_the_coefficient_matrix(monkeypatch, random_state8):
    # region [0] of 8 atoms: a 2 x 128 coefficient matrix, 2 KiB real and
    # 4 KiB complex; its 2 x 2 Gram matrix would fit any of these budgets
    real = StateVector(random_state8.basis, random_state8.amplitudes.real)
    monkeypatch.setattr(entangle, "GRAM_BUDGET_GIB", 3 * 2 ** 10 / 2 ** 30)
    entanglement_entropy(real, [0])
    with pytest.raises(EntangleError, match="coefficient matrix of 2 x 128"):
        entanglement_entropy(random_state8, [0])
    monkeypatch.setattr(entangle, "GRAM_BUDGET_GIB", 2 ** 10 / 2 ** 30)
    with pytest.raises(EntangleError, match="exceeds the"):
        entanglement_entropy(real, [0])


def test_cuts_are_cached_per_basis(blockade12):
    rng = np.random.default_rng(23)
    psi = StateVector(blockade12, rng.standard_normal(blockade12.dim))
    regions = ([0, 1], [2, 3], [4, 5])
    first = topological_entropy_report(psi, regions)
    cached = topological_entropy_report(psi, regions)
    assert cached.components == first.components
    assert cached.gamma == first.gamma
    full = (1 << 12) - 1
    for region in ([0, 1], [0, 1, 2, 3, 4, 5], [2, 3, 4, 5, 6, 7, 8]):
        mask = _mask(region)
        ridx, cidx, nr, nc = blockade12.cut(mask)
        assert ridx.dtype == cidx.dtype == np.int32
        sides = [np.unique(blockade12.configs & np.uint64(m),
                           return_inverse=True)
                 for m in (mask, full & ~mask)]
        if len(sides[1][0]) < len(sides[0][0]):
            sides.reverse()
        (rvals, want_r), (cvals, want_c) = sides
        assert (nr, nc) == (len(rvals), len(cvals)) and nr <= nc
        assert np.array_equal(ridx, want_r)
        assert np.array_equal(cidx, want_c)
        # the complement is the same bipartition, from the same entry
        assert blockade12.cut(full & ~mask) is blockade12.cut(mask)
