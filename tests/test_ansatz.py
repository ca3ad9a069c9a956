import numpy as np
import pytest

from rvbprep.ansatz import (AnsatzBuilder, AnsatzError, AnsatzParams,
                            DEFAULT_SEEDS, build_ansatz, fit_to_state,
                            fit_trajectory)
from rvbprep.geometry import build_cluster
from rvbprep.hilbert import StateVector, enumerate_maximal_covers, full_basis


@pytest.fixture(scope="module")
def builder12(covers12, basis12):
    return AnsatzBuilder(covers12, basis12)


def operator_product_oracle(covers, basis, z1, z2):
    """Apply prod_i (1 + z2 s+_i)(1 + z1 s-_i) to the cover superposition
    configuration by configuration (slow but direct)."""
    n = basis.n_atoms
    site = np.array([[1.0, z1], [z2, 1.0 + z1 * z2]], dtype=complex)
    amps = np.zeros(basis.dim, dtype=complex)
    for ci, c in enumerate(basis.configs):
        c = int(c)
        for d in covers.covers:
            d = int(d)
            w = 1.0
            for i in range(n):
                w *= site[(c >> i) & 1, (d >> i) & 1]
            amps[ci] += w
    return amps / np.linalg.norm(amps)


def test_build_matches_operator_product_oracle(covers12, basis12, builder12):
    for z1, z2 in ((0.4, 0.7), (1.2, 0.3 + 0.2j), (0.0, 0.9), (2.0, 0.0)):
        want = operator_product_oracle(covers12, basis12, z1, z2)
        got = builder12.build(z1, z2).amplitudes
        phase = np.vdot(got, want)
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.allclose(got * phase / abs(phase), want, atol=1e-12)


def per_cover_oracle(covers, basis, x, z2, u):
    """Normalized sum over covers m of coef[K[m, c], pc(c)], with
    K[m, c] = |cover_m AND c| and coef[k, pc] = x^(nd-k) z2^(pc-k) u^k:
    (x, u) = (z1, 1 + z1 z2) on the RVB limb, (1, w1 + z2) on the vacuum
    limb."""
    nd = int(np.bitwise_count(covers.covers[0]))
    pc = basis.popcounts
    amps = np.zeros(basis.dim, dtype=complex)
    for d in covers.covers:
        k = np.bitwise_count(basis.configs & d).astype(np.int64)
        amps += x ** (nd - k) * z2 ** (pc - k) * u ** k
    return amps / np.linalg.norm(amps)


# near 1 + z1 z2 = 0 (and w1 + z2 = 0), large |z1|, zeros and phases
RVB_LIMB_POINTS = ((0.3 + 0.1j, 0.2), (1.2, 1.2 - 0.3j), (0.0, 0.9j),
                   (2.0, -0.5 + 1e-7), (1j, 1j * (1 + 1e-9)),
                   (1e3 * np.exp(0.4j), 0.05 - 0.02j), (-1e3, 0.3))
VACUUM_LIMB_POINTS = ((0.0, 0.45), (0.2 - 0.1j, 0.3j), (0.5, -0.5 + 1e-7),
                      (1e-3 * np.exp(2.0j), -0.7 + 0.2j), (0.3, 0.0))


@pytest.mark.parametrize("unconstrained", [False, True])
def test_build_matches_per_cover_sum(covers12, basis12, unconstrained):
    basis = full_basis(12) if unconstrained else basis12
    builder = AnsatzBuilder(covers12, basis)
    for z1, z2 in RVB_LIMB_POINTS:
        want = per_cover_oracle(covers12, basis, z1, z2, 1 + z1 * z2)
        got = builder.build(z1, z2).amplitudes
        assert np.allclose(got, want, rtol=0, atol=1e-12)
    for w1, z2 in VACUUM_LIMB_POINTS:
        want = per_cover_oracle(covers12, basis, 1.0, z2, w1 + z2)
        got = builder.build_vacuum_limb(w1, z2).amplitudes
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_z1_zero_is_rvb(builder12, rvb12):
    phi = builder12.build(0.0, 0.0)
    assert abs(abs(np.vdot(phi.amplitudes, rvb12.amplitudes)) - 1.0) < 1e-12


def test_vacuum_limb_limit(builder12, basis12):
    # w1 = 0: amplitudes proportional to z2^pc on every configuration
    z2 = 0.45
    phi = builder12.build_vacuum_limb(0.0, z2)
    want = z2 ** basis12.popcounts.astype(float)
    want = want / np.linalg.norm(want)
    assert np.allclose(np.abs(phi.amplitudes), want, atol=1e-12)
    # large finite z1 approaches the limb smoothly
    near = builder12.build(1e5, z2)
    assert abs(np.vdot(near.amplitudes, phi.amplitudes)) > 1 - 1e-6


def test_build_params_dispatch(builder12):
    a = builder12.build_params(AnsatzParams(np.inf, 0.3))
    b = builder12.build_vacuum_limb(0.0, 0.3)
    assert np.allclose(a.amplitudes, b.amplitudes)
    c = builder12.build_params(AnsatzParams(0.5, 0.3))
    d = builder12.build(0.5, 0.3)
    assert np.allclose(c.amplitudes, d.amplitudes)


def test_overflow_guard(builder12):
    with pytest.raises(AnsatzError):
        builder12.build(2e6, 0.1)
    with pytest.raises(AnsatzError):
        builder12.build_vacuum_limb(0.0, 2e6)


def test_builder_validation(basis12, covers12):
    empty = enumerate_maximal_covers(build_cluster(1, 1))
    with pytest.raises(AnsatzError):
        AnsatzBuilder(empty, basis12)


def test_one_shot_matches_builder(covers12, basis12, builder12):
    p = AnsatzParams(0.7, 0.2)
    a = build_ansatz(p, covers12, basis12)
    b = builder12.build_params(p)
    assert np.allclose(a.amplitudes, b.amplitudes)


def test_fit_recovers_rvb(covers12, basis12, rvb12):
    fit = fit_to_state(rvb12, covers12, basis12)
    assert fit.overlap > 1 - 1e-8
    assert fit.limb == "rvb"
    assert abs(fit.params.z1) < 1e-3


def test_fit_recovers_known_parameters(covers12, basis12, builder12):
    target = builder12.build(0.8, 0.35)
    fit = fit_to_state(target, covers12, basis12, builder=builder12)
    assert fit.overlap > 1 - 1e-8
    assert fit.params.z1 == pytest.approx(0.8, abs=1e-3)
    assert fit.params.z2 == pytest.approx(0.35, abs=1e-3)


def test_fit_finds_vacuum_limb(covers12, basis12, builder12):
    amps = np.zeros(basis12.dim, dtype=complex)
    amps[basis12.index_of(0)] = 1.0
    vac = StateVector(basis12, amps)
    fit = fit_to_state(vac, covers12, basis12, builder=builder12)
    assert fit.overlap > 1 - 1e-6
    # either the explicit limb or a large-|z1| point on the main branch
    assert fit.limb == "vacuum" or abs(fit.params.z1) > 100.0
    assert abs(fit.params.z2) < 1e-2


def test_fit_trajectory_warm_start_and_csv(covers12, basis12, builder12):
    snaps = [(0.5, builder12.build(0.6, 0.2)),
             (1.0, builder12.build(0.5, 0.25))]
    results = fit_trajectory(snaps, covers12, basis12)
    assert [lab for lab, _ in results] == [0.5, 1.0]
    assert all(fit.overlap > 1 - 1e-7 and fit.converged
               for _, fit in results)


def test_default_seeds_cover_both_limbs():
    assert any(abs(complex(a)) >= 5.0 for a, _ in DEFAULT_SEEDS)
    assert any(abs(complex(a)) < 5.0 for a, _ in DEFAULT_SEEDS)


@pytest.mark.parametrize("unconstrained", [False, True])
def test_fit_objective_matches_state_overlap(covers12, basis12,
                                             unconstrained):
    basis = full_basis(12) if unconstrained else basis12
    builder = AnsatzBuilder(covers12, basis)
    rng = np.random.default_rng(7)
    for _ in range(4):
        psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        psi /= np.linalg.norm(psi)
        moments = builder.moments(psi)
        for _ in range(6):
            a, b = 10.0 ** rng.uniform(-2, 1, size=2) * np.exp(
                2j * np.pi * rng.random(2))
            for coef, state in (
                    (builder.coefficients(a, b), builder.build(a, b)),
                    (builder.vacuum_coefficients(a / 10, b),
                     builder.build_vacuum_limb(a / 10, b))):
                want = abs(np.vdot(state.amplitudes, psi))
                got = builder.overlap(coef, moments)
                assert got == pytest.approx(want, rel=1e-10, abs=0)


def test_fit_counts_every_evaluation_and_reports_state_overlap(
        covers12, basis12, builder12, monkeypatch):
    target = builder12.build(0.8, 0.35 + 0.1j)
    calls = []
    for name in ("coefficients", "vacuum_coefficients"):
        method = getattr(builder12, name)
        monkeypatch.setattr(builder12, name,
                            lambda *a, f=method: calls.append(a) or f(*a))
    fit = fit_to_state(target, covers12, basis12, builder=builder12,
                       max_evals=300)
    # one call per evaluation of every start, plus the returned state
    assert fit.n_evaluations == len(calls) - 1
    assert fit.n_evaluations > 300
    monkeypatch.undo()
    assert fit.limb == "rvb"
    want = abs(np.vdot(builder12.build_params(fit.params).amplitudes,
                       target.amplitudes))
    assert fit.overlap == pytest.approx(want, rel=1e-14, abs=0)
