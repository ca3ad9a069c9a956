import numpy as np
import pytest
from scipy.optimize import minimize

from rvbprep import ansatz
from rvbprep.ansatz import (AnsatzBuilder, AnsatzError, AnsatzParams,
                            DEFAULT_SEEDS, GRAD_TOL, OVERFLOW_GUARD,
                            build_ansatz, fit_to_state, fit_trajectory)
from rvbprep.geometry import build_cluster
from rvbprep.hilbert import StateVector, enumerate_maximal_covers, full_basis
from rvbprep.model import HamiltonianOperator, HamiltonianSpec
from rvbprep.spectrum import groundstate


@pytest.fixture(scope="module")
def builder12(covers12, basis12):
    return AnsatzBuilder(covers12, basis12)


@pytest.fixture(scope="module")
def builder24(covers24, basis24):
    return AnsatzBuilder(covers24, basis24)


@pytest.fixture(scope="module")
def ground_states24(cluster24, basis24):
    """Warm-started PXP ground states at the Delta/Omega = 1.0, ..., 2.1 of
    the fit-tee benchmark workload's grid."""
    op = HamiltonianOperator(HamiltonianSpec(), basis24, cluster24)
    states, v0 = [], None
    for ratio in 1.0 + 0.1 * np.arange(12):
        gs = groundstate(op, 1.0, ratio, v0=v0)
        v0 = gs.state.amplitudes
        states.append(gs.state)
    return states


def z_deviation(p, q):
    """Largest deviation of the fitted z columns in verify's measure,
    |a - b| / (1 + |a|)."""
    return max(abs(a - b) / (1.0 + abs(a))
               for a, b in ((p.z1.real, q.z1.real), (p.z1.imag, q.z1.imag),
                            (p.z2.real, q.z2.real), (p.z2.imag, q.z2.imag)))


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
    method = builder12.squared_overlap
    monkeypatch.setattr(builder12, "squared_overlap",
                        lambda *a: calls.append(a) or method(*a))
    fit = fit_to_state(target, covers12, basis12, builder=builder12,
                       max_evals=300)
    # one call per value and gradient of every start and of the polish
    assert fit.n_evaluations == len(calls)
    assert {vacuum for *_, vacuum in calls} == {False, True}
    assert len(calls) > len(DEFAULT_SEEDS)
    monkeypatch.undo()
    assert fit.limb == "rvb"
    want = abs(np.vdot(builder12.build_params(fit.params).amplitudes,
                       target.amplitudes))
    assert fit.overlap == pytest.approx(want, rel=1e-14, abs=0)


def test_evaluation_cap_holds_per_start(covers12, basis12, builder12,
                                        monkeypatch):
    target = builder12.build(0.8, 0.35 + 0.1j)
    starts = []

    def spy(*args, **kwargs):
        res = minimize(*args, **kwargs)
        starts.append(res.nfev)
        return res

    monkeypatch.setattr(ansatz, "minimize", spy)
    fit = fit_to_state(target, covers12, basis12, builder=builder12,
                       max_evals=3)
    assert len(starts) == len(DEFAULT_SEEDS)
    # L-BFGS-B checks the cap after each line search, of at most 20 steps;
    # the polish adds at most 3 x (8 + 1) evaluations
    assert all(n <= 3 + 20 for n in starts)
    assert sum(starts) <= fit.n_evaluations <= sum(starts) + 27


def squared_overlap_by_differences(builder, moments, a, z2, vacuum, h=1e-6):
    """Central differences of builder.overlap ** 2 in
    (Re a, Im a, Re z2, Im z2)."""
    coefficients = (builder.vacuum_coefficients if vacuum
                    else builder.coefficients)
    x = np.array([a.real, a.imag, z2.real, z2.imag])

    def f2(x):
        return builder.overlap(coefficients(complex(x[0], x[1]),
                                            complex(x[2], x[3])),
                               moments) ** 2

    grad = np.empty(4)
    for i in range(4):
        dx = np.zeros(4)
        dx[i] = h
        grad[i] = (f2(x + dx) - f2(x - dx)) / (2.0 * h)
    return f2(x), grad


@pytest.mark.parametrize("unconstrained", [False, True])
def test_squared_overlap_gradient_matches_differences(covers12, basis12,
                                                      unconstrained):
    basis = full_basis(12) if unconstrained else basis12
    builder = AnsatzBuilder(covers12, basis)
    rng = np.random.default_rng(11)
    # z2 = 0, z1 = 0 and w1 = 0 meet 0^0 in the table and its derivatives
    special = [(0.0, 0.0), (0.4 - 0.2j, 0.0), (0.0, 0.3 + 0.1j)]
    for _ in range(3):
        psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        moments = builder.moments(psi / np.linalg.norm(psi))
        points = special + [tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
                            for _ in range(4)]
        for vacuum in (False, True):
            for a, z2 in points:
                a, z2 = complex(a), complex(z2)
                want_f2, want = squared_overlap_by_differences(
                    builder, moments, a, z2, vacuum)
                f2, grad = builder.squared_overlap(a, z2, moments, vacuum)
                assert f2 == pytest.approx(want_f2, rel=1e-12, abs=1e-15)
                assert np.allclose(grad, want, rtol=1e-6, atol=1e-8)


def test_squared_overlap_rejects_points_beyond_the_guard(builder12):
    moments = builder12.moments(builder12.build(0.3, 0.2).amplitudes)
    for vacuum in (False, True):
        with pytest.raises(AnsatzError):
            builder12.squared_overlap(2 * OVERFLOW_GUARD, 0.1, moments,
                                      vacuum)
        # B grows as |coef|^2, up to |u|^(2 nd) with u = 1 + z1 z2
        f2, grad = builder12.squared_overlap(0.9 * OVERFLOW_GUARD,
                                             0.9 * OVERFLOW_GUARD, moments,
                                             vacuum)
        assert np.isfinite(f2) and np.all(np.isfinite(grad))


def nelder_mead_fit(builder, psi, warm_start=None):
    """The multistart Nelder-Mead fit that L-BFGS replaced, kept as a
    reference: a 4-real-parameter simplex per start on the overlap (xatol
    1e-6, fatol 1e-14, at most 2000 evaluations), with the same starts and
    limb rule.  Returns (overlap of the best start's state, its params)."""
    moments = builder.moments(psi.normalized().amplitudes)
    starts = [(complex(a), complex(b)) for a, b in DEFAULT_SEEDS]
    if warm_start is not None:
        z1 = warm_start.z1 if not warm_start.vacuum_limit else 1e9
        starts.append((z1, warm_start.z2))
    best = None
    for z1s, z2s in starts:
        vacuum = abs(z1s) >= 5.0
        a = ((0.0 if abs(z1s) > OVERFLOW_GUARD else 1.0 / z1s) if vacuum
             else z1s)
        coefficients = (builder.vacuum_coefficients if vacuum
                        else builder.coefficients)

        def negative_overlap(x):
            try:
                return -builder.overlap(coefficients(complex(x[0], x[1]),
                                                     complex(x[2], x[3])),
                                        moments)
            except AnsatzError:
                return 0.0

        res = minimize(negative_overlap,
                       np.array([a.real, a.imag, z2s.real, z2s.imag]),
                       method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-14,
                                "maxfev": 2000, "maxiter": 2000})
        if best is None or res.fun < best[1].fun:
            best = (vacuum, res, coefficients)
    vacuum, res, coefficients = best
    a, z2 = complex(res.x[0], res.x[1]), complex(res.x[2], res.x[3])
    phi = builder.state(coefficients(a, z2))
    z1 = (np.inf if a == 0 else 1.0 / a) if vacuum else a
    overlap = abs(np.vdot(phi.amplitudes, psi.normalized().amplitudes))
    return overlap, AnsatzParams(z1, z2)


def test_fit_matches_nelder_mead_on_the_benchmark_grid(
        covers24, basis24, builder24, ground_states24):
    warm, warm_nm = None, None
    for psi in ground_states24:
        fit = fit_to_state(psi, covers24, basis24, warm_start=warm,
                           builder=builder24)
        want, warm_nm = nelder_mead_fit(builder24, psi, warm_nm)
        assert fit.overlap >= want - 1e-12
        assert fit.converged and fit.gradient_norm <= GRAD_TOL
        warm = fit.params


def test_fitted_z_follows_the_target(covers24, basis24, builder24,
                                     ground_states24):
    # a 1e-14 relative change of the snapshot moves z by rounding only
    rng = np.random.default_rng(3)
    for psi in ground_states24[::4]:
        fit = fit_to_state(psi, covers24, basis24, builder=builder24)
        noise = (rng.normal(size=basis24.dim)
                 + 1j * rng.normal(size=basis24.dim))
        perturbed = StateVector(basis24,
                                psi.amplitudes * (1.0 + 1e-14 * noise))
        again = fit_to_state(perturbed, covers24, basis24, builder=builder24)
        assert z_deviation(fit.params, again.params) <= 1e-9


def test_converged_reads_the_gradient_at_the_optimum(covers24, basis24,
                                                     builder24,
                                                     ground_states24):
    psi = ground_states24[8]
    fit = fit_to_state(psi, covers24, basis24, builder=builder24)
    moments = builder24.moments(psi.normalized().amplitudes)
    # both limbs reach this optimum; the fit reports the one it ran on
    vacuum = fit.limb == "vacuum"
    a = 1.0 / fit.params.z1 if vacuum else fit.params.z1
    f2, grad = builder24.squared_overlap(a, fit.params.z2, moments, vacuum)
    assert fit.converged
    assert fit.gradient_norm == pytest.approx(np.linalg.norm(grad),
                                              rel=0, abs=1e-13)
    assert f2 == pytest.approx(fit.overlap ** 2, rel=1e-13)
    # a start capped after a few evaluations is far from the optimum
    capped = fit_to_state(psi, covers24, basis24, builder=builder24,
                          max_evals=1)
    assert capped.gradient_norm > GRAD_TOL and not capped.converged
