import numpy as np
import pytest

from gnmqsim import dynamics as dyn
from gnmqsim import observables as obs
from gnmqsim.errors import NumericalError
from gnmqsim.network import build_anm, build_gnm, model_from_matrices
from gnmqsim.stateprep import encode_initial_conditions
from gnmqsim.structure import ProteinStructure, synthetic_chain


def dense_recurrence_moments(matrix: np.ndarray, alpha: float,
                             order: int) -> obs.MomentSet:
    """mu_k = Tr(T_k(matrix/alpha))/N by the matrix three-term recurrence."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    x = matrix / alpha
    moments = np.empty(order + 1)
    t_prev = np.eye(n)
    t_cur = x.copy()
    moments[0] = 1.0
    if order >= 1:
        moments[1] = np.trace(t_cur) / n
    for k in range(2, order + 1):
        t_prev, t_cur = t_cur, 2.0 * (x @ t_cur) - t_prev
        moments[k] = np.trace(t_cur) / n
    return obs.MomentSet(alpha=float(alpha), moments=moments, method="exact")


@pytest.fixture(scope="module")
def crambin_alpha(crambin_gnm):
    return obs.spectral_bound(crambin_gnm.A)


@pytest.fixture(scope="module")
def crambin_exact_moments(crambin_gnm, crambin_alpha):
    return obs.chebyshev_moments_exact(crambin_gnm.A, crambin_alpha, 100)


def test_kinetic_potential_split_sums_to_total(chain5_gnm):
    emb = dyn.embed(chain5_gnm)
    rng = np.random.default_rng(9)
    st = encode_initial_conditions(chain5_gnm, rng.normal(size=5),
                                   rng.normal(size=5))
    for t in np.linspace(0.0, 20.0, 9):
        psi = dyn.evolve_harmonic(emb, st.psi, float(t))
        kp = obs.kinetic_potential(psi, st.energy, chain5_gnm.n_dof)
        assert abs(kp["kinetic"] + kp["potential"]
                   - st.energy) <= 1e-10 * st.energy


def test_state_at_rest_is_purely_potential(chain5_gnm):
    u = np.array([1.0, -1.0, 0.0, 0.0, 0.0])
    st = encode_initial_conditions(chain5_gnm, u, np.zeros(5))
    kp = obs.kinetic_potential(st)
    assert kp["kinetic"] <= 1e-14
    assert abs(kp["potential"] - 0.5 * u @ chain5_gnm.K @ u) < 1e-12
    assert kp["potential"] == pytest.approx(
        obs.energy_from_displacement(chain5_gnm, u, np.zeros(5)), rel=1e-12)
    with pytest.raises(ValueError):
        obs.kinetic_potential(st.psi)  # raw vector without energy/n_dof


def test_low_modes_two_atom_analytic():
    m2 = build_gnm(synthetic_chain(2))
    ms = obs.low_modes(m2, 1)
    assert abs(ms.eigenvalues[0] - 2.0) < 1e-12
    assert np.allclose(np.abs(ms.modes[:, 0]), 1 / np.sqrt(2))
    assert ms.n_zero_modes == 1
    assert abs(ms.overlap(ms.modes[:, 0]) - 1.0) < 1e-12
    assert abs(ms.overlap([1.0, 1.0])) < 1e-12  # rigid motion
    with pytest.raises(ValueError):
        ms.overlap([0.0, 0.0])
    with pytest.raises(ValueError):
        obs.low_modes(m2, 2)  # only one nonzero mode exists


def test_zero_modes_count_graph_components():
    far = synthetic_chain(6).positions.copy()
    far[3:] += 100.0
    split = ProteinStructure(positions=far, masses=np.ones(6),
                             labels=["X"] * 6, source_id="t")
    m = build_gnm(split, cutoff=4.0)
    lam = np.linalg.eigvalsh(m.A)
    assert np.sum(lam <= 1e-8 * lam[-1]) == 2


def test_spectral_bound_is_tight_upper_bound(crambin_gnm):
    cases = [crambin_gnm.A, dyn.embed(crambin_gnm).H,
             np.diag([1.0, -1.0]), np.zeros((3, 3))]
    for M in cases:
        true = float(np.max(np.abs(np.linalg.eigvalsh(M)))) if M.size else 0.0
        bound = obs.spectral_bound(M)
        assert bound >= true * (1 - 1e-9)
        if true > 0:
            assert bound <= 1.03 * true


def test_exact_moments_match_eigenvalue_sums(crambin_gnm, crambin_alpha,
                                             crambin_exact_moments):
    lam = np.linalg.eigvalsh(crambin_gnm.A)
    scaled = np.clip(lam / crambin_alpha, -1.0, 1.0)
    oracle = np.array([np.mean(np.cos(k * np.arccos(scaled)))
                       for k in range(101)])
    assert np.abs(crambin_exact_moments.moments - oracle).max() <= 1e-10


def test_exact_moments_match_dense_recurrence(crambin, crambin_gnm):
    cases = [crambin_gnm.A, dyn.embed(crambin_gnm).H,
             dyn.embed(build_anm(crambin)).H]
    for M in cases:
        alpha = obs.spectral_bound(M)
        got = obs.chebyshev_moments_exact(M, alpha, 100)
        oracle = dense_recurrence_moments(M, alpha, 100)
        assert np.abs(got.moments - oracle.moments).max() <= 1e-10


def test_trivial_moment_identities():
    momz = obs.chebyshev_moments_exact(np.zeros((4, 4)), 1.0, 6)
    assert np.allclose(momz.moments, [1, 0, -1, 0, 1, 0, -1], atol=1e-14)
    momi = obs.chebyshev_moments_exact(np.eye(3), 1.0, 5)
    assert np.allclose(momi.moments, 1.0, atol=1e-14)


def test_stochastic_moments_within_reported_stderr(crambin_gnm, crambin_alpha,
                                                   crambin_exact_moments):
    sto = obs.chebyshev_moments_stochastic(crambin_gnm.A, crambin_alpha, 100,
                                           probes=400, seed=7)
    exact = crambin_exact_moments.moments
    ok = np.abs(sto.moments - exact) <= 3 * np.maximum(sto.stderr, 1e-300)
    ok |= np.abs(sto.moments - exact) <= 1e-12  # k = 0 is exact by design
    assert ok.mean() >= 0.95
    again = obs.chebyshev_moments_stochastic(crambin_gnm.A, crambin_alpha,
                                             100, probes=400, seed=7)
    assert np.array_equal(sto.moments, again.moments)
    assert sto.probes == 400 and sto.method == "stochastic"


def test_stochastic_moments_exact_for_zero_matrix():
    mom = obs.chebyshev_moments_stochastic(np.zeros((5, 5)), 1.0, 8,
                                           probes=3, seed=1)
    assert np.allclose(mom.moments, [1, 0, -1, 0, 1, 0, -1, 0, 1], atol=1e-14)


def test_moment_set_rejects_inconsistent_values(crambin_gnm):
    with pytest.raises(NumericalError):
        obs.MomentSet(alpha=1.0, moments=np.array([0.9, 0.1]), method="exact")
    with pytest.raises(NumericalError):
        obs.MomentSet(alpha=1.0, moments=np.array([1.0, 1.4]), method="exact")
    lam_max = np.linalg.eigvalsh(crambin_gnm.A)[-1]
    with pytest.raises(NumericalError, match="alpha too small"):
        obs.chebyshev_moments_exact(crambin_gnm.A, 0.5 * lam_max, 10)


def test_jackson_coefficients_shape():
    g = obs.jackson_coefficients(50)
    assert g[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(g) < 0)
    assert g[-1] == pytest.approx(0.0, abs=1e-3)
    assert np.array_equal(obs.dirichlet_coefficients(7), np.ones(8))


def test_dos_positivity_normalization_and_peak(crambin_gnm, crambin_alpha):
    for K in (64, 100):
        mom = obs.chebyshev_moments_exact(crambin_gnm.A, crambin_alpha, K)
        curve = obs.reconstruct_dos(mom)
        assert np.all(curve.values >= 0)
        assert 0.995 <= curve.integral() <= 1.005
    one = obs.chebyshev_moments_exact(np.array([[0.7]]), 1.0, 200)
    curve1 = obs.reconstruct_dos(one)
    assert abs(curve1.grid[np.argmax(curve1.values)] - 0.7) < 2e-3
    # undamped truncation rings: negative lobes appear around the peak
    ringing = obs.reconstruct_dos(one, kernel="dirichlet")
    assert ringing.values.min() < -1e-3


def test_reconstruct_dos_validates_inputs():
    mom = obs.chebyshev_moments_exact(np.array([[0.3]]), 1.0, 30)
    with pytest.raises(ValueError):
        obs.reconstruct_dos(mom, grid=np.array([0.0, 1.5]))
    with pytest.raises(ValueError):
        obs.reconstruct_dos(mom, kernel="fejer")


def test_bin_masses_integrate_the_series(crambin_gnm, crambin_alpha):
    mom = obs.chebyshev_moments_exact(crambin_gnm.A, crambin_alpha, 60)
    a = crambin_alpha
    full = np.array([-a, -0.3 * a, 0.1 * a, 0.55 * a, a])
    assert abs(obs.dos_bin_masses(mom, full).sum() - 1.0) < 1e-12
    # interior bins double-check against brute-force quadrature; the edge
    # bins are excluded because of the integrable 1/sqrt poles at +-alpha
    part = np.array([-0.8 * a, -0.3 * a, 0.1 * a, 0.55 * a, 0.8 * a])
    masses = obs.dos_bin_masses(mom, part)
    for lo, hi, mass in zip(part[:-1], part[1:], masses):
        grid = np.linspace(lo, hi, 20001)
        quad = np.trapezoid(obs.reconstruct_dos(mom, grid=grid).values, grid)
        assert abs(quad - mass) < 5e-6
    with pytest.raises(ValueError):
        obs.dos_bin_masses(mom, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        obs.dos_bin_masses(mom, np.array([-2 * a, 0.0]))


def test_histogram_l1_shrinks_with_order(crambin_gnm, crambin_alpha):
    lam = np.linalg.eigvalsh(crambin_gnm.A)
    l1 = {}
    for K in (10, 100, 1024):
        mom = obs.chebyshev_moments_exact(crambin_gnm.A, crambin_alpha, K)
        rep = obs.dos_histogram_l1(lam, mom, bins=40)
        l1[K] = rep["l1"]
        assert len(rep["edges"]) == 41
        assert rep["hist_density"].shape == (40,)
    assert 0.40 < l1[100] < 0.49
    assert l1[10] > l1[100] > l1[1024]


def test_displacement_stats_two_atom_analytic():
    m2 = build_gnm(synthetic_chain(2))
    stats = obs.displacement_stats(m2, kT=1.0)
    assert np.allclose(stats["correlation"],
                       0.25 * np.array([[1, -1], [-1, 1]]), atol=1e-12)
    assert np.allclose(stats["rmsd"], 0.5, atol=1e-12)
    doubled = obs.displacement_stats(m2, kT=2.0)
    assert np.allclose(doubled["correlation"], 2 * stats["correlation"],
                       atol=1e-12)
    assert np.all(np.linalg.eigvalsh(stats["correlation"]) >= -1e-12)
    assert np.allclose(obs.displacement_stats(m2, kT=0.0)["rmsd"], 0.0)
    with pytest.raises(ValueError):
        obs.displacement_stats(m2, kT=-1.0)


def test_displacement_stats_groups_anm_triplets():
    bent = ProteinStructure(
        positions=np.array([[0.0, 0, 0], [3.8, 0, 0], [1.9, 3.3, 0]]),
        masses=np.ones(3), labels=["X"] * 3, source_id="t")
    m = build_anm(bent, cutoff=5.0)
    stats = obs.displacement_stats(m, kT=1.0)
    assert stats["correlation"].shape == (9, 9)
    assert stats["rmsd"].shape == (3,)
    assert stats["rmsd_per_dof"].shape == (9,)
    assert np.allclose(stats["rmsd"] ** 2,
                       stats["rmsd_per_dof"].reshape(3, 3).__pow__(2).sum(1))
