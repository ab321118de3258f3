import json

import numpy as np
import pytest
import scipy.sparse
from scipy.integrate import trapezoid

from gnmqsim import cli
from gnmqsim import dynamics as dyn
from gnmqsim import observables as obs
from gnmqsim.errors import NumericalError
from gnmqsim.network import (ZERO_MODE_RTOL, build_anm, build_gnm,
                             condition_diagnostics, model_from_matrices)
from gnmqsim.stateprep import encode_initial_conditions
from gnmqsim.structure import (ProteinStructure, load_bundled_structure,
                               synthetic_chain)


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
    lam = np.linalg.eigvalsh(m.A.toarray())
    assert np.sum(lam <= 1e-8 * lam[-1]) == 2


def test_every_zero_mode_reader_uses_the_one_cached_mask():
    far = synthetic_chain(6).positions.copy()
    far[3:] += 100.0
    split = build_gnm(ProteinStructure(positions=far, masses=np.ones(6),
                                       labels=["X"] * 6, source_id="t"),
                      cutoff=4.0)
    zero = split.zero_modes
    assert zero is split.zero_modes and not zero.flags.writeable
    lam = split.eigenpairs[0]
    assert np.array_equal(zero, lam <= ZERO_MODE_RTOL * lam[-1])
    assert zero.sum() == 2
    assert condition_diagnostics(split)["n_zero_modes"] == 2
    assert obs.low_modes(split, 1).n_zero_modes == 2
    assert np.sum(dyn.embed(split).spectrum == 0.0) == 6 + split.n_edges - 2 * 4
    stats = obs.displacement_stats(split, 1.0)
    vecs = split.eigenpairs[1]
    assert np.abs(stats["correlation"] @ vecs[:, zero]).max() <= 1e-12
    # lam_max <= 0: every mode is a zero mode
    flat = model_from_matrices(np.zeros((3, 3)), np.ones(3))
    assert flat.zero_modes.all()
    assert condition_diagnostics(flat) == {"lambda_max": 0.0,
                                           "lambda_min_nonzero": 0.0,
                                           "kappa": np.inf, "n_zero_modes": 3}
    assert flat.B.shape == (3, 0) and dyn.embed(flat).spectrum.tolist() == [0.0] * 3


def test_spectral_bound_is_tight_upper_bound(crambin_gnm):
    cases = [crambin_gnm.A.toarray(), dyn.embed(crambin_gnm).operator.toarray(),
             np.diag([1.0, -1.0]), np.zeros((3, 3))]
    for M in cases:
        true = float(np.max(np.abs(np.linalg.eigvalsh(M)))) if M.size else 0.0
        bound = obs.spectral_bound(M)
        assert bound >= true * (1 - 1e-9)
        if true > 0:
            assert bound <= 1.03 * true


def test_exact_moments_match_eigenvalue_sums(crambin_gnm, crambin_alpha,
                                             crambin_exact_moments):
    lam = np.linalg.eigvalsh(crambin_gnm.A.toarray())
    scaled = np.clip(lam / crambin_alpha, -1.0, 1.0)
    oracle = np.array([np.mean(np.cos(k * np.arccos(scaled)))
                       for k in range(101)])
    assert np.abs(crambin_exact_moments.moments - oracle).max() <= 1e-10


def test_exact_moments_match_dense_recurrence(crambin, crambin_gnm):
    cases = [crambin_gnm.A.toarray(), dyn.embed(crambin_gnm).operator.toarray(),
             dyn.embed(build_anm(crambin)).operator.toarray()]
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
    lam_max = np.linalg.eigvalsh(crambin_gnm.A.toarray())[-1]
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
        quad = trapezoid(obs.reconstruct_dos(mom, grid=grid).values, grid)
        assert abs(quad - mass) < 5e-6
    with pytest.raises(ValueError):
        obs.dos_bin_masses(mom, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        obs.dos_bin_masses(mom, np.array([-2 * a, 0.0]))


def test_histogram_l1_shrinks_with_order(crambin_gnm, crambin_alpha):
    lam = np.linalg.eigvalsh(crambin_gnm.A.toarray())
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


@pytest.mark.parametrize("build", [build_gnm, build_anm], ids=["gnm", "anm"])
def test_displacement_stats_reads_cached_eigenpairs_for_unit_masses(build,
                                                                    monkeypatch):
    model = build(load_bundled_structure())
    assert np.all(model.masses == 1.0)
    ref = 1.5 * np.linalg.pinv(model.K, hermitian=True, rcond=ZERO_MODE_RTOL)
    calls = []
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(a))
    stats = obs.displacement_stats(model, kT=1.5)
    assert not calls
    assert np.abs(stats["correlation"] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_displacement_stats_takes_pinv_for_other_masses(monkeypatch):
    chain = synthetic_chain(6)
    heavy = ProteinStructure(positions=chain.positions,
                             masses=np.linspace(1.0, 2.0, 6),
                             labels=chain.labels, source_id="t")
    model = build_gnm(heavy)
    pinv, calls = np.linalg.pinv, []

    def spy(*args, **kwargs):
        calls.append(args)
        return pinv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", spy)
    stats = obs.displacement_stats(model, kT=2.0)
    assert len(calls) == 1 and "eigenpairs" not in vars(model)
    assert np.array_equal(stats["correlation"], 2.0 * pinv(
        model.K, hermitian=True, rcond=ZERO_MODE_RTOL))


# -- the dense read-out route, kept as the oracle of `gnmqsim dos` -------------


def dense_dos_oracle(model, order: int, probes: int, seed: int):
    """`gnmqsim dos` on the dense embedding: spectral_bound(H), eigvalsh(H),
    exact moments of that spectrum and the probe recurrence on dense H."""
    H = dyn.embed(model).operator.toarray()
    alpha = obs.spectral_bound(H)
    eigenvalues = np.linalg.eigvalsh(H)
    return (alpha, eigenvalues,
            obs.MomentSet.from_spectrum(eigenvalues, alpha, order),
            obs.chebyshev_moments_stochastic(H, alpha, order, probes, seed))


def _dos_models():
    rng = np.random.default_rng(31)
    w = np.triu(rng.uniform(0.5, 2.0, (7, 7)) * (rng.uniform(size=(7, 7)) < 0.5), 1)
    w[np.arange(6), np.arange(1, 7)] = 1.0  # connected: exactly one zero mode
    laplacian = np.diag((w + w.T).sum(axis=1)) - w - w.T
    return {
        "bundled-gnm": build_gnm(load_bundled_structure()),
        "bundled-anm": build_anm(load_bundled_structure()),
        "matrices-with-zero-mode": model_from_matrices(
            laplacian, np.linspace(1.0, 3.0, 7)),
    }


DOS_MODELS = _dos_models()


@pytest.mark.parametrize("key", DOS_MODELS)
def test_mode_space_dos_matches_the_dense_oracle(key):
    model = DOS_MODELS[key]
    alpha, eigenvalues, exact, stoch = dense_dos_oracle(model, 100, 50, 0x2A)
    emb = dyn.embed(model)
    got_alpha = obs.spectral_bound(emb.operator)
    assert abs(got_alpha - alpha) <= 1e-14 * alpha
    assert np.abs(emb.spectrum - eigenvalues).max() <= 1e-12 * alpha
    got = obs.MomentSet.from_spectrum(emb.spectrum, got_alpha, 100)
    assert np.abs(got.moments - exact.moments).max() <= 1e-12
    got = obs.chebyshev_moments_stochastic(emb.operator, got_alpha, 100, 50, 0x2A)
    assert np.abs(got.moments - stoch.moments).max() <= 1e-13
    assert np.abs(got.stderr - stoch.stderr).max() <= 1e-13
    if key == "matrices-with-zero-mode":
        assert model.n_edges < model.n_dof
        assert np.sum(emb.spectrum == 0.0) == model.n_dof - model.n_edges


def test_bound_and_probe_moments_take_dense_or_sparse_input(crambin_gnm):
    # the sparse operator and the models' CSR A against their dense forms
    for sparse in (dyn.embed(crambin_gnm).operator,
                   *(model.A for model in DOS_MODELS.values())):
        dense = sparse.toarray()
        alpha = obs.spectral_bound(dense)
        assert abs(obs.spectral_bound(sparse) - alpha) <= 1e-14 * alpha
        ref = obs.chebyshev_moments_stochastic(dense, alpha, 60, 20, 5)
        got = obs.chebyshev_moments_stochastic(sparse, alpha, 60, 20, 5)
        assert np.abs(got.moments - ref.moments).max() <= 1e-13
        assert np.abs(got.stderr - ref.stderr).max() <= 1e-13


def test_bound_and_probe_moments_on_a_never_densify_it(crambin, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the read-out densified a sparse matrix")

    models = (build_gnm(crambin), build_anm(crambin))
    for name in ("toarray", "todense"):
        monkeypatch.setattr(scipy.sparse.csr_array, name, refuse)
    for model in models:
        alpha = obs.spectral_bound(model.A)
        obs.chebyshev_moments_stochastic(model.A, alpha, 40, 8, 3)


@pytest.mark.parametrize("model_flag", ["gnm", "anm"])
def test_dos_cli_never_builds_dense_h_and_matches_the_dense_oracle(
        tmp_path, monkeypatch, model_flag):
    model = DOS_MODELS[f"bundled-{model_flag}"]
    alpha, eigenvalues, exact, stoch = dense_dos_oracle(model, 100, 50, 0x2A)

    dim = model.n_dof + model.n_edges
    toarray = scipy.sparse.csr_array.toarray

    def refuse(self, *args, **kwargs):
        # eigenpairs densifies the n x n A; only H has H's shape
        if self.shape == (dim, dim):
            raise AssertionError("gnmqsim dos built the dense H")
        return toarray(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csr_array, "toarray", refuse)
    out = tmp_path / "out"
    assert cli.main(["dos", "--model", model_flag, "--probes", "50",
                     "--out", str(out)]) == 0
    results = json.loads((out / "manifest.json").read_text())["results"]
    table = np.loadtxt(out / "moments.csv", delimiter=",", skiprows=1)
    assert abs(results["alpha"] - alpha) <= 1e-14 * alpha
    assert results["n_eigenvalues"] == eigenvalues.size
    assert np.abs(table[:, 1] - exact.moments).max() <= 1e-12
    assert np.abs(table[:, 2] - stoch.moments).max() <= 1e-13
    assert np.abs(table[:, 3] - stoch.stderr).max() <= 1e-13


def test_dos_puts_every_null_eigenvalue_in_one_middle_bin(tmp_path):
    model = DOS_MODELS["bundled-anm"]
    spectrum = dyn.embed(model).spectrum
    n_zero = int(np.sum(spectrum == 0.0))
    assert n_zero == model.n_dof + model.n_edges - 2 * int(np.sum(spectrum > 0))
    texts = []
    for name in ("first", "second"):
        assert cli.main(["dos", "--model", "anm", "--out",
                         str(tmp_path / name)]) == 0
        texts.append((tmp_path / name / "comparison.csv").read_bytes())
    assert texts[0] == texts[1]
    table = np.loadtxt(tmp_path / "first" / "comparison.csv", delimiter=",",
                       skiprows=1)
    counts = np.rint(table[:, 2] * (table[:, 1] - table[:, 0]) * spectrum.size)
    assert counts.sum() == spectrum.size
    edges = np.append(table[:, 0], table[-1, 1])
    zeros_per_bin = counts - np.histogram(spectrum[spectrum != 0.0], edges)[0]
    assert np.flatnonzero(zeros_per_bin).tolist() in ([19], [20])
    assert zeros_per_bin.max() == n_zero
