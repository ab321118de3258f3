import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.integrate import trapezoid

from gnmqsim import cli
from gnmqsim import dynamics as dyn
from gnmqsim import observables as obs
from gnmqsim.errors import NumericalError
from gnmqsim.network import (ZERO_MODE_RTOL, build_anm, build_gnm,
                             condition_diagnostics, model_from_matrices)
from gnmqsim.stateprep import encode_initial_conditions, rademacher
from gnmqsim.structure import (ProteinStructure, load_bundled_structure,
                               synthetic_chain)
from inertia_oracle import dense_zero_count


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


def probe_recurrence_moments(matrix, alpha: float, order: int, probes: int,
                             seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Hutchinson moments and stderr by the plain three-term recurrence on
    the probe block: one product per moment, mu_k = z.T_k z / N, with the
    probe draws of `chebyshev_moments_stochastic`."""
    n = matrix.shape[0]
    x = matrix / alpha
    z = rademacher(seed, 0, probes * n).reshape(probes, n).T
    est = np.empty((order + 1, probes))
    t_prev, t_cur = None, z
    for k in range(order + 1):
        if k == 1:
            t_prev, t_cur = t_cur, x @ t_cur
        elif k > 1:
            t_prev, t_cur = t_cur, 2.0 * (x @ t_cur) - t_prev
        est[k] = np.einsum("ip,ip->p", z, t_cur) / n
    stderr = (est.std(axis=1, ddof=1) / np.sqrt(probes) if probes > 1
              else np.zeros(order + 1))
    return est.mean(axis=1), stderr


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


def test_spectral_bound_is_not_stopped_short_by_a_start_blind_to_the_top():
    # eigenvalues {1.0, 0.9, 0.5 x 58}, the top eigenvector orthogonal to the
    # +/-1 start a power iteration on seed 0x5BEC would take: such a loop
    # settles on 0.9 and returns 0.909, below the radius
    rng = np.random.default_rng(3)
    old_start = rademacher(0x5BEC, 0, 60) / math.sqrt(60)
    top = rng.normal(size=60)
    top -= (top @ old_start) * old_start
    q, _ = np.linalg.qr(np.column_stack([top, rng.normal(size=(60, 59))]))
    M = (q * np.array([1.0, 0.9] + [0.5] * 58)) @ q.T
    M = 0.5 * (M + M.T)
    assert abs(q[:, 0] @ old_start) <= 1e-15
    assert obs.spectral_bound(M) == pytest.approx(1.01, rel=1e-12)
    assert obs.spectral_bound(scipy.sparse.csr_array(M)) == pytest.approx(1.01, rel=1e-12)


def test_spectral_bound_rejects_a_residual_outside_the_margin(crambin_gnm, monkeypatch):
    import scipy.sparse.linalg
    eigsh = scipy.sparse.linalg.eigsh

    def perturbed(*args, **kwargs):
        w, x = eigsh(*args, **kwargs)
        x = x + 0.3 * np.roll(x, 1, axis=0)
        return w, x / np.linalg.norm(x, axis=0)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
    with pytest.raises(NumericalError, match=r"46x46 matrix not certified: theta = \S+ "
                       r"has residual r = \S+ > 0\.01 \|theta\|"):
        obs.spectral_bound(crambin_gnm.A)


@pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 3, 3)])
def test_spectral_bound_rejects_a_matrix_that_is_not_square(shape):
    with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {shape}")):
        obs.spectral_bound(np.ones(shape))
    if len(shape) == 2:
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            obs.spectral_bound(scipy.sparse.csr_array(np.ones(shape)))


@pytest.mark.parametrize("model_flag", ["gnm", "anm"])
def test_dos_takes_alpha_from_the_spectrum_it_holds(tmp_path, monkeypatch, model_flag):
    def refuse(matrix):
        raise AssertionError("gnmqsim dos ran spectral_bound")

    monkeypatch.setattr(obs, "spectral_bound", refuse)
    spectrum = dyn.embed(DOS_MODELS[f"bundled-{model_flag}"]).spectrum
    assert cli.main(["dos", "--model", model_flag, "--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "manifest.json").read_text())["results"]
    assert results["alpha"] == 1.01 * spectrum[-1]


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
    # the errors name the moment, its value and alpha
    with pytest.raises(NumericalError, match=r"\|mu_2\| = 2\.5 is the largest "
                                             r"\(alpha = 1\.5\)"):
        obs.MomentSet(alpha=1.5, moments=np.array([1.0, 1.4, -2.5]),
                      method="exact")
    # NaN and inf used to pass the |mu_k| <= 1 check
    with pytest.raises(NumericalError, match=r"mu_2 = nan is not finite "
                                             r"\(alpha = 1\.0\)"):
        obs.MomentSet(alpha=1.0, moments=np.array([1.0, 0.5, np.nan, np.inf]),
                      method="exact")
    with pytest.raises(NumericalError, match=r"mu_1 = inf is not finite"):
        obs.MomentSet(alpha=1.0, moments=np.array([1.0, np.inf]),
                      method="stochastic")
    with pytest.raises(NumericalError, match=r"mu_1 = nan is not finite"):
        obs.MomentSet.from_spectrum(np.array([0.1, np.nan]), 1.0, 4)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0, -1.0])
def test_moment_routines_reject_an_alpha_that_is_not_finite_and_positive(
        crambin_gnm, alpha):
    # NaN gave [1, nan, ...] from both routes, 0 gave [1, nan, inf, ...]
    # from the spectrum and inf silently gave the zero matrix's moments
    lam = crambin_gnm.eigenpairs[0]
    with pytest.raises(ValueError, match="alpha must be finite and > 0"):
        obs.MomentSet.from_spectrum(lam, alpha, 6)
    with pytest.raises(ValueError, match="alpha must be finite and > 0"):
        obs.chebyshev_moments_stochastic(crambin_gnm.A, alpha, 6, 4, 1)
    with pytest.raises(ValueError, match="alpha must be finite and > 0"):
        obs.chebyshev_moments_exact(crambin_gnm.A, alpha, 6)


@pytest.mark.parametrize("order", [-3, 2.0, True, "4"])
def test_moment_routines_reject_an_order_that_is_not_a_nonnegative_integer(
        crambin_gnm, crambin_alpha, order):
    # order=-3 used to return [1.]
    lam = crambin_gnm.eigenpairs[0]
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        obs.MomentSet.from_spectrum(lam, crambin_alpha, order)
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        obs.chebyshev_moments_stochastic(crambin_gnm.A, crambin_alpha, order, 4, 1)
    assert obs.MomentSet.from_spectrum(lam, crambin_alpha, np.int64(3)).order == 3


def test_low_modes_residual_error_names_the_worst_mode(monkeypatch):
    model = build_gnm(synthetic_chain(8))
    lam = model.eigenpairs[0]
    solve = obs.lowest_eigenpairs

    def corrupted(*args):
        got, vecs = solve(*args)
        vecs[:, 3] += 1e-3 * vecs[:, 4]
        return got, vecs

    monkeypatch.setattr(obs, "lowest_eigenpairs", corrupted)
    residual = 1e-3 * (lam[4] - lam[3])
    tol = obs.MODE_RESIDUAL_RTOL * lam[-1]
    with pytest.raises(NumericalError,
                       match=rf"mode 2 \(eigenpair 3\) has residual "
                             rf"{residual:.3e} > {tol:.3e}"):
        obs.low_modes(model, 4)


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
        assert curve.integral() == trapezoid(curve.values, curve.grid)
    one = obs.chebyshev_moments_exact(np.array([[0.7]]), 1.0, 200)
    curve1 = obs.reconstruct_dos(one)
    assert abs(curve1.grid[np.argmax(curve1.values)] - 0.7) < 2e-3
    # undamped truncation rings: negative lobes appear around the peak
    ringing = obs.reconstruct_dos(one, kernel="dirichlet")
    assert ringing.values.min() < -1e-3


def test_dos_integral_is_scipys_trapezoid_on_uneven_grids(crambin_gnm, crambin_alpha):
    mom = obs.chebyshev_moments_exact(crambin_gnm.A, crambin_alpha, 80)
    rng = np.random.default_rng(8)
    for size in (2, 3, 50, 777):
        grid = np.sort(rng.uniform(0.0, crambin_alpha, size))
        curve = obs.reconstruct_dos(mom, grid=grid)
        assert curve.integral() == trapezoid(curve.values, curve.grid)


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
def test_displacement_stats_takes_neither_pinv_nor_eigh_for_unit_masses(
        build, monkeypatch):
    model = build(load_bundled_structure())
    assert np.all(model.masses == 1.0)
    ref = 1.5 * np.linalg.pinv(model.K, hermitian=True, rcond=ZERO_MODE_RTOL)
    calls = []
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(a))
    stats = obs.displacement_stats(model, kT=1.5)
    assert not calls and "eigenpairs" not in vars(model)
    assert np.abs(stats["correlation"] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_displacement_stats_takes_one_route_for_other_masses(monkeypatch):
    chain = synthetic_chain(6)
    heavy = ProteinStructure(positions=chain.positions,
                             masses=np.linspace(1.0, 2.0, 6),
                             labels=chain.labels, source_id="t")
    model = build_gnm(heavy)
    ref = 2.0 * np.linalg.pinv(model.K, hermitian=True, rcond=ZERO_MODE_RTOL)
    calls = []
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(a))
    stats = obs.displacement_stats(model, kT=2.0)
    assert not calls and "eigenpairs" not in vars(model)
    assert np.abs(stats["correlation"] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(stats["correlation"], stats["correlation"].T)


# -- low modes and correlations from the partial eigensolve, against eigh ------


def _cloud_gnm(n: int, seed: int, volume: float):
    """GNM of n sites drawn uniformly in a cube, `volume` A^3 per site."""
    side = (volume * n) ** (1.0 / 3.0)
    pos = np.random.default_rng(seed).uniform(0.0, side, (n, 3))
    return build_gnm(ProteinStructure(positions=pos, masses=np.ones(n),
                                      labels=["X"] * n, source_id="cloud"))


def _split_gnm():
    far = synthetic_chain(6).positions.copy()
    far[3:] += 100.0
    return build_gnm(ProteinStructure(positions=far, masses=np.ones(6),
                                      labels=["X"] * 6, source_id="t"),
                     cutoff=4.0)


READOUT_MODELS = {
    "bundled-gnm": lambda: build_gnm(load_bundled_structure()),
    "bundled-anm": lambda: build_anm(load_bundled_structure()),  # 6 zero modes
    "split": _split_gnm,                                          # 2 zero modes
    "cloud-400": lambda: _cloud_gnm(400, 3, 180.0),  # protein-like density
    "fragments": lambda: _cloud_gnm(300, 1, 400.0),  # 38 components
}


def signed(vecs: np.ndarray) -> np.ndarray:
    """The read-out's sign convention: each column's largest-magnitude
    entry, the first on ties, is positive."""
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(peak < 0.0, -1.0, 1.0)


def assert_modes_match(modes, lam, vecs):
    """Each mode equals eigh's under the sign convention where its
    eigenvalue is simple, and lies in eigh's eigenspace where it is not
    (the split model's two equal components double every eigenvalue)."""
    for value, mode in zip(modes.eigenvalues, modes.modes.T):
        space = vecs[:, np.abs(lam - value) <= 1e-9 * lam[-1]]
        if space.shape[1] == 1:
            assert np.abs(mode - signed(space)[:, 0]).max() <= 1e-10
        else:
            assert np.linalg.norm(mode - space @ (space.T @ mode)) <= 1e-10


@pytest.mark.parametrize("key", READOUT_MODELS)
def test_partial_eigensolve_read_out_matches_eigh_and_pinv(key):
    model = READOUT_MODELS[key]()
    lam, vecs = np.linalg.eigh(model.A.toarray())
    n, n_zero = model.n_dof, int(np.sum(lam <= ZERO_MODE_RTOL * lam[-1]))
    ks = sorted({1, min(4, n - n_zero), n - n_zero})  # the last one falls back
    for k in ks:
        fresh = READOUT_MODELS[key]()
        modes = obs.low_modes(fresh, k)
        assert ("eigenpairs" in vars(fresh)) == (k + n_zero >= n - 1)
        assert modes.n_zero_modes == n_zero == fresh.zero_modes.sum()
        assert abs(fresh.zero_space[0] - lam[-1]) <= 1e-14 * lam[-1]
        assert np.abs(modes.eigenvalues - lam[n_zero:n_zero + k]).max() <= 1e-12 * lam[-1]
        assert_modes_match(modes, lam, vecs)
        assert np.array_equal(modes.modes, signed(modes.modes))
    fresh = READOUT_MODELS[key]()
    stats = obs.displacement_stats(fresh, 0.7)
    ref = 0.7 * np.linalg.pinv(fresh.K, hermitian=True, rcond=ZERO_MODE_RTOL)
    # both inverses err by about eps times K's condition number on its range
    kappa = lam[-1] / lam[n_zero]
    assert (np.abs(stats["correlation"] - ref).max()
            <= max(1e-12, 1e-14 * kappa) * np.abs(ref).max())
    assert np.array_equal(stats["correlation"], stats["correlation"].T)
    assert "eigenpairs" not in vars(fresh) or n_zero >= n - 1


@pytest.mark.parametrize("key", READOUT_MODELS)
def test_partial_eigensolve_read_out_is_bit_identical_across_runs(key):
    runs = []
    for _ in range(2):
        model = READOUT_MODELS[key]()
        modes = obs.low_modes(model, 1)
        runs.append((model.zero_space[0], modes.eigenvalues, modes.modes,
                     obs.displacement_stats(model, 1.0)["correlation"]))
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_zero_mode_count_is_exact_across_the_threshold():
    # eigenvalues 0.9e-8 and 1.1e-8 straddle tau = 1e-8 * lambda_max = 1e-8;
    # some of these factorizations take 2 x 2 Bunch-Kaufman blocks
    rng = np.random.default_rng(5)
    two_by_two = 0
    for _ in range(6):
        q = np.linalg.qr(rng.normal(size=(40, 40)))[0]
        lam = np.concatenate([[0.0, 0.4e-8, 0.9e-8, 1.1e-8, 3e-8],
                              rng.uniform(1e-3, 1.0, 34), [1.0]])
        model = model_from_matrices((q * lam) @ q.T, np.ones(40))
        tau = ZERO_MODE_RTOL * model.zero_space[0]
        assert model.zero_space[1] == 3 == model.zero_modes.sum()
        assert model.zero_space[2].shape == (40, 3)
        assert np.abs(model.A @ model.zero_space[2]).max() <= 2 * tau
        shifted = model.A.toarray() - tau * np.eye(40)
        two_by_two += np.sum(scipy.linalg.lapack.dsytrf(shifted, lower=1)[1] < 0)
    assert two_by_two > 0


def test_zero_space_starts_on_every_one_contact_model():
    # a +/-1 start vector equal on both sites of the contact is a null vector
    for i, j in [(i, j) for i in range(6) for j in range(i + 1, 6)]:
        K = np.zeros((6, 6))
        K[[i, j], [i, j]], K[[i, j], [j, i]] = 1.0, -1.0
        model = model_from_matrices(K, np.ones(6))
        lam_max, n_zero, _ = model.zero_space
        assert abs(lam_max - 2.0) <= 1e-15 and n_zero == 5
        assert abs(obs.low_modes(model, 1).eigenvalues[0] - 2.0) <= 1e-15


@pytest.mark.parametrize("build, n_zero, found",
                         [(build_gnm, 2, 1), (build_anm, 5, 6)],
                         ids=["overcount", "undercount"])
def test_low_modes_names_both_counts_when_the_solve_disagrees(build, n_zero,
                                                              found):
    # a zero basis of the wrong size: its extra column is the lowest nonzero
    # mode, or the deflated solve meets the zero mode it lacks
    model = build(load_bundled_structure())
    vecs = np.linalg.eigh(model.A.toarray())[1]
    vars(model)["zero_space"] = (model.zero_space[0], n_zero, vecs[:, :n_zero])
    with pytest.raises(NumericalError, match=rf"found {found} zero modes, the "
                                             rf"inertia count of A is {n_zero}"):
        obs.low_modes(model, 3)


def _with_masses(structure, seed: int = 8):
    """`structure` with masses drawn uniformly from [0.5, 4]."""
    masses = np.random.default_rng(seed).uniform(0.5, 4.0, structure.n_atoms)
    return ProteinStructure(positions=structure.positions, masses=masses,
                            labels=structure.labels, source_id="heavy")


def _positive_definite_model():
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.normal(size=(12, 12)))[0]
    K = (q * rng.uniform(0.1, 3.0, 12)) @ q.T
    return model_from_matrices(K, rng.uniform(0.5, 4.0, 12))


def _contact_free_gnm():
    far = 100.0 * np.c_[np.arange(5.0), np.zeros((5, 2))]
    return build_gnm(_with_masses(ProteinStructure(
        positions=far, masses=np.ones(5), labels=["X"] * 5, source_id="t")))


def _split_gnm_structure():
    far = synthetic_chain(6).positions.copy()
    far[3:] += 100.0
    return ProteinStructure(positions=far, masses=np.ones(6), labels=["X"] * 6,
                            source_id="t")


HEAVY_MODELS = {
    "bundled-gnm": lambda: build_gnm(_with_masses(load_bundled_structure())),
    "bundled-anm": lambda: build_anm(_with_masses(load_bundled_structure())),
    "split": lambda: build_gnm(_with_masses(_split_gnm_structure()), cutoff=4.0),
    "positive-definite": _positive_definite_model,                # z = 0
    "contact-free": _contact_free_gnm,                            # z = n
}


@pytest.mark.parametrize("key", HEAVY_MODELS)
def test_displacement_stats_matches_pinv_for_every_mass(key):
    model = HEAVY_MODELS[key]()
    assert not np.all(model.masses == 1.0)
    stats = obs.displacement_stats(model, 0.7)
    n, (lam_max, n_zero, _) = model.n_dof, model.zero_space
    expected_zero = {"positive-definite": 0, "contact-free": n}.get(key)
    assert expected_zero is None or n_zero == expected_zero
    # eigh(A) only where ARPACK cannot run: no contact, or z >= n - 1
    assert ("eigenpairs" in vars(model)) == (model.A.nnz == 0 or n_zero >= n - 1)
    ref = 0.7 * np.linalg.pinv(model.K, hermitian=True, rcond=ZERO_MODE_RTOL)
    scale = max(np.abs(ref).max(), 0.7)  # ref is 0 without contacts
    assert np.abs(stats["correlation"] - ref).max() <= 1e-12 * scale
    assert np.array_equal(stats["correlation"], stats["correlation"].T)


def test_one_model_factors_a_plus_tau_once(monkeypatch):
    import scipy.sparse.linalg
    splu, calls = scipy.sparse.linalg.splu, []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    for build in (build_gnm, build_anm):
        calls.clear()
        model = build(load_bundled_structure())
        model.zero_space
        obs.low_modes(model, 1)
        obs.low_modes(model, 4)
        diag = condition_diagnostics(model)
        assert calls == [(model.n_dof, model.n_dof)]
        assert "eigenpairs" not in vars(model)
        lam = np.linalg.eigvalsh(model.A.toarray())
        n_zero = diag["n_zero_modes"]
        assert abs(diag["lambda_max"] - lam[-1]) <= 1e-14 * lam[-1]
        assert abs(diag["lambda_min_nonzero"] - lam[n_zero]) <= 1e-12 * lam[-1]
        assert np.sum(lam <= ZERO_MODE_RTOL * lam[-1]) == n_zero


def test_extremes_of_a_leave_eigenpairs_uncomputed_on_the_cloud():
    model = READOUT_MODELS["cloud-400"]()
    params = dyn.LangevinParams(gamma=0.5, kT=0.3)
    n_zero = condition_diagnostics(model)["n_zero_modes"]
    obs.displacement_stats(model, 1.0)
    res = dyn.monte_carlo_langevin(model, params, np.zeros(400), np.zeros(400),
                                   t=0.01, n_paths=2, seed=3)
    h_max = 0.01 / math.sqrt(model.lambda_max)
    assert res["n_steps"] == math.ceil(0.01 / h_max)
    emb = dyn.embed(model)  # dim 1757: about 350 MiB at the peak
    res = dyn.monte_carlo_encoded(emb, params, np.zeros(emb.dim), t=0.004,
                                  n_paths=2, seed=3)
    assert res["n_steps"] == math.ceil(0.004 / (0.01 / (math.sqrt(model.lambda_max)
                                                        + 0.5)))
    assert "eigenpairs" not in vars(model) and n_zero == 4


@pytest.mark.parametrize("build", [build_gnm, build_anm], ids=["gnm", "anm"])
def test_condition_diagnostics_of_a_contact_free_model(build):
    model = build(ProteinStructure(positions=100.0 * np.c_[np.arange(4.0),
                                                           np.zeros((4, 2))],
                                   masses=np.ones(4), labels=["X"] * 4,
                                   source_id="t"))
    assert model.n_edges == 0
    assert condition_diagnostics(model) == {
        "lambda_max": 0.0, "lambda_min_nonzero": 0.0, "kappa": np.inf,
        "n_zero_modes": model.n_dof}


def test_every_reader_of_the_partial_solve_checks_the_zero_count():
    model = build_gnm(load_bundled_structure())
    vecs = np.linalg.eigh(model.A.toarray())[1]
    vars(model)["zero_space"] = (model.zero_space[0], 2, vecs[:, :2])
    with pytest.raises(NumericalError, match="found 1 zero modes, the "
                                             "inertia count of A is 2"):
        condition_diagnostics(model)


COUNT_MODELS = {**READOUT_MODELS, "random-mass": HEAVY_MODELS["bundled-anm"],
                "contact-free": HEAVY_MODELS["contact-free"]}


@pytest.mark.parametrize("key", COUNT_MODELS)
def test_zero_count_matches_the_dense_inertia_oracle(key):
    model = COUNT_MODELS[key]()
    n_zero = dense_zero_count(model.A.toarray(), model.lambda_max)
    assert model.zero_count == n_zero == model.zero_space[1]
    assert n_zero == {"bundled-gnm": 1, "bundled-anm": 6, "split": 2, "cloud-400": 4,
                      "fragments": 38, "random-mass": 6, "contact-free": 5}[key]
    if key == "contact-free":  # tau = 0: no factor, every mode is a zero mode
        assert "shifted_factor" not in vars(model)
    else:
        assert np.array_equal(model.shifted_factor.perm_r, model.shifted_factor.perm_c)


def test_zero_space_low_modes_and_diagnostics_take_no_dense_route(monkeypatch):
    import scipy.linalg._flapack
    model = READOUT_MODELS["cloud-400"]()
    calls = []

    def refuse(name):
        def spy(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"the partial read-out called {name}")
        return spy

    for cls in (scipy.sparse.csr_array, scipy.sparse.csc_array, scipy.sparse.coo_array,
                scipy.sparse.csr_matrix, scipy.sparse.csc_matrix, scipy.sparse.coo_matrix):
        for name in ("toarray", "todense"):
            monkeypatch.setattr(cls, name, refuse(f"{cls.__name__}.{name}"))
    for module in (scipy.linalg.lapack, scipy.linalg._flapack):
        for name in dir(module):
            if name.endswith(("trf", "trf_lwork", "evd", "evr", "ev")):
                monkeypatch.setattr(module, name, refuse(name))
    model.zero_space
    obs.low_modes(model, 4)
    diag = condition_diagnostics(model)
    assert not calls and "eigenpairs" not in vars(model)
    assert diag["n_zero_modes"] == model.zero_count == 4


@pytest.mark.parametrize("broken", ["off-diagonal", "zero-pivot"])
def test_a_factor_that_leaves_ldlt_names_n_tau_and_the_pivot(monkeypatch, broken):
    import scipy.sparse.linalg

    def off_diagonal(matrix, **options):
        n = matrix.shape[0]
        return SimpleNamespace(perm_r=np.arange(n), perm_c=np.arange(n)[::-1])

    def zero_pivot(matrix, **options):
        raise RuntimeError("Factor is exactly singular")

    model = build_gnm(load_bundled_structure())
    tau = ZERO_MODE_RTOL * model.lambda_max
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        off_diagonal if broken == "off-diagonal" else zero_pivot)
    pivot = "pivot 0 left the diagonal" if broken == "off-diagonal" else "a pivot is exactly 0"
    with pytest.raises(NumericalError, match=rf"n = 46, tau = {tau:.6g}\): {pivot}"):
        model.zero_count
    assert "zero_count" not in vars(model)


@pytest.mark.parametrize("k", [2.0, True, np.float64(1.0), "1", 0, 46])
def test_low_modes_rejects_a_k_that_is_not_an_integer_in_range(crambin_gnm, k):
    with pytest.raises(ValueError, match="k must be an integer"):
        obs.low_modes(crambin_gnm, k)


@pytest.mark.parametrize("kT", [np.nan, np.inf, -np.inf, -1.0])
def test_displacement_stats_rejects_a_kt_that_is_not_finite_and_nonnegative(
        crambin_gnm, kT):
    with pytest.raises(ValueError, match="kT must be finite and nonnegative"):
        obs.displacement_stats(crambin_gnm, kT)


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


_PROBE_OPERATORS = {
    "gnm-A": lambda: DOS_MODELS["bundled-gnm"].A,
    "anm-A": lambda: DOS_MODELS["bundled-anm"].A,
    "gnm-H": lambda: dyn.embed(DOS_MODELS["bundled-gnm"]).operator,
    "anm-H": lambda: dyn.embed(DOS_MODELS["bundled-anm"]).operator,
}


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("probes", [1, 50])
@pytest.mark.parametrize("key", _PROBE_OPERATORS)
def test_doubled_probe_moments_match_the_plain_recurrence(key, probes, dense):
    matrix = _PROBE_OPERATORS[key]()
    alpha = obs.spectral_bound(matrix)
    if dense:
        matrix = matrix.toarray()
    for order in (0, 1, 2, 3, 99, 100):
        ref, ref_err = probe_recurrence_moments(matrix, alpha, order, probes, 11)
        got = obs.chebyshev_moments_stochastic(matrix, alpha, order, probes, 11)
        assert got.order == order and got.stderr.shape == (order + 1,)
        assert np.abs(got.moments - ref).max() <= 1e-13
        assert np.abs(got.stderr - ref_err).max() <= 1e-13


def test_order_k_takes_half_as_many_probe_block_products(monkeypatch):
    A = DOS_MODELS["bundled-anm"].A
    alpha = obs.spectral_bound(A)
    matmul, shapes = scipy.sparse.csr_array.__matmul__, []

    def spy(self, other):
        shapes.append(np.shape(other))
        return matmul(self, other)

    monkeypatch.setattr(scipy.sparse.csr_array, "__matmul__", spy)
    for order in (0, 1, 2, 3, 4, 99, 100):
        shapes.clear()
        obs.chebyshev_moments_stochastic(A, alpha, order, 7, 2)
        assert shapes == [(A.shape[0], 7)] * ((order + 1) // 2)


def test_the_first_probe_block_product_takes_a_c_contiguous_block(monkeypatch):
    H = dyn.embed(DOS_MODELS["bundled-gnm"]).operator
    alpha = obs.spectral_bound(H)
    matmul, layouts = scipy.sparse.csr_array.__matmul__, []

    def spy(self, other):
        layouts.append(other.flags.c_contiguous)
        return matmul(self, other)

    monkeypatch.setattr(scipy.sparse.csr_array, "__matmul__", spy)
    obs.chebyshev_moments_stochastic(H, alpha, 4, 50, 7)
    assert layouts == [True, True]


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
