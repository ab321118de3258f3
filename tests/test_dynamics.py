import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from gnmqsim import dynamics as dyn
from gnmqsim.errors import EncodingError, NumericalError
from gnmqsim.network import (ZERO_MODE_RTOL, NetworkModel, build_anm,
                             build_gnm, model_from_matrices)
from gnmqsim.stateprep import encode_initial_conditions
from gnmqsim.structure import load_bundled_structure, synthetic_chain
import langevin_oracle


def composite_norm(hist) -> float:
    return float(np.linalg.norm(hist.composite))


@pytest.fixture(scope="module")
def chain2():
    return build_gnm(synthetic_chain(2))


@pytest.fixture(scope="module")
def emb2(chain2):
    return dyn.embed(chain2)


def test_embedding_spectrum_is_plus_minus_pairs(chain5_gnm):
    emb = dyn.embed(chain5_gnm)
    H = emb.operator.toarray()
    w = np.linalg.eigh(H)[0]
    lam = np.linalg.eigvalsh(chain5_gnm.A.toarray())
    nz = lam[lam > 1e-10 * lam[-1]]
    paired = np.sort(np.concatenate([np.sqrt(nz), -np.sqrt(nz),
                                     np.zeros(emb.dim - 2 * len(nz))]))
    assert np.allclose(np.sort(w), paired, atol=1e-10)
    # H^2 is block diagonal with the two mass-weighted stiffness factors
    H2, B = H @ H, chain5_gnm.B.toarray()
    n = chain5_gnm.n_dof
    assert np.allclose(H2[:n, :n], B @ B.T, atol=1e-12)
    assert np.allclose(H2[n:, n:], B.T @ B, atol=1e-12)
    assert np.allclose(H2[:n, n:], 0, atol=1e-15)


def test_two_atom_mode_oscillates_at_sqrt_two(chain2, emb2):
    u0 = np.array([1.0, -1.0]) / np.sqrt(2)
    st = encode_initial_conditions(chain2, u0, np.zeros(2))
    for t in (0.0, 0.3, 1.7, 9.4):
        psi_t = dyn.evolve_harmonic(emb2, st.psi, t)
        assert abs(np.linalg.norm(psi_t) - 1) < 1e-12
        u, v = dyn.decode_state(chain2, psi_t, st.energy)
        assert np.allclose(u, u0 * np.cos(np.sqrt(2) * t), atol=1e-10)
        assert np.allclose(v, -np.sqrt(2) * u0 * np.sin(np.sqrt(2) * t),
                           atol=1e-10)


def test_batched_times_match_scalar_calls(chain2, emb2):
    st = encode_initial_conditions(chain2, [0.7, -0.7], [0.1, 0.0])
    ts = np.linspace(0, 5, 7)
    batch = dyn.evolve_harmonic(emb2, st.psi, ts)
    assert batch.shape == (7, emb2.dim)
    for i, t in enumerate(ts):
        for scalar in (float(t), np.array(t)):
            single = dyn.evolve_harmonic(emb2, st.psi, scalar)
            assert single.shape == (emb2.dim,)
            assert np.allclose(batch[i], single, atol=1e-13)


def test_energy_conserved_to_ten_digits_over_long_window(chain5_gnm):
    emb = dyn.embed(chain5_gnm)
    rng = np.random.default_rng(3)
    st = encode_initial_conditions(chain5_gnm, rng.normal(size=5),
                                   rng.normal(size=5))
    sqm = np.sqrt(chain5_gnm.masses)
    for t in np.linspace(0.0, 100.0, 23):
        u, v = dyn.decode_state(chain5_gnm,
                                dyn.evolve_harmonic(emb, st.psi, float(t)),
                                st.energy)
        y, yd = sqm * u, sqm * v
        E = 0.5 * (yd @ yd + y @ (chain5_gnm.A @ y))
        assert abs(E - st.energy) / st.energy <= 1e-10


def test_decode_round_trip_drops_only_rigid_motion(chain5_gnm):
    lam, modes = np.linalg.eigh(chain5_gnm.A.toarray())
    null = modes[:, lam <= 1e-10 * lam[-1]]
    sqm = np.sqrt(chain5_gnm.masses)
    rng = np.random.default_rng(5)
    for _ in range(10):
        u0, v0 = rng.normal(size=5), rng.normal(size=5)
        y0 = sqm * u0
        u_proj = (y0 - null @ (null.T @ y0)) / sqm
        st = encode_initial_conditions(chain5_gnm, u_proj, v0)
        u, v = dyn.decode_state(chain5_gnm, st.psi, st.energy)
        assert np.abs(u - u_proj).max() <= 1e-10
        assert np.abs(v - v0).max() <= 1e-10
    # unprojected input decodes to exactly its rigid-free projection
    u_raw, v_raw = rng.normal(size=5), rng.normal(size=5)
    st = encode_initial_conditions(chain5_gnm, u_raw, v_raw)
    u, v = dyn.decode_state(chain5_gnm, st.psi, st.energy)
    y_raw = sqm * u_raw
    assert np.allclose(u, (y_raw - null @ (null.T @ y_raw)) / sqm, atol=1e-10)
    assert np.allclose(v, v_raw, atol=1e-12)


def test_decode_rejects_vectors_outside_the_encoding(chain5_gnm):
    st = encode_initial_conditions(chain5_gnm, [1, 0, 0, 0, -1],
                                   [0, 0, 0, 0, 0])
    bad = st.psi.copy()
    bad[0] += 0.3j  # imaginary leak into the velocity block
    with pytest.raises(EncodingError):
        dyn.decode_state(chain5_gnm, bad, st.energy)
    bad = st.psi.copy()
    bad[chain5_gnm.n_dof] += 0.3  # real leak into the position block
    with pytest.raises(EncodingError):
        dyn.decode_state(chain5_gnm, bad, st.energy)


def test_forceless_history_matches_harmonic_evolution(chain5_gnm):
    emb = dyn.embed(chain5_gnm)
    rng = np.random.default_rng(8)
    u0, v0 = rng.normal(size=5), rng.normal(size=5)
    st = encode_initial_conditions(chain5_gnm, u0, v0)
    hist = dyn.evolve_inhomogeneous(chain5_gnm, u0, v0, None, T=8.0,
                                    n_steps=64)
    assert hist.n_snapshots == 65
    for k, t in enumerate(hist.times):
        psi_t = dyn.evolve_harmonic(emb, st.psi, float(t))
        assert np.abs(hist.snapshots[k] - psi_t).max() <= 1e-10
    assert abs(composite_norm(hist) - 1) < 1e-12


def test_constant_force_solved_exactly_per_step():
    k_spring, F = 2.3, 0.7
    m1 = model_from_matrices(np.array([[k_spring]]), np.array([1.0]))
    w0 = np.sqrt(k_spring)
    for n_steps in (3000, 6000):
        hist = dyn.evolve_inhomogeneous(m1, [0.0], [0.0],
                                        lambda t: np.array([F]),
                                        T=6.0, n_steps=n_steps)
        exact = (F / k_spring) * (1 - np.cos(w0 * hist.times))
        # piecewise-constant sampling of a constant force is lossless
        assert np.abs(hist.displacements[:, 0] - exact).max() < 1e-9


# -- the dense-H, lstsq and per-step record routes the mode-space routes
# replaced, and the dense-B operator the sparse B replaced, kept as oracles --


def oracle_operator(model):
    """H = -[[0, B], [B^T, 0]] in CSR form from the nonzeros of a dense B."""
    n, B = model.n_dof, model.B.toarray()
    i, j = np.nonzero(B)
    dim = n + model.n_edges
    return scipy.sparse.csr_array(
        (np.tile(-B[i, j], 2),
         (np.concatenate([i, n + j]), np.concatenate([n + j, i]))),
        shape=(dim, dim))


def oracle_evolve_harmonic(embedded, psi0, t):
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    w, vecs = np.linalg.eigh(embedded.operator.toarray())
    coeff = vecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, w))
    states = (phases * coeff) @ vecs.T
    return states[0] if times.ndim == 0 else states


def oracle_decode_state(model, psi, energy):
    psi = np.asarray(psi, dtype=complex)
    n = model.n_dof
    if psi.shape != (model.n_dof + model.n_edges,):
        raise EncodingError("state length does not match the model")
    block1, block2 = psi[:n], psi[n:]
    scale = math.sqrt(2.0 * energy)
    tol = dyn.DECODE_RTOL * max(np.linalg.norm(psi), 1e-300)
    if np.linalg.norm(block1.imag) > tol:
        raise EncodingError("velocity block is not real: encoding corrupted")
    ydot = scale * block1.real
    rhs = -1j * block2
    Bt = model.B.toarray().T
    y_hat, _, _, _ = np.linalg.lstsq(Bt, rhs.real, rcond=None)
    residual = math.hypot(np.linalg.norm(Bt @ y_hat - rhs.real),
                          np.linalg.norm(rhs.imag))
    if residual > tol:
        raise EncodingError("block outside the range of B^T: encoding corrupted")
    y = scale * y_hat
    sqrt_m = np.sqrt(model.masses)
    return y / sqrt_m, ydot / sqrt_m


def oracle_force_table(force, times, n_dof: int) -> np.ndarray:
    n_steps = len(times) - 1
    if force is None:
        return np.zeros((max(n_steps, 0), n_dof))
    if callable(force):
        return np.array([np.asarray(force(t), dtype=float)
                         for t in times[:-1]])
    table = np.asarray(force, dtype=float)
    if table.shape != (n_steps, n_dof):
        raise ValueError(f"force table must have shape ({n_steps}, {n_dof})")
    return table


def oracle_evolve_inhomogeneous(model, u0, v0, force, T, n_steps):
    if T < 0 or n_steps < 1:
        raise ValueError("need T >= 0 and at least one step")
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    times = np.linspace(0.0, T, n_steps + 1)
    forces = oracle_force_table(force, times, model.n_dof)
    sqrt_m = np.sqrt(model.masses)
    lam, modes = np.linalg.eigh(model.A.toarray())
    lam = np.clip(lam, 0.0, None)
    zero = lam <= ZERO_MODE_RTOL * max(lam[-1], 1.0)
    omega = np.sqrt(np.where(zero, 1.0, lam))  # placeholder on zero modes

    a = modes.T @ (sqrt_m * u0)
    adot = modes.T @ (sqrt_m * v0)
    h = T / n_steps

    n_snap = n_steps + 1
    us = np.empty((n_snap, model.n_dof))
    vs = np.empty((n_snap, model.n_dof))
    energies = np.empty(n_snap)
    snapshots = np.zeros((n_snap, model.n_dof + model.n_edges), dtype=complex)

    def record(k):
        y = modes @ a
        ydot = modes @ adot
        us[k] = y / sqrt_m
        vs[k] = ydot / sqrt_m
        energies[k] = 0.5 * (ydot @ ydot + y @ (model.A @ y))
        if energies[k] > 0.0:
            snap = np.concatenate([ydot.astype(complex), 1j * (model.B.T @ y)])
            snapshots[k] = snap / np.sqrt(2.0 * energies[k])

    record(0)
    cos_h, sin_h = np.cos(omega * h), np.sin(omega * h)
    for k in range(n_steps):
        phi = modes.T @ (forces[k] / sqrt_m)
        a_new = np.where(
            zero,
            a + adot * h + 0.5 * phi * h * h,
            a * cos_h + adot * sin_h / omega + phi / np.where(zero, 1.0, lam) * (1.0 - cos_h),
        )
        adot_new = np.where(
            zero,
            adot + phi * h,
            -a * omega * sin_h + adot * cos_h + phi / omega * sin_h,
        )
        a, adot = a_new, adot_new
        record(k + 1)

    composite = snapshots.ravel() / np.sqrt(n_snap)
    return SimpleNamespace(times=times, displacements=us, velocities=vs,
                           energies=energies, snapshots=snapshots,
                           composite=composite)


def _oracle_models():
    path4 = (np.diag([1.0, 2.0, 2.0, 1.0]) - np.diag([1.0, 1.0, 1.0], 1)
             - np.diag([1.0, 1.0, 1.0], -1))
    return {
        "chain5": build_gnm(synthetic_chain(5)),
        "bundled-anm": build_anm(load_bundled_structure()),
        "matrices-with-zero-mode": model_from_matrices(path4,
                                                       [1.0, 2.0, 1.0, 3.0]),
    }


ORACLE_MODELS = _oracle_models()


def _max_rel(a, ref):
    return np.abs(np.asarray(a) - ref).max() / max(np.abs(ref).max(), 1e-300)


@pytest.mark.parametrize("key", ORACLE_MODELS)
def test_mode_space_routes_match_dense_and_lstsq_oracles(key):
    model = ORACLE_MODELS[key]
    emb = dyn.embed(model)
    rng = np.random.default_rng(21)
    st = encode_initial_conditions(model, rng.normal(size=model.n_dof),
                                   rng.normal(size=model.n_dof))
    ts = np.linspace(0.0, 20.0, 41)
    states = dyn.evolve_harmonic(emb, st.psi, ts)
    assert "operator" not in vars(emb)  # the mode-space route never builds H
    assert np.abs(states - oracle_evolve_harmonic(emb, st.psi, ts)).max() <= 1e-12
    for psi in states[::8]:
        u, v = dyn.decode_state(model, psi, st.energy)
        u_ref, v_ref = oracle_decode_state(model, psi, st.energy)
        assert np.abs(u - u_ref).max() <= 1e-10
        assert np.abs(v - v_ref).max() <= 1e-10
    # a random complex vector is no encoding: it still propagates alike,
    # and both decoders refuse it
    psi = rng.normal(size=emb.dim) + 1j * rng.normal(size=emb.dim)
    assert _max_rel(dyn.evolve_harmonic(emb, psi, ts),
                    oracle_evolve_harmonic(emb, psi, ts)) <= 1e-12
    for decode in (dyn.decode_state, oracle_decode_state):
        with pytest.raises(EncodingError):
            decode(model, psi, 1.0)


@pytest.mark.parametrize("key", ORACLE_MODELS)
def test_driven_history_matches_record_loop_oracle(key):
    model = ORACLE_MODELS[key]
    n = model.n_dof
    rng = np.random.default_rng(22)
    u0, v0 = rng.normal(size=n), rng.normal(size=n)
    table = rng.normal(size=(120, n))
    for force in (table, lambda t: np.cos(t) * table[0], None):
        hist = dyn.evolve_inhomogeneous(model, u0, v0, force, T=6.0, n_steps=120)
        ref = oracle_evolve_inhomogeneous(model, u0, v0, force, 6.0, 120)
        assert np.array_equal(hist.times, ref.times)
        for name in ("displacements", "velocities", "energies"):
            assert _max_rel(getattr(hist, name), getattr(ref, name)) <= 1e-12, name
        # the lazy history equals the old eager arrays
        assert np.abs(hist.snapshots - ref.snapshots).max() <= 1e-10
        assert np.abs(hist.composite - ref.composite).max() <= 1e-10
        assert abs(composite_norm(hist) - 1) < 1e-12


def test_soft_network_modes_oscillate_whatever_the_stiffness_scale():
    # lambda = 2e-9 is the only nonzero mode: the zero-mode threshold is
    # relative to lambda_max, so the mode oscillates rather than drifting
    soft = model_from_matrices(1e-9 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
                               np.ones(2))
    omega, u0 = math.sqrt(2e-9), np.array([0.5, -0.5])
    hist = dyn.evolve_inhomogeneous(soft, u0, np.zeros(2), None, T=2e4,
                                    n_steps=100)
    exact = np.outer(np.cos(omega * hist.times), u0)
    assert np.abs(hist.displacements - exact).max() <= 1e-10
    st = encode_initial_conditions(soft, u0, np.zeros(2))
    psi = dyn.evolve_harmonic(dyn.embed(soft), st.psi, 2e4)
    u, _ = dyn.decode_state(soft, psi, st.energy)
    assert np.abs(u - exact[-1]).max() <= 1e-10


def test_eigenpairs_are_computed_once_and_read_only(chain5_gnm):
    pairs = chain5_gnm.eigenpairs
    assert pairs is chain5_gnm.eigenpairs
    lam, vecs = pairs
    assert not lam.flags.writeable and not vecs.flags.writeable
    with pytest.raises(ValueError):
        vecs[0, 0] = 1.0
    assert np.array_equal(lam, np.linalg.eigh(chain5_gnm.A.toarray())[0])


OPERATOR_MODELS = {
    "bundled-gnm": build_gnm(load_bundled_structure()),
    "bundled-anm": ORACLE_MODELS["bundled-anm"],
    "chain6-anm": build_anm(synthetic_chain(6)),
    "matrices-with-zero-mode": ORACLE_MODELS["matrices-with-zero-mode"],
}


@pytest.mark.parametrize("key", OPERATOR_MODELS)
def test_operator_is_bit_identical_to_the_dense_b_oracle(key):
    model = OPERATOR_MODELS[key]
    op, ref = dyn.embed(model).operator, oracle_operator(model)
    for name in ("data", "indices", "indptr"):
        got, want = getattr(op, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_embedding_keeps_only_operator_and_spectrum(chain5_gnm):
    emb = dyn.embed(chain5_gnm)
    assert not hasattr(emb, "H") and not hasattr(emb, "eig")
    emb.operator, emb.spectrum
    assert set(vars(emb)) == {"model", "operator", "spectrum"}


@pytest.mark.parametrize("key", ORACLE_MODELS)
def test_encoded_monte_carlo_step_bound_is_the_spectral_radius(key):
    emb = dyn.embed(ORACLE_MODELS[key])
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    radius = float(np.abs(np.linalg.eigvalsh(emb.operator.toarray())).max())
    for t in (0.01, 0.3, 1.0):
        n_steps = max(1, math.ceil(t / (0.01 / max(radius + p.gamma, 1e-12))))
        res = dyn.monte_carlo_encoded(emb, p, np.zeros(emb.dim), t, n_paths=2,
                                      seed=3)
        assert res["n_steps"] == n_steps and res["h"] == t / n_steps


@pytest.mark.parametrize("key", ORACLE_MODELS)
def test_sparse_operator_and_spectrum_come_from_b_and_a(key):
    model = ORACLE_MODELS[key]
    emb = dyn.embed(model)
    op, spectrum = emb.operator, emb.spectrum
    assert op.format == "csr" and op.nnz == 2 * model.B.nnz
    assert np.array_equal(op.toarray(), oracle_operator(model).toarray())
    assert op is emb.operator and spectrum is emb.spectrum
    assert not op.data.flags.writeable and not spectrum.flags.writeable
    w = np.linalg.eigvalsh(op.toarray())
    assert np.abs(spectrum - w).max() <= 1e-12 * np.abs(w).max()
    lam = model.eigenpairs[0]
    n_nonzero = int(np.sum(lam > ZERO_MODE_RTOL * lam[-1]))
    assert np.sum(spectrum == 0.0) == emb.dim - 2 * n_nonzero
    assert np.array_equal(spectrum, -spectrum[::-1])


def test_spectrum_refuses_more_nonzero_modes_than_h_can_hold():
    model = NetworkModel(kind="custom", K=np.eye(3), masses=np.ones(3),
                         A=scipy.sparse.csr_array(np.eye(3)),
                         B=scipy.sparse.csc_array(np.ones((3, 1))),
                         edges=np.empty((0, 2), dtype=np.intp))
    with pytest.raises(NumericalError, match=r"3 nonzero modes.*dimension 4"):
        dyn.embed(model).spectrum


def test_force_shape_is_checked_for_callables_and_tables(chain5_gnm):
    for force in (lambda t: 1.0, lambda t: np.ones(4), np.ones((4, 4)),
                  np.ones(5)):
        with pytest.raises(ValueError, match=r"force.*expected \(4, 5\)"):
            dyn.evolve_inhomogeneous(chain5_gnm, np.zeros(5), np.zeros(5),
                                     force, T=1.0, n_steps=4)


@pytest.mark.parametrize("n_steps", [2.5, True])
def test_driven_evolution_names_a_step_count_that_is_not_an_integer(chain5_gnm, n_steps):
    # 2.5 raised an unnamed TypeError from numpy; True died in "an integer
    # is required"
    with pytest.raises(ValueError, match=f"n_steps must be an integer, got {n_steps}"):
        dyn.evolve_inhomogeneous(chain5_gnm, np.zeros(5), np.zeros(5), None,
                                 T=1.0, n_steps=n_steps)


@pytest.mark.parametrize("name", ["u0", "v0", "psi0"])
def test_wrong_length_inputs_are_named(chain5_gnm, name):
    short = np.zeros(4)
    with pytest.raises(ValueError, match=rf"{name} has shape \(4,\)"):
        if name == "psi0":
            dyn.evolve_harmonic(dyn.embed(chain5_gnm), short, 1.0)
        else:
            u0, v0 = (short, np.zeros(5)) if name == "u0" else (np.zeros(5), short)
            dyn.evolve_inhomogeneous(chain5_gnm, u0, v0, None, T=1.0, n_steps=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("route", ["inhomogeneous", "harmonic", "langevin", "encoded"])
def test_non_finite_start_vectors_are_named(chain2, emb2, route, bad):
    # each of these returned a NaN history or NaN moments
    u0 = np.array([0.4, bad])
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    name = "psi0" if route == "harmonic" else "x0" if route == "encoded" else "u0"
    with pytest.raises(ValueError, match=rf"^{name} has a non-finite entry$"):
        if route == "inhomogeneous":
            dyn.evolve_inhomogeneous(chain2, u0, np.zeros(2), None, T=1.0, n_steps=4)
        elif route == "harmonic":
            dyn.evolve_harmonic(emb2, np.append(u0, 0.0), 1.0)
        elif route == "langevin":
            dyn.monte_carlo_langevin(chain2, p, u0, np.zeros(2), t=0.05, n_paths=4, seed=1)
        else:
            dyn.monte_carlo_encoded(emb2, p, np.append(u0, 0.0), t=0.05, n_paths=4,
                                    seed=1)
    with pytest.raises(ValueError, match=r"^v0 has a non-finite entry$"):
        dyn.evolve_inhomogeneous(chain2, np.zeros(2), u0[::-1], None, T=1.0, n_steps=4)


def test_non_finite_forces_are_named_with_their_step(chain5_gnm):
    table = np.ones((4, 5))
    table[2, 3] = np.inf
    with pytest.raises(ValueError, match=r"^force is not finite at step 2 \(t = 0.5\)$"):
        dyn.evolve_inhomogeneous(chain5_gnm, np.zeros(5), np.zeros(5), table,
                                 T=1.0, n_steps=4)
    force = lambda t: np.full(5, np.nan if t > 0.6 else 1.0)  # noqa: E731
    with pytest.raises(ValueError, match=r"^force is not finite at step 3 \(t = 0.75\)$"):
        dyn.evolve_inhomogeneous(chain5_gnm, np.zeros(5), np.zeros(5), force,
                                 T=1.0, n_steps=4)


@pytest.mark.parametrize("energy", [-1.0, np.nan, np.inf])
def test_decode_names_an_energy_that_is_not_finite_and_nonnegative(chain2, energy):
    # -1 died in "math domain error"; NaN decoded to NaN
    st = encode_initial_conditions(chain2, [0.3, -0.3], [0.1, 0.0])
    with pytest.raises(EncodingError, match=r"^energy must be finite and >= 0, got "):
        dyn.decode_state(chain2, st.psi, energy)
    u, v = dyn.decode_state(chain2, st.psi, 0.0)  # a rest snapshot
    assert not u.any() and not v.any()


@pytest.mark.parametrize("t", [np.ones((2, 3)), np.nan, [0.0, np.inf]],
                         ids=["2-D", "nan", "inf"])
def test_times_must_be_finite_and_at_most_1d(chain5_gnm, t):
    st = encode_initial_conditions(chain5_gnm, [1.0, 0, 0, 0, -1.0], np.zeros(5))
    with pytest.raises(ValueError, match="t must be finite"):
        dyn.evolve_harmonic(dyn.embed(chain5_gnm), st.psi, t)


def test_langevin_gamma_zero_is_unitary_conjugation(chain2, emb2):
    rng = np.random.default_rng(4)
    st = encode_initial_conditions(chain2, rng.normal(size=2),
                                   rng.normal(size=2))
    x0 = st.psi * np.sqrt(2 * st.energy)
    rho0 = np.outer(x0, x0.conj())
    params = dyn.LangevinParams(gamma=0.0, kT=0.0)
    rho_t = dyn.evolve_langevin_covariance(emb2, params, rho0, 2.5)
    assert abs(np.trace(rho_t) - np.trace(rho0)) < 1e-10
    prop = dyn.evolve_harmonic(emb2, x0, 2.5)
    assert np.abs(rho_t - np.outer(prop, prop.conj())).max() < 1e-10


def test_langevin_zero_hamiltonian_integral():
    # H = 0: rho(t) = (1 - e^{-2 gamma t}) / (2 gamma) * S S^T
    m0 = model_from_matrices(np.zeros((3, 3)), np.ones(3))
    emb0 = dyn.embed(m0)
    params = dyn.LangevinParams(gamma=0.8, kT=0.5)
    t = 1.7
    rho_t = dyn.evolve_langevin_covariance(emb0, params,
                                           np.zeros((3, 3)), t)
    S = langevin_oracle.noise_matrix(params, emb0)
    exact = (1 - np.exp(-2 * params.gamma * t)) / (2 * params.gamma) * (S @ S.T)
    assert np.abs(rho_t - exact).max() < 1e-12


def _covariance_quadrature(embedded, params, rho0, t, nodes):
    H = embedded.operator.toarray()
    J = langevin_oracle.generator(params, H, embedded.n_dof)
    # enough nodes to resolve oscillation at the spectral frequency
    w = np.linalg.eigvalsh(H)
    freq = float(np.max(np.abs(w))) + params.gamma
    n_nodes = int(min(max(nodes, 64, math.ceil(1.5 * freq * t) + 16), 4096))
    x, wt = np.polynomial.legendre.leggauss(n_nodes)
    taus = 0.5 * t * (x + 1.0)
    prop_t = scipy.linalg.expm(J * t)
    out = prop_t @ rho0 @ prop_t.conj().T
    Q = langevin_oracle.noise_matrix(params, embedded)
    QQ = Q @ Q.conj().T
    for tau, weight in zip(taus, wt):
        e = scipy.linalg.expm(J * tau)
        out += (0.5 * t * weight) * (e @ QQ @ e.conj().T)
    return out


def _relative_frobenius(a, ref):
    return np.linalg.norm(a - ref) / np.linalg.norm(ref)


def test_langevin_routes_agree_for_all_mode_combinations(chain2, emb2):
    rng = np.random.default_rng(12)
    st = encode_initial_conditions(chain2, rng.normal(size=2),
                                   rng.normal(size=2))
    x0 = st.psi * np.sqrt(2 * st.energy)
    rho0 = np.outer(x0, x0.conj())
    for damping in ("scalar", "velocity"):
        for noise in ("velocity", "isotropic"):
            p = dyn.LangevinParams(gamma=0.5, kT=0.3, damping=damping,
                                   noise=noise)
            rho = dyn.evolve_langevin_covariance(emb2, p, rho0, 1.3)
            ref = _covariance_quadrature(emb2, p, rho0, 1.3, nodes=64)
            assert _relative_frobenius(rho, ref) <= 1e-8, (damping, noise)
            assert np.abs(rho - rho.conj().T).max() < 1e-10


def test_velocity_damping_at_critical_point_matches_quadrature():
    # one bead, K = m = 1, omega = 1: the velocity-damped generator is
    # defective at gamma = 2 omega and nearly so just below it
    m1 = model_from_matrices(np.array([[1.0]]), np.ones(1))
    emb = dyn.embed(m1)
    st = encode_initial_conditions(m1, [0.7], [0.2])
    x0 = st.psi * np.sqrt(2 * st.energy)
    rho0 = np.outer(x0, x0.conj())
    for gamma in (2.0, 2.0 - 1e-12):
        p = dyn.LangevinParams(gamma=gamma, kT=0.4, damping="velocity")
        rho = dyn.evolve_langevin_covariance(emb, p, rho0, 3.0)
        ref = _covariance_quadrature(emb, p, rho0, 3.0, nodes=64)
        assert _relative_frobenius(rho, ref) <= 1e-8, gamma


LANGEVIN_ORACLE_MODELS = {
    "bundled-gnm": OPERATOR_MODELS["bundled-gnm"],
    "bundled-anm": ORACLE_MODELS["bundled-anm"],
    "bead": model_from_matrices(np.array([[1.0]]), np.ones(1)),
}
LANGEVIN_ORACLE_CASES = {
    **{f"gnm-{d}-{q}": ("bundled-gnm", d, q, 0.5, 1.3)
       for d in ("scalar", "velocity") for q in ("velocity", "isotropic")},
    "anm-scalar": ("bundled-anm", "scalar", "velocity", 0.5, 1.3),
    "gnm-steps-scalar": ("bundled-gnm", "scalar", "isotropic", 20.0, 30.0),
    "gnm-steps-velocity": ("bundled-gnm", "velocity", "velocity", 20.0, 30.0),
    "bead-critical": ("bead", "velocity", "velocity", 2.0, 3.0),
    "bead-near-critical": ("bead", "velocity", "velocity", 2.0 - 1e-12, 3.0),
    # gamma t = 1e4: 10^4 steps combined by repeated squaring
    "gnm-long-scalar": ("bundled-gnm", "scalar", "isotropic", 20.0, 500.0),
    "bead-long-velocity": ("bead", "velocity", "velocity", 2.0, 5000.0),
}


@pytest.mark.parametrize("case", LANGEVIN_ORACLE_CASES)
def test_mode_block_covariance_matches_the_dense_routes(case):
    key, damping, noise, gamma, t = LANGEVIN_ORACLE_CASES[case]
    emb = dyn.embed(LANGEVIN_ORACLE_MODELS[key])
    # a generic rank-3 start: complex, with content along A's zero modes
    # and ker(B)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(emb.dim, 3)) + 1j * rng.normal(size=(emb.dim, 3))
    rho0 = X @ X.conj().T
    p = dyn.LangevinParams(gamma=gamma, kT=0.4, damping=damping, noise=noise)
    rho = dyn.evolve_langevin_covariance(emb, p, rho0, t)
    assert _relative_frobenius(rho, langevin_oracle.covariance(emb, p, rho0, t)) <= 1e-12


@pytest.mark.parametrize("damping", ["scalar", "velocity"])
@pytest.mark.parametrize("noise", ["velocity", "isotropic"])
def test_diagonals_are_the_oracle_generator_and_noise(damping, noise):
    emb = dyn.embed(LANGEVIN_ORACLE_MODELS["bundled-gnm"])
    p = dyn.LangevinParams(gamma=0.5, kT=0.3, damping=damping, noise=noise)
    d, q = p.diagonals(emb)
    J = langevin_oracle.generator(p, emb.operator.toarray(), emb.n_dof)
    S = langevin_oracle.noise_matrix(p, emb)
    assert d.shape == q.shape == (emb.dim,)
    assert np.array_equal(d, -J.diagonal())
    assert np.array_equal(J, -1j * emb.operator.toarray() - np.diag(d))
    assert np.array_equal(np.diag(q), S @ S.conj().T)


_EXACT_EXPM = scipy.linalg.expm


def _skewed_expm(M):
    F = _EXACT_EXPM(M)
    k = M.shape[-1] // 2
    F[..., :k, k:] *= 1.001  # the noise block of Van Loan's exponential
    return F


@pytest.mark.parametrize("damping", ["scalar", "velocity"])
def test_covariance_certificate_rejects_a_wrong_noise_integral(emb2, monkeypatch,
                                                              damping):
    monkeypatch.setattr(scipy.linalg, "expm", _skewed_expm)
    p = dyn.LangevinParams(gamma=0.5, kT=0.3, damping=damping)
    with pytest.raises(NumericalError, match="Lyapunov relative residual"):
        dyn.evolve_langevin_covariance(emb2, p, np.eye(emb2.dim), 1.0)


@pytest.mark.parametrize("damping", ["scalar", "velocity"])
@pytest.mark.parametrize("noise", ["velocity", "isotropic"])
def test_sparse_lyapunov_residual_matches_the_dense_formula(monkeypatch, damping,
                                                             noise):
    emb = dyn.embed(LANGEVIN_ORACLE_MODELS["bundled-gnm"])
    route, seen = dyn._lyapunov_residual, []

    def captured(H, d, q, E, N):
        seen.append((E, N, route(H, d, q, E, N)))
        return seen[-1][-1]

    monkeypatch.setattr(scipy.linalg, "expm", _skewed_expm)
    monkeypatch.setattr(dyn, "_lyapunov_residual", captured)
    p = dyn.LangevinParams(gamma=0.5, kT=0.3, damping=damping, noise=noise)
    with pytest.raises(NumericalError, match="Lyapunov relative residual"):
        dyn.evolve_langevin_covariance(emb, p, np.eye(emb.dim), 1.0)
    (E, N, resid), = seen
    J = langevin_oracle.generator(p, emb.operator.toarray(), emb.n_dof)
    S = langevin_oracle.noise_matrix(p, emb)
    QQ = S @ S.conj().T
    terms = (J @ N, N @ J.conj().T, E @ QQ @ E.conj().T, QQ)
    dense = (np.linalg.norm(terms[0] + terms[1] - terms[2] + terms[3])
             / sum(np.linalg.norm(x) for x in terms))
    assert abs(resid - dense) <= 1e-10 * dense


def test_covariance_certificate_rejects_a_nan_residual(emb2, monkeypatch):
    exact = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda M: exact(M) * np.nan)
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    with pytest.raises(NumericalError, match="residual nan exceeds"):
        dyn.evolve_langevin_covariance(emb2, p, np.eye(emb2.dim), 1.0)


@pytest.mark.parametrize("damping", ["scalar", "velocity"])
@pytest.mark.parametrize("name, value", [("t", np.nan), ("t", np.inf),
                                         ("rho0", np.nan)])
def test_langevin_covariance_inputs_must_be_finite(emb2, damping, name, value):
    p = dyn.LangevinParams(gamma=0.5, kT=0.3, damping=damping)
    rho0, t = np.eye(emb2.dim), 1.0
    if name == "t":
        t = value
    else:
        rho0[0, 0] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dyn.evolve_langevin_covariance(emb2, p, rho0, t)


@pytest.mark.parametrize("name", ["gamma", "kT"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_langevin_params_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dyn.LangevinParams(**{"gamma": 0.5, "kT": 0.3, name: value})


def test_covariance_input_validation(emb2):
    p = dyn.LangevinParams(gamma=0.1, kT=0.1)
    ok = np.eye(emb2.dim)
    with pytest.raises(ValueError):
        dyn.evolve_langevin_covariance(emb2, p, np.eye(2), 1.0)
    nonherm = ok + 0j
    nonherm[0, 1] = 1.0
    with pytest.raises(ValueError):
        dyn.evolve_langevin_covariance(emb2, p, nonherm, 1.0)
    with pytest.raises(ValueError):
        dyn.evolve_langevin_covariance(emb2, p, ok, -1.0)


def test_langevin_params_validation(emb2):
    with pytest.raises(ValueError):
        dyn.LangevinParams(gamma=-0.1, kT=0.0)
    with pytest.raises(ValueError):
        dyn.LangevinParams(gamma=0.1, kT=-1.0)
    with pytest.raises(ValueError):
        dyn.LangevinParams(gamma=0.1, kT=0.1, damping="none")
    with pytest.raises(ValueError):
        dyn.LangevinParams(gamma=0.1, kT=0.1, noise="thermal")
    params = dyn.LangevinParams(gamma=0.5, kT=0.3)
    assert params.sigma == pytest.approx(np.sqrt(2 * 0.3 * 0.5))


def _z_fraction(mc, rho):
    floor = 1e-10 * np.linalg.norm(rho)
    zr = (mc["second_moment"].real - rho.real) / np.maximum(
        mc["stderr_real"], floor)
    zi = (mc["second_moment"].imag - rho.imag) / np.maximum(
        mc["stderr_imag"], floor)
    z = np.concatenate([zr.ravel(), zi.ravel()])
    return np.mean(np.abs(z) <= 4)


def test_master_equation_matches_encoded_monte_carlo(chain2, emb2):
    rng = np.random.default_rng(4)
    st = encode_initial_conditions(chain2, rng.normal(size=2),
                                   rng.normal(size=2))
    x0 = st.psi * np.sqrt(2 * st.energy)
    rho0 = np.outer(x0, x0.conj())
    for damping in ("scalar", "velocity"):
        p = dyn.LangevinParams(gamma=0.5, kT=0.3, damping=damping)
        mc = dyn.monte_carlo_encoded(emb2, p, x0, t=1.0, n_paths=4000,
                                     seed=11)
        rho = dyn.evolve_langevin_covariance(emb2, p, rho0, 1.0)
        assert _z_fraction(mc, rho) >= 0.95, damping


def test_monte_carlo_seed_and_prefix_stability(chain2, emb2):
    st = encode_initial_conditions(chain2, [0.4, -0.4], [0.0, 0.2])
    x0 = st.psi * np.sqrt(2 * st.energy)
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)

    def encoded(n_paths, seed):
        return dyn.monte_carlo_encoded(emb2, p, x0, t=0.8, n_paths=n_paths,
                                       seed=seed)["finals"]

    def mechanical(n_paths, seed):
        res = dyn.monte_carlo_langevin(chain2, p, [0.4, -0.4], [0.0, 0.2],
                                       t=0.8, n_paths=n_paths, seed=seed)
        return np.hstack([res["displacements"], res["velocities"]])

    for finals in (encoded, mechanical):
        a = finals(500, 11)
        assert np.array_equal(a, finals(500, 11))
        small = finals(60, 11)
        assert np.array_equal(a[:60], small)
        assert not np.array_equal(small, finals(60, 12))


def oracle_encoded_moments(finals):
    """The one-array formula monte_carlo_encoded used before it went
    blockwise: every path's outer product at once, then numpy's mean and
    two-pass std."""
    outer = finals[:, :, None] * finals[:, None, :].conj()
    root_n = math.sqrt(len(finals))
    return (outer.mean(axis=0), outer.real.std(axis=0, ddof=1) / root_n,
            outer.imag.std(axis=0, ddof=1) / root_n)


def _encoded_start(model):
    st = encode_initial_conditions(model, np.linspace(-0.5, 0.5, model.n_dof),
                                   np.zeros(model.n_dof))
    return st.psi * np.sqrt(2 * st.energy)


def test_blocked_encoded_moments_match_the_one_array_oracle(chain2):
    bundled = build_gnm(load_bundled_structure())
    # dim 3 fits one block; dim 199 takes 26 paths per block, 4 blocks
    for model, n_paths, t in ((chain2, 500, 0.5), (bundled, 100, 0.05)):
        emb = dyn.embed(model)
        for damping in ("scalar", "velocity"):
            p = dyn.LangevinParams(gamma=0.5, kT=0.3, damping=damping)
            res = dyn.monte_carlo_encoded(emb, p, _encoded_start(model), t,
                                          n_paths=n_paths, seed=9)
            got = (res["second_moment"], res["stderr_real"], res["stderr_imag"])
            for value, ref in zip(got, oracle_encoded_moments(res["finals"])):
                assert value.shape == ref.shape
                # summation order only: 1e-13 of the largest entry
                assert np.abs(value - ref).max() <= 1e-13 * np.abs(ref).max()


def test_encoded_monte_carlo_steps_through_a_sparse_j(monkeypatch):
    model = build_gnm(load_bundled_structure())
    emb = dyn.embed(model)
    emb.operator, model.lambda_max  # cached before counting
    calls, to_dense = [], type(emb.operator).toarray
    monkeypatch.setattr(type(emb.operator), "toarray",
                        lambda self, *a, **k: calls.append(self.shape) or to_dense(self, *a, **k))
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    res = dyn.monte_carlo_encoded(emb, p, _encoded_start(model), 0.05, n_paths=4, seed=3)
    assert calls == []
    assert res["finals"].shape == (4, emb.dim) and res["finals"].flags.c_contiguous


def test_encoded_monte_carlo_memory_does_not_grow_with_paths():
    model = build_gnm(load_bundled_structure())
    emb = dyn.embed(model)
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    x0 = _encoded_start(model)
    emb.operator, emb.spectrum  # cached before tracing
    tracemalloc.start()
    try:
        res = dyn.monte_carlo_encoded(emb, p, x0, 0.05, n_paths=1000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert emb.dim == 199 and res["n_steps"] == 19
    # 37 MiB measured; the (n_paths, dim, dim) outer-product array alone
    # would be 604 MiB
    assert peak < 64 * 2**20


@pytest.mark.parametrize("damping", ["scalar", "velocity"])
def test_langevin_covariance_never_densifies_the_operator(chain2, emb2,
                                                          monkeypatch, damping):
    calls = []
    toarray = scipy.sparse.csr_array.toarray

    def counted(self, *args, **kwargs):
        calls.append(self.shape)
        return toarray(self, *args, **kwargs)

    x0 = _encoded_start(chain2)
    chain2.eigenpairs  # A's one dense eigensolve, cached before counting
    monkeypatch.setattr(scipy.sparse.csr_array, "toarray", counted)
    p = dyn.LangevinParams(gamma=0.5, kT=0.3, damping=damping)
    dyn.evolve_langevin_covariance(emb2, p, np.outer(x0, x0.conj()), 1.0)
    assert calls == []


def test_noiseless_damped_path_matches_analytic():
    m1 = model_from_matrices(np.array([[1.0]]), np.ones(1))
    g = 0.4
    p = dyn.LangevinParams(gamma=g, kT=0.0)
    res = dyn.monte_carlo_langevin(m1, p, [1.0], [0.0], t=5.0, n_paths=2,
                                   seed=5)
    wd = np.sqrt(1.0 - g * g / 4)
    exact = np.exp(-g * 5.0 / 2) * (np.cos(wd * 5.0)
                                    + (g / 2 / wd) * np.sin(wd * 5.0))
    # Euler-Maruyama is first order in h
    assert abs(res["displacements"][0, 0] - exact) < 5 * res["h"]


def test_velocity_variance_reaches_equipartition():
    m1 = model_from_matrices(np.array([[1.0]]), np.ones(1))
    p = dyn.LangevinParams(gamma=1.0, kT=0.25)
    res = dyn.monte_carlo_langevin(m1, p, [0.3], [0.0], t=30.0,
                                   n_paths=6000, seed=17)
    var_v = res["velocities"][:, 0].var(ddof=1)
    se = var_v * np.sqrt(2.0 / (6000 - 1))
    assert abs(var_v - p.kT) <= 3 * se


@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
def test_samplers_reject_a_t_that_is_not_finite_and_nonnegative(chain2, emb2, t):
    # these died in "math domain error", a NaN-to-integer error or OverflowError
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    with pytest.raises(ValueError, match="t must be finite and nonnegative"):
        dyn.monte_carlo_langevin(chain2, p, [0.4, -0.4], [0.0, 0.0], t=t,
                                 n_paths=4, seed=1)
    with pytest.raises(ValueError, match="t must be finite and nonnegative"):
        dyn.monte_carlo_encoded(emb2, p, _encoded_start(chain2), t=t, n_paths=4,
                                seed=1)


def test_samplers_take_t_zero_as_one_empty_step(chain2, emb2):
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    res = dyn.monte_carlo_langevin(chain2, p, [0.4, -0.4], [0.0, 0.2], t=0.0,
                                   n_paths=3, seed=1)
    assert (res["n_steps"], res["h"]) == (1, 0.0)
    assert np.array_equal(res["displacements"], np.tile([0.4, -0.4], (3, 1)))
    x0 = _encoded_start(chain2)
    res = dyn.monte_carlo_encoded(emb2, p, x0, t=0.0, n_paths=3, seed=1)
    assert (res["n_steps"], res["h"]) == (1, 0.0)
    assert np.array_equal(res["finals"], np.tile(x0, (3, 1)))


def test_samplers_reject_too_few_paths(chain2, emb2):
    # n_paths=0 gave a NaN mean or second moment, and one encoded path a
    # non-finite stderr (it divides by n_paths - 1)
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    with pytest.raises(ValueError, match="n_paths must be at least 1, got 0"):
        dyn.monte_carlo_langevin(chain2, p, [0.4, -0.4], [0.0, 0.0], t=0.5,
                                 n_paths=0, seed=1)
    for n_paths in (0, 1):
        with pytest.raises(ValueError, match=f"n_paths must be at least 2, got {n_paths}"):
            dyn.monte_carlo_encoded(emb2, p, _encoded_start(chain2), t=0.5,
                                    n_paths=n_paths, seed=1)
    res = dyn.monte_carlo_langevin(chain2, p, [0.4, -0.4], [0.0, 0.0], t=0.5,
                                   n_paths=1, seed=1)
    assert np.isfinite(res["mean"]).all()


@pytest.mark.parametrize("x0", [np.zeros(2), np.zeros((1, 3))], ids=["short", "2-D"])
def test_encoded_sampler_names_a_wrong_shape_x0(emb2, x0):
    # a short x0 died in a matmul error and a (1, dim) one was taken silently
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    with pytest.raises(ValueError, match=r"x0 has shape .*, expected \(3,\)"):
        dyn.monte_carlo_encoded(emb2, p, x0, t=0.5, n_paths=4, seed=1)


@pytest.mark.parametrize("h", [np.nan, 0.0])
def test_samplers_name_a_step_size_that_is_not_positive(chain2, emb2, h):
    # h = nan died in "cannot convert float NaN to integer"
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    with pytest.raises(ValueError, match="step size h must be positive"):
        dyn.monte_carlo_langevin(chain2, p, [0.4, -0.4], [0.0, 0.0], t=0.5,
                                 n_paths=4, seed=1, h=h)
    with pytest.raises(ValueError, match="step size h must be positive"):
        dyn.monte_carlo_encoded(emb2, p, _encoded_start(chain2), t=0.5, n_paths=4,
                                seed=1, h=h)


@pytest.mark.parametrize("n_paths", [True, 2.5, 4.0])
def test_samplers_name_a_path_count_that_is_not_an_integer(chain2, emb2, n_paths):
    # True ran one path and 2.5 raised an unnamed TypeError
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    with pytest.raises(ValueError, match="n_paths must be an integer"):
        dyn.monte_carlo_langevin(chain2, p, [0.4, -0.4], [0.0, 0.0], t=0.5,
                                 n_paths=n_paths, seed=1)
    with pytest.raises(ValueError, match="n_paths must be an integer"):
        dyn.monte_carlo_encoded(emb2, p, _encoded_start(chain2), t=0.5,
                                n_paths=n_paths, seed=1)


def test_samplers_take_a_numpy_integer_path_count(chain2, emb2):
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    res = dyn.monte_carlo_encoded(emb2, p, _encoded_start(chain2), t=0.5,
                                  n_paths=np.int64(3), seed=1)
    assert res["finals"].shape == (3, emb2.dim)


@pytest.mark.parametrize("T", [np.nan, np.inf, -1.0])
def test_evolve_inhomogeneous_rejects_a_t_that_is_not_finite(chain2, T):
    # T = nan or inf returned an all-NaN history
    with pytest.raises(ValueError, match="need a finite T >= 0"):
        dyn.evolve_inhomogeneous(chain2, [0.1, -0.1], [0.0, 0.0], None, T, 10)


def test_step_size_cap_is_enforced(chain2, emb2):
    p = dyn.LangevinParams(gamma=0.5, kT=0.3)
    st = encode_initial_conditions(chain2, [0.4, -0.4], [0.0, 0.0])
    x0 = st.psi * np.sqrt(2 * st.energy)
    with pytest.raises(ValueError):
        dyn.monte_carlo_encoded(emb2, p, x0, t=1.0, n_paths=4, seed=1, h=0.5)
    with pytest.raises(ValueError):
        dyn.monte_carlo_encoded(emb2, p, x0, t=1.0, n_paths=4, seed=1, h=-1.0)
    m1 = model_from_matrices(np.array([[1.0]]), np.ones(1))
    with pytest.raises(ValueError):
        dyn.monte_carlo_langevin(m1, p, [0.0], [1.0], t=1.0, n_paths=4,
                                 seed=1, h=1.0)
