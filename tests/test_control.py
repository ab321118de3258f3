import math
import tracemalloc

import numpy as np
import pytest
import scipy
import scipy.integrate
import scipy.linalg

from gnmqsim import control
from gnmqsim.control import (RESIDUAL_RTOL, ControlProblem, _simpson,
                             simulate_controlled, solve_lqr)
from gnmqsim.errors import NumericalError
from gnmqsim.network import NetworkModel, build_anm, build_gnm, model_from_matrices
from gnmqsim.structure import load_bundled_structure, synthetic_chain

import riccati_oracle


@pytest.fixture(scope="module")
def scalar_problem():
    model = model_from_matrices(np.array([[1.0]]), np.array([1.0]))
    return ControlProblem(model, gamma=0.0, Q=np.array([[1.0]]),
                          R=np.array([[1.0]]))


@pytest.fixture(scope="module")
def scalar_law(scalar_problem):
    return solve_lqr(scalar_problem)


def test_scalar_riccati_matches_hand_derivation(scalar_law):
    # m = k = q = r = 1, gamma = 0: the defect equations reduce to
    # p12^2 + 2 p12 - 1 = 0, p22^2 = 2 p12, p11 = (1 + p12) p22
    p12 = math.sqrt(2.0) - 1.0
    p22 = math.sqrt(2.0 * p12)
    p11 = (1.0 + p12) * p22
    roots = np.roots([1.0, 2.0, -1.0])  # independent route to p12
    assert abs(float(roots[roots > 0][0]) - p12) < 1e-14
    P_oracle = np.array([[p11, p12], [p12, p22]])
    assert np.allclose(scalar_law.riccati, P_oracle, atol=1e-10)
    assert np.allclose(scalar_law.gain, [[p12, p22]], atol=1e-10)


def test_scalar_riccati_matches_scipy(scalar_law):
    P = scipy.linalg.solve_continuous_are(
        np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]]),
        np.diag([1.0, 0.0]), np.array([[1.0]]))
    assert np.allclose(scalar_law.riccati, P, atol=1e-10)


def test_zero_cost_stable_problem_needs_no_feedback():
    K = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    prob = ControlProblem(model_from_matrices(K, np.ones(3)), gamma=0.5,
                          Q=np.zeros((3, 3)))
    law = solve_lqr(prob)
    assert np.linalg.norm(law.gain) < 1e-9
    assert np.linalg.norm(law.riccati) < 1e-9


def test_random_problem_matches_scipy():
    rng = np.random.default_rng(42)
    K = rng.normal(size=(4, 4))
    K = K @ K.T + 0.5 * np.eye(4)
    masses = rng.uniform(0.5, 2.0, size=4)
    prob = ControlProblem(model_from_matrices(K, masses), gamma=0.3)
    law = solve_lqr(prob)
    A, B = prob.state_matrices()
    Qz = prob.state_cost()
    P = scipy.linalg.solve_continuous_are(A, B, Qz, prob.R)
    assert np.allclose(law.riccati, P, rtol=1e-8, atol=1e-10)
    assert np.linalg.eigvals(law.closed_loop).real.max() < 0
    assert law.residual <= RESIDUAL_RTOL * np.linalg.norm(Qz, "fro")


def test_free_chain_value_function_ignores_rigid_motion():
    chain = build_gnm(synthetic_chain(3))
    prob = ControlProblem(chain, gamma=1.0)  # defaults Q = K, R = 1e-2 I
    law = solve_lqr(prob)
    Qz = prob.state_cost()
    assert law.residual <= RESIDUAL_RTOL * np.linalg.norm(Qz, "fro")
    ones = np.ones(3) / math.sqrt(3)
    rigid_u = np.concatenate([ones, np.zeros(3)])
    rigid_v = np.concatenate([np.zeros(3), ones])
    assert np.linalg.norm(law.riccati @ rigid_u) < 1e-12
    assert np.linalg.norm(law.riccati @ rigid_v) < 1e-12
    assert np.linalg.norm(law.gain @ rigid_u) < 1e-12
    # closed loop: one rigid zero, one damped rigid rate, rest strictly stable
    eigs = np.sort(np.linalg.eigvals(law.closed_loop).real)
    assert eigs[-1] < 1e-10
    assert (np.abs(eigs) < 1e-10).sum() == 1
    assert eigs[np.abs(eigs) > 1e-10].max() < -1e-3
    assert np.linalg.eigvalsh(law.riccati)[0] >= -1e-12


def test_penalized_rigid_mode_is_driven_to_rest():
    # Q = I puts weight on the translation too; it is controllable, so the
    # full-space solve must succeed with a strictly stable loop
    chain = build_gnm(synthetic_chain(3))
    law = solve_lqr(ControlProblem(chain, gamma=0.0, Q=np.eye(3)))
    assert np.linalg.eigvals(law.closed_loop).real.max() < -1e-4


def test_non_uniform_masses_solve_or_fail_honestly():
    # non-uniform masses, or a Q that is the chain's Laplacian without
    # contact 4-5, couple A's modes and leave the translation cost-free, so
    # the full-space solve takes them; it may find a certified solution,
    # but must never return an uncertified one
    chain = build_gnm(synthetic_chain(3))
    model = model_from_matrices(chain.K, np.array([1.0, 2.0, 3.0]))
    ten = build_gnm(synthetic_chain(10))
    cut = ten.K.copy()
    cut[4:6, 4:6] -= np.array([[1.0, -1.0], [-1.0, 1.0]])
    for prob in (ControlProblem(model, gamma=1.0), ControlProblem(ten, gamma=1.0, Q=cut)):
        try:
            law = solve_lqr(prob)
        except NumericalError:
            continue
        assert law.residual <= RESIDUAL_RTOL * np.linalg.norm(prob.state_cost(),
                                                              "fro")
        assert np.linalg.eigvals(law.closed_loop).real.max() <= 1e-8


def test_zero_start_costs_nothing(scalar_problem, scalar_law):
    sim = simulate_controlled(scalar_problem, scalar_law, np.zeros(1),
                              np.zeros(1), T=5.0)
    assert sim["cost"] == 0.0
    assert np.all(sim["displacements"] == 0.0)
    assert np.all(sim["forces"] == 0.0)


def test_accumulated_cost_matches_value_function(scalar_problem, scalar_law):
    z0u, z0v = np.array([1.3]), np.array([-0.4])
    abscissa = np.linalg.eigvals(scalar_law.closed_loop).real.max()
    T = 50.0 / abs(abscissa)
    sim = simulate_controlled(scalar_problem, scalar_law, z0u, z0v, T=T,
                              n_steps=4000)
    z0 = np.concatenate([z0u, z0v])
    J_pred = 0.5 * z0 @ scalar_law.riccati @ z0
    assert abs(sim["cost"] - J_pred) / J_pred < 1e-6
    # value function is a Lyapunov function along the optimal trajectory
    dv = np.diff(sim["value"])
    assert (dv <= 1e-12 * sim["value"][0]).all()


def test_finite_horizon_terminal_condition_and_convergence(scalar_problem):
    S = np.array([[2.0]])
    model = scalar_problem.model
    prob = ControlProblem(model, gamma=0.0, Q=np.array([[1.0]]),
                          R=np.array([[1.0]]), S=S, horizon=30.0)
    law = solve_lqr(prob, n_steps=3000)
    assert law.times is not None and law.gains is not None
    # gain at T comes from diag(S, 0): B^T picks the (zero) velocity row
    assert np.allclose(law.gain_at(30.0), [[0.0, 0.0]], atol=1e-12)
    assert np.allclose(law.gain_at(45.0), law.gain_at(30.0), atol=0)
    # a 30x-the-time-constant horizon recovers the stationary solution
    stationary = solve_lqr(scalar_problem)
    assert np.allclose(law.riccati, stationary.riccati, atol=1e-6)
    z0u, z0v = np.array([1.3]), np.array([-0.4])
    sim = simulate_controlled(prob, law, z0u, z0v, T=30.0, n_steps=3000)
    z0 = np.concatenate([z0u, z0v])
    J_pred = 0.5 * z0 @ law.riccati @ z0
    assert abs(sim["cost"] - J_pred) / J_pred < 1e-4


# scipy before 1.11 averaged the first- and last-interval rules for an even
# point count; _simpson follows the Cartwright correction that replaced it
OLD_EVEN_RULE = tuple(map(int, scipy.__version__.split(".")[:2])) < (1, 11)


@pytest.mark.parametrize("n", range(2, 61))
def test_simpson_equals_scipy_bit_for_bit(n):
    if n % 2 == 0 and OLD_EVEN_RULE:
        pytest.skip("scipy < 1.11 uses the averaged even-count rule")
    rng = np.random.default_rng(n)
    for span in (1e-3, 0.37, 10.0, 30.0, 1234.5):
        for x in (np.linspace(0.0, span, n), np.sort(rng.uniform(0.0, span, n))):
            y = rng.normal(size=n) * rng.uniform(0.1, 100.0)
            assert _simpson(y, x) == scipy.integrate.simpson(y, x=x)


def test_gain_schedule_interpolates_between_grid_points(scalar_problem):
    prob = ControlProblem(scalar_problem.model, gamma=0.0,
                          Q=np.array([[1.0]]), R=np.array([[1.0]]),
                          horizon=4.0)
    law = solve_lqr(prob, n_steps=40)
    t_mid = 0.5 * (law.times[3] + law.times[4])
    expected = 0.5 * (law.gains[3] + law.gains[4])
    assert np.allclose(law.gain_at(float(t_mid)), expected, atol=1e-14)
    assert np.array_equal(law.gain_at(-1.0), law.gains[0])


def test_ten_residue_chain_reaches_rest_at_predicted_cost():
    chain = build_gnm(synthetic_chain(10))
    prob = ControlProblem(chain, gamma=1.0)
    law = solve_lqr(prob)
    idx = np.arange(10, dtype=float)
    u0 = 0.5 * (idx - idx.mean())
    v0 = np.zeros(10)
    eigs = np.linalg.eigvals(law.closed_loop).real
    rate = eigs[np.abs(eigs) > 1e-10].max()
    T = 50.0 / abs(rate)
    sim = simulate_controlled(prob, law, u0, v0, T=T, n_steps=4000)
    E = sim["energy"]
    assert E[-1] <= 1e-6 * E[0]
    z0 = np.concatenate([u0, v0])
    J_pred = 0.5 * z0 @ law.riccati @ z0
    assert abs(sim["cost"] - J_pred) / J_pred < 1e-4
    assert law.residual <= RESIDUAL_RTOL * np.linalg.norm(prob.state_cost(),
                                                          "fro")
    # after the initial transient the energy envelope only decays: every
    # local maximum sits below the previous one
    peaks = [E[i] for i in range(1, len(E) - 1)
             if E[i] >= E[i - 1] and E[i] > E[i + 1]
             and E[i] > 1e-12 * E[0]]
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


def test_problem_validation_rejects_bad_weights():
    model = model_from_matrices(np.array([[1.0]]), np.array([1.0]))
    chain = build_gnm(synthetic_chain(2))
    with pytest.raises(ValueError):
        ControlProblem(model, R=0.0)  # R must be PD
    with pytest.raises(ValueError):
        ControlProblem(model, R=-1.0)
    with pytest.raises(ValueError):
        ControlProblem(model, Q=np.array([[-1.0]]))  # Q must be PSD
    with pytest.raises(ValueError):
        ControlProblem(chain, Q=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        ControlProblem(model, gamma=-0.5)
    with pytest.raises(ValueError):
        ControlProblem(chain, gamma=np.array([[0.1, 0.2], [0.0, 0.1]]))
    with pytest.raises(ValueError):
        ControlProblem(model, horizon=0.0)
    with pytest.raises(ValueError):
        ControlProblem(model, horizon=-2.0)
    with pytest.raises(ValueError):
        ControlProblem(chain, Q=np.eye(3))  # shape mismatch


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_problem_names_weights_and_damping_that_are_not_finite(value):
    # these died in scipy ("array must not contain infs or NaNs"), were
    # called asymmetric, or (an inf damping matrix) were taken
    model = model_from_matrices(np.array([[1.0]]), np.array([1.0]))
    for name in ("Q", "R", "S"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ControlProblem(model, **{name: value})
    with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
        ControlProblem(model, gamma=value)
    with pytest.raises(ValueError, match="matrix gamma must be finite"):
        ControlProblem(build_gnm(synthetic_chain(2)), gamma=np.full((2, 2), value))


@pytest.mark.parametrize("T", [math.inf, math.nan])
def test_simulation_names_a_t_that_is_not_finite(scalar_problem, scalar_law, T):
    # T = inf returned NaN arrays with RuntimeWarnings
    with pytest.raises(ValueError, match="need a finite T > 0"):
        simulate_controlled(scalar_problem, scalar_law, [1.0], [0.0], T=T)


def test_finite_horizon_solve_names_a_step_count_below_one(scalar_problem):
    # n_steps = 0 raised ZeroDivisionError
    prob = ControlProblem(scalar_problem.model, Q=1.0, R=1.0, horizon=2.0)
    with pytest.raises(ValueError, match="n_steps must be at least 1, got 0"):
        solve_lqr(prob, n_steps=0)


@pytest.mark.parametrize("n_steps", [2.5, True])
def test_finite_horizon_solve_names_a_step_count_that_is_not_an_integer(
        scalar_problem, n_steps):
    # 2.5 raised an unnamed TypeError from numpy; True ran one step
    prob = ControlProblem(scalar_problem.model, Q=1.0, R=1.0, horizon=2.0)
    with pytest.raises(ValueError, match=f"n_steps must be an integer, got {n_steps}"):
        solve_lqr(prob, n_steps=n_steps)


@pytest.mark.parametrize("n_steps", [2.5, True])
def test_simulation_names_a_step_count_that_is_not_an_integer(
        scalar_problem, scalar_law, n_steps):
    with pytest.raises(ValueError, match=f"n_steps must be an integer, got {n_steps}"):
        simulate_controlled(scalar_problem, scalar_law, [1.0], [0.0], T=1.0,
                            n_steps=n_steps)


def test_state_matrices_shapes_and_content():
    chain = build_gnm(synthetic_chain(4))
    prob = ControlProblem(chain, gamma=0.7)
    A, B = prob.state_matrices()
    assert A.shape == (8, 8) and B.shape == (8, 4)
    assert np.array_equal(A[:4, 4:], np.eye(4))
    assert np.allclose(A[4:, :4], -chain.K)  # unit masses
    assert np.allclose(A[4:, 4:], -0.7 * np.eye(4))
    assert np.allclose(B[4:], np.eye(4))
    Qz = prob.state_cost()
    assert np.array_equal(Qz[:4, :4], prob.Q)
    assert np.all(Qz[4:, :] == 0) and np.all(Qz[:, 4:] == 0)


RICCATI_MODELS = {
    "chain-20": lambda: build_gnm(synthetic_chain(20)),
    "bundled-gnm": lambda: build_gnm(load_bundled_structure()),
}


def _relative(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("key", RICCATI_MODELS)
def test_step_map_matches_rk4_and_the_fine_sweep(key):
    # the gamma, weights and horizon of `gnmqsim control --horizon 10`
    prob = ControlProblem(RICCATI_MODELS[key](), gamma=1.0, horizon=10.0)
    law = solve_lqr(prob, n_steps=2000)
    A, BRB, Qz, Sz, RB = riccati_oracle.problem_terms(prob)
    rk4 = riccati_oracle.backward_riccati(A, BRB, Qz, Sz, 10.0, 2000)
    assert _relative(law.riccati, rk4[0]) <= 1e-12
    # relative Frobenius over the whole schedule; RK4's O(h^4) truncation
    # is most of this difference
    assert _relative(law.gains, RB @ rk4) <= 1e-8
    # the sweep's 40 quarter-unit steps land on every 50th grid point; the
    # step map must be at least as close to that exact-flow reference
    fine = RB @ riccati_oracle.hamiltonian_sweep(A, BRB, Qz, Sz, 10.0)
    assert (_relative(law.gains[::50], fine)
            <= _relative((RB @ rk4)[::50], fine))


def test_step_map_gains_are_closer_than_rk4_to_rk4_at_eight_times_the_steps():
    prob = ControlProblem(RICCATI_MODELS["chain-20"](), gamma=1.0, horizon=10.0)
    law = solve_lqr(prob, n_steps=2000)
    A, BRB, Qz, Sz, RB = riccati_oracle.problem_terms(prob)
    rk4 = RB @ riccati_oracle.backward_riccati(A, BRB, Qz, Sz, 10.0, 2000)
    fine = RB @ riccati_oracle.backward_riccati(A, BRB, Qz, Sz, 10.0, 16000)[::8]
    assert _relative(law.gains, fine) <= _relative(rk4, fine)


def test_finite_horizon_solve_keeps_no_riccati_grid():
    prob = ControlProblem(build_gnm(synthetic_chain(30)), gamma=1.0,
                          horizon=10.0)
    tracemalloc.start()
    try:
        law = solve_lqr(prob, n_steps=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (2001, 60, 60) P grid beside the (2001, 30, 60) gains would be 3x
    assert peak < 1.5 * law.gains.nbytes


def _per_step_states(problem, law, z0, T, n_steps):
    """simulate_controlled's states and forces with an exponential per step
    for a scheduled law and one for a stationary law, recomputed as the
    loop did before it reused held-gain steps."""
    n = problem.n_dof
    A, B = problem.state_matrices()
    h = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    states = np.empty((n_steps + 1, 2 * n))
    states[0] = z0
    if law.times is None:
        step = scipy.linalg.expm(law.closed_loop * h)
        for k in range(n_steps):
            states[k + 1] = step @ states[k]
        forces = -(states @ law.gain.T)
    else:
        for k in range(n_steps):
            G_mid = law.gain_at(times[k] + 0.5 * h)
            step = scipy.linalg.expm((A - B @ G_mid) * h)
            states[k + 1] = step @ states[k]
        forces = np.empty((n_steps + 1, n))
        for k in range(n_steps + 1):
            forces[k] = -(law.gain_at(times[k]) @ states[k])
    return states, forces


@pytest.mark.parametrize("horizon", [4.0, math.inf])
def test_held_gain_reuse_is_bit_identical_to_a_per_step_exponential(horizon):
    # non-uniform masses couple A's modes in the weights, so the finite law
    # takes the dense step map and the dense held-gain loop this pins; Q = I
    # penalizes the translation, which the stationary full-space solve needs
    chain = build_gnm(synthetic_chain(10))
    model = model_from_matrices(chain.K, np.linspace(1.0, 2.0, 10))
    prob = ControlProblem(model, gamma=1.0, Q=np.eye(10), S=np.eye(10),
                          horizon=horizon)
    law = solve_lqr(prob, n_steps=400)
    idx = np.arange(10, dtype=float)
    z0 = np.concatenate([0.5 * (idx - idx.mean()), 0.1 * np.cos(idx)])
    # T = 10 runs 60% of a finite law's steps past its horizon
    sim = simulate_controlled(prob, law, z0[:10], z0[10:], T=10.0, n_steps=500)
    states, forces = _per_step_states(prob, law, z0, 10.0, 500)
    assert np.array_equal(sim["displacements"], states[:, :10])
    assert np.array_equal(sim["velocities"], states[:, 10:])
    assert np.array_equal(sim["forces"], forces)


def test_held_gain_steps_take_one_exponential_past_the_horizon(monkeypatch):
    # non-uniform masses: the dense held-gain loop, as in the test above
    chain = build_gnm(synthetic_chain(6))
    model = model_from_matrices(chain.K, np.linspace(1.0, 2.0, 6))
    prob = ControlProblem(model, gamma=1.0, horizon=2.0)
    law = solve_lqr(prob, n_steps=100)
    calls = []
    exact = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm",
                        lambda M: calls.append(1) or exact(M))
    simulate_controlled(prob, law, np.linspace(-1, 1, 6), np.zeros(6),
                        T=8.0, n_steps=400)
    # 100 steps before t = 2 interpolate the schedule, the other 300 hold
    # the terminal gain
    assert len(calls) == 101


# -- the stationary route: a closed-form root per mode, else one full-space solve --

def test_soft_springs_deflate_only_the_models_rigid_mode():
    # every eigenvalue of this K lies below 1e-8: an absolute zero floor
    # takes all ten modes for rigid, the model's inertia count one
    chain = build_gnm(synthetic_chain(10), cutoff=7.0, spring=1e-9)
    assert chain.zero_count == 1 and np.linalg.eigvalsh(chain.K)[-1] < 1e-8
    prob = ControlProblem(chain, gamma=1.0, R=1e-2)
    law = solve_lqr(prob)
    A, B = prob.state_matrices()
    BRB = B @ np.linalg.inv(prob.R) @ B.T
    # the acceptance bound: RESIDUAL_RTOL ||Qz|| and the absolute floor
    # that lets a zero-cost problem keep its exact P = 0
    tol = RESIDUAL_RTOL * np.linalg.norm(prob.state_cost()) + 1e-12 * (
        np.linalg.norm(A) ** 2 + np.linalg.norm(BRB))
    assert law.residual <= tol
    P = law.riccati
    assert np.linalg.eigvalsh(P)[0] >= -1e-12 * np.linalg.norm(P)
    eigs = np.sort(np.linalg.eigvals(law.closed_loop).real)
    assert eigs[-1] <= 1e-12
    # the translation keeps one zero and one damped rate; every other mode decays
    assert (np.abs(eigs) < 1e-12).sum() == 1 and eigs[-2] < 0
    ones = np.ones(10) / math.sqrt(10)
    for rigid in (np.concatenate([ones, np.zeros(10)]),
                  np.concatenate([np.zeros(10), ones])):
        assert np.linalg.norm(P @ rigid) <= 1e-12 * np.linalg.norm(P)


def test_contact_free_model_has_the_zero_law():
    model = model_from_matrices(np.zeros((3, 3)), np.ones(3))
    law = solve_lqr(ControlProblem(model, gamma=1.0))
    finite = solve_lqr(ControlProblem(model, gamma=1.0, horizon=10.0))
    assert np.array_equal(law.riccati, np.zeros((6, 6)))
    assert np.array_equal(law.gain, np.zeros((3, 6)))
    assert np.array_equal(law.riccati, finite.riccati)
    assert law.residual == 0.0


@pytest.mark.parametrize("build", [lambda: build_gnm(synthetic_chain(10)),
                                   lambda: build_anm(load_bundled_structure())],
                         ids=["chain-10", "bundled-anm"])
def test_stationary_solve_runs_one_schur_solve(monkeypatch, build):
    # non-uniform masses couple A's modes in the weights, so the law is one
    # full-space Schur solve; Q = I penalizes the rigid modes, which it needs
    calls = []
    schur_care = control._schur_care
    monkeypatch.setattr(control, "_schur_care",
                        lambda *a: calls.append(a[0].shape) or schur_care(*a))
    free = build()
    n = free.n_dof
    model = model_from_matrices(free.K, np.linspace(1.0, 2.0, n))
    solve_lqr(ControlProblem(model, gamma=1.0, Q=np.eye(n)))
    assert calls == [(2 * n, 2 * n)]


def test_soft_spring_law_solves_its_riccati_equation_to_rounding():
    # the full-space Schur solve left a CARE defect of 1.7e-7 of the
    # equation's term scale here; each mode's closed-form root leaves rounding
    chain = build_gnm(synthetic_chain(10), cutoff=7.0, spring=1e-9)
    prob = ControlProblem(chain, gamma=1.0, R=1e-2)
    P = solve_lqr(prob).riccati
    A, B = prob.state_matrices()
    BRB, Qz = B @ np.linalg.inv(prob.R) @ B.T, prob.state_cost()
    scale = sum(np.linalg.norm(X) for X in (A.T @ P, P @ A, P @ BRB @ P, Qz))
    assert control._care_residual(P, A, BRB, Qz) <= 1e-12 * scale


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 2.0])
def test_mode_roots_match_scipy_at_any_sign_of_damping(gamma):
    # a damping matrix may be indefinite; the stabilizing root still exists
    K = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    prob = ControlProblem(model_from_matrices(K, np.ones(3)), gamma=gamma * np.eye(3),
                          Q=np.eye(3), R=0.3)
    law = solve_lqr(prob)
    assert isinstance(law, control.ModeLaw)
    A, B = prob.state_matrices()
    P = scipy.linalg.solve_continuous_are(A, B, prob.state_cost(), prob.R)
    assert _relative(law.riccati, P) <= 1e-12
    assert np.linalg.eigvals(law.closed_loop).real.max() < 0


def test_mode_certificate_names_the_mode_and_its_defect(monkeypatch):
    # one elastic mode's root off by 1e-6, far past RESIDUAL_RTOL of its scale
    exact = control._mode_care
    off = np.where(np.arange(6) == 3, 1 + 1e-6, 1.0)[:, None, None]
    monkeypatch.setattr(control, "_mode_care", lambda *a: off * exact(*a))
    with pytest.raises(NumericalError, match=r"mode 3's CARE defect \S+ exceeds 1e-08 "
                       r"of its term scale \S+"):
        solve_lqr(ControlProblem(build_gnm(synthetic_chain(6)), gamma=1.0))


def test_unstabilizable_problem_names_the_stable_count():
    # no damping and no cost: the Hamiltonian's eigenvalues lie on the
    # imaginary axis, so the strictly stable subspace is short of 4
    model = model_from_matrices(np.array([[2.0, -1.0], [-1.0, 2.0]]), np.ones(2))
    with pytest.raises(NumericalError, match=r"\d+ strictly stable eigenvalues, "
                       r"not the state dimension 4"):
        solve_lqr(ControlProblem(model, gamma=0.0, Q=np.zeros((2, 2))))


def test_certificate_names_the_failed_check_and_its_value(scalar_problem, scalar_law):
    A, B = scalar_problem.state_matrices()
    BRB, Qz = B @ B.T, scalar_problem.state_cost()
    P = scalar_law.riccati
    assert control._certify(P, A, BRB, Qz, 1e-8) == scalar_law.residual
    with pytest.raises(NumericalError, match=r"CARE residual \S+ exceeds 1e-08"):
        control._certify(1.01 * P, A, BRB, Qz, 1e-8)
    # the anti-stabilizing solution, from the unstable invariant subspace
    ham = np.block([[A, -BRB], [-Qz, -A.T]])
    Z = scipy.linalg.schur(ham, output="real", sort="rhp")[1]
    anti = np.linalg.solve(Z[:2, :2].T, Z[2:, :2].T).T
    with pytest.raises(NumericalError, match=r"P's least eigenvalue -\S+ is below"):
        control._certify(0.5 * (anti + anti.T), A, BRB, Qz, 1e-8)
    # x' = x + f with no cost: P = 0 solves the CARE, but leaves x unstable
    with pytest.raises(NumericalError, match=r"closed-loop spectral abscissa 1 exceeds"):
        control._certify(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
                         np.zeros((1, 1)), 1e-8)


# -- the finite horizon in A's modes: commuting weights, one 2x2 law per mode --

def _cli_start(n):
    idx = np.arange(n, dtype=float)
    u0 = 0.5 * (idx - idx.mean())
    return u0 / max(np.linalg.norm(u0), 1.0), np.zeros(n)


@pytest.mark.parametrize("key, horizon", [(key, 10.0) for key in RICCATI_MODELS]
                         + [(key, math.inf) for key in RICCATI_MODELS],
                         ids=[*RICCATI_MODELS, *(f"{key}-stationary" for key in RICCATI_MODELS)])
def test_mode_law_matches_the_dense_step_map(key, horizon):
    # `gnmqsim control`'s problem, with --horizon 10 and without: unit
    # masses, scalar gamma, Q = K, R = 1e-2 I, S = 0, so every weight is
    # diagonal in A's modes; the stationary law against the deflated CARE
    prob = ControlProblem(RICCATI_MODELS[key](), gamma=1.0, horizon=horizon)
    law = solve_lqr(prob, n_steps=2000)
    assert isinstance(law, control.ModeLaw)
    if prob.is_finite_horizon:
        gains, P0 = riccati_oracle.dense_step_map(prob, 2000)
        assert _relative(law.gains, gains) <= 1e-12
    else:
        gain, P0 = riccati_oracle.deflated_care(prob)
        assert _relative(law.gain, gain) <= 1e-12
    assert _relative(law.riccati, P0) <= 1e-12
    u0, v0 = _cli_start(prob.n_dof)
    sim = simulate_controlled(prob, law, u0, v0, T=20.0, n_steps=2000)
    states, forces = _per_step_states(prob, law, np.concatenate([u0, v0]), 20.0, 2000)
    assert _relative(np.hstack([sim["displacements"], sim["velocities"]]), states) <= 1e-12
    assert _relative(sim["forces"], forces) <= 1e-12
    ref = riccati_oracle.dense_simulation(prob, law, u0, v0, 20.0, 2000)
    for name in ("energy", "value"):
        assert _relative(sim[name], ref[name]) <= 1e-12
    assert abs(sim["cost"] - ref["cost"]) <= 1e-12 * ref["cost"]


def test_mode_law_leaves_the_rigid_modes_exactly_alone():
    model = build_anm(load_bundled_structure())
    rigid = model.zero_modes
    assert rigid.sum() == 6
    for horizon in (10.0, math.inf):
        prob = ControlProblem(model, gamma=1.0, horizon=horizon)
        law = solve_lqr(prob)
        assert np.all(law.lam[rigid] == 0.0)
        assert np.all(law.coeffs[:, rigid] == 0.0)
        assert np.all(law.P0[rigid] == 0.0)
        sim = simulate_controlled(prob, law, *_cli_start(model.n_dof), T=20.0)
        assert np.all(sim["energy"] >= 0.0)


def test_commuting_problem_builds_no_dense_state_form(monkeypatch):
    calls = []

    def spy(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    monkeypatch.setattr(ControlProblem, "state_matrices",
                        spy("state_matrices", ControlProblem.state_matrices))
    monkeypatch.setattr(control, "_care_residual", spy("_care_residual", control._care_residual))
    monkeypatch.setattr(scipy.linalg, "expm", spy("expm", scipy.linalg.expm))
    monkeypatch.setattr(NetworkModel, "zero_count", property(
        spy("zero_count", vars(NetworkModel)["zero_count"].func)))
    monkeypatch.setattr(control, "_schur_care", spy("_schur_care", control._schur_care))
    for model in (build_gnm(synthetic_chain(20)), build_anm(load_bundled_structure())):
        for horizon in (10.0, math.inf):
            prob = ControlProblem(model, gamma=1.0, horizon=horizon)
            law = solve_lqr(prob)
            simulate_controlled(prob, law, *_cli_start(model.n_dof), T=20.0)
    # one batched exponential per finite solve, none per simulated step, and
    # none, nor any other call, for a stationary solve and its simulation
    assert calls == ["expm", "expm"]


def test_non_commuting_problem_keeps_the_dense_loop_bit_for_bit():
    chain = build_gnm(synthetic_chain(10))
    model = model_from_matrices(chain.K, np.linspace(1.0, 2.0, 10))
    prob = ControlProblem(model, gamma=1.0, S=np.eye(10), horizon=4.0)
    law = solve_lqr(prob, n_steps=400)
    assert not isinstance(law, control.ModeLaw)
    gains, P0 = riccati_oracle.dense_step_map(prob, 400)
    assert np.array_equal(law.gains, gains) and np.array_equal(law.riccati, P0)
    u0, v0 = _cli_start(10)
    sim = simulate_controlled(prob, law, u0, v0, T=10.0, n_steps=500)
    ref = riccati_oracle.dense_simulation(prob, law, u0, v0, 10.0, 500)
    for name, value in ref.items():
        assert np.array_equal(sim[name], value), name


@pytest.mark.parametrize("eps, modal", [(1e-13, True), (1e-6, False)])
def test_mode_route_drops_only_couplings_below_the_stated_tolerance(eps, modal):
    # a damping matrix gamma I + eps C, C coupling A's modes
    chain = build_gnm(synthetic_chain(8))
    couple = np.zeros((8, 8))
    couple[0, 1] = couple[1, 0] = 1.0
    prob = ControlProblem(chain, gamma=np.eye(8) + eps * couple, horizon=5.0)
    law = solve_lqr(prob, n_steps=200)
    assert isinstance(law, control.ModeLaw) is modal
    gains, P0 = riccati_oracle.dense_step_map(prob, 200)
    assert _relative(law.riccati, P0) <= 1e-12


def test_scalar_weights_are_checked_without_an_eigensolve(monkeypatch):
    model = build_gnm(synthetic_chain(4))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M.shape) or eigvalsh(M))
    prob = ControlProblem(model, R=1e-2, S=0.5)
    assert calls == [(4, 4)]            # Q = K alone, a matrix
    assert np.array_equal(prob.R, 1e-2 * np.eye(4))
    assert np.array_equal(prob.S, 0.5 * np.eye(4))
    for value in (0.0, -1.0):
        with pytest.raises(ValueError) as scalar:
            ControlProblem(model, R=value)
        with pytest.raises(ValueError) as matrix:
            ControlProblem(model, R=value * np.eye(4))
        assert str(scalar.value) == str(matrix.value)
        assert str(scalar.value) == f"R must be positive definite (min eig {value:g})"
