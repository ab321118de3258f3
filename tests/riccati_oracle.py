"""Finite-horizon Riccati references: the test oracles for the step map
in `control.solve_lqr`.

`backward_riccati` integrates -dP/dt = A^T P + P A - P BRB P + Q, P(T) = S,
by classical RK4 on the right-hand side, so its error is the method's
O(h^4) truncation; `hamiltonian_sweep` is perfbench's `lqr_finite_value`
sweep, the Hamiltonian flow in steps of at most a quarter time unit:
exact up to rounding, on its own coarse grid.  `dense_step_map` and
`dense_simulation` are the dense finite-horizon law and simulation in
the 2n-state form, the references for the route in A's modes, and
`deflated_care` is the stationary reference: scipy's CARE solver on the
non-rigid modes.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def backward_riccati(A, BRB, Qz, Sz, T: float, n_steps: int) -> np.ndarray:
    """RK4 integration of -dP/dt = A^T P + P A - P BRB P + Q, P(T) = S.

    Integrates in tau = T - t; returns P on the ascending-in-t grid."""

    def rhs(P):
        P = 0.5 * (P + P.T)
        return A.T @ P + P @ A - P @ BRB @ P + Qz

    h = T / n_steps
    P = Sz.copy()
    out = np.empty((n_steps + 1,) + Sz.shape)
    out[n_steps] = P
    for k in range(n_steps, 0, -1):
        k1 = rhs(P)
        k2 = rhs(P + 0.5 * h * k1)
        k3 = rhs(P + 0.5 * h * k2)
        k4 = rhs(P + h * k3)
        P = P + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        P = 0.5 * (P + P.T)
        out[k - 1] = P
    return out


def hamiltonian_sweep(A, BRB, Qz, Sz, T: float) -> np.ndarray:
    """P by [X; Y] -> expm(-Ham h) [X; Y], P = Y X^-1, in ceil(4T) equal
    steps h <= 1/4; returns P on that ascending-in-t grid."""
    m = A.shape[0]
    ham = np.block([[A, -BRB], [-Qz, -A.T]])
    steps = max(1, math.ceil(4 * T))
    back = scipy.linalg.expm(-ham * (T / steps))
    out = np.empty((steps + 1, m, m))
    out[steps] = P = Sz
    for k in range(steps, 0, -1):
        XY = back @ np.vstack([np.eye(m), P])
        P = np.linalg.solve(XY[:m].T, XY[m:].T).T
        out[k - 1] = P = 0.5 * (P + P.T)
    return out


def problem_terms(problem):
    """(A, BRB, Qz, Sz, R^-1 B^T) of a finite-horizon ControlProblem."""
    A, B = problem.state_matrices()
    n = problem.n_dof
    Rinv = np.linalg.inv(problem.R)
    Sz = np.zeros((2 * n, 2 * n))
    Sz[:n, :n] = problem.S
    return A, B @ Rinv @ B.T, problem.state_cost(), Sz, Rinv @ B.T


def dense_step_map(problem, n_steps: int):
    """(gains, P(0)) of the dense finite-horizon step map in the 2n-state
    form, as `solve_lqr` ran it for every finite problem before the route in
    A's modes: P(t - h) = Y X^-1 with [X; Y] = expm(-Ham h) [I; P(t)]."""
    A, BRB, Qz, Sz, RB = problem_terms(problem)
    m = A.shape[0]
    P = Sz
    gains = np.empty((n_steps + 1,) + RB.shape)
    gains[n_steps] = RB @ P
    ham = np.block([[A, -BRB], [-Qz, -A.T]])
    back = scipy.linalg.expm(-ham * (problem.horizon / n_steps))
    for k in range(n_steps - 1, -1, -1):
        XY = back[:, :m] + back[:, m:] @ P
        P = np.linalg.solve(XY[:m].T, XY[m:].T).T
        P = 0.5 * (P + P.T)
        gains[k] = RB @ P
    return gains, P


def deflated_care(problem):
    """(gain, P) of a stationary problem as `solve_lqr` solved it before the
    route in A's modes: eigh(K) split at A's dense inertia count of zero
    modes (`inertia_oracle`), `scipy.linalg.solve_continuous_are` on the
    2n x 2c lift onto the other modes, and P lifted back, zero on the rigid
    ones.  Exact for cost-free rigid modes that the masses and damping keep
    apart, as with unit masses, scalar damping and Q = K."""
    from inertia_oracle import dense_zero_count
    model = problem.model
    A, B = problem.state_matrices()
    n_zero = dense_zero_count(model.A.toarray(), model.lambda_max)
    Vc = np.linalg.eigh(model.K)[1][:, n_zero:]
    n, c = Vc.shape
    lift = np.zeros((2 * n, 2 * c))
    lift[:n, :c] = lift[n:, c:] = Vc
    P = lift @ scipy.linalg.solve_continuous_are(
        lift.T @ A @ lift, lift.T @ B, lift.T @ problem.state_cost() @ lift,
        problem.R) @ lift.T
    return np.linalg.solve(problem.R, B.T) @ P, P


def dense_simulation(problem, law, u0, v0, T: float, n_steps: int) -> dict:
    """`simulate_controlled` as it ran for every finite law before the route
    in A's modes, in the 2n-state form, with one expm((A - B G) h) per step
    (bit for bit the held-gain reuse) and the cost by `control._simpson`."""
    from gnmqsim.control import _simpson
    n = problem.n_dof
    A, B = problem.state_matrices()
    h = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    states = np.empty((n_steps + 1, 2 * n))
    states[0, :n] = u0
    states[0, n:] = v0
    for k in range(n_steps):
        step = scipy.linalg.expm((A - B @ law.gain_at(times[k] + 0.5 * h)) * h)
        states[k + 1] = step @ states[k]
    forces = np.empty((n_steps + 1, n))
    for k in range(n_steps + 1):
        forces[k] = -(law.gain_at(times[k]) @ states[k])
    disp = states[:, :n]
    energy = np.einsum("ti,ij,tj->t", disp, problem.Q, disp)
    effort = np.einsum("ti,ij,tj->t", forces, problem.R, forces)
    cost = 0.5 * float(_simpson(energy + effort, times))
    if T >= problem.horizon * (1 - 1e-12):
        cost += 0.5 * float(disp[-1] @ problem.S @ disp[-1])
    return {"displacements": disp, "velocities": states[:, n:], "forces": forces,
            "energy": energy, "value": np.einsum("ti,ij,tj->t", states, law.riccati, states),
            "cost": cost}
