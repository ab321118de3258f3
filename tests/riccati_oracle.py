"""Finite-horizon Riccati references: the test oracles for the step map
in `control.solve_lqr`.

`backward_riccati` integrates -dP/dt = A^T P + P A - P BRB P + Q, P(T) = S,
by classical RK4 on the right-hand side, so its error is the method's
O(h^4) truncation; `hamiltonian_sweep` is perfbench's `lqr_finite_value`
sweep, the Hamiltonian flow in steps of at most a quarter time unit:
exact up to rounding, on its own coarse grid.
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
